// The benchmark's three workloads and the per-layer probes they share.
//
//  * serve_dyhsl    — open-loop Poisson requests through
//                     ForecastRouter::Submit to one paper-default DyHSL
//                     engine (router, engine queue, micro-batcher).
//  * fleet_sessions — a closed tick loop over two session fleets on one
//                     SessionManager: warm DCRNN and windowed STGCN
//                     (session ingest, ring windows, cross-session
//                     pack/scatter, batched warm carry).
//  * train_dyhsl    — taped DyHSL training steps (autograd, optimizer).
//
// Each run builds its inputs from the seed, sets up once and warms up
// (setup_s runs from the entry of main to the first timed operation, so
// once-per-process lazy initialisation counts), measures for the
// requested seconds with no instrumentation, and checks the outputs. A traced run measures half
// its time untraced and half with benchmark-side spans around each call
// into a layer, then times the layers' public entry points at the
// workload's shapes.
//
// Every workload runs its kernels on one thread (OpenMP team of 1): on
// a shared 4-vCPU host, multi-thread teams made run-to-run spreads
// several times wider than the bounds allow. The busy loops of
// fleet_sessions and train_dyhsl move to the next CPU before every
// operation (CpuRotation), so a run averages over the vCPUs' contention
// phases instead of riding one.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/stats.h"
#include "src/models/dyhsl.h"
#include "src/train/forecast_model.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set up and warm up, then return before the first timed operation.
  bool setup_only = false;

  /// Length of each measured phase: a traced run splits its time between
  /// an untraced phase and a traced one.
  double PhaseSeconds() const { return trace ? seconds / 2 : seconds; }
};

/// \brief What a workload hands back to main: the counts and the
/// correctness verdict, the operation latencies, and its metrics.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Latency of the workload's user-visible operation, untraced run (ms).
  std::vector<double> latencies_ms;
  /// The same operation in the traced repeat (trace runs only).
  std::vector<double> traced_latencies_ms;
  /// Latencies of named parts of the operation, untraced (summary only).
  std::map<std::string, std::vector<double>> sub_latencies_ms;
  /// Per-layer metrics this workload measured (trace runs only).
  MetricTable layers;
  /// Set-up phases (s): data generation, model construction, and the
  /// serving stack (router, engines, sessions) around the models.
  double setup_data_s = 0.0, setup_model_s = 0.0, setup_serve_s = 0.0;
  /// When the first timed operation started: the end of set-up.
  Clock::time_point measure_start;
  /// The workload's thread budget, as a JSON object.
  std::string threads_json;
  /// Human-readable findings (failed checks, trace checks).
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layers[name] = Metric{value, unit};
  }
};

RunResult RunServe(const RunOptions& options);
RunResult RunFleet(const RunOptions& options);
RunResult RunTrain(const RunOptions& options);

/// \brief A span log kept in memory: each span has a name, a parent
/// (-1 for a root) and its start and end. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const char* name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Clock::now();
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self time (ms) of every span called `name`: its duration minus the
  /// durations of its direct children.
  std::vector<double> SelfTimes(const std::string& name) const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point begin, end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// \brief Reports a parent's decomposition: each part's median under
/// `<part>` and the parent's self time as `residual_name`, plus the
/// trace check `check_name` = |sum of parts + residual - parent| / parent
/// over medians. A gap above 5% is noted.
void ReportSpanTree(const SpanLog& log, const char* parent,
                    const std::vector<std::pair<const char*, std::string>>&
                        parts,
                    const std::string& residual_name,
                    const std::string& check_name, RunResult* result);

/// \brief Medians of the DyHSL forward split, timed through the public
/// PriorGraphEncoder / DhslBlock / IgcBlock Forward calls at the shapes
/// one forward issues (1 encoder call, mhce_layers DHSL and IGC calls
/// per pooling scale), against the whole DyHsl::Forward at the same
/// batch. `rest` is the whole minus the parts: pooling, scale fusion,
/// norms and the head.
struct ForwardSplit {
  double forward_ms = 0.0;
  double prior_encoder_ms = 0.0;
  double dhsl_ms = 0.0;
  double igc_ms = 0.0;
  double rest_ms = 0.0;
  /// Median of the `reference` timing taken in the same rounds (0 when
  /// none was given).
  double reference_ms = 0.0;
};

/// \brief Times the split on `model` (built for `task` with `config`) over
/// `rounds` interleaved rounds. `taped` records the autograd tape as in
/// training; otherwise the calls run grad-free with prepacked weights, as
/// the engine serves them. A non-empty `reference` (returning ms) runs
/// once per round too, so an independently timed parent — the engine's
/// synchronous ForecastNow on the same thread — is measured under the
/// same machine state as the parts.
ForwardSplit TimeForwardSplit(
    dyhsl::models::DyHsl* model, const dyhsl::train::ForecastTask& task,
    const dyhsl::models::DyHslConfig& config, const dyhsl::tensor::Tensor& x,
    bool taped, int rounds,
    const std::function<double()>& reference = nullptr);

/// \brief Reports a split under `models.<prefix>.*`.
void ReportForwardSplit(const ForwardSplit& split, const std::string& prefix,
                        RunResult* result);

/// \brief GEMM FLOPs of one DyHSL forward at batch 1 (dense incidence),
/// in GFLOP: encoder projections and temporal SpMMs, the DHSL and IGC
/// products of every scale and iteration, and the head.
double DyhslGflopPerForward(const dyhsl::train::ForecastTask& task,
                            const dyhsl::models::DyHslConfig& config);

/// \brief Kernel throughput at DyHSL's finest-scale shapes through the
/// public MatMul / BatchedMatMul and SpMM entry points:
/// tensor.gemm_gflops.dyhsl and tensor.spmm_gflops.
void ReportDyhslKernels(const dyhsl::train::ForecastTask& task,
                        const dyhsl::models::DyHslConfig& config,
                        RunResult* result);

/// \brief The same at the session fleets' shapes (batched N-row tiles,
/// the spatial adjacency, one STGCN fleet's window pack):
/// tensor.gemm_gflops.fleet, tensor.spmm_gflops and tensor.pack_batch_ms.
void ReportFleetKernels(const dyhsl::train::ForecastTask& task, int64_t hidden,
                        int64_t dcrnn_batch, int64_t stgcn_batch,
                        RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
