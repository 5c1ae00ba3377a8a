// Span bookkeeping and the per-layer probes shared by the workloads.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/autograd/inference.h"
#include "src/graph/temporal_graph.h"
#include "src/models/blocks.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/sparse.h"
#include "src/tensor/workspace.h"

namespace perfbench {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;
using dyhsl::models::DyHslConfig;
using dyhsl::train::ForecastTask;

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(MsBetween(s.begin, s.end));
  }
  return out;
}

std::vector<double> SpanLog::SelfTimes(const std::string& name) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += MsBetween(spans_[i].begin, spans_[i].end);
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          MsBetween(spans_[i].begin, spans_[i].end);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self[i]);
  }
  return out;
}

void ReportSpanTree(
    const SpanLog& log, const char* parent,
    const std::vector<std::pair<const char*, std::string>>& parts,
    const std::string& residual_name, const std::string& check_name,
    RunResult* result) {
  const double whole = Median(log.Durations(parent));
  double sum = 0.0;
  for (const auto& [span, metric] : parts) {
    const double part = Median(log.Durations(span));
    result->Layer(metric, part, "ms");
    sum += part;
  }
  const double residual = Median(log.SelfTimes(parent));
  result->Layer(residual_name, residual, "ms");
  const double gap = whole > 0.0 ? std::fabs(sum + residual - whole) / whole
                                 : 0.0;
  result->Layer(check_name, gap, "ratio");
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace check %s: parts %.4f + residual %.4f vs parent %.4f ms "
                "(gap %.2f%%)%s",
                parent, sum, residual, whole, 100.0 * gap,
                gap > 0.05 ? "  ABOVE 5%" : "");
  result->notes.push_back(line);
}

namespace {

void Enroll(const dyhsl::nn::Module& module, std::vector<const float*>* ptrs) {
  for (const auto& [name, var] : module.NamedParameters()) {
    if (var.value().dim() != 2) continue;
    T::PrepackCache::Instance().Enroll(var.value());
    ptrs->push_back(var.value().data());
  }
}

// Runs `fn` once in a fresh arena scope, grad-free with prepacked weights
// (as ForecastEngine serves) unless `taped`; returns its wall time.
template <typename Fn>
double TimeCall(T::Workspace* workspace, bool taped, Fn fn) {
  const Clock::time_point start = Clock::now();
  {
    T::WorkspaceScope scope(workspace);
    if (taped) {
      fn();
    } else {
      ag::InferenceModeGuard no_grad;
      T::PrepackLookupScope prepack;
      fn();
    }
  }
  const double ms = MsBetween(start, Clock::now());
  workspace->Reset();
  return ms;
}

}  // namespace

ForwardSplit TimeForwardSplit(dyhsl::models::DyHsl* model,
                              const ForecastTask& task,
                              const DyHslConfig& config, const T::Tensor& x,
                              bool taped, int rounds,
                              const std::function<double()>& reference) {
  const int64_t batch = x.size(0);
  const int64_t d = config.hidden_dim;
  dyhsl::Rng rng(config.seed);
  dyhsl::models::PriorGraphEncoder encoder(
      task.num_nodes, task.history, task.input_dim, d, config.prior_layers,
      dyhsl::graph::BuildNormalizedTemporalOp(task.spatial_adj, task.history),
      &rng);
  dyhsl::models::DhslBlock dhsl(d, config.num_hyperedges, &rng);
  dyhsl::models::IgcBlock igc(d, &rng);
  std::vector<const float*> enrolled;
  Enroll(encoder, &enrolled);
  Enroll(dhsl, &enrolled);
  Enroll(igc, &enrolled);

  // One (operator, states) pair per pooling scale, R = (T / eps) * N rows.
  std::vector<std::pair<ag::SparseConstant, ag::Variable>> scales;
  for (int64_t eps : config.window_sizes) {
    const int64_t steps = task.history / eps;
    scales.emplace_back(
        dyhsl::graph::BuildNormalizedTemporalOp(task.spatial_adj, steps),
        ag::Variable(T::Tensor::Randn({batch, steps * task.num_nodes, d},
                                      &rng)));
  }
  const ag::Variable input(x);

  T::Workspace workspace;
  std::vector<double> whole, enc, dh, ig, ref;
  for (int r = 0; r <= rounds; ++r) {  // round 0 warms arena and caches
    const double w = TimeCall(&workspace, taped, [&] {
      volatile float sink = model->Forward(x, taped).value().data()[0];
      (void)sink;
    });
    const double e = TimeCall(&workspace, taped, [&] {
      volatile float sink = encoder.Forward(input).value().data()[0];
      (void)sink;
    });
    const double h = TimeCall(&workspace, taped, [&] {
      for (const auto& [op, states] : scales) {
        for (int64_t l = 0; l < config.mhce_layers; ++l) {
          volatile float sink = dhsl.Forward(states).value().data()[0];
          (void)sink;
        }
      }
    });
    const double g = TimeCall(&workspace, taped, [&] {
      for (const auto& [op, states] : scales) {
        for (int64_t l = 0; l < config.mhce_layers; ++l) {
          volatile float sink = igc.Forward(op, states).value().data()[0];
          (void)sink;
        }
      }
    });
    const double f = reference ? reference() : 0.0;
    if (r == 0) continue;
    ref.push_back(f);
    whole.push_back(w);
    enc.push_back(e);
    dh.push_back(h);
    ig.push_back(g);
  }
  for (const float* p : enrolled) T::PrepackCache::Instance().Release(p);

  ForwardSplit split;
  split.forward_ms = Median(whole);
  split.prior_encoder_ms = Median(enc);
  split.dhsl_ms = Median(dh);
  split.igc_ms = Median(ig);
  split.rest_ms =
      split.forward_ms - split.prior_encoder_ms - split.dhsl_ms - split.igc_ms;
  split.reference_ms = Median(ref);
  return split;
}

void ReportForwardSplit(const ForwardSplit& split, const std::string& prefix,
                        RunResult* result) {
  const std::string p = "models." + prefix + ".";
  result->Layer(p + "forward_ms", split.forward_ms, "ms");
  result->Layer(p + "prior_encoder_ms", split.prior_encoder_ms, "ms");
  result->Layer(p + "dhsl_ms", split.dhsl_ms, "ms");
  result->Layer(p + "igc_ms", split.igc_ms, "ms");
  result->Layer(p + "rest_ms", split.rest_ms, "ms");
  if (split.rest_ms < -0.05 * split.forward_ms) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "trace check models.%s: parts exceed the whole forward by "
                  "%.1f%%",
                  prefix.c_str(), -100.0 * split.rest_ms / split.forward_ms);
    result->notes.push_back(line);
  }
}

double DyhslGflopPerForward(const ForecastTask& task,
                            const DyHslConfig& config) {
  const double n = static_cast<double>(task.num_nodes);
  const double d = static_cast<double>(config.hidden_dim);
  const double i = static_cast<double>(config.num_hyperedges);
  auto spmm_nnz = [&](int64_t steps) {
    return static_cast<double>(
        dyhsl::graph::BuildNormalizedTemporalOp(task.spatial_adj, steps)
            .nnz());
  };
  // Encoder: input projection, then Lp rounds of SpMM + d x d linear.
  const double r0 = static_cast<double>(task.history) * n;
  double flops = 2.0 * r0 * static_cast<double>(task.input_dim) * d;
  flops += static_cast<double>(config.prior_layers) *
           (2.0 * spmm_nnz(task.history) * d + 2.0 * r0 * d * d);
  for (int64_t eps : config.window_sizes) {
    const int64_t steps = task.history / eps;
    const double r = static_cast<double>(steps) * n;
    // DHSL (Eq. 6-8): H W, Lambda^T H, U E, Lambda E.
    const double dhsl = 6.0 * r * d * i + 2.0 * i * i * d;
    // IGC (Eq. 11-12): one SpMM and three d x d linears.
    const double igc = 2.0 * spmm_nnz(steps) * d + 3.0 * 2.0 * r * d * d;
    flops += static_cast<double>(config.mhce_layers) * (dhsl + igc);
  }
  flops += 2.0 * n * 2.0 * d * static_cast<double>(task.horizon);  // head
  return flops * 1e-9;
}

namespace {

// Median wall time (ms) of `fn` over `reps` calls after one warm-up.
template <typename Fn>
double MedianMs(int reps, Fn fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(MsBetween(start, Clock::now()));
  }
  return Median(ms);
}

}  // namespace

void ReportDyhslKernels(const ForecastTask& task, const DyHslConfig& config,
                        RunResult* result) {
  dyhsl::Rng rng(5);
  const int64_t d = config.hidden_dim;
  const int64_t rows = task.history * task.num_nodes;
  // The finest scale's shapes: d x d linears on (R, d) states and the
  // batched incidence products (B=1) of the DHSL block.
  const T::Tensor h = T::Tensor::Randn({rows, d}, &rng);
  const T::Tensor w = T::Tensor::Randn({d, d}, &rng);
  const T::Tensor h3 = T::Tensor::Randn({1, rows, d}, &rng);
  const T::Tensor lam = T::Tensor::Randn({1, rows, config.num_hyperedges}, &rng);
  const double gemm_ms = MedianMs(20, [&] {
    volatile float a = T::MatMul(h, w).data()[0];
    volatile float b = T::BatchedMatMul(lam, h3, true, false).data()[0];
    (void)a;
    (void)b;
  });
  const double gemm_flops = 2.0 * rows * d * d +
                            2.0 * rows * config.num_hyperedges * d;
  result->Layer("tensor.gemm_gflops.dyhsl", gemm_flops / gemm_ms * 1e-6,
                "GFLOP/s");

  const ag::SparseConstant op =
      dyhsl::graph::BuildNormalizedTemporalOp(task.spatial_adj, task.history);
  const double spmm_ms = MedianMs(20, [&] {
    volatile float a = T::SpMM(op.matrix(), h3).data()[0];
    (void)a;
  });
  result->Layer("tensor.spmm_gflops",
                2.0 * static_cast<double>(op.nnz()) * d / spmm_ms * 1e-6,
                "GFLOP/s");
}

void ReportFleetKernels(const ForecastTask& task, int64_t hidden,
                        int64_t dcrnn_batch, int64_t stgcn_batch,
                        RunResult* result) {
  dyhsl::Rng rng(6);
  const int64_t n = task.num_nodes;
  // Batched N-row tiles against a shared (hidden x hidden) weight, the
  // shape of the fleets' per-layer GEMMs.
  const T::Tensor a = T::Tensor::Randn({dcrnn_batch, n, hidden}, &rng);
  const T::Tensor w = T::Tensor::Randn({hidden, hidden}, &rng);
  const double gemm_ms = MedianMs(50, [&] {
    volatile float c = T::BatchedMatMul(a, w).data()[0];
    (void)c;
  });
  result->Layer("tensor.gemm_gflops.fleet",
                2.0 * dcrnn_batch * n * hidden * hidden / gemm_ms * 1e-6,
                "GFLOP/s");

  const double spmm_ms = MedianMs(50, [&] {
    volatile float c = T::SpMM(task.spatial_adj, a).data()[0];
    (void)c;
  });
  result->Layer("tensor.spmm_gflops",
                2.0 * static_cast<double>(task.spatial_adj.nnz()) *
                    dcrnn_batch * hidden / spmm_ms * 1e-6,
                "GFLOP/s");

  // One STGCN fleet's ForecastBatch pack: B windows of (T, N, F).
  std::vector<T::Tensor> windows;
  for (int64_t b = 0; b < stgcn_batch; ++b) {
    windows.push_back(
        T::Tensor::Randn({task.history, n, task.input_dim}, &rng));
  }
  result->Layer("tensor.pack_batch_ms", MedianMs(50, [&] {
                  volatile float c = T::PackBatch(windows).data()[0];
                  (void)c;
                }),
                "ms");
}

}  // namespace perfbench
