// serve_dyhsl: open-loop DyHSL serving through ForecastRouter::Submit.
//
// One generator thread sends Poisson arrivals at kRate requests/s; each
// request is a (T=12, N=207, F=3) window cut from the seeded series. The
// router fronts one paper-default DyHSL engine (max_batch 16,
// max_delay_us 2000, one worker with a team of kTeam threads). kRate is
// fixed, not derived from the machine. A one-thread B=1 forward takes
// ~12 ms on a 4-core Xeon host, so 25 requests/s keeps the engine about
// 30% busy: requests overlap and micro-batches form, the backlog stays
// bounded, and queueing does not amplify the host's own speed swings
// into the tail. Latency is timed from each request's scheduled send.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/openloop.h"
#include "perfbench/src/workloads.h"
#include "src/autograd/inference.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/serve/router.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

namespace T = ::dyhsl::tensor;
namespace serve = ::dyhsl::serve;

constexpr int64_t kNodes = 207;
constexpr int64_t kDays = 3;
constexpr double kRate = 25.0;
constexpr int kTeam = 1;
/// Distinct windows cut from the series; requests cycle through them.
constexpr int64_t kWindowPool = 64;
/// Every kCheckEvery-th response is compared with a direct forward.
constexpr size_t kCheckEvery = 16;
const char kModel[] = "dyhsl";

struct ServeState {
  std::unique_ptr<dyhsl::data::TrafficDataset> dataset;
  dyhsl::train::ForecastTask task;
  std::vector<T::Tensor> windows;
  std::unique_ptr<serve::ForecastRouter> router;
  serve::ForecastEngine* engine = nullptr;
};

std::unique_ptr<ServeState> Build(uint64_t seed, RunResult* result) {
  const Clock::time_point start = Clock::now();
  auto state = std::make_unique<ServeState>();
  state->dataset = std::make_unique<dyhsl::data::TrafficDataset>(
      MakeDataset(seed, kNodes, kDays));
  state->task = dyhsl::train::ForecastTask::FromDataset(*state->dataset);
  dyhsl::Rng rng(DeriveSeed(seed, 4));
  const uint64_t starts = static_cast<uint64_t>(
      state->dataset->num_steps() - state->task.history - state->task.horizon);
  for (int64_t i = 0; i < kWindowPool; ++i) {
    state->windows.push_back(state->dataset->MakeInput(
        static_cast<int64_t>(rng.NextBelow(starts))));
  }
  const double data_s = MsBetween(start, Clock::now()) / 1e3;

  double model_s = 0.0;
  const serve::ModelFactory dyhsl_factory =
      serve::DyHslFactory(dyhsl::models::DyHslConfig());
  const serve::ModelFactory timed_factory =
      [&](const dyhsl::train::ForecastTask& task) {
        const Clock::time_point t = Clock::now();
        auto model = dyhsl_factory(task);
        model_s += MsBetween(t, Clock::now()) / 1e3;
        return model;
      };
  serve::EngineOptions options;
  options.max_batch = 16;
  options.max_delay_us = 2000;
  options.num_workers = 1;
  options.team_size = kTeam;
  // Bounds the backlog if the engine cannot keep up: excess requests are
  // rejected (and counted as failed) instead of queueing without limit.
  options.max_queue = 64;
  auto router = serve::ForecastRouter::Create();
  if (!router.ok()) return nullptr;
  state->router = std::move(router).ValueOrDie();
  if (!state->router->AddModel(kModel, state->task, timed_factory, "", options)
           .ok()) {
    return nullptr;
  }
  auto route = state->router->RouteFor(kModel);
  if (!route.ok()) return nullptr;
  state->engine = route.ValueOrDie().engines[0];
  result->setup_data_s = data_s;
  result->setup_model_s = model_s;
  result->setup_serve_s =
      MsBetween(start, Clock::now()) / 1e3 - data_s - model_s;
  return state;
}

struct Answer {
  dyhsl::Status status;
  T::Tensor forecast;  // kept for sampled requests only
  int64_t batch_size = 0;
  double queue_ms = 0.0;
  double compute_ms = 0.0;
};

struct Phase {
  std::vector<OpenLoopRecord> records;
  std::vector<Answer> answers;
  std::vector<size_t> window_of;
  serve::EngineStats before, after;
};

Phase RunPhase(ServeState* state, uint64_t seed, double seconds,
               SpanLog* spans) {
  Phase phase;
  const std::vector<double> offsets =
      PoissonArrivals(seed, kRate, seconds);
  dyhsl::Rng pick(DeriveSeed(seed, 5));
  for (size_t i = 0; i < offsets.size(); ++i) {
    phase.window_of.push_back(static_cast<size_t>(pick.NextBelow(kWindowPool)));
  }
  phase.answers.resize(offsets.size());
  phase.before = state->engine->Snapshot();
  phase.records = RunOpenLoop(
      offsets,
      [&](size_t i) {
        const int span = spans->Begin("router.submit");
        std::future<serve::ForecastResponse> f = state->router->Submit(
            serve::RouterRequest{kModel, state->windows[phase.window_of[i]]});
        spans->End(span);
        return f;
      },
      [&](size_t i, std::future<serve::ForecastResponse>& f) {
        serve::ForecastResponse r = f.get();
        Answer& a = phase.answers[i];
        a.status = r.status;
        a.batch_size = r.batch_size;
        a.queue_ms = r.queue_micros / 1e3;
        a.compute_ms = r.compute_micros / 1e3;
        if (i % kCheckEvery == 0) a.forecast = r.forecast;
      });
  phase.after = state->engine->Snapshot();
  return phase;
}

// Counts failures and checks sampled forecasts bit for bit against a
// direct grad-free B=1 forward of the same window on the engine's model.
void CheckPhase(ServeState* state, const Phase& phase, RunResult* result) {
  result->attempted += static_cast<int64_t>(phase.answers.size());
  dyhsl::core::TeamScope team(kTeam);
  for (size_t i = 0; i < phase.answers.size(); ++i) {
    const Answer& a = phase.answers[i];
    if (!a.status.ok()) {
      ++result->failed;
      continue;
    }
    if (!a.forecast.defined()) continue;
    const T::Tensor& window = state->windows[phase.window_of[i]];
    dyhsl::autograd::InferenceModeGuard no_grad;
    const T::Tensor direct =
        state->engine->mutable_model()
            ->Forward(window.Reshape({1, window.size(0), window.size(1),
                                      window.size(2)}),
                      false)
            .value();
    bool finite = true;
    for (int64_t k = 0; k < a.forecast.numel(); ++k) {
      finite = finite && std::isfinite(a.forecast.data()[k]);
    }
    if (!finite || direct.numel() != a.forecast.numel() ||
        std::memcmp(direct.data(), a.forecast.data(),
                    sizeof(float) * static_cast<size_t>(direct.numel())) !=
            0) {
      ++result->failed;
      result->Fail("router response " + std::to_string(i) +
                   " differs from a direct B=1 forward");
    }
  }
}

void ReportLayers(ServeState* state, const Phase& phase, RunResult* result) {
  std::vector<double> queue, compute, compute_b1, self, lag;
  double per_request = 0.0;
  for (size_t i = 0; i < phase.answers.size(); ++i) {
    const Answer& a = phase.answers[i];
    if (!a.status.ok()) continue;
    queue.push_back(a.queue_ms);
    compute.push_back(a.compute_ms);
    if (a.batch_size == 1) compute_b1.push_back(a.compute_ms);
    per_request += a.compute_ms / static_cast<double>(a.batch_size);
    const OpenLoopRecord& r = phase.records[i];
    self.push_back(r.done_ms - r.sent_ms - a.queue_ms - a.compute_ms);
  }
  for (const OpenLoopRecord& r : phase.records) lag.push_back(r.LatenessMs());
  result->Layer("router.self_ms", Median(self), "ms");
  result->Layer("engine.queue_wait_p50_ms", Median(queue), "ms");
  result->Layer("engine.queue_wait_tail_ms", TailOf(queue).value, "ms");
  result->Layer("engine.forward_p50_ms", Median(compute), "ms");
  result->Layer("engine.forward_b1_p50_ms", Median(compute_b1), "ms");
  result->Layer("engine.forward_per_request_ms",
                compute.empty() ? 0.0 : per_request / compute.size(), "ms");
  const serve::EngineStats& b = phase.before;
  const serve::EngineStats& e = phase.after;
  const double batches = static_cast<double>(e.batches - b.batches);
  const double batch_mean =
      batches > 0 ? static_cast<double>(e.requests - b.requests) / batches
                  : 0.0;
  result->Layer("engine.batch_mean", batch_mean, "count");
  const double hits = static_cast<double>(e.prepack.hits - b.prepack.hits);
  const double lookups =
      hits + static_cast<double>(e.prepack.misses - b.prepack.misses);
  result->Layer("engine.prepack_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                "ratio");
  result->Layer("engine.rejected", static_cast<double>(e.rejected - b.rejected),
                "count");
  result->Layer("engine.prepack_mb",
                static_cast<double>(e.prepack.bytes) / (1024.0 * 1024.0),
                "MB");
  result->Layer("bench.gen_lag_tail_ms", TailOf(lag).value, "ms");

  // Model split at B=1 and at the served batch, with the engine's team.
  // The B=1 split's parent is the engine's own forward, ForecastNow (bit-
  // identical to a B=1 Submit), called on this thread in the same rounds.
  dyhsl::core::TeamScope team(kTeam);
  auto* model =
      dynamic_cast<dyhsl::models::DyHsl*>(state->engine->mutable_model());
  const dyhsl::models::DyHslConfig config;
  const T::Tensor& w = state->windows[0];
  const ForwardSplit b1 = TimeForwardSplit(
      model, state->task, config,
      w.Reshape({1, w.size(0), w.size(1), w.size(2)}), false, 15, [&] {
        const Clock::time_point t = Clock::now();
        const serve::ForecastResponse r = state->engine->ForecastNow(w);
        const double ms = MsBetween(t, Clock::now());
        if (!r.status.ok()) result->Fail("engine ForecastNow probe failed");
        return ms;
      });
  result->Layer("engine.forecast_now_ms", b1.reference_ms, "ms");
  ReportForwardSplit(b1, "b1", result);
  const int64_t served = std::max<int64_t>(1, std::llround(batch_mean));
  std::vector<T::Tensor> items(state->windows.begin(),
                               state->windows.begin() + served);
  ReportForwardSplit(
      served == 1 ? b1
                  : TimeForwardSplit(model, state->task, config,
                                     T::PackBatch(items), false, 7),
      "batch", result);
  result->Layer("models.batch.size", static_cast<double>(served), "count");
  result->Layer("models.dyhsl_gflop_per_forward",
                DyhslGflopPerForward(state->task, config), "GFLOP");
  ReportDyhslKernels(state->task, config, result);

  // Trace check: the B=1 parts plus rest (both timed on direct calls)
  // against the engine's forward timed independently. Under open-loop
  // load the engine's worker runs the same forward slower
  // (engine.forward_b1_p50_ms): it starts cold after idle gaps.
  const double gap =
      b1.reference_ms > 0
          ? std::fabs(b1.forward_ms - b1.reference_ms) / b1.reference_ms
          : 0.0;
  result->Layer("trace.engine_forward.gap_frac", gap, "ratio");
  char line[240];
  std::snprintf(line, sizeof(line),
                "trace check engine forward (B=1): encoder %.3f + dhsl %.3f + "
                "igc %.3f + rest %.3f = %.3f ms vs ForecastNow %.3f ms (gap "
                "%.1f%%)%s; under open-loop load it took %.3f ms",
                b1.prior_encoder_ms, b1.dhsl_ms, b1.igc_ms, b1.rest_ms,
                b1.forward_ms, b1.reference_ms, 100.0 * gap,
                gap > 0.05 ? "  ABOVE 5%" : "", Median(compute_b1));
  result->notes.push_back(line);
}

std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> out;
  for (size_t i = 0; i < phase.records.size(); ++i) {
    if (phase.answers[i].status.ok()) out.push_back(phase.records[i].LatencyMs());
  }
  return out;
}

}  // namespace

RunResult RunServe(const RunOptions& options) {
  RunResult result;
  result.threads_json =
      "{\"generator\": 1, \"collector\": 1, \"engine_workers\": 1, "
      "\"engine_team\": " + std::to_string(kTeam) +
      ", \"router_stitchers\": 2}";
  std::unique_ptr<ServeState> state = Build(options.seed, &result);
  if (!state) {
    result.Fail("serve set-up failed");
    return result;
  }
  // Warm the arena at every batch size the micro-batcher can form.
  {
    std::vector<std::future<serve::ForecastResponse>> burst;
    for (int64_t i = 0; i < 16; ++i) {
      burst.push_back(state->router->Submit(
          serve::RouterRequest{kModel, state->windows[static_cast<size_t>(i)]}));
    }
    for (auto& f : burst) {
      if (!f.get().status.ok()) result.Fail("warm-up request failed");
    }
  }
  result.measure_start = Clock::now();
  if (options.setup_only) return result;

  SpanLog untraced(false);
  const Phase phase = RunPhase(state.get(), options.seed, options.PhaseSeconds(),
                               &untraced);
  result.latencies_ms = Latencies(phase);
  CheckPhase(state.get(), phase, &result);
  if (options.trace) {
    SpanLog spans(true);
    const Phase traced =
        RunPhase(state.get(), options.seed, options.PhaseSeconds(), &spans);
    result.traced_latencies_ms = Latencies(traced);
    CheckPhase(state.get(), traced, &result);
    result.Layer("router.submit_ms", Median(spans.Durations("router.submit")),
                 "ms");
    ReportLayers(state.get(), traced, &result);
  }
  return result;
}

}  // namespace perfbench
