// fleet_sessions: a closed tick loop over two session fleets sharing one
// SessionManager.
//
// A single scheduler thread ticks a fleet of warm DCRNN sessions (carried
// recurrent state) and a fleet of windowed STGCN sessions, all on one
// district-sized N=24 road network. Each session replays the seeded
// series from its own offset through data::TickStream. Per tick and per
// fleet the scheduler calls AppendMany then ForecastBatch; the fleet
// sizes make the two fleets' ticks cost about the same. A change that
// helps one path and costs the other can cancel in the whole tick; it
// shows in the per-fleet fleet.{dcrnn,stgcn}_tick_p50_ms.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/data/stream.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/train/model_zoo.h"

namespace perfbench {
namespace {

namespace T = ::dyhsl::tensor;
namespace serve = ::dyhsl::serve;
using dyhsl::data::TickStream;

constexpr int64_t kNodes = 24;
constexpr int64_t kDays = 7;
constexpr int64_t kDcrnnSessions = 32;
constexpr int64_t kStgcnSessions = 8;
constexpr int64_t kHidden = 16;
constexpr int kTeam = 1;
/// Every kCheckEvery-th tick, sampled forecasts are checked.
constexpr int64_t kCheckEvery = 64;
/// Untimed ticks that warm both forecast paths before measuring.
constexpr int64_t kWarmupTicks = 4;
/// Warm sessions replayed one tick at a time at the end of the run.
constexpr int64_t kReplayed = 2;

struct Fleet {
  const char* model;
  bool warm;
  std::vector<std::string> ids;
  std::vector<int64_t> offsets;
  std::vector<TickStream> streams;
};

struct FleetState {
  std::unique_ptr<dyhsl::data::TrafficDataset> dataset;
  dyhsl::train::ForecastTask task;
  std::unique_ptr<serve::ForecastRouter> router;
  std::unique_ptr<serve::SessionManager> manager;
  Fleet dcrnn{"dcrnn", true, {}, {}, {}};
  Fleet stgcn{"stgcn", false, {}, {}, {}};
  int64_t tick = 0;
};

// The session's frame for the current tick; each stream wraps to the
// start of the series when it runs out.
T::Tensor NextFrame(const dyhsl::data::TrafficData& data, TickStream* stream) {
  if (stream->Done()) *stream = TickStream(data, 0);
  T::Tensor frame = stream->Frame();
  stream->Advance();
  return frame;
}

std::vector<T::Tensor> NextFrames(const dyhsl::data::TrafficData& data,
                                  Fleet* fleet) {
  std::vector<T::Tensor> frames;
  frames.reserve(fleet->streams.size());
  for (TickStream& s : fleet->streams) frames.push_back(NextFrame(data, &s));
  return frames;
}

bool AllOk(const std::vector<dyhsl::Status>& statuses) {
  for (const dyhsl::Status& s : statuses) {
    if (!s.ok()) return false;
  }
  return true;
}

std::unique_ptr<FleetState> Build(uint64_t seed, RunResult* result) {
  const Clock::time_point start = Clock::now();
  auto state = std::make_unique<FleetState>();
  state->dataset = std::make_unique<dyhsl::data::TrafficDataset>(
      MakeDataset(seed, kNodes, kDays));
  state->task = dyhsl::train::ForecastTask::FromDataset(*state->dataset);
  const double data_s = MsBetween(start, Clock::now()) / 1e3;

  double model_s = 0.0;
  auto timed = [&model_s](serve::ModelFactory factory) {
    return [&model_s, factory](const dyhsl::train::ForecastTask& task) {
      const Clock::time_point t = Clock::now();
      auto model = factory(task);
      model_s += MsBetween(t, Clock::now()) / 1e3;
      return model;
    };
  };
  dyhsl::train::ZooConfig zoo;
  zoo.hidden_dim = kHidden;
  serve::EngineOptions options;
  options.num_workers = 1;
  options.team_size = kTeam;
  auto router = serve::ForecastRouter::Create();
  if (!router.ok()) return nullptr;
  state->router = std::move(router).ValueOrDie();
  for (Fleet* fleet : {&state->dcrnn, &state->stgcn}) {
    const std::string key = fleet->warm ? "DCRNN" : "STGCN";
    if (!state->router
             ->AddModel(fleet->model, state->task,
                        timed(serve::ZooFactory(key, zoo)), "", options)
             .ok()) {
      return nullptr;
    }
  }
  state->manager = std::make_unique<serve::SessionManager>(state->router.get());
  dyhsl::Rng rng(DeriveSeed(seed, 7));
  const dyhsl::data::TrafficData& data = state->dataset->traffic();
  for (Fleet* fleet : {&state->dcrnn, &state->stgcn}) {
    const int64_t count = fleet->warm ? kDcrnnSessions : kStgcnSessions;
    serve::SessionOptions session;
    session.model = fleet->model;
    session.warm_state = fleet->warm;
    for (int64_t i = 0; i < count; ++i) {
      fleet->ids.push_back(std::string(fleet->model) + "-" + std::to_string(i));
      fleet->offsets.push_back(static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(state->dataset->num_steps()))));
      fleet->streams.emplace_back(data, fleet->offsets.back());
      if (!state->manager->Open(fleet->ids.back(), session).ok()) {
        return nullptr;
      }
    }
  }
  // History fill: every ring full, every carry warm.
  for (; state->tick < state->task.history; ++state->tick) {
    for (Fleet* fleet : {&state->dcrnn, &state->stgcn}) {
      if (!AllOk(state->manager->AppendMany(fleet->ids, state->tick,
                                            NextFrames(data, fleet)))) {
        return nullptr;
      }
    }
  }
  result->setup_data_s = data_s;
  result->setup_model_s = model_s;
  result->setup_serve_s =
      MsBetween(start, Clock::now()) / 1e3 - data_s - model_s;
  return state;
}

// Largest elementwise |a - b|; infinite when a value is not finite or
// the shapes differ, so a NaN forecast can never pass a tolerance.
float MaxAbsDiff(const T::Tensor& a, const T::Tensor& b) {
  if (a.numel() != b.numel()) return INFINITY;
  float worst = 0.0f;
  for (int64_t k = 0; k < a.numel(); ++k) {
    const float d = std::fabs(a.data()[k] - b.data()[k]);
    if (!std::isfinite(d)) return INFINITY;
    worst = std::max(worst, d);
  }
  return worst;
}

struct FleetTimes {
  std::vector<double> dcrnn_ms, stgcn_ms, tick_ms;
  std::vector<serve::ForecastResponse> last_dcrnn;
};

// One fleet's tick: AppendMany then ForecastBatch. Counts every session
// whose ingest or forecast failed.
std::vector<serve::ForecastResponse> TickFleet(FleetState* state, Fleet* fleet,
                                               std::vector<T::Tensor> frames,
                                               SpanLog* spans, int parent,
                                               RunResult* result) {
  const int append =
      spans->Begin(fleet->warm ? "session.dcrnn.append_many"
                               : "session.stgcn.append_many",
                   parent);
  std::vector<dyhsl::Status> ingest =
      state->manager->AppendMany(fleet->ids, state->tick, frames);
  spans->End(append);
  const int forecast =
      spans->Begin(fleet->warm ? "session.dcrnn.forecast_batch"
                               : "session.stgcn.forecast_batch",
                   parent);
  std::vector<serve::ForecastResponse> out =
      state->manager->ForecastBatch(fleet->ids);
  spans->End(forecast);
  result->attempted += static_cast<int64_t>(fleet->ids.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (!ingest[i].ok() || !out[i].status.ok()) ++result->failed;
  }
  return out;
}

// Sampled forecasts against per-session Forecast of the same sessions:
// bit-identical for windowed STGCN, within 1e-5 (normalized) for the
// batched warm DCRNN decode.
void CheckTick(FleetState* state, int64_t sample,
               const std::vector<serve::ForecastResponse>& dcrnn,
               const std::vector<serve::ForecastResponse>& stgcn,
               RunResult* result) {
  const size_t d = static_cast<size_t>(sample % kDcrnnSessions);
  const size_t s = static_cast<size_t>(sample % kStgcnSessions);
  const serve::ForecastResponse warm =
      state->manager->Forecast(state->dcrnn.ids[d]);
  const serve::ForecastResponse windowed =
      state->manager->Forecast(state->stgcn.ids[s]);
  if (!warm.status.ok() || !dcrnn[d].status.ok() ||
      MaxAbsDiff(warm.forecast, dcrnn[d].forecast) >
          1e-5f * state->task.scaler_std) {
    ++result->failed;
    result->Fail("batched warm DCRNN forecast of " + state->dcrnn.ids[d] +
                 " differs from its per-session forecast");
  }
  if (!windowed.status.ok() || !stgcn[s].status.ok() ||
      windowed.forecast.numel() != stgcn[s].forecast.numel() ||
      std::memcmp(windowed.forecast.data(), stgcn[s].forecast.data(),
                  sizeof(float) * static_cast<size_t>(
                                      windowed.forecast.numel())) != 0) {
    ++result->failed;
    result->Fail("batched STGCN forecast of " + state->stgcn.ids[s] +
                 " is not bit-identical to its per-session forecast");
  }
}

FleetTimes RunPhase(FleetState* state, double seconds, SpanLog* spans,
                    RunResult* result, int64_t max_ticks = INT64_MAX) {
  FleetTimes times;
  CpuRotation rotation;
  const dyhsl::data::TrafficData& data = state->dataset->traffic();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int64_t n = 0; n < max_ticks && Clock::now() < deadline;
       ++n, ++state->tick) {
    std::vector<T::Tensor> dcrnn_frames = NextFrames(data, &state->dcrnn);
    std::vector<T::Tensor> stgcn_frames = NextFrames(data, &state->stgcn);
    rotation.Next();
    const Clock::time_point t0 = Clock::now();
    const int tick = spans->Begin("fleet.tick");
    const int dt = spans->Begin("fleet.dcrnn.tick", tick);
    std::vector<serve::ForecastResponse> dcrnn =
        TickFleet(state, &state->dcrnn, std::move(dcrnn_frames), spans, dt,
                  result);
    spans->End(dt);
    const Clock::time_point t1 = Clock::now();
    const int st = spans->Begin("fleet.stgcn.tick", tick);
    std::vector<serve::ForecastResponse> stgcn =
        TickFleet(state, &state->stgcn, std::move(stgcn_frames), spans, st,
                  result);
    spans->End(st);
    spans->End(tick);
    const Clock::time_point t2 = Clock::now();
    times.dcrnn_ms.push_back(MsBetween(t0, t1));
    times.stgcn_ms.push_back(MsBetween(t1, t2));
    times.tick_ms.push_back(MsBetween(t0, t2));
    if (n % kCheckEvery == 0) CheckTick(state, n / kCheckEvery, dcrnn, stgcn, result);
    times.last_dcrnn = std::move(dcrnn);
  }
  return times;
}

// Replays warm sessions one Append per tick (the per-session cell step)
// over the whole run and compares their final forecasts with the batched
// carry's, within 1e-5 in normalized units.
void CheckReplay(FleetState* state, const FleetTimes& times,
                 RunResult* result) {
  const dyhsl::data::TrafficData& data = state->dataset->traffic();
  serve::SessionManager replay(state->router.get());
  serve::SessionOptions session;
  session.model = state->dcrnn.model;
  session.warm_state = true;
  for (int64_t k = 0; k < kReplayed; ++k) {
    const std::string id = "replay-" + std::to_string(k);
    bool ok = replay.Open(id, session).ok();
    TickStream stream(data, state->dcrnn.offsets[static_cast<size_t>(k)]);
    for (int64_t t = 0; ok && t < state->tick; ++t) {
      ok = replay.Append(id, t, NextFrame(data, &stream)).ok();
    }
    const serve::ForecastResponse sequential = replay.Forecast(id);
    const serve::ForecastResponse& batched =
        times.last_dcrnn[static_cast<size_t>(k)];
    const float diff = ok && sequential.status.ok() && batched.status.ok()
                           ? MaxAbsDiff(sequential.forecast, batched.forecast)
                           : INFINITY;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "warm replay %s over %lld ticks: max |batched - sequential| "
                  "= %.3g normalized",
                  state->dcrnn.ids[static_cast<size_t>(k)].c_str(),
                  static_cast<long long>(state->tick),
                  diff / state->task.scaler_std);
    result->notes.push_back(line);
    if (!(diff <= 1e-5f * state->task.scaler_std)) {
      ++result->failed;
      result->Fail("batched warm DCRNN carry drifted from the sequential "
                   "carry");
    }
  }
}

// Calls the route's engines directly at the fleets' shapes: the DCRNN
// cell step and decoder over the whole warm fleet, and one STGCN batch
// forward over the windowed fleet's windows.
void ReportEngineProbes(FleetState* state, RunResult* result) {
  auto dcrnn_route = state->router->RouteFor(state->dcrnn.model);
  auto stgcn_route = state->router->RouteFor(state->stgcn.model);
  if (!dcrnn_route.ok() || !stgcn_route.ok()) {
    result->Fail("fleet routes vanished");
    return;
  }
  serve::ForecastEngine* dcrnn = dcrnn_route.ValueOrDie().engines[0];
  serve::ForecastEngine* stgcn = stgcn_route.ValueOrDie().engines[0];
  const dyhsl::train::ForecastTask& task = state->task;
  dyhsl::Rng rng(8);
  std::vector<std::unique_ptr<dyhsl::train::StreamState>> owned;
  std::vector<dyhsl::train::StreamState*> states;
  std::vector<const dyhsl::train::StreamState*> const_states;
  const T::Tensor frames =
      T::Tensor::Randn({kDcrnnSessions, task.num_nodes, task.input_dim}, &rng);
  for (int64_t i = 0; i < kDcrnnSessions; ++i) {
    owned.push_back(dcrnn->NewStreamState());
    states.push_back(owned.back().get());
    const_states.push_back(owned.back().get());
  }
  const T::Tensor windows = T::Tensor::Randn(
      {kStgcnSessions, task.history, task.num_nodes, task.input_dim}, &rng);
  std::vector<double> advance, decode, submit;
  for (int r = 0; r <= 50; ++r) {
    Clock::time_point t = Clock::now();
    dcrnn->AdvanceStateBatch(states, frames);
    const double a = MsBetween(t, Clock::now());
    t = Clock::now();
    const bool decoded = dcrnn->ForecastFromStateBatch(const_states).status.ok();
    const double d = MsBetween(t, Clock::now());
    t = Clock::now();
    const bool submitted = stgcn->SubmitBatch(windows).status.ok();
    const double s = MsBetween(t, Clock::now());
    if (!decoded || !submitted) result->Fail("direct engine probe failed");
    if (r == 0) continue;
    advance.push_back(a);
    decode.push_back(d);
    submit.push_back(s);
  }
  result->Layer("engine.advance_state_batch_ms", Median(advance), "ms");
  result->Layer("engine.forecast_from_state_batch_ms", Median(decode), "ms");
  result->Layer("engine.submit_batch_ms", Median(submit), "ms");
}

void ReportLayers(FleetState* state, const FleetTimes& times,
                  const SpanLog& spans, RunResult* result) {
  result->Layer("fleet.dcrnn_tick_p50_ms", Median(times.dcrnn_ms), "ms");
  result->Layer("fleet.dcrnn_tick_tail_ms", TailOf(times.dcrnn_ms).value, "ms");
  result->Layer("fleet.stgcn_tick_p50_ms", Median(times.stgcn_ms), "ms");
  result->Layer("fleet.stgcn_tick_tail_ms", TailOf(times.stgcn_ms).value, "ms");
  for (const char* fleet : {"dcrnn", "stgcn"}) {
    const std::string p = std::string("session.") + fleet + ".";
    ReportSpanTree(spans, (std::string("fleet.") + fleet + ".tick").c_str(),
                   {{(p + "append_many").c_str(), p + "append_many_ms"},
                    {(p + "forecast_batch").c_str(), p + "forecast_batch_ms"}},
                   p + "tick_residual_ms",
                   std::string("trace.") + fleet + "_tick.gap_frac", result);
  }
  ReportSpanTree(spans, "fleet.tick",
                 {{"fleet.dcrnn.tick", "fleet.dcrnn_tick_traced_ms"},
                  {"fleet.stgcn.tick", "fleet.stgcn_tick_traced_ms"}},
                 "fleet.tick_residual_ms", "trace.fleet_tick.gap_frac",
                 result);

  ReportEngineProbes(state, result);
  const MetricTable& l = result->layers;
  auto v = [&l](const char* name) { return l.at(name).value; };
  result->Layer("session.dcrnn.self_ms",
                v("session.dcrnn.append_many_ms") +
                    v("session.dcrnn.forecast_batch_ms") -
                    v("engine.advance_state_batch_ms") -
                    v("engine.forecast_from_state_batch_ms"),
                "ms");
  result->Layer("session.stgcn.self_ms",
                v("session.stgcn.append_many_ms") +
                    v("session.stgcn.forecast_batch_ms") -
                    v("engine.submit_batch_ms"),
                "ms");

  const serve::SessionManagerStats stats = state->manager->Stats();
  for (const Fleet* fleet : {&state->dcrnn, &state->stgcn}) {
    auto it = stats.batch_by_model.find(fleet->model);
    const double occupancy =
        it == stats.batch_by_model.end() || it->second.batched_forecasts == 0
            ? 0.0
            : static_cast<double>(it->second.batch_size_sum) /
                  static_cast<double>(it->second.batched_forecasts) /
                  static_cast<double>(fleet->ids.size());
    result->Layer(std::string("session.") + fleet->model + ".batch_occupancy",
                  occupancy, "ratio");
  }
  result->Layer("session.rejected_ticks",
                static_cast<double>(stats.rejected_ticks), "count");
  ReportFleetKernels(state->task, kHidden, kDcrnnSessions, kStgcnSessions,
                     result);
}

}  // namespace

RunResult RunFleet(const RunOptions& options) {
  RunResult result;
  result.threads_json = "{\"scheduler\": 1, \"engine_team\": " +
                        std::to_string(kTeam) +
                        ", \"scheduler_moves_cpu\": \"every tick\"}";
  std::unique_ptr<FleetState> state = Build(options.seed, &result);
  if (!state) {
    result.Fail("fleet set-up failed");
    return result;
  }
  // The scheduler thread runs every session call under the engines' team.
  dyhsl::core::TeamScope team(kTeam);
  SpanLog untraced(false);
  // A few untimed ticks warm both forecast paths.
  RunPhase(state.get(), 60.0, &untraced, &result, kWarmupTicks);
  result.attempted = result.failed = 0;
  result.measure_start = Clock::now();
  if (options.setup_only) return result;

  FleetTimes times = RunPhase(state.get(), options.PhaseSeconds(), &untraced,
                              &result);
  result.latencies_ms = times.tick_ms;
  result.sub_latencies_ms["dcrnn_tick"] = times.dcrnn_ms;
  result.sub_latencies_ms["stgcn_tick"] = times.stgcn_ms;
  if (options.trace) {
    SpanLog spans(true);
    times = RunPhase(state.get(), options.PhaseSeconds(), &spans, &result);
    result.traced_latencies_ms = times.tick_ms;
    ReportLayers(state.get(), times, spans, &result);
  }
  CheckReplay(state.get(), times, &result);
  return result;
}

}  // namespace perfbench
