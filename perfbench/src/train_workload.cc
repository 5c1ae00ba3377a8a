// train_dyhsl: repeated DyHSL training steps.
//
// Each step draws a shuffled mini-batch of windows from the seeded
// dataset, runs a taped Forward(x, true), MaskedMaeLoss, Backward,
// gradient clipping and Adam::Step — the loop of train::TrainModel, with
// the same arena recycling between steps. It uses the tensor and models
// layers along the taped path and bypasses serving entirely.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"
#include "src/core/parallel.h"
#include "src/optim/optimizer.h"
#include "src/tensor/workspace.h"

namespace perfbench {
namespace {

namespace T = ::dyhsl::tensor;

constexpr int64_t kNodes = 207;
constexpr int64_t kDays = 3;
constexpr int64_t kBatch = 2;
constexpr int kTeam = 1;
constexpr float kLearningRate = 1e-3f;
constexpr float kGradClip = 5.0f;

struct TrainState {
  std::unique_ptr<dyhsl::data::TrafficDataset> dataset;
  dyhsl::train::ForecastTask task;
  std::unique_ptr<dyhsl::models::DyHsl> model;
  std::unique_ptr<dyhsl::optim::Adam> optimizer;
  std::unique_ptr<dyhsl::data::BatchIterator> batches;
  T::Workspace workspace;
};

std::unique_ptr<TrainState> Build(uint64_t seed, RunResult* result) {
  const Clock::time_point start = Clock::now();
  auto state = std::make_unique<TrainState>();
  state->dataset = std::make_unique<dyhsl::data::TrafficDataset>(
      MakeDataset(seed, kNodes, kDays));
  state->task = dyhsl::train::ForecastTask::FromDataset(*state->dataset);
  state->batches = std::make_unique<dyhsl::data::BatchIterator>(
      state->dataset.get(), state->dataset->train_range(), kBatch,
      /*shuffle=*/true, DeriveSeed(seed, 8));
  const Clock::time_point data_done = Clock::now();
  state->model = std::make_unique<dyhsl::models::DyHsl>(
      state->task, dyhsl::models::DyHslConfig());
  state->optimizer = std::make_unique<dyhsl::optim::Adam>(
      state->model->Parameters(), kLearningRate);
  result->setup_data_s = MsBetween(start, data_done) / 1e3;
  result->setup_model_s = MsBetween(data_done, Clock::now()) / 1e3;
  return state;
}

// Runs training steps for `seconds`; returns each step's wall time.
std::vector<double> RunPhase(TrainState* state, double seconds,
                             SpanLog* spans, RunResult* result) {
  std::vector<double> steps;
  CpuRotation rotation;
  dyhsl::data::BatchIterator::Batch batch;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    rotation.Next();
    const Clock::time_point start = Clock::now();
    const int step = spans->Begin("train.step");
    const int next = spans->Begin("data.batch", step);
    if (!state->batches->Next(&batch)) {
      state->batches->Reset();
      state->batches->Next(&batch);
    }
    spans->End(next);
    float loss_value = 0.0f;
    {
      T::WorkspaceScope scope(&state->workspace);
      state->optimizer->ZeroGrad();
      int span = spans->Begin("train.forward", step);
      dyhsl::autograd::Variable pred =
          state->model->Forward(batch.x, /*training=*/true);
      spans->End(span);
      span = spans->Begin("train.loss", step);
      dyhsl::autograd::Variable loss = dyhsl::train::MaskedMaeLoss(pred, batch.y);
      spans->End(span);
      span = spans->Begin("autograd.backward", step);
      loss.Backward();
      spans->End(span);
      span = spans->Begin("optim.clip", step);
      dyhsl::optim::ClipGradNorm(state->optimizer->params(), kGradClip);
      spans->End(span);
      span = spans->Begin("optim.step", step);
      state->optimizer->Step();
      spans->End(span);
      loss_value = loss.value().data()[0];
    }
    state->workspace.Reset();
    spans->End(step);
    steps.push_back(MsBetween(start, Clock::now()));
    ++result->attempted;
    if (!std::isfinite(loss_value)) {
      ++result->failed;
      result->Fail("training loss is not finite");
    }
  } while (Clock::now() < deadline);
  return steps;
}

}  // namespace

RunResult RunTrain(const RunOptions& options) {
  RunResult result;
  result.threads_json =
      "{\"trainer\": 1, \"team\": " + std::to_string(kTeam) +
      ", \"trainer_moves_cpu\": \"every step\"}";
  std::unique_ptr<TrainState> state = Build(options.seed, &result);
  dyhsl::core::TeamScope team(kTeam);
  SpanLog untraced(false);
  RunPhase(state.get(), 0.0, &untraced, &result);  // one warm-up step
  result.attempted = result.failed = 0;
  result.measure_start = Clock::now();
  if (options.setup_only) return result;

  result.latencies_ms =
      RunPhase(state.get(), options.PhaseSeconds(), &untraced, &result);
  if (options.trace) {
    SpanLog spans(true);
    result.traced_latencies_ms =
        RunPhase(state.get(), options.PhaseSeconds(), &spans, &result);
    ReportSpanTree(spans, "train.step",
                   {{"data.batch", "data.batch_ms"},
                    {"train.forward", "train.forward_ms"},
                    {"train.loss", "train.loss_ms"},
                    {"autograd.backward", "autograd.backward_ms"},
                    {"optim.clip", "optim.clip_ms"},
                    {"optim.step", "optim.step_ms"}},
                   "train.step_residual_ms", "trace.train_step.gap_frac",
                   &result);
    dyhsl::data::BatchIterator::Batch batch;
    state->batches->Next(&batch);
    ReportForwardSplit(
        TimeForwardSplit(state->model.get(), state->task,
                         dyhsl::models::DyHslConfig(), batch.x, true, 5),
        "taped", &result);
    result.Layer("models.dyhsl_gflop_per_forward",
                 DyhslGflopPerForward(state->task, dyhsl::models::DyHslConfig()),
                 "GFLOP");
    ReportDyhslKernels(state->task, dyhsl::models::DyHslConfig(), &result);
  }
  return result;
}

}  // namespace perfbench
