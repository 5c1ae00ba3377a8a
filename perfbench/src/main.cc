// The repository benchmark (the dyhsl_perfbench binary).
//
//   dyhsl_perfbench --workload serve_dyhsl|fleet_sessions|train_dyhsl
//                   --seed N --seconds S --trace 0|1
//
// Prints a human-readable summary and the host block, then, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// peak_rss_mb and p50_ms of the workload's operation; the operation's
// tail is printed in the summary and is the per-layer bench.tail_ms: on
// a shared host its run-to-run spread exceeds any gating bound); with
// --trace 1 they are the per-layer metrics the workload measured
// (run.py adds the declared ones it does not exercise, as 0). setup_s
// runs from the entry of main to the first timed operation.
//
//   dyhsl_perfbench --workload W --seed N --setup-only 1
//
// sets up, warms up and prints only {"setup_s": ...}: run.py repeats the
// cold set-up in fresh processes this way. Exits non-zero when a
// correctness check fails or the library is not an optimized build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/core/parallel.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  RunOptions options;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  bool setup_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->options.seed = std::strtoull(value, &end, 10);
      seen_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->options.seconds = std::strtod(value, &end);
      seen_seconds = *value != '\0' && *end == '\0' &&
                     args->options.seconds > 0.0 &&
                     args->options.seconds <= 120.0;
    } else if (flag == "--setup-only") {
      setup_only = std::strcmp(value, "1") == 0;
      args->options.setup_only = setup_only;
    } else if (flag == "--trace") {
      seen_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->options.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen_seed &&
         (setup_only || (seen_seconds && seen_trace)) &&
         !args->workload.empty();
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTimes(const char* name, const std::vector<double>& ms) {
  const Tail tail = TailOf(ms);
  std::printf("  %s_p50_ms %.4f ms, %s_p99_ms %.4f ms (tail rule: p%.2f of "
              "%lld samples, %lld beyond)\n",
              name, Median(ms), name, tail.value, tail.pct,
              static_cast<long long>(tail.samples),
              static_cast<long long>(tail.beyond));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point entry = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_dyhsl|fleet_sessions|train_dyhsl "
                 "--seed N (--seconds S --trace 0|1 | --setup-only 1)\n",
                 argv[0]);
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "refusing to measure a non-Release library build\n");
    return 2;
  }
  dyhsl::ConfigureParallelism();
  RunResult (*run)(const RunOptions&) = nullptr;
  const char* op = nullptr;
  if (args.workload == "serve_dyhsl") {
    run = RunServe;
    op = "serve";
  } else if (args.workload == "fleet_sessions") {
    run = RunFleet;
    op = "tick";
  } else if (args.workload == "train_dyhsl") {
    run = RunTrain;
    op = "train_step";
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const CpuTimes cpu_begin = ReadCpuTimes();
  RunResult result = run(args.options);
  const double steal = StealFraction(cpu_begin, ReadCpuTimes());
  const double setup_s = MsBetween(entry, result.measure_start) / 1e3;
  if (args.options.setup_only) {
    if (!result.correct) return 1;
    std::printf("{\"setup_s\": %s}\n", Number(setup_s).c_str());
    return 0;
  }
  if (result.latencies_ms.empty()) result.Fail("no operation completed");

  const Tail tail = TailOf(result.latencies_ms);
  const double p50 = Median(result.latencies_ms);
  MetricTable metrics;
  if (!args.options.trace) {
    metrics["setup_s"] = Metric{setup_s, "s"};
    metrics["peak_rss_mb"] = Metric{PeakRssMb(), "MB"};
    metrics["p50_ms"] = Metric{p50, "ms"};
  } else {
    result.Layer("setup.data_s", result.setup_data_s, "s");
    result.Layer("setup.model_s", result.setup_model_s, "s");
    result.Layer("setup.serve_s", result.setup_serve_s, "s");
    // The rest of set-up: process-wide initialisation and the warm-up
    // calls before the first timed operation.
    result.Layer("setup.warmup_s",
                 setup_s - result.setup_data_s - result.setup_model_s -
                     result.setup_serve_s,
                 "s");
    result.Layer("bench.steal_frac", steal, "ratio");
    result.Layer("bench.trace_overhead_frac",
                 p50 > 0 ? Median(result.traced_latencies_ms) / p50 - 1.0 : 0.0,
                 "ratio");
    result.Layer("bench.samples", static_cast<double>(tail.samples), "count");
    result.Layer("bench.tail_ms", tail.value, "ms");
    result.Layer("bench.tail_pct", tail.pct, "pct");
    metrics = result.layers;
  }

  std::printf("%s seed %llu, %.1f s%s: %lld attempted, %lld failed "
              "(failed_frac %.6f)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.options.seed),
              args.options.seconds, args.options.trace ? ", traced" : "",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0);
  std::printf("  setup_s %.4f s (this process), peak_rss_mb %.1f MB\n",
              setup_s, PeakRssMb());
  PrintTimes(op, result.latencies_ms);
  for (const auto& [name, ms] : result.sub_latencies_ms) {
    PrintTimes(name.c_str(), ms);
  }
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("host %s\n", HostJson(result.threads_json, steal).c_str());

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            Number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
