#include "perfbench/src/host.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace perfbench {

namespace {

// Pins the calling thread to `cpus` (all of them at once).
void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) SetAffinity(cpus_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  SetAffinity({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealFraction(const CpuTimes& begin, const CpuTimes& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string HostJson(const std::string& threads_json, double steal_frac) {
  const std::vector<int> cores = dyhsl::core::AvailableCores();
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"affinity\": [";
  for (size_t i = 0; i < cores.size(); ++i) out << (i ? ", " : "") << cores[i];
  out << "], \"threads\": " << threads_json << ", \"simd\": \""
      << dyhsl::tensor::simd::LevelName(dyhsl::tensor::simd::ActiveLevel())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"cxx_flags\": \"" << PERFBENCH_CXX_FLAGS
      << "\", \"compiler\": \"" << __VERSION__ << "\", \"openmp\": "
#ifdef _OPENMP
      << "true"
#else
      << "false"
#endif
      << ", \"steal_frac\": " << steal_frac << "}";
  return out.str();
}

}  // namespace perfbench
