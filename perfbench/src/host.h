// The host block every result carries: cores and affinity, the thread
// budget of the workload, the resolved SIMD level, the build type and
// flags of the linked library, and the CPU steal share over the run.

#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Cumulative machine-wide CPU jiffies from /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

/// \brief Reads the aggregate "cpu" line of /proc/stat (zeros when it is
/// unreadable).
CpuTimes ReadCpuTimes();

/// \brief Share of CPU time stolen by the hypervisor between two reads.
double StealFraction(const CpuTimes& begin, const CpuTimes& end);

/// \brief Moves the calling thread round-robin over the CPUs it may run
/// on, one step per Next(). A busy single-thread loop otherwise stays on
/// one vCPU for a whole run, and on a shared host each vCPU goes through
/// its own slow and fast phases lasting seconds; moving every step
/// averages a run over all of them. Restores the thread's affinity when
/// destroyed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// \brief Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// \brief True when the linked library was built optimized (Release):
/// a debug build must never be recorded as a result.
bool OptimizedBuild();

/// \brief The host block as one JSON object. `threads_json` is the
/// workload's thread budget, itself a JSON object.
std::string HostJson(const std::string& threads_json, double steal_frac);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
