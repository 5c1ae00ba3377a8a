// Tests of the benchmark's own statistics and seeded inputs.

#include <sched.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/host.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/openloop.h"
#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailTest, CapsAtP99WhenTheSampleIsLargeEnough) {
  const Tail t = TailOf(Ramp(2000));
  EXPECT_DOUBLE_EQ(t.value, 1980.0);  // nearest-rank p99
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_EQ(t.beyond, 20);
  EXPECT_EQ(t.samples, 2000);
}

TEST(TailTest, LowersThePercentileToKeepTenSamplesBeyond) {
  const Tail at1000 = TailOf(Ramp(1000));
  EXPECT_DOUBLE_EQ(at1000.value, 990.0);
  EXPECT_EQ(at1000.beyond, 10);

  const Tail at600 = TailOf(Ramp(600));
  EXPECT_DOUBLE_EQ(at600.value, 590.0);
  EXPECT_NEAR(at600.pct, 100.0 * 590.0 / 600.0, 1e-12);
  EXPECT_EQ(at600.beyond, kTailBeyond);

  const Tail at11 = TailOf(Ramp(11));
  EXPECT_DOUBLE_EQ(at11.value, 1.0);
  EXPECT_EQ(at11.beyond, 10);
}

TEST(TailTest, SmallSamplesFallBackToTheMaximum) {
  const Tail t = TailOf(Ramp(10));
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_DOUBLE_EQ(t.pct, 100.0);
  EXPECT_EQ(t.beyond, 0);
  EXPECT_EQ(TailOf({}).samples, 0);
}

TEST(MedianTest, AveragesTheMiddlePairOfEvenSamples) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// A service whose Submit blocks for 60 ms on request 2: the generator
// sends requests 3 and 4 late, and their latency, timed from the
// scheduled send, includes the stall even though the service answers
// them instantly.
TEST(OpenLoopTest, LatencyCountsFromTheScheduledSend) {
  const std::vector<double> offsets = {0.0, 0.01, 0.02, 0.03, 0.04, 0.2};
  const std::vector<OpenLoopRecord> r = RunOpenLoop(
      offsets,
      [](size_t i) {
        if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(60));
        std::promise<int> p;
        p.set_value(static_cast<int>(i));
        return p.get_future();
      },
      [](size_t, std::future<int>& f) { f.get(); });
  ASSERT_EQ(r.size(), offsets.size());
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_DOUBLE_EQ(r[i].scheduled_ms, 1000.0 * offsets[i]);
    EXPECT_GE(r[i].sent_ms, r[i].scheduled_ms);
    EXPECT_GE(r[i].done_ms, r[i].sent_ms);
  }
  // Requests 3 and 4 were due 10 and 20 ms after 2 but went out after
  // its 60 ms stall.
  EXPECT_GE(r[3].LatenessMs(), 45.0);
  EXPECT_GE(r[4].LatenessMs(), 35.0);
  EXPECT_GE(r[3].LatencyMs(), r[3].LatenessMs());
  EXPECT_GE(r[2].LatencyMs(), 55.0);
  // The schedule caught up before request 5.
  EXPECT_LT(r[5].LatenessMs(), 30.0);
}

TEST(OpenLoopTest, CompletionsAreStampedInSendOrder) {
  const std::vector<double> offsets = {0.0, 0.0, 0.0};
  const std::vector<OpenLoopRecord> r = RunOpenLoop(
      offsets,
      [](size_t i) {
        return std::async(std::launch::async, [i] {
          // Request 0 answers last.
          std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 30 : 1));
          return 0;
        });
      },
      [](size_t, std::future<int>& f) { f.get(); });
  EXPECT_GE(r[0].LatencyMs(), 25.0);
  EXPECT_GE(r[1].done_ms, r[0].done_ms);
  EXPECT_GE(r[2].done_ms, r[1].done_ms);
}

TEST(InputsTest, PoissonScheduleIsSeededAndHasTheRequestedRate) {
  const std::vector<double> a = PoissonArrivals(7, 200.0, 20.0);
  const std::vector<double> b = PoissonArrivals(7, 200.0, 20.0);
  const std::vector<double> c = PoissonArrivals(8, 200.0, 20.0);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_NE(Fingerprint(a), Fingerprint(c));
  EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 4.0 * 63.3);  // 4 sigma
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 20.0);
}

TEST(InputsTest, SameSeedGivesByteIdenticalNetworksAndSeries) {
  const dyhsl::data::TrafficDataset a = MakeDataset(3, 24, 2);
  const dyhsl::data::TrafficDataset b = MakeDataset(3, 24, 2);
  const dyhsl::data::TrafficDataset c = MakeDataset(4, 24, 2);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_NE(Fingerprint(a), Fingerprint(c));
  EXPECT_EQ(a.num_nodes(), 24);
  EXPECT_EQ(a.num_steps(), 2 * 288);
}

TEST(InputsTest, DerivedSeedsAreIndependentPerStream) {
  EXPECT_EQ(DeriveSeed(1, 1), DeriveSeed(1, 1));
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(1, 2));
  EXPECT_NE(DeriveSeed(1, 1), DeriveSeed(2, 1));
}

int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  return CPU_COUNT(&set);
}

TEST(CpuRotationTest, PinsOneCpuPerStepAndRestoresTheMask) {
  const int allowed = AllowedCpus();
  {
    CpuRotation rotation;
    rotation.Next();
    EXPECT_EQ(AllowedCpus(), allowed > 1 ? 1 : allowed);
    rotation.Next();
    EXPECT_EQ(AllowedCpus(), allowed > 1 ? 1 : allowed);
  }
  EXPECT_EQ(AllowedCpus(), allowed);
}

}  // namespace
}  // namespace perfbench
