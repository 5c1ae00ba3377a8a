// Open-loop load generation: requests go out on a fixed schedule whether
// or not earlier ones have been answered, and each request's latency is
// timed from the moment it was *due*, so a stall that delays later sends
// is charged to those requests too (no coordinated omission).

#ifndef PERFBENCH_SRC_OPENLOOP_H_
#define PERFBENCH_SRC_OPENLOOP_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/stats.h"

namespace perfbench {

/// \brief Timeline of one open-loop request, in ms from the run start.
struct OpenLoopRecord {
  double scheduled_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;

  /// End-to-end latency as the user sees it: from the scheduled send.
  double LatencyMs() const { return done_ms - scheduled_ms; }
  /// How late the generator issued the request.
  double LatenessMs() const { return sent_ms - scheduled_ms; }
};

/// \brief Runs one open loop over `offsets_s` (seconds from the start).
///
/// A generator thread (the caller) calls `send(i)` at each scheduled time
/// and hands the returned handle to a collector thread, which calls
/// `await(i, handle)` in send order and stamps the completion. Requests
/// answered out of order are stamped no earlier than the ones before
/// them; a flushed micro-batch answers its members together, so the
/// error is the stitch time of a batch.
template <typename Send, typename Await>
std::vector<OpenLoopRecord> RunOpenLoop(const std::vector<double>& offsets_s,
                                        Send send, Await await) {
  using Handle = decltype(send(size_t{0}));
  std::vector<OpenLoopRecord> records(offsets_s.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, Handle>> in_flight;
  bool done_sending = false;

  const Clock::time_point start = Clock::now();
  std::thread collector([&] {
    while (true) {
      std::pair<size_t, Handle> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done_sending || !in_flight.empty(); });
        if (in_flight.empty()) return;
        item = std::move(in_flight.front());
        in_flight.pop_front();
      }
      await(item.first, item.second);
      records[item.first].done_ms = MsBetween(start, Clock::now());
    }
  });
  for (size_t i = 0; i < offsets_s.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets_s[i]));
    std::this_thread::sleep_until(due);
    records[i].scheduled_ms = 1000.0 * offsets_s[i];
    records[i].sent_ms = MsBetween(start, Clock::now());
    Handle handle = send(i);
    {
      std::lock_guard<std::mutex> lock(mu);
      in_flight.emplace_back(i, std::move(handle));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();
  return records;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OPENLOOP_H_
