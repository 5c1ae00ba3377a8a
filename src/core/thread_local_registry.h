// Per-thread caches keyed by the id of a long-lived owner object.
//
// Model blocks keep warm per-thread state (DHSL top-k patterns, DHGNN
// hypergraph structures) without locks on the hot path: each serving
// thread looks its own entry up by the owner's id, so Forward stays const
// and concurrent workers never share mutable state.
//
// Entries must not outlive their owner: a long-lived thread that touches
// many short-lived owners (model zoo churn, per-request construction in
// tests) would otherwise grow its map without bound. A process-wide
// live-id set plus a generation counter bounds this: Retire() drops the id
// and bumps the generation, and each thread sweeps dead ids out of its map
// the next time it looks an entry up after the generation moved.
// Amortized O(1) per lookup.

#ifndef DYHSL_CORE_THREAD_LOCAL_REGISTRY_H_
#define DYHSL_CORE_THREAD_LOCAL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace dyhsl::core {

/// \brief Process-wide registry of per-thread `V` entries keyed by owner
/// id; one registry per value type. An owner calls Register() once at
/// construction, ForThread() on each use and Retire() in its destructor.
template <typename V>
class ThreadLocalRegistry {
 public:
  /// \brief A fresh live owner id.
  static uint64_t Register() {
    Shared& shared = SharedState();
    const uint64_t id = shared.next_id.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.live.insert(id);
    return id;
  }

  /// \brief Retires `id`: every thread drops its entry on its next lookup.
  static void Retire(uint64_t id) {
    Shared& shared = SharedState();
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.live.erase(id);
    shared.generation.fetch_add(1, std::memory_order_release);
  }

  /// \brief The calling thread's entry for `id`, created by `make()` on
  /// first use.
  template <typename Make>
  static V& ForThread(uint64_t id, Make make) {
    Local& local = Swept();
    auto it = local.entries.find(id);
    if (it == local.entries.end()) it = local.entries.emplace(id, make()).first;
    return it->second;
  }

  /// \brief ForThread with a default-constructed entry.
  static V& ForThread(uint64_t id) {
    return ForThread(id, [] { return V(); });
  }

  /// \brief Live entries held by the calling thread (leak tests).
  static int64_t ThreadSize() {
    return static_cast<int64_t>(Swept().entries.size());
  }

 private:
  struct Shared {
    std::mutex mu;
    std::unordered_set<uint64_t> live;
    std::atomic<uint64_t> generation{0};
    std::atomic<uint64_t> next_id{0};
  };

  struct Local {
    std::unordered_map<uint64_t, V> entries;
    uint64_t seen_generation = 0;
  };

  static Shared& SharedState() {
    // Leaked: serving threads may sweep during static destruction.
    static auto* shared = new Shared();
    return *shared;
  }

  // The calling thread's map with retired ids swept out.
  static Local& Swept() {
    thread_local Local local;
    Shared& shared = SharedState();
    const uint64_t gen = shared.generation.load(std::memory_order_acquire);
    if (gen != local.seen_generation) {
      std::lock_guard<std::mutex> lock(shared.mu);
      for (auto it = local.entries.begin(); it != local.entries.end();) {
        it = shared.live.count(it->first) ? std::next(it)
                                          : local.entries.erase(it);
      }
      local.seen_generation = gen;
    }
    return local;
  }
};

}  // namespace dyhsl::core

#endif  // DYHSL_CORE_THREAD_LOCAL_REGISTRY_H_
