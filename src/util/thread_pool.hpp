// Work-stealing-free, fixed-size thread pool with a parallel_for front end.
//
// The experiment harness runs many independent (λ, h, Lm) simulation points;
// each point is single-threaded (a cycle-accurate simulator is inherently
// sequential across cycles) so we parallelise across points. Dynamic
// chunk-of-one scheduling keeps long near-saturation points from straggling
// behind short low-load points.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kncube::util {

/// One bounded spin-then-yield step of a busy-wait loop; call with a counter
/// starting at 0. The first iterations issue cheap pause hints (good when the
/// awaited thread runs on another core); after that the waiter yields its
/// timeslice so single-core machines make progress instead of burning the
/// quantum.
void spin_backoff(unsigned& spins) noexcept;

/// Reusable sense-reversing barrier for a fixed set of `parties` threads.
///
/// arrive_and_wait() is a full synchronisation point: every write performed
/// by any party before arriving happens-before everything any party executes
/// after leaving (arrivals are acq_rel, the generation bump is a release the
/// waiters acquire). Waiting is spin_backoff-based — intended for short,
/// frequent phases (the sharded simulator meets at one per cycle), not for
/// long sleeps.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) noexcept : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() noexcept;

 private:
  std::atomic<std::uint64_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::size_t parties_;
};

/// A fixed team of cooperating members for barrier-style parallel phases.
///
/// Unlike ThreadPool (a task queue for independent work items), a ThreadTeam
/// runs the *same* callable on every member simultaneously — run(fn) invokes
/// fn(member) for member 0..members-1, with the caller participating as
/// member 0 — and blocks until all members return. Members may coordinate
/// inside fn with a SpinBarrier. Workers spin briefly between runs (so
/// back-to-back invocations, e.g. one per simulated cycle, hand off in
/// nanoseconds) and fall back to a condition-variable sleep when idle, so a
/// constructed-but-unused team costs nothing.
///
/// run() is a full fork/join: caller writes before run() are visible to every
/// member, and every member's writes are visible to the caller after run()
/// returns.
class ThreadTeam {
 public:
  /// Total member count including the caller; members - 1 threads spawn.
  explicit ThreadTeam(std::size_t members);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  std::size_t members() const noexcept { return members_; }

  /// Runs fn(member) on all members and blocks until every one returns.
  /// Not reentrant; exceptions from fn must not escape (the phase work the
  /// team exists for is noexcept).
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t member);

  std::size_t members_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t sleepers_ = 0;  ///< guarded by mutex_
  std::vector<std::thread> threads_;
};

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// iterations finish. Exceptions from the body propagate (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience: one-shot parallel for on a process-wide pool.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

/// The process-wide pool (lazily constructed). Size can be pinned by setting
/// KNCUBE_THREADS before first use.
ThreadPool& global_pool();

}  // namespace kncube::util
