#pragma once
/// \file drain_crew.hpp
/// \brief Helper threads that drain one batch's shard groups beside the
///        calling thread — the parallel half of
///        ShardedCache::access_batch(batch, events, crew).
///
/// A job is n independent tasks (one per non-empty shard group of a
/// batch). The caller publishes the job, then claims and runs tasks itself
/// next to the helpers, and returns once all n have finished. Tasks are
/// claimed dynamically from one atomic word that packs the job epoch, the
/// task count and the next unclaimed index: a helper that wakes late
/// cannot claim a finished job's task (the epoch in its CAS no longer
/// matches), and a slow group holds up only the thread running it.
///
/// Between jobs a helper spins for kSpinBudget (drain_crew.cpp), then
/// parks on std::atomic::wait over the claim word; the publisher calls
/// notify only when a helper is parked, so a busy stream of batches costs
/// no system calls and an idle crew costs no CPU.
///
/// One caller at a time: run() must not be called concurrently with
/// itself. ShardedCache stays safe to share between threads; only the
/// crew is per caller (CacheServer's loop thread owns one). Because a crew
/// follows one caller's stream of batches, it also holds ShardedCache's
/// fan-out gate slot for that stream (`last_batch_misses_`, written and
/// read only by ShardedCache, hence the friend declaration).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace ccc {

class DrainCrew {
 public:
  /// Starts `helpers` threads. With 0 helpers the crew never fans out and
  /// ShardedCache drains every batch serially on the caller.
  explicit DrainCrew(std::size_t helpers);
  /// Wakes every helper (parked or spinning) and joins it.
  ~DrainCrew();

  DrainCrew(const DrainCrew&) = delete;
  DrainCrew& operator=(const DrainCrew&) = delete;

  /// Helpers for a crew draining `shards` shards on this host:
  /// min(shards − 1, usable CPUs − 2), or 0 when that is below 1. Two CPUs
  /// stay for the caller's other work and one client; usable CPUs are the
  /// sched_getaffinity mask, capped by the cgroup CPU quota.
  [[nodiscard]] static std::size_t helpers_for(std::size_t shards);

  [[nodiscard]] std::size_t helpers() const noexcept { return threads_.size(); }

  /// Jobs handed to the helpers so far. Caller thread only.
  [[nodiscard]] std::uint64_t jobs() const noexcept { return jobs_; }

  /// Runs `task(i)` for every i in [0, n) on the caller and the helpers and
  /// returns once all n calls have finished. A task's exception is caught
  /// on whichever thread ran it; the first one is rethrown here after
  /// every task has finished, and the crew stays usable. `task` must be
  /// safe to call from several threads at once for different i.
  template <class Task>
  void run(std::size_t n, Task& task) {
    run_job(n, &call<Task>, &task);
  }

 private:
  friend class ShardedCache;

  using TaskFn = void (*)(void* context, std::size_t index);

  template <class Task>
  static void call(void* context, std::size_t index) {
    (*static_cast<Task*>(context))(index);
  }

  void run_job(std::size_t n, TaskFn fn, void* context);
  void stop_and_join() noexcept;
  void helper_loop();
  /// Claims one task of the published job and runs it; false when every
  /// task of the job is already claimed.
  bool claim_and_run();
  void run_task(std::size_t index) noexcept;
  /// Spins for at most kSpinBudget; true once a task is claimable or the
  /// crew is stopping.
  bool spin_for_work() const;
  void park();

  /// Epoch (bits 63..32) | task count (31..16) | next index (15..0).
  std::atomic<std::uint64_t> claim_{0};
  /// Tasks of the current job that have finished.
  std::atomic<std::uint32_t> done_{0};
  /// Helpers inside park(); the publisher notifies only when non-zero.
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stopping_{false};
  /// Set by the first task that throws; its exception goes to `error_`.
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;

  /// The published job: written by the caller before the claim word is
  /// stored, read by a helper only after it claimed a task of that job.
  TaskFn job_fn_ = nullptr;
  void* job_context_ = nullptr;
  std::uint32_t epoch_ = 0;  ///< caller thread only
  std::uint64_t jobs_ = 0;   ///< caller thread only
  /// ShardedCache's fan-out gate slot: misses the previous batch drained
  /// through this crew served. Caller thread only.
  std::size_t last_batch_misses_ = 0;

  std::vector<std::thread> threads_;  ///< declared last: they use the above
};

}  // namespace ccc
