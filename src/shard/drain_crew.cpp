#include "shard/drain_crew.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "util/check.hpp"

namespace ccc {

namespace {

/// How long a helper stays hot after its last task before it parks. On
/// churn-shaped traffic (16 tenants, k = 8 per tenant, 4 shards: the
/// daemon's defaults) one batch follows the last after about 61 µs of
/// encode, flush, client round trip and decode; 200 µs, about 3× that
/// gap, keeps helpers hot through a steady stream and parks them soon
/// after it pauses. Parking after every job instead (a condvar pool woken
/// per batch) ran churn slower than the serial drain on a 4-vCPU Xeon
/// guest: 1.85 M vs 2.10 M req/s.
constexpr std::chrono::microseconds kSpinBudget{200};

/// Spin iterations between clock reads while a helper waits for work.
constexpr std::uint32_t kSpinsPerClockRead = 64;

constexpr std::uint64_t kFieldMask = 0xFFFF;

constexpr std::uint64_t pack(std::uint32_t epoch, std::size_t count) {
  return (std::uint64_t{epoch} << 32) | (std::uint64_t{count} << 16);
}
constexpr std::size_t count_of(std::uint64_t word) {
  return static_cast<std::size_t>((word >> 16) & kFieldMask);
}
constexpr std::size_t next_of(std::uint64_t word) {
  return static_cast<std::size_t>(word & kFieldMask);
}
constexpr bool claimable(std::uint64_t word) {
  return next_of(word) < count_of(word);
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

/// True when the comma-separated `list` has `name` as one of its entries.
bool lists(std::string_view list, std::string_view name) {
  while (true) {
    const std::size_t comma = list.find(',');
    if (list.substr(0, comma) == name) return true;
    if (comma == std::string_view::npos) return false;
    list.remove_prefix(comma + 1);
  }
}

/// CPUs a cgroup CPU quota leaves this process, rounded down (at least 1),
/// or 0 when no quota applies. Reads cgroup v2's cpu.max, or v1's
/// cpu.cfs_quota_us / cpu.cfs_period_us, in the cgroup /proc/self/cgroup
/// names and in each of its ancestors; the tightest quota wins. A
/// quota-limited container can have a wide affinity mask, and spinning
/// helpers past its quota get the whole process throttled.
std::size_t quota_cpus() {
  std::size_t cpus = 0;
  const auto cap = [&cpus](double quota, double period) {
    if (!(quota > 0.0 && period > 0.0)) return;  // -1 / "max": no quota
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(quota / period));
    cpus = cpus == 0 ? n : std::min(cpus, n);
  };
  std::ifstream self("/proc/self/cgroup");
  std::string line;
  while (std::getline(self, line)) {
    // "<id>:<controllers>:<path>"; the v2 line has no controllers.
    const std::size_t first = line.find(':');
    const std::size_t second = line.find(':', first + 1);
    if (second == std::string::npos) continue;
    const std::string_view controllers =
        std::string_view(line).substr(first + 1, second - first - 1);
    const bool v2 = controllers.empty();
    if (!v2 && !lists(controllers, "cpu")) continue;
    const std::string root = v2 ? "/sys/fs/cgroup" : "/sys/fs/cgroup/cpu";
    for (std::string path = line.substr(second + 1);;) {
      const std::string dir = root + path + "/";
      double quota = 0.0;
      double period = 0.0;
      if (v2) {
        std::ifstream max(dir + "cpu.max");
        std::string limit;
        if (max >> limit >> period && limit != "max")
          quota = std::strtod(limit.c_str(), nullptr);
      } else {
        std::ifstream(dir + "cpu.cfs_quota_us") >> quota;
        std::ifstream(dir + "cpu.cfs_period_us") >> period;
      }
      cap(quota, period);
      const std::size_t slash = path.rfind('/');
      if (slash == std::string::npos || path.size() <= 1) break;
      path.resize(std::max<std::size_t>(slash, 1));
    }
  }
  return cpus;
}

}  // namespace

std::size_t usable_cpus() {
  std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  const std::size_t quota = quota_cpus();
  return quota != 0 ? std::min(cpus, quota) : cpus;
}

DrainCrew::DrainCrew(std::size_t helpers) {
  threads_.reserve(helpers);
  try {
    for (std::size_t h = 0; h < helpers; ++h)
      threads_.emplace_back([this] { helper_loop(); });
  } catch (...) {
    stop_and_join();
    throw;
  }
}

DrainCrew::~DrainCrew() { stop_and_join(); }

void DrainCrew::stop_and_join() noexcept {
  // seq_cst, like the job publish: park() reads the flag after its seq_cst
  // load of the claim word, so a helper that saw the old word is either
  // woken by the notify below or sees the flag.
  stopping_.store(true, std::memory_order_seq_cst);
  // A new epoch with no tasks moves the word every parked helper waits on.
  // seq_cst: see above.
  claim_.store(pack(++epoch_, 0), std::memory_order_seq_cst);
  claim_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

std::size_t DrainCrew::helpers_for(std::size_t shards) {
  const std::size_t cpus = usable_cpus();
  if (shards < 2 || cpus < 3) return 0;
  return std::min(shards - 1, cpus - 2);
}

void DrainCrew::run_job(std::size_t n, TaskFn fn, void* context) {
  CCC_REQUIRE(n <= kFieldMask, "a crew job holds at most 65535 tasks");
  ++jobs_;
  job_fn_ = fn;
  job_context_ = context;
  // Relaxed: every task of the previous job has finished (the caller saw
  // done_ reach its count), and the publishing store below releases the
  // reset to the claimers of this job.
  done_.store(0, std::memory_order_relaxed);
  // seq_cst: releases the job fields above to every claimer, and is
  // ordered before the sleepers_ load below — one half of park()'s
  // handshake.
  claim_.store(pack(++epoch_, n), std::memory_order_seq_cst);
  // seq_cst: the other half of park()'s handshake. A helper that parks
  // after this load sees the new word and does not block.
  if (sleepers_.load(std::memory_order_seq_cst) != 0) claim_.notify_all();
  while (claim_and_run()) {
  }
  // Acquire: pairs with run_task's release increment, so every task's
  // writes (events, error_) are visible once all n are counted.
  while (done_.load(std::memory_order_acquire) != n) cpu_relax();
  // Relaxed: ordered after the failing task's writes by the acquire above;
  // the reset is released to the next job's claimers by its publish.
  if (failed_.load(std::memory_order_relaxed)) {
    failed_.store(false, std::memory_order_relaxed);  // see above
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

bool DrainCrew::claim_and_run() {
  // Relaxed: only tests whether a task is left; the CAS below acquires.
  std::uint64_t word = claim_.load(std::memory_order_relaxed);
  while (claimable(word)) {
    // Success acquires: the CAS reads the publishing store or a CAS in its
    // release sequence, so this epoch's job_fn_ / job_context_ are
    // visible. The epoch in the word makes a claim on a finished job fail.
    // Failure is relaxed: the reloaded word is only re-tested.
    if (claim_.compare_exchange_weak(word, word + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      run_task(next_of(word));
      return true;
    }
  }
  return false;
}

void DrainCrew::run_task(std::size_t index) noexcept {
  try {
    job_fn_(job_context_, index);
  } catch (...) {
    // Relaxed: only the winner writes error_, and the release increment
    // below publishes it to the caller.
    if (!failed_.exchange(true, std::memory_order_relaxed))
      error_ = std::current_exception();
  }
  // Release: publishes this task's writes to run_job's acquire load.
  done_.fetch_add(1, std::memory_order_release);
}

void DrainCrew::helper_loop() {
  while (true) {
    if (claim_and_run()) continue;
    // Relaxed: the flag alone decides; a helper reads nothing after it.
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (!spin_for_work()) park();
  }
}

bool DrainCrew::spin_for_work() const {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (std::uint32_t spins = 1;; ++spins) {
    // Relaxed: a hint only; claim_and_run re-reads the word and acquires
    // on its claim, and helper_loop re-reads the flag.
    if (claimable(claim_.load(std::memory_order_relaxed)) ||
        stopping_.load(std::memory_order_relaxed))
      return true;
    cpu_relax();
    if (spins % kSpinsPerClockRead == 0 &&
        std::chrono::steady_clock::now() >= deadline)
      return false;
  }
}

void DrainCrew::park() {
  // Handshake with run_job (a store-load pair on each side, all seq_cst):
  // this increment precedes the word load below, and run_job stores the
  // word before loading sleepers_. So either the load here sees the new
  // job, or run_job sees this sleeper and notifies after its store — which
  // wakes the wait below, since the word has moved past `word`.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  // seq_cst: see above.
  const std::uint64_t word = claim_.load(std::memory_order_seq_cst);
  // seq_cst: pairs with stop_and_join's flag store.
  if (!claimable(word) && !stopping_.load(std::memory_order_seq_cst))
    claim_.wait(word, std::memory_order_seq_cst);  // until the word moves
  // Relaxed: a publisher that still reads this helper as parked only pays
  // one spare notify.
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace ccc
