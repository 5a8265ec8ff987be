#pragma once
/// \file sharded_cache.hpp
/// \brief Hash-partitioned concurrent frontend over S independent policy
///        instances — the standard systems move for serving heavy
///        concurrent traffic from one logical cache.
///
/// Pages are partitioned by a mixed hash of their id; shard s owns the
/// pages with `shard_of(page) == s` and runs its own whole-run
/// ALG-DISCRETE instance (Fig. 3, ConvexCachingPolicy) over its own
/// CacheState, budgets and eviction index, behind a per-shard mutex. The
/// decomposition is sound for the paper's algorithm because ALG-DISCRETE's
/// entire state — budgets B(p), per-tenant miss counts m(i), the global
/// debit offset and the per-tenant bumps — is a function of the requests
/// the instance itself served; restricted to the page subset P ∩ shard_s
/// each shard is simply a smaller instance of the §1.2 problem (cf. the
/// per-pool decomposition in src/multipool, and the Landlord credit
/// locality that makes per-shard budget state independent).
///
/// What partitioning costs: each shard pays Σ_i f_i(m_{i,s}) against *its*
/// offline optimum with capacity k_s, so the summed guarantee is
/// α·Σ_s OPT_s(k_s) — and Σ_s OPT_s(k_s) can exceed the unsharded OPT(k)
/// because OPT can no longer move capacity between page subsets.
/// Experiment E10 measures exactly this degradation next to the throughput
/// the parallelism buys.
///
/// Concurrency contract: any number of threads may call access() /
/// access_batch() concurrently. Requests hitting different shards proceed
/// in parallel; requests hitting the same shard serialize on that shard's
/// mutex, in the caller-observed arrival order of lock acquisition.
/// access_batch() groups its requests by shard and takes each shard lock
/// once per group, amortizing lock traffic; within a batch, per-shard
/// request order is preserved, so single-threaded replays are deterministic
/// for any batch size. Given a DrainCrew, access_batch() may drain one
/// batch's groups on several threads at once: they touch disjoint shards,
/// so the books and the batch-order events are those of the serial drain.
/// Aggregation (metrics, costs, stats) locks shards one at a time — locks
/// are never nested, so the layer cannot deadlock.
///
/// With `HitPath::kSeqlock` the common case — a hit on a page whose budget
/// is already current — bypasses the mutex entirely: readers probe a flat
/// per-shard residency table validated by a per-shard sequence counter and
/// an eviction epoch, and fall back to the locked path on a torn read, a
/// miss, or a stale budget stamp. Sound because such a "fresh" hit is a
/// pure state no-op in whole-run ALG-DISCRETE — the one policy this
/// frontend serves, on either hit path (checked at construction);
/// DESIGN.md §10 gives the full argument and the memory-order recipe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/convex_caching.hpp"
#include "shard/drain_crew.hpp"
#include "shard/seqlock_table.hpp"
#include "sim/simulator.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ccc {

/// Splits `total` capacity into `shards` parts differing by at most one
/// page (the first `total % shards` shards get the extra page). Every
/// shard receives at least one page; throws if `total < shards`.
[[nodiscard]] std::vector<std::size_t> even_split(std::size_t total,
                                                 std::size_t shards);

/// Miss-rate-driven split: capacity proportional to each shard's share of
/// the observed misses (+1 smoothing so an idle shard keeps a foothold),
/// floored at `min_per_shard`, remainder to the heaviest missers.
/// ShardedCache::rebalance() feeds the per-shard miss counts through this.
[[nodiscard]] std::vector<std::size_t> miss_rate_split(
    std::size_t total, const std::vector<std::uint64_t>& misses,
    std::size_t min_per_shard);

/// Pure shard router: the shard index a ShardedCache built with
/// `num_shards` shards assigns `page` to. Exposed as a free function so
/// external trace partitioners — the e11 loopback load generator assigns
/// each shard's subsequence to one connection to keep networked replays
/// deterministic (DESIGN.md §12) — can replicate the mapping exactly.
[[nodiscard]] std::size_t shard_of_page(PageId page,
                                        std::size_t num_shards) noexcept;

/// How hits reach their shard. Both paths serve the same ALG-DISCRETE
/// shards and single-threaded replays produce bit-identical metrics, events
/// and victim sequences on either; kLocked is the seqlock drain with the
/// lock-free probe switched off.
enum class HitPath {
  kLocked,   ///< every request takes the shard mutex (the default)
  kSeqlock,  ///< fresh hits go lock-free; misses/evictions take the mutex
};

struct ShardedCacheOptions {
  std::size_t capacity = 0;    ///< total pages summed across shards
  std::size_t num_shards = 1;
  std::uint32_t num_tenants = 0;
  std::uint64_t seed = 1;      ///< shard s seeds its policy with seed + s
  /// Capacity floor per shard enforced by rebalance().
  std::size_t min_shard_capacity = 1;
  HitPath hit_path = HitPath::kLocked;
  /// Optional observability hook, shared by *all* shards — it must be
  /// thread-safe (obs::SimObserver is: lock-free histograms, mutexed trace
  /// writer). nullptr = unobserved.
  StepObserver* step_observer = nullptr;
};

/// Raw per-shard ingredients of the online dual lower bound (DESIGN.md
/// §13): the cumulative y-mass Σ B(victim) split by victim owner and the
/// per-tenant eviction counts m(i,s) that cap the dual coefficients at
/// f'_i(m(i,s)). Each shard is its own (CP) instance with capacity k_s, so
/// the Fenchel correction must be applied per shard — obs::CostTracker
/// keeps these accounts separate instead of summing them element-wise.
struct ShardDualAccount {
  /// False when the shard's ALG-DISCRETE runs an ablation that voids the
  /// certificate (see ConvexCachingPolicy::dual_certificate_valid).
  bool valid = false;
  std::vector<double> mass;                 ///< Σ B(victim) per tenant
  std::vector<std::uint64_t> evictions;     ///< m(i, s) per tenant
};

/// Per-shard observability snapshot (inputs to rebalancing decisions).
struct ShardStats {
  std::size_t capacity = 0;
  std::size_t resident = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double miss_rate() const noexcept {
    const std::uint64_t accesses = hits + misses;
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

class ShardedCache {
 public:
  /// `factory` builds one independent policy per shard (nullptr selects
  /// make_convex_factory()). On either hit path every shard must run
  /// whole-run ALG-DISCRETE: the constructor throws unless the factory
  /// builds a ConvexCachingPolicy with `window_length == 0` and `costs` is
  /// non-null. `costs` must hold one function per tenant and outlive the
  /// cache.
  ShardedCache(ShardedCacheOptions options, PolicyFactory factory,
               const std::vector<CostFunctionPtr>* costs);

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Serves one request as a one-request batch and returns what happened.
  StepEvent access(const Request& request);

  /// Groups `batch` by shard, then processes each group under one lock
  /// acquisition. Thread-safe; per-shard request order within the batch is
  /// preserved.
  void access_batch(std::span<const Request> batch);

  /// As above, additionally appending one StepEvent per request to
  /// `events` *in batch order*: after the call, `events[old_size + i]` is
  /// the outcome of `batch[i]` regardless of how the requests were grouped
  /// across shards. (Events used to come back shard-grouped, which made it
  /// impossible for callers to match an event to its request.)
  ///
  /// With a `crew`, the caller and the crew's helpers drain the batch's
  /// shard groups at once when the batch is worth it: at least two groups
  /// are non-empty and the previous batch through this crew served at
  /// least kFanOutMinMisses (sharded_cache.cpp) misses. Otherwise the
  /// groups drain serially on the caller. Events, books and per-shard
  /// order are identical either way. A group's exception is rethrown here
  /// after every other group has finished. One caller per crew at a time.
  void access_batch(std::span<const Request> batch,
                    std::vector<StepEvent>& events,
                    DrainCrew* crew = nullptr);

  [[nodiscard]] std::size_t shard_of(PageId page) const noexcept;
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::uint32_t num_tenants() const noexcept {
    return options_.num_tenants;
  }
  [[nodiscard]] std::size_t total_capacity() const noexcept {
    return options_.capacity;
  }

  /// Per-tenant metrics summed across shards — the global books. In
  /// particular miss_vector() feeds the paper objective Σ_i f_i(misses_i),
  /// which stays a *global* quantity even though each shard only tracked
  /// its own share.
  [[nodiscard]] Metrics aggregated_metrics() const;

  /// Index/work counters summed across shards via PerfCounters::merge —
  /// every field, including wall-clock. Each shard accumulates the time
  /// spent processing its requests under its own lock, so the aggregated
  /// `wall_seconds` is the **sum of per-shard processing time**: under a
  /// serial replay it equals the elapsed request-loop time; under a
  /// parallel replay it is the combined CPU-side shard time, an upper
  /// bound on the elapsed wall-clock (ParallelReplayer measures elapsed
  /// time around its parallel section and reports that separately).
  /// Either way `ns_per_request()` on the aggregate is meaningful — it is
  /// the average per-request processing cost inside the shard locks.
  [[nodiscard]] PerfCounters aggregated_perf() const;

  /// Σ_i f_i(Σ_s misses_{i,s}) under the constructor's cost functions.
  [[nodiscard]] double global_miss_cost() const;

  /// The constructor's per-tenant cost functions — read by the obs
  /// snapshot helpers and the server's debug surface to price misses.
  [[nodiscard]] const std::vector<CostFunctionPtr>& costs() const noexcept {
    return *costs_;
  }

  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  [[nodiscard]] std::vector<std::size_t> capacities() const;

  /// One dual account per shard, read under each shard's mutex (locks are
  /// taken one at a time, like every other aggregation path). Accounts are
  /// `valid == false` when the shard's ALG-DISCRETE runs a
  /// certificate-voiding ablation; obs::CostTracker then reports no lower
  /// bound rather than a wrong one.
  [[nodiscard]] std::vector<ShardDualAccount> dual_accounts() const;

  /// Recomputes the capacity split from the per-shard miss counts
  /// (miss_rate_split, floored at `min_shard_capacity`) and applies it:
  /// growing shards just get headroom, shrinking shards drain immediately
  /// through their policy's eviction path (see
  /// SimulatorSession::resize). Data-race-free against concurrent access
  /// in both hit-path modes (each shard is resized under its mutex, and
  /// under kSeqlock the table rebuild sits inside an odd seq window so
  /// lock-free readers retry); note the split is computed from a
  /// moment-in-time stats snapshot, so concurrent traffic can make it
  /// mildly stale — harmless, the next rebalance catches up.
  void rebalance();

  /// Read-only view of one shard's session (tests / diagnostics; take care
  /// not to race a concurrent replay).
  [[nodiscard]] const SimulatorSession& shard_session(std::size_t shard) const;

 private:
  struct Shard {
    /// Policy and session state is mutated only under `mutex` — the
    /// pt_guarded_by annotations make the analysis reject any unlocked
    /// dereference (the pointers themselves are set once at construction
    /// and never reseated). The policy is read right after each locked
    /// step for the freshness signals its eviction raised — whether the
    /// shared offset moved and whether the victim tenant's budgets were
    /// re-based — so evict_and_insert stales exactly the entries whose
    /// effective budgets changed.
    std::unique_ptr<ConvexCachingPolicy> policy CCC_PT_GUARDED_BY(mutex);
    std::unique_ptr<SimulatorSession> session CCC_PT_GUARDED_BY(mutex);
    /// Time spent processing this shard's requests (timed per locked run,
    /// so batched ingestion amortizes the clock reads). Summed by
    /// aggregated_perf().
    double wall_seconds CCC_GUARDED_BY(mutex) = 0.0;
    mutable util::Mutex mutex;

    /// Lock-free residency mirror (protocol lives in seqlock_table.hpp),
    /// allocated only under HitPath::kSeqlock: readers probe it with no
    /// lock; all writer-side members are called only while holding
    /// `mutex` (single writer). Sized once at ≥ 2x the *total* capacity so
    /// rebalancing never reallocates under a concurrent reader.
    SeqlockResidencyTable<StdAtomics> table;
    /// Per-tenant hits served lock-free (folded into metrics/perf on
    /// aggregation; never written by the locked path).
    std::unique_ptr<std::atomic<std::uint64_t>[]> lockfree_hits;
  };

  /// Hits `shard` served lock-free: added per tenant into `metrics` when
  /// non-null, and returned as a total.
  std::uint64_t fold_lockfree_hits(const Shard& shard,
                                   Metrics* metrics) const;

  /// Lock-free fast path: returns true iff `request` was a fresh hit and
  /// has been fully served (event filled in, hit tallied). Must NOT hold
  /// the shard mutex (the whole point; also keeps the analysis honest
  /// about which side of the protocol this is).
  bool try_seqlock_hit(Shard& shard, const Request& request,
                       StepEvent& event) const CCC_EXCLUDES(shard.mutex);
  /// Mirrors one locked step's outcome into the shard's residency table.
  /// Returns true iff the event was a hit whose stamp was already current
  /// — i.e. the optimistic path would have served it; process_group uses
  /// that as its resume signal.
  bool apply_event_seqlock(Shard& shard, const StepEvent& event)
      CCC_REQUIRES(shard.mutex);
  /// The one request path: processes one shard's slice of a batch in
  /// submission order, as alternating runs — a lock-free run of fresh hits,
  /// then, at the first request needing the mutex, a locked run that ends
  /// once a streak of already-fresh hits shows the optimistic path is
  /// viable again. Under kLocked the lock-free probe is off, so the whole
  /// slice is one locked run. Locked runs use probe-ahead prefetching.
  /// `group == nullptr` means the slice is the whole batch; `events` (when
  /// non-null) receives the outcome of `batch[i]` at `events[i]`. Returns
  /// how many of the slice's requests missed.
  std::size_t process_group(Shard& shard, std::span<const Request> batch,
                            const std::vector<std::size_t>* group,
                            StepEvent* events);
  /// Both access_batch overloads: groups `batch` by shard and drains each
  /// group, through `crew` when non-null and the fan-out gate opens;
  /// `events` (when non-null) receives the outcome of `batch[i]` at
  /// `events[i]`.
  void dispatch(std::span<const Request> batch, StepEvent* events,
                DrainCrew* crew);

  ShardedCacheOptions options_;
  const std::vector<CostFunctionPtr>* costs_;  ///< non-null, not owned
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ccc
