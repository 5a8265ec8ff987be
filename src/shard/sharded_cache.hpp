#pragma once
/// \file sharded_cache.hpp
/// \brief Hash-partitioned concurrent frontend over S independent policy
///        instances — the standard systems move for serving heavy
///        concurrent traffic from one logical cache.
///
/// Pages are partitioned by a mixed hash of their id; shard s owns the
/// pages with `shard_of(page) == s` and runs its own ReplacementPolicy
/// (ALG-DISCRETE by default, via make_convex_factory) over its own
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
/// for any batch size. Aggregation (metrics, costs, stats) locks shards one
/// at a time — locks are never nested, so the layer cannot deadlock.
///
/// With `HitPath::kSeqlock` the common case — a hit on a page whose budget
/// is already current — bypasses the mutex entirely: readers probe a flat
/// per-shard residency table validated by a per-shard sequence counter and
/// an eviction epoch, and fall back to the locked path on a torn read, a
/// miss, or a stale budget stamp. Sound for ALG-DISCRETE only (enforced at
/// construction) because such a "fresh" hit is a pure state no-op there;
/// DESIGN.md §10 gives the full argument and the memory-order recipe.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "shard/seqlock_table.hpp"
#include "sim/simulator.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ccc {

class ConvexCachingPolicy;

/// Splits `total` capacity into `shards` parts differing by at most one
/// page (the first `total % shards` shards get the extra page). Every
/// shard receives at least one page; throws if `total < shards`.
[[nodiscard]] std::vector<std::size_t> even_split(std::size_t total,
                                                 std::size_t shards);

/// Miss-rate-driven split: capacity proportional to each shard's share of
/// the observed misses (+1 smoothing so an idle shard keeps a foothold),
/// floored at `min_per_shard`, remainder to the heaviest missers. The
/// default rebalancer hook feeds recent per-shard miss counts through this.
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

/// How hits reach their shard.
enum class HitPath {
  kLocked,   ///< every request takes the shard mutex (the safe default)
  kSeqlock,  ///< fresh hits go lock-free; misses/evictions take the mutex
};

struct ShardedCacheOptions {
  std::size_t capacity = 0;    ///< total pages summed across shards
  std::size_t num_shards = 1;
  std::uint32_t num_tenants = 0;
  std::uint64_t seed = 1;      ///< shard s seeds its policy with seed + s
  /// Capacity floor per shard enforced by the default rebalancer.
  std::size_t min_shard_capacity = 1;
  /// kSeqlock requires an ALG-DISCRETE policy (the default factory) with
  /// `window_length == 0` — the constructor rejects anything else, since
  /// the optimistic path is only sound when a fresh hit changes no policy
  /// state. Single-threaded replays produce bit-identical metrics, events
  /// and victim sequences on either path.
  HitPath hit_path = HitPath::kLocked;
  /// Optional observability hook, shared by *all* shards — it must be
  /// thread-safe (obs::SimObserver is: lock-free histograms, mutexed trace
  /// writer). Requires a `CCC_OBS=ON` build; the per-shard session
  /// constructors throw otherwise, so observation is never silently lost.
  StepObserver* step_observer = nullptr;
};

/// Raw per-shard ingredients of the online dual lower bound (DESIGN.md
/// §13): the cumulative y-mass Σ B(victim) split by victim owner and the
/// per-tenant eviction counts m(i,s) that cap the dual coefficients at
/// f'_i(m(i,s)). Each shard is its own (CP) instance with capacity k_s, so
/// the Fenchel correction must be applied per shard — obs::CostTracker
/// keeps these accounts separate instead of summing them element-wise.
struct ShardDualAccount {
  /// False unless the shard runs ALG-DISCRETE in the paper's whole-run
  /// configuration (see ConvexCachingPolicy::dual_certificate_valid).
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
  /// Computes a new capacity split from the current per-shard stats. Must
  /// return `num_shards()` positive entries summing to the total capacity
  /// (rebalance() validates and throws otherwise).
  using RebalanceHook =
      std::function<std::vector<std::size_t>(const std::vector<ShardStats>&)>;

  /// `factory` builds one independent policy per shard (nullptr selects
  /// ALG-DISCRETE via make_convex_factory). `costs`, when provided, must
  /// hold one function per tenant and outlive the cache.
  ShardedCache(ShardedCacheOptions options, PolicyFactory factory,
               const std::vector<CostFunctionPtr>* costs);

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Routes one request to its shard (locks it) and returns what happened.
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
  void access_batch(std::span<const Request> batch,
                    std::vector<StepEvent>& events);

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

  /// Σ_i f_i(Σ_s misses_{i,s}) under the constructor's cost functions;
  /// throws if none were provided.
  [[nodiscard]] double global_miss_cost() const;

  /// Whether the constructor received per-tenant cost functions.
  [[nodiscard]] bool has_costs() const noexcept { return costs_ != nullptr; }

  /// The constructor's per-tenant cost functions (nullptr when absent) —
  /// read by the obs snapshot helpers to price per-tenant misses.
  [[nodiscard]] const std::vector<CostFunctionPtr>* costs() const noexcept {
    return costs_;
  }

  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  [[nodiscard]] std::vector<std::size_t> capacities() const;

  /// One dual account per shard, read under each shard's mutex (locks are
  /// taken one at a time, like every other aggregation path). Accounts are
  /// `valid == false` when the shard's policy is not ALG-DISCRETE in the
  /// certificate-bearing configuration; obs::CostTracker then reports no
  /// lower bound rather than a wrong one.
  [[nodiscard]] std::vector<ShardDualAccount> dual_accounts() const;

  /// Replaces the rebalancer (nullptr restores the default miss-rate hook).
  void set_rebalance_hook(RebalanceHook hook);

  /// Recomputes the capacity split from current shard stats via the hook
  /// and applies it: growing shards just get headroom, shrinking shards
  /// drain immediately through their policy's eviction path (see
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
    /// and never reseated).
    std::unique_ptr<ReplacementPolicy> policy CCC_PT_GUARDED_BY(mutex);
    std::unique_ptr<SimulatorSession> session CCC_PT_GUARDED_BY(mutex);
    /// Time spent processing this shard's requests (timed per access()
    /// call / per batch group, so batched ingestion amortizes the clock
    /// reads). Summed by aggregated_perf().
    double wall_seconds CCC_GUARDED_BY(mutex) = 0.0;
    mutable util::Mutex mutex;

    // ---- seqlock hit path (allocated only under HitPath::kSeqlock) ----
    /// Lock-free residency mirror (protocol lives in seqlock_table.hpp):
    /// readers probe it with no lock; all writer-side members are called
    /// only while holding `mutex` (single writer). Sized once at ≥ 2x the
    /// *total* capacity so rebalancing never reallocates under a
    /// concurrent reader.
    SeqlockResidencyTable<StdAtomics> table;
    /// Downcast view of `policy` (kSeqlock requires ALG-DISCRETE, so the
    /// cast is checked once at construction). Read under `mutex` right
    /// after each locked step to learn which freshness signals the
    /// eviction raised — whether the shared offset moved and whether the
    /// victim tenant's budgets were re-based — so evict_and_insert can
    /// stale exactly the entries whose effective budgets changed.
    const ConvexCachingPolicy* convex CCC_PT_GUARDED_BY(mutex) = nullptr;
    /// Per-tenant hits served lock-free (folded into metrics/perf on
    /// aggregation; never written by the locked path).
    std::unique_ptr<std::atomic<std::uint64_t>[]> lockfree_hits;
  };

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
  /// Processes one shard's slice of a batch in submission order. Under
  /// kSeqlock the slice is served as alternating runs: a lock-free run of
  /// fresh hits, then — at the first request needing the mutex — a locked
  /// run that ends once a streak of already-fresh hits shows the
  /// optimistic path is viable again. Locked runs use probe-ahead
  /// prefetching. `group == nullptr` means the slice is the whole batch
  /// (single-shard fast path).
  void process_group(Shard& shard, std::span<const Request> batch,
                     const std::vector<std::size_t>* group,
                     std::vector<StepEvent>* events, std::size_t base);
  /// Both access_batch overloads: groups `batch` by shard and drains each
  /// group; `events` (when non-null) receives outcomes from `base` on.
  void dispatch(std::span<const Request> batch,
                std::vector<StepEvent>* events, std::size_t base);

  ShardedCacheOptions options_;
  const std::vector<CostFunctionPtr>* costs_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  RebalanceHook rebalance_hook_;
};

}  // namespace ccc
