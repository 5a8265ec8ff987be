#include "shard/sharded_cache.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/check.hpp"
#include "util/flat_map.hpp"

namespace ccc {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// How far ahead access_batch probes the residency hash while draining a
/// shard group: far enough to cover the memory latency of one probe, near
/// enough that the prefetched line is still resident when reached.
constexpr std::size_t kPrefetchDistance = 8;

/// Locked runs inside a seqlock-mode batch hand back to the optimistic
/// path after this many consecutive already-fresh hits. Small enough to
/// resume quickly once the post-eviction restamping settles, large enough
/// that one lucky fresh hit inside an eviction storm doesn't cause
/// lock/unlock churn.
constexpr std::size_t kSeqlockResumeStreak = 4;

/// With a DrainCrew, access_batch fans a batch out only when the previous
/// batch through the same crew served at least this many misses — a
/// property of the traffic, and the same on both hit paths. Misses are the
/// work worth splitting: each runs an eviction, while a hit is a few tens
/// of ns even under the lock. (Gating on requests that took a lock instead
/// would hold the gate open for every kLocked batch.) Fanning out every
/// multi-shard batch cost pressure 8–22% throughput on a 4-vCPU Xeon guest.
/// Misses per 256-request batch (mean, 1st–99th percentile), and the share
/// of batches this gate fans out, on perfbench's workloads (seed 1, 4
/// shards, four passes from a cold cache, either hit path):
///
///   workload   misses per batch   fanned out
///   churn      169.8 (149–190)      99.97%
///   pressure     3.8 (0–9)           0.02%
///   serving      0.1 (0–0)           0.03% (cold-start warm-up only)
constexpr std::size_t kFanOutMinMisses = 64;

/// Smallest power of two ≥ `n` (and ≥ 16).
std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::vector<std::size_t> even_split(std::size_t total, std::size_t shards) {
  CCC_REQUIRE(shards > 0, "need at least one shard");
  CCC_REQUIRE(total >= shards, "need at least one page of capacity per shard");
  std::vector<std::size_t> split(shards, total / shards);
  for (std::size_t s = 0; s < total % shards; ++s) ++split[s];
  return split;
}

std::vector<std::size_t> miss_rate_split(
    std::size_t total, const std::vector<std::uint64_t>& misses,
    std::size_t min_per_shard) {
  const std::size_t shards = misses.size();
  CCC_REQUIRE(shards > 0, "need at least one shard");
  CCC_REQUIRE(min_per_shard >= 1, "shard capacities must stay positive");
  CCC_REQUIRE(total >= shards * min_per_shard,
              "total capacity below the per-shard floor");

  // Weight = observed misses + 1 (smoothing: an idle shard keeps a claim).
  double weight_sum = 0.0;
  for (const std::uint64_t m : misses)
    weight_sum += static_cast<double>(m) + 1.0;

  std::vector<std::size_t> split(shards, min_per_shard);
  std::size_t remaining = total - shards * min_per_shard;
  const std::size_t distributable = remaining;
  for (std::size_t s = 0; s < shards && remaining > 0; ++s) {
    const double w = (static_cast<double>(misses[s]) + 1.0) / weight_sum;
    const auto give = std::min(
        remaining,
        static_cast<std::size_t>(w * static_cast<double>(distributable)));
    split[s] += give;
    remaining -= give;
  }
  // Rounding leftovers go to the heaviest missers first.
  std::vector<std::size_t> order(shards);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&misses](std::size_t a, std::size_t b) {
                     return misses[a] > misses[b];
                   });
  for (std::size_t i = 0; remaining > 0; i = (i + 1) % shards) {
    ++split[order[i]];
    --remaining;
  }
  return split;
}

ShardedCache::ShardedCache(ShardedCacheOptions options, PolicyFactory factory,
                           const std::vector<CostFunctionPtr>* costs)
    : options_(options), costs_(costs) {
  CCC_REQUIRE(options_.num_shards > 0, "need at least one shard");
  CCC_REQUIRE(options_.num_tenants > 0, "need at least one tenant");
  CCC_REQUIRE(options_.capacity >= options_.num_shards,
              "need at least one page of capacity per shard");
  CCC_REQUIRE(options_.min_shard_capacity >= 1,
              "shard capacities must stay positive");
  CCC_REQUIRE(costs_ != nullptr,
              "ShardedCache needs per-tenant cost functions (ALG-DISCRETE "
              "prices every miss with them)");
  if (factory == nullptr) factory = make_convex_factory();

  const std::vector<std::size_t> split =
      even_split(options_.capacity, options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    std::unique_ptr<ReplacementPolicy> policy = factory();
    CCC_CHECK(policy != nullptr, "policy factory returned null");
    // Both hit paths serve whole-run ALG-DISCRETE. The optimistic path
    // serves a "fresh" hit without consulting the policy, which is sound
    // only when that hit would have been a pure state no-op: true for
    // ALG-DISCRETE (a hit re-freezes the budget to the value it already
    // has unless an eviction intervened) but not in general (LRU must move
    // the page to the MRU position on every hit). The locked path keeps
    // the same contract so the two stay bit-identical.
    const auto* convex =
        dynamic_cast<const ConvexCachingPolicy*>(policy.get());
    CCC_REQUIRE(convex != nullptr,
                "ShardedCache requires ALG-DISCRETE shard policies (hits "
                "must be read-only)");
    CCC_REQUIRE(convex->options().window_length == 0,
                "ShardedCache is incompatible with windowed accounting "
                "(window rollovers re-base budgets on hits)");
    shard->policy.reset(static_cast<ConvexCachingPolicy*>(policy.release()));
    if (options_.hit_path == HitPath::kSeqlock) {
      // One table sized for the *total* capacity: rebalancing may hand
      // this shard (almost) everything, and reallocation would pull the
      // arrays out from under concurrent lock-free readers. Tenant count
      // sizes the per-tenant epoch array (per-tenant freshness).
      shard->table.allocate(pow2_at_least(2 * options_.capacity + 2),
                            options_.num_tenants);
    }
    // Value-initialized, so every tally starts at zero.
    shard->lockfree_hits = std::make_unique<std::atomic<std::uint64_t>[]>(
        options_.num_tenants);
    SimOptions sim_options;
    sim_options.seed = options_.seed + s;
    sim_options.step_observer = options_.step_observer;
    {
      // No other thread can reach this shard yet; the lock exists purely
      // so the thread-safety analysis accepts dereferencing the guarded
      // policy pointee while wiring it into the session.
      const util::MutexLock lock(shard->mutex);
      shard->session = std::make_unique<SimulatorSession>(
          split[s], options_.num_tenants, *shard->policy, costs_, sim_options);
    }
    shards_.push_back(std::move(shard));
  }
}

std::size_t shard_of_page(PageId page, std::size_t num_shards) noexcept {
  // Multiply-shift range reduction over the mixed id: the shard is decided
  // by the *high* bits of splitmix64(page), leaving the low bits — which
  // the flat residency tables use for slot selection — unconstrained
  // within a shard. (A plain `mix % S` with S a power of two would pin the
  // low bits per shard and collapse every in-shard table onto 1/S of its
  // slots.) PageIds carry the owning tenant in their high bits
  // (types.hpp), so the pre-mix is what decorrelates shard choice from
  // tenant identity.
  const std::uint64_t hi = util::splitmix64(page) >> 32;
  return static_cast<std::size_t>(
      (hi * static_cast<std::uint64_t>(num_shards)) >> 32);
}

std::size_t ShardedCache::shard_of(PageId page) const noexcept {
  return shard_of_page(page, shards_.size());
}

bool ShardedCache::try_seqlock_hit(Shard& shard, const Request& request,
                                   StepEvent& event) const {
  // Reader side of the Boehm seqlock recipe — the protocol itself lives
  // in SeqlockResidencyTable::try_fresh_hit (seqlock_table.hpp), which is
  // also the exact code the interleaving model checker explores. Any
  // torn, in-progress or ambiguous observation falls back to the mutex —
  // the fallback is always correct, just slower.
  if (request.tenant >= options_.num_tenants) return false;  // locked throw
  if (!shard.table.try_fresh_hit(request.page, request.tenant)) return false;
  // Relaxed tally: each slot is written by exactly this kind of
  // increment; aggregation folds it in under the shard mutex, and the
  // count is not part of the protocol's correctness argument.
  shard.lockfree_hits[request.tenant].fetch_add(1,
                                                std::memory_order_relaxed);
  event = StepEvent{};
  event.request = request;
  event.hit = true;
  return true;
}

bool ShardedCache::apply_event_seqlock(Shard& shard, const StepEvent& event) {
  // Writer side (mutex held, so we are the only writer). Three cases:
  //  hit      — refresh the page's stamp (plain relaxed store; a racing
  //             reader sees old or new stamp, never an inconsistency).
  //  insert   — publish stamp *then* key with a release store.
  //  eviction — the only structural mutation (backward-shift erase moves
  //             unrelated entries): wrapped in an odd `seq` window so
  //             every concurrent reader retries via the locked path. The
  //             policy just ran this eviction synchronously inside
  //             session->step, so its freshness signals describe exactly
  //             this event: the table bumps the global epoch only if the
  //             shared survivor-debit offset moved, and the victim
  //             tenant's epoch only if that tenant's budgets were
  //             re-based (delta ≠ 0). Under linear costs at steady state
  //             both signals are quiet and *no* resident entry goes
  //             stale — the fix for seqlock over-staling under eviction
  //             pressure.
  // Memory-order details and the full argument: seqlock_table.hpp and
  // DESIGN.md §10.
  if (event.hit)
    return shard.table.restamp_hit(event.request.page, event.request.tenant);
  if (!event.victim.has_value()) {
    shard.table.publish_insert(event.request.page, event.request.tenant);
    return false;
  }
  shard.table.evict_and_insert(*event.victim, event.request.page,
                               event.request.tenant, *event.victim_owner,
                               shard.policy->last_evict_moved_offset(),
                               shard.policy->last_evict_refreshed_tenant());
  return false;
}

StepEvent ShardedCache::access(const Request& request) {
  StepEvent event;
  process_group(*shards_[shard_of(request.page)], {&request, 1}, nullptr,
                &event);
  return event;
}

std::size_t ShardedCache::process_group(Shard& shard,
                                        std::span<const Request> batch,
                                        const std::vector<std::size_t>* group,
                                        StepEvent* events) {
  const std::size_t n = group != nullptr ? group->size() : batch.size();
  const auto idx = [group](std::size_t j) {
    return group != nullptr ? (*group)[j] : j;
  };
  const bool lockfree = options_.hit_path == HitPath::kSeqlock;
  // Alternate lock-free and locked runs, always in submission order (a
  // request is never served before an earlier one — a mid-group eviction
  // can touch a later request's page, so reordering would change the
  // books). A locked run starts at the first request the optimistic path
  // cannot serve and ends once a streak of already-fresh hits shows the
  // table is serviceable again; on a stale-heavy stream, or with the
  // probe off (kLocked), the streak never forms and the whole remainder
  // runs under one lock acquisition. Outcomes are written straight into
  // their `events` slot (or `discard` when the caller wants none).
  StepEvent discard;
  std::size_t j = 0;
  std::size_t misses = 0;
  while (j < n) {
    for (; lockfree && j < n; ++j) {
      StepEvent& event = events != nullptr ? events[idx(j)] : discard;
      if (!try_seqlock_hit(shard, batch[idx(j)], event)) break;
    }
    if (j == n) break;
    const util::MutexLock lock(shard.mutex);
    const auto start = SteadyClock::now();
    const CacheState& cache = shard.session->cache();
    std::size_t fresh_streak = 0;
    for (; j < n && fresh_streak < kSeqlockResumeStreak; ++j) {
      // Probe-ahead: pull the residency-table line of a request a few
      // slots ahead while the current one is processed.
      if (j + kPrefetchDistance < n)
        cache.prefetch(batch[idx(j + kPrefetchDistance)].page);
      StepEvent& event = events != nullptr ? events[idx(j)] : discard;
      event = shard.session->step(batch[idx(j)]);
      misses += event.hit ? 0 : 1;
      fresh_streak = (lockfree && apply_event_seqlock(shard, event))
                         ? fresh_streak + 1
                         : 0;
    }
    shard.wall_seconds += seconds_since(start);
  }
  return misses;
}

void ShardedCache::access_batch(std::span<const Request> batch) {
  dispatch(batch, nullptr, nullptr);
}

void ShardedCache::access_batch(std::span<const Request> batch,
                                std::vector<StepEvent>& events,
                                DrainCrew* crew) {
  // Events land at their request's original index, so callers can always
  // match events[base + i] to batch[i] no matter how the batch was split
  // across shards.
  const std::size_t base = events.size();
  events.resize(base + batch.size());
  dispatch(batch, events.data() + base, crew);
}

void ShardedCache::dispatch(std::span<const Request> batch, StepEvent* events,
                            DrainCrew* crew) {
  if (shards_.size() == 1) {
    process_group(*shards_[0], batch, nullptr, events);
    return;
  }
  // Group by shard without reordering within a group: bucket the request
  // indices, then drain bucket by bucket under one lock each. The buckets
  // are per-thread scratch that keeps its capacity, so a caller that has
  // seen a batch of this size before allocates nothing.
  thread_local std::vector<std::vector<std::size_t>> groups;
  thread_local std::vector<std::size_t> nonempty;
  if (groups.size() < shards_.size()) groups.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) groups[s].clear();
  for (std::size_t i = 0; i < batch.size(); ++i)
    groups[shard_of(batch[i].page)].push_back(i);
  nonempty.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!groups[s].empty()) nonempty.push_back(s);

  std::size_t misses = 0;
  if (crew != nullptr && crew->helpers() > 0 && nonempty.size() >= 2 &&
      crew->last_batch_misses_ >= kFanOutMinMisses) {
    // Groups touch disjoint shards and write disjoint event slots, so any
    // thread may drain any group. The scratch goes in by pointer: named
    // inside the lambda, a thread_local would be the helper's own copy.
    std::atomic<std::size_t> misses_total{0};
    auto drain = [this, batch, events, &misses_total, by_shard = &groups,
                  shards = &nonempty](std::size_t g) {
      const std::size_t s = (*shards)[g];
      // Relaxed: the crew's completion handshake orders every add before
      // the load below.
      misses_total.fetch_add(
          process_group(*shards_[s], batch, &(*by_shard)[s], events),
          std::memory_order_relaxed);
    };
    crew->run(nonempty.size(), drain);
    misses = misses_total.load(std::memory_order_relaxed);  // see above
  } else {
    for (const std::size_t s : nonempty)
      misses += process_group(*shards_[s], batch, &groups[s], events);
  }
  if (crew != nullptr) crew->last_batch_misses_ = misses;
}

std::uint64_t ShardedCache::fold_lockfree_hits(const Shard& shard,
                                               Metrics* metrics) const {
  std::uint64_t total = 0;
  for (std::uint32_t t = 0; t < options_.num_tenants; ++t) {
    // Relaxed: a monotone tally; aggregation runs quiesced (or tolerates
    // a slightly stale count by contract).
    const std::uint64_t hits =
        shard.lockfree_hits[t].load(std::memory_order_relaxed);
    if (metrics != nullptr) metrics->record_hits(t, hits);
    total += hits;
  }
  return total;
}

Metrics ShardedCache::aggregated_metrics() const {
  Metrics total(options_.num_tenants);
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    total.merge(shard->session->metrics());
    // Hits served lock-free bypassed the session's books; fold them in so
    // the aggregate equals a locked run's totals per tenant.
    (void)fold_lockfree_hits(*shard, &total);
  }
  return total;
}

PerfCounters ShardedCache::aggregated_perf() const {
  PerfCounters total;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    PerfCounters perf = shard->session->perf_counters();
    // The session leaves wall_seconds to its driver; this frontend *is*
    // the driver and accumulated the in-lock processing time per shard.
    // (Lock-free hits are not individually timed — the optimistic path
    // exists precisely to avoid per-request bookkeeping — so under
    // kSeqlock the wall time covers the locked residue only; throughput
    // benches time the full loop externally.)
    perf.wall_seconds = shard->wall_seconds;
    const std::uint64_t lockfree = fold_lockfree_hits(*shard, nullptr);
    perf.requests += lockfree;  // the session only counted locked steps
    perf.lockfree_hits += lockfree;
    total.merge(perf);
  }
  return total;
}

double ShardedCache::global_miss_cost() const {
  std::vector<std::uint64_t> misses(options_.num_tenants, 0);
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    const Metrics& m = shard->session->metrics();
    for (TenantId t = 0; t < options_.num_tenants; ++t)
      misses[t] += m.misses(t);
  }
  return total_cost(misses, *costs_);
}

std::vector<ShardStats> ShardedCache::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    const Metrics& m = shard->session->metrics();
    ShardStats s;
    s.capacity = shard->session->cache().capacity();
    s.resident = shard->session->cache().size();
    s.hits = m.total_hits() + fold_lockfree_hits(*shard, nullptr);
    s.misses = m.total_misses();
    s.evictions = m.total_evictions();
    stats.push_back(s);
  }
  return stats;
}

std::vector<ShardDualAccount> ShardedCache::dual_accounts() const {
  std::vector<ShardDualAccount> accounts;
  accounts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    accounts.push_back({shard->policy->dual_certificate_valid(),
                        shard->policy->dual_mass_by_tenant(),
                        shard->policy->tenant_evictions()});
  }
  return accounts;
}

std::vector<std::size_t> ShardedCache::capacities() const {
  std::vector<std::size_t> caps;
  caps.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    caps.push_back(shard->session->cache().capacity());
  }
  return caps;
}

void ShardedCache::rebalance() {
  std::vector<std::uint64_t> misses;
  misses.reserve(shards_.size());
  for (const ShardStats& s : shard_stats()) misses.push_back(s.misses);
  const std::vector<std::size_t> split = miss_rate_split(
      options_.capacity, misses, options_.min_shard_capacity);
  const std::vector<std::size_t> before =
      options_.step_observer != nullptr ? capacities()
                                        : std::vector<std::size_t>{};
  const auto start = SteadyClock::now();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const util::MutexLock lock(shard.mutex);
    // Resizing may evict (drain a shrinking shard) and in any case re-bases
    // what "fresh" means, so where a seqlock table exists the resize and
    // its rebuild (all-stale stamps + epoch bump) share one odd seq
    // window. Readers retry through the mutex meanwhile.
    const bool table = shard.table.allocated();
    if (table) shard.table.open_window();
    shard.session->resize(split[s]);
    if (table) {
      shard.table.rebuild(shard.session->cache().pages());
      shard.table.close_window();
    }
  }
  if (options_.step_observer != nullptr)
    options_.step_observer->on_rebalance(
        before, split,
        static_cast<std::uint64_t>(seconds_since(start) * 1e9));
}

// Analysis opt-out: hands out an unlocked reference to guarded state.
// Documented escape hatch for tests/diagnostics only — the header warns
// callers not to race a concurrent replay, and every in-tree use inspects
// a quiescent cache.
const SimulatorSession& ShardedCache::shard_session(std::size_t shard) const
    CCC_NO_THREAD_SAFETY_ANALYSIS {
  CCC_REQUIRE(shard < shards_.size(), "shard index out of range");
  return *shards_[shard]->session;
}

}  // namespace ccc
