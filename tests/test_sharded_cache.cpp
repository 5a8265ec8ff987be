// Tests for the sharded concurrent frontend (src/shard): capacity
// splitters, the hash partition, the 1-shard differential guarantee
// (byte-identical to a bare SimulatorSession), batch/thread determinism,
// the miss-rate rebalancer, a TSan-targeted concurrent stress run, and the
// DrainCrew batch drain (event-for-event equal to the serial drain).
#include "shard/sharded_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/convex_caching.hpp"
#include "cost/monomial.hpp"
#include "exp/policy_factory.hpp"
#include "shard/parallel_replay.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

Trace zipf_trace(std::uint32_t tenants, std::uint64_t pages_per_tenant,
                 std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  workloads.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back(
        {std::make_unique<ZipfPages>(pages_per_tenant, 0.9), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

std::vector<CostFunctionPtr> monomial_costs(std::uint32_t tenants,
                                            double exponent) {
  std::vector<CostFunctionPtr> costs;
  costs.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(std::make_unique<MonomialCost>(
        exponent, 1.0 + static_cast<double>(t % 3)));
  return costs;
}

std::vector<CostFunctionPtr> quadratic_costs(std::uint32_t tenants) {
  return monomial_costs(tenants, 2.0);
}

ShardedCacheOptions options_for(std::size_t capacity, std::size_t shards,
                                std::uint32_t tenants) {
  ShardedCacheOptions options;
  options.capacity = capacity;
  options.num_shards = shards;
  options.num_tenants = tenants;
  options.seed = 7;
  return options;
}

// ---------------------------------------------------------------- splitters

TEST(CapacitySplitter, EvenSplitDistributesRemainder) {
  EXPECT_EQ(even_split(10, 3), (std::vector<std::size_t>{4, 3, 3}));
  EXPECT_EQ(even_split(12, 4), (std::vector<std::size_t>{3, 3, 3, 3}));
  EXPECT_EQ(even_split(5, 5), (std::vector<std::size_t>{1, 1, 1, 1, 1}));
}

TEST(CapacitySplitter, EvenSplitRejectsStarvedShards) {
  EXPECT_THROW((void)even_split(3, 4), std::invalid_argument);
  EXPECT_THROW((void)even_split(8, 0), std::invalid_argument);
}

TEST(CapacitySplitter, MissRateSplitConservesTotalAndFloors) {
  const std::vector<std::uint64_t> misses{1000, 10, 0, 10};
  const auto split = miss_rate_split(100, misses, 2);
  EXPECT_EQ(split.size(), 4u);
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), std::size_t{0}),
            100u);
  for (const std::size_t c : split) EXPECT_GE(c, 2u);
  // The dominant misser gets the lion's share.
  EXPECT_GT(split[0], split[1]);
  EXPECT_GT(split[0], 50u);
}

TEST(CapacitySplitter, MissRateSplitUniformWhenIdle) {
  const auto split = miss_rate_split(16, {0, 0, 0, 0}, 1);
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), std::size_t{0}), 16u);
  for (const std::size_t c : split) EXPECT_GE(c, 3u);  // near-even
}

// ------------------------------------------------------------ construction

TEST(ShardedCache, ValidatesOptions) {
  const auto costs = quadratic_costs(4);
  EXPECT_THROW(ShardedCache(options_for(16, 0, 4), nullptr, &costs),
               std::invalid_argument);
  EXPECT_THROW(ShardedCache(options_for(3, 4, 4), nullptr, &costs),
               std::invalid_argument);
  EXPECT_THROW(ShardedCache(options_for(16, 4, 0), nullptr, &costs),
               std::invalid_argument);
}

TEST(ShardedCache, ShardOfIsStableAndInRange) {
  const auto costs = quadratic_costs(4);
  ShardedCache cache(options_for(64, 8, 4), nullptr, &costs);
  for (PageId page = 0; page < 1000; ++page) {
    const std::size_t s = cache.shard_of(page);
    EXPECT_LT(s, 8u);
    EXPECT_EQ(s, cache.shard_of(page));
  }
}

TEST(ShardedCache, HashSpreadsTenantPages) {
  // make_page keeps the tenant in the high bits; the mixed hash must still
  // spread one tenant's pages across shards instead of pinning the tenant.
  const auto costs = quadratic_costs(1);
  ShardedCache cache(options_for(64, 8, 1), nullptr, &costs);
  std::vector<std::size_t> hist(8, 0);
  for (std::uint64_t local = 0; local < 800; ++local)
    ++hist[cache.shard_of(make_page(0, local))];
  for (const std::size_t count : hist) EXPECT_GT(count, 0u);
}

// -------------------------------------------------- 1-shard differential

// With one shard, the frontend must be a bit-transparent wrapper: same
// victims, same victim owners, same hit/miss pattern, same counters, same
// objective — the "zero behavioral drift" acceptance gate.
TEST(ShardedCache, OneShardMatchesBareSessionExactly) {
  const std::uint32_t tenants = 6;
  const std::size_t capacity = 24;
  const Trace trace = zipf_trace(tenants, 32, 6000, 11);
  const auto costs = quadratic_costs(tenants);

  ConvexCachingPolicy reference_policy;
  SimulatorSession reference(capacity, tenants, reference_policy, &costs);

  ShardedCache sharded(options_for(capacity, 1, tenants),
                       make_convex_factory(), &costs);

  for (const Request& request : trace) {
    const StepEvent expected = reference.step(request);
    const StepEvent actual = sharded.access(request);
    ASSERT_EQ(actual.hit, expected.hit);
    ASSERT_EQ(actual.victim, expected.victim);
    ASSERT_EQ(actual.victim_owner, expected.victim_owner);
  }

  const Metrics aggregated = sharded.aggregated_metrics();
  for (TenantId t = 0; t < tenants; ++t) {
    EXPECT_EQ(aggregated.hits(t), reference.metrics().hits(t));
    EXPECT_EQ(aggregated.misses(t), reference.metrics().misses(t));
    EXPECT_EQ(aggregated.evictions(t), reference.metrics().evictions(t));
  }
  EXPECT_DOUBLE_EQ(sharded.global_miss_cost(),
                   total_cost(reference.metrics().miss_vector(), costs));

  const PerfCounters expected_perf = reference.perf_counters();
  const PerfCounters actual_perf = sharded.aggregated_perf();
  EXPECT_EQ(actual_perf.requests, expected_perf.requests);
  EXPECT_EQ(actual_perf.evictions, expected_perf.evictions);
  EXPECT_EQ(actual_perf.heap_pops, expected_perf.heap_pops);
  EXPECT_EQ(actual_perf.stale_skips, expected_perf.stale_skips);
  EXPECT_EQ(actual_perf.index_rebuilds, expected_perf.index_rebuilds);
}

// Same guarantee through the batched path, with adversarially randomized
// batch sizes: one shard ⇒ batching must not change a single event.
TEST(ShardedCache, OneShardBatchedReplayIsByteIdentical) {
  const std::uint32_t tenants = 4;
  const std::size_t capacity = 16;
  const Trace trace = zipf_trace(tenants, 24, 4000, 23);
  const auto costs = quadratic_costs(tenants);

  ConvexCachingPolicy reference_policy;
  const SimOptions record{.record_events = true, .seed = 1, .auditor = nullptr};
  const SimResult expected =
      run_trace(trace, capacity, reference_policy, &costs, record);

  ShardedCache sharded(options_for(capacity, 1, tenants),
                       make_convex_factory(), &costs);
  std::vector<StepEvent> events;
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> batch_size(1, 97);
  std::size_t begin = 0;
  while (begin < trace.size()) {
    const std::size_t count =
        std::min(batch_size(rng), trace.size() - begin);
    sharded.access_batch(
        std::span<const Request>(&trace.requests()[begin], count), events);
    begin += count;
  }

  ASSERT_EQ(events.size(), expected.events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].request, expected.events[i].request);
    ASSERT_EQ(events[i].hit, expected.events[i].hit);
    ASSERT_EQ(events[i].victim, expected.events[i].victim);
    ASSERT_EQ(events[i].victim_owner, expected.events[i].victim_owner);
  }
}

// ------------------------------------------------------- multi-shard books

TEST(ShardedCache, AggregationConservesRequestsAcrossShards) {
  const std::uint32_t tenants = 8;
  const Trace trace = zipf_trace(tenants, 32, 8000, 31);
  const auto costs = quadratic_costs(tenants);
  ShardedCache cache(options_for(64, 4, tenants), make_convex_factory(),
                     &costs);

  for (const Request& request : trace) (void)cache.access(request);

  const Metrics m = cache.aggregated_metrics();
  EXPECT_EQ(m.total_hits() + m.total_misses(), trace.size());
  EXPECT_EQ(cache.aggregated_perf().requests, trace.size());

  // Per-tenant conservation: every request of tenant t is a hit or miss of
  // tenant t in exactly one shard.
  const auto per_tenant = trace.requests_per_tenant();
  for (TenantId t = 0; t < tenants; ++t)
    EXPECT_EQ(m.hits(t) + m.misses(t), per_tenant[t]);

  const auto stats = cache.shard_stats();
  ASSERT_EQ(stats.size(), 4u);
  std::uint64_t shard_accesses = 0;
  for (const ShardStats& s : stats) shard_accesses += s.hits + s.misses;
  EXPECT_EQ(shard_accesses, trace.size());
}

TEST(ShardedCache, BatchAndSingleAccessAgreeForAnyShardCount) {
  const std::uint32_t tenants = 5;
  const Trace trace = zipf_trace(tenants, 16, 5000, 43);
  const auto costs = quadratic_costs(tenants);

  for (const std::size_t shards : {2u, 3u, 8u}) {
    ShardedCache one_by_one(options_for(48, shards, tenants),
                            make_convex_factory(), &costs);
    for (const Request& request : trace) (void)one_by_one.access(request);

    ShardedCache batched(options_for(48, shards, tenants),
                         make_convex_factory(), &costs);
    std::mt19937 rng(7 + shards);
    std::uniform_int_distribution<std::size_t> batch_size(1, 129);
    std::size_t begin = 0;
    while (begin < trace.size()) {
      const std::size_t count =
          std::min(batch_size(rng), trace.size() - begin);
      batched.access_batch(
          std::span<const Request>(&trace.requests()[begin], count));
      begin += count;
    }

    // Batching groups by shard but preserves per-shard order, so every
    // shard sees the identical subsequence ⇒ identical global books.
    const Metrics a = one_by_one.aggregated_metrics();
    const Metrics b = batched.aggregated_metrics();
    for (TenantId t = 0; t < tenants; ++t) {
      EXPECT_EQ(a.hits(t), b.hits(t)) << "shards=" << shards;
      EXPECT_EQ(a.misses(t), b.misses(t)) << "shards=" << shards;
    }
    EXPECT_DOUBLE_EQ(one_by_one.global_miss_cost(),
                     batched.global_miss_cost());
  }
}

// Regression: aggregated_perf() used to sum every PerfCounters field
// *except* wall_seconds, so the aggregate always reported 0.0 and every
// downstream throughput figure derived from it divided by zero.
TEST(ShardedCache, AggregatedPerfIncludesWallSeconds) {
  const std::uint32_t tenants = 4;
  const Trace trace = zipf_trace(tenants, 32, 20000, 61);
  const auto costs = quadratic_costs(tenants);
  ShardedCache cache(options_for(32, 4, tenants), make_convex_factory(),
                     &costs);
  cache.access_batch(trace.requests());

  const PerfCounters perf = cache.aggregated_perf();
  EXPECT_EQ(perf.requests, trace.size());
  EXPECT_GT(perf.wall_seconds, 0.0);
}

// Regression: the events-collecting access_batch used to append events in
// shard-grouped order, so callers could not match events[i] back to
// batch[i]. The contract is now batch order, appended after any existing
// contents.
TEST(ShardedCache, BatchEventsComeBackInInputOrder) {
  const std::uint32_t tenants = 6;
  const Trace trace = zipf_trace(tenants, 24, 4000, 67);
  const auto costs = quadratic_costs(tenants);

  for (const std::size_t shards : {1u, 4u}) {
    ShardedCache cache(options_for(48, shards, tenants),
                       make_convex_factory(), &costs);
    std::vector<StepEvent> events;
    events.resize(3);  // pre-existing contents must be preserved
    cache.access_batch(trace.requests(), events);

    ASSERT_EQ(events.size(), 3 + trace.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(events[3 + i].request, trace[i])
          << "shards=" << shards << " i=" << i;
    }
  }
}

// The events overload must report the same outcomes as one-at-a-time
// access — including through the single-shard fast path.
TEST(ShardedCache, BatchEventsMatchSingleAccessOutcomes) {
  const std::uint32_t tenants = 3;
  const Trace trace = zipf_trace(tenants, 16, 3000, 71);
  const auto costs = quadratic_costs(tenants);

  for (const std::size_t shards : {1u, 3u}) {
    ShardedCache one_by_one(options_for(24, shards, tenants),
                            make_convex_factory(), &costs);
    std::vector<StepEvent> expected;
    expected.reserve(trace.size());
    for (const Request& request : trace)
      expected.push_back(one_by_one.access(request));

    ShardedCache batched(options_for(24, shards, tenants),
                         make_convex_factory(), &costs);
    std::vector<StepEvent> events;
    batched.access_batch(trace.requests(), events);

    ASSERT_EQ(events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(events[i].request, expected[i].request);
      EXPECT_EQ(events[i].hit, expected[i].hit) << "shards=" << shards
                                                << " i=" << i;
      EXPECT_EQ(events[i].victim, expected[i].victim);
      EXPECT_EQ(events[i].victim_owner, expected[i].victim_owner);
    }
  }
}

// ---------------------------------------------------------------- replayer

TEST(ParallelReplayer, ThreadCountDoesNotChangeResults) {
  const std::uint32_t tenants = 6;
  const Trace trace = zipf_trace(tenants, 24, 6000, 17);
  const auto costs = quadratic_costs(tenants);

  std::vector<std::vector<std::uint64_t>> miss_vectors;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ShardedCache cache(options_for(48, 4, tenants), make_convex_factory(),
                       &costs);
    ParallelReplayOptions options;
    options.threads = threads;
    options.batch_size = 64;
    ParallelReplayer replayer(options);
    const ParallelReplayResult result = replayer.replay(trace, cache);
    EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
              trace.size());
    EXPECT_EQ(std::accumulate(result.shard_requests.begin(),
                              result.shard_requests.end(), std::uint64_t{0}),
              trace.size());
    miss_vectors.push_back(result.metrics.miss_vector());
  }
  EXPECT_EQ(miss_vectors[0], miss_vectors[1]);
  EXPECT_EQ(miss_vectors[0], miss_vectors[2]);
}

TEST(ParallelReplayer, ReportsElapsedAndPerShardTime) {
  const std::uint32_t tenants = 4;
  const Trace trace = zipf_trace(tenants, 24, 10000, 19);
  const auto costs = quadratic_costs(tenants);
  ShardedCache cache(options_for(48, 4, tenants), make_convex_factory(),
                     &costs);
  ParallelReplayOptions options;
  options.threads = 2;
  ParallelReplayer replayer(options);
  const ParallelReplayResult result = replayer.replay(trace, cache);
  // perf.wall_seconds is the parallel-section elapsed time; shard_seconds
  // is the sum of per-shard in-lock time, so it can exceed elapsed but
  // never be zero when work was done.
  EXPECT_GT(result.perf.wall_seconds, 0.0);
  EXPECT_GT(result.shard_seconds, 0.0);
}

TEST(ParallelReplayer, RejectsTraceWithMoreTenantsThanCache) {
  const auto costs = quadratic_costs(2);
  ShardedCache cache(options_for(16, 2, 2), nullptr, &costs);
  ParallelReplayer replayer;
  const Trace trace = zipf_trace(4, 8, 100, 3);
  EXPECT_THROW((void)replayer.replay(trace, cache), std::invalid_argument);
}

// --------------------------------------------------------------- rebalance

TEST(ShardedCache, RebalanceKeepsTotalCapacityAndDrainsShrunkShards) {
  const std::uint32_t tenants = 8;
  const Trace trace = zipf_trace(tenants, 32, 8000, 53);
  const auto costs = quadratic_costs(tenants);
  auto options = options_for(64, 4, tenants);
  options.min_shard_capacity = 4;
  ShardedCache cache(options, make_convex_factory(), &costs);
  for (const Request& request : trace) (void)cache.access(request);

  cache.rebalance();

  const auto caps = cache.capacities();
  EXPECT_EQ(std::accumulate(caps.begin(), caps.end(), std::size_t{0}), 64u);
  const auto stats = cache.shard_stats();
  for (std::size_t s = 0; s < caps.size(); ++s) {
    EXPECT_GE(caps[s], 4u);
    EXPECT_LE(stats[s].resident, caps[s]);  // shrunk shards drained
  }

  // The cache keeps serving correctly after the capacity shuffle.
  const Trace more = zipf_trace(tenants, 32, 2000, 54);
  for (const Request& request : more) (void)cache.access(request);
  const Metrics m = cache.aggregated_metrics();
  EXPECT_EQ(m.total_hits() + m.total_misses(), trace.size() + more.size());
}

// ------------------------------------------------------------------ stress

// Concurrent writers with randomized batch sizes — the TSan target. Any
// missing lock in the access path, the aggregation path, or the policy
// state shows up here as a data race; without TSan it still checks global
// request conservation under real contention.
TEST(ShardedCache, ConcurrentBatchedAccessIsRaceFreeAndConserving) {
  const std::uint32_t tenants = 8;
  const std::size_t writers = 4;
  const std::size_t requests_per_writer = 4000;
  const auto costs = quadratic_costs(tenants);
  ShardedCache cache(options_for(64, 8, tenants), make_convex_factory(),
                     &costs);

  std::vector<Trace> traces;
  for (std::size_t w = 0; w < writers; ++w)
    traces.push_back(
        zipf_trace(tenants, 32, requests_per_writer, 1000 + 31 * w));

  std::atomic<std::uint64_t> sent{0};
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937 rng(static_cast<unsigned>(w));
      std::uniform_int_distribution<std::size_t> batch_size(1, 61);
      const std::vector<Request>& requests = traces[w].requests();
      std::size_t begin = 0;
      while (begin < requests.size()) {
        const std::size_t count =
            std::min(batch_size(rng), requests.size() - begin);
        cache.access_batch(
            std::span<const Request>(&requests[begin], count));
        sent.fetch_add(count, std::memory_order_relaxed);
        begin += count;
        if (begin % 512 == 0) {
          // Concurrent readers of the aggregation paths.
          (void)cache.shard_stats();
          (void)cache.global_miss_cost();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Metrics m = cache.aggregated_metrics();
  EXPECT_EQ(sent.load(), writers * requests_per_writer);
  EXPECT_EQ(m.total_hits() + m.total_misses(),
            writers * requests_per_writer);
  EXPECT_EQ(cache.aggregated_perf().requests, writers * requests_per_writer);
}

// The batched drain's probe-ahead feeds request pages straight into
// CacheState's FlatMap prefetch — which does no reserved-key screening
// (it is only an address hint). The reserved key ~0 must therefore be
// rejected when its request actually reaches the insert path, not
// silently corrupt the table: place the poisoned request deep enough in
// the batch that an earlier request's probe-ahead prefetches it first,
// then expect the FlatMap's reserved-key guard to fire when it is
// processed.
TEST(ShardedCacheBatch, ReservedPageIdIsRejectedAfterPrefetch) {
  const std::uint32_t tenants = 2;
  const auto costs = quadratic_costs(tenants);
  ShardedCache cache(options_for(8, 1, tenants), nullptr, &costs);
  std::vector<Request> batch;
  for (std::uint64_t i = 0; i < 12; ++i)
    batch.push_back(Request{0, make_page(0, i)});
  // util::FlatMap<...>::kEmptyKey — the one PageId value no tenant can own.
  batch.push_back(Request{0, ~PageId{0}});
  EXPECT_THROW(cache.access_batch(batch), std::invalid_argument);
}

// ----------------------------------------------------------------- seqlock

ShardedCacheOptions seqlock_options(std::size_t capacity, std::size_t shards,
                                    std::uint32_t tenants) {
  auto options = options_for(capacity, shards, tenants);
  options.hit_path = HitPath::kSeqlock;
  return options;
}

// The optimistic path is only sound for whole-run ALG-DISCRETE, and the
// locked path serves the same contract so the two stay bit-identical:
// on either hit path anything else must be rejected at construction, not
// fail subtly at runtime.
TEST(ShardedCacheSeqlock, ConstructorRejectsUnsoundPolicies) {
  const auto costs = quadratic_costs(4);
  ConvexCachingOptions windowed;
  windowed.window_length = 64;
  for (const HitPath path : {HitPath::kLocked, HitPath::kSeqlock}) {
    auto options = options_for(16, 2, 4);
    options.hit_path = path;
    // Cost-oblivious policy: hits mutate recency state, never read-only.
    EXPECT_THROW(
        ShardedCache(options, [] { return make_policy("lru"); }, &costs),
        std::invalid_argument);
    // Windowed ALG-DISCRETE: rollovers re-base budgets on the hit path.
    EXPECT_THROW(ShardedCache(options, make_convex_factory(windowed), &costs),
                 std::invalid_argument);
    // ALG-DISCRETE prices every miss with the per-tenant costs.
    EXPECT_THROW(ShardedCache(options, nullptr, nullptr),
                 std::invalid_argument);
    // The default factory is fine.
    ShardedCache ok(options, nullptr, &costs);
    EXPECT_EQ(ok.num_shards(), 2u);
  }
}

// The headline determinism guarantee: a single-threaded replay must be
// byte-identical across hitpath=locked|seqlock — same per-request events,
// same per-tenant books, same objective. (Policy-internal perf counters
// like heap_pops legitimately differ: served-lock-free hits never reach
// the policy.)
TEST(ShardedCacheSeqlock, SingleThreadReplayIsByteIdenticalToLocked) {
  const std::uint32_t tenants = 6;
  const std::size_t capacity = 48;
  const Trace trace = zipf_trace(tenants, 32, 8000, 83);
  const auto costs = quadratic_costs(tenants);

  for (const std::size_t shards : {1u, 4u}) {
    ShardedCache locked(options_for(capacity, shards, tenants),
                        make_convex_factory(), &costs);
    ShardedCache seqlock(seqlock_options(capacity, shards, tenants),
                         make_convex_factory(), &costs);

    for (const Request& request : trace) {
      const StepEvent expected = locked.access(request);
      const StepEvent actual = seqlock.access(request);
      ASSERT_EQ(actual.request, expected.request) << "shards=" << shards;
      ASSERT_EQ(actual.hit, expected.hit) << "shards=" << shards;
      ASSERT_EQ(actual.victim, expected.victim) << "shards=" << shards;
      ASSERT_EQ(actual.victim_owner, expected.victim_owner)
          << "shards=" << shards;
    }

    const Metrics a = locked.aggregated_metrics();
    const Metrics b = seqlock.aggregated_metrics();
    for (TenantId t = 0; t < tenants; ++t) {
      EXPECT_EQ(a.hits(t), b.hits(t)) << "shards=" << shards;
      EXPECT_EQ(a.misses(t), b.misses(t)) << "shards=" << shards;
      EXPECT_EQ(a.evictions(t), b.evictions(t)) << "shards=" << shards;
    }
    EXPECT_DOUBLE_EQ(locked.global_miss_cost(), seqlock.global_miss_cost());

    // Request conservation holds with the lock-free hits folded in, and
    // the optimistic path actually fired (a Zipf trace is hit-heavy).
    const PerfCounters perf = seqlock.aggregated_perf();
    EXPECT_EQ(perf.requests, trace.size());
    EXPECT_GT(perf.lockfree_hits, 0u) << "shards=" << shards;
    EXPECT_EQ(locked.aggregated_perf().lockfree_hits, 0u);
  }
}

// Same guarantee through the batched path (which adds the optimistic
// group-prefix and probe-ahead prefetching), with randomized batch sizes.
TEST(ShardedCacheSeqlock, BatchedReplayMatchesLockedEventForEvent) {
  const std::uint32_t tenants = 5;
  const std::size_t capacity = 32;
  const Trace trace = zipf_trace(tenants, 24, 6000, 89);
  const auto costs = quadratic_costs(tenants);

  for (const std::size_t shards : {1u, 3u}) {
    ShardedCache locked(options_for(capacity, shards, tenants),
                        make_convex_factory(), &costs);
    std::vector<StepEvent> expected;
    locked.access_batch(trace.requests(), expected);

    ShardedCache seqlock(seqlock_options(capacity, shards, tenants),
                         make_convex_factory(), &costs);
    std::vector<StepEvent> events;
    std::mt19937 rng(17 + shards);
    std::uniform_int_distribution<std::size_t> batch_size(1, 113);
    std::size_t begin = 0;
    while (begin < trace.size()) {
      const std::size_t count =
          std::min(batch_size(rng), trace.size() - begin);
      seqlock.access_batch(
          std::span<const Request>(&trace.requests()[begin], count), events);
      begin += count;
    }

    ASSERT_EQ(events.size(), expected.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(events[i].request, expected[i].request)
          << "shards=" << shards << " i=" << i;
      ASSERT_EQ(events[i].hit, expected[i].hit)
          << "shards=" << shards << " i=" << i;
      ASSERT_EQ(events[i].victim, expected[i].victim)
          << "shards=" << shards << " i=" << i;
      ASSERT_EQ(events[i].victim_owner, expected[i].victim_owner)
          << "shards=" << shards << " i=" << i;
    }
    EXPECT_GT(seqlock.aggregated_perf().lockfree_hits, 0u);
  }
}

// Rebalancing rebuilds the residency tables and re-bases freshness; the
// replay must stay identical to a locked twin driven through the same
// access/rebalance schedule.
TEST(ShardedCacheSeqlock, RebalancePreservesDeterminismAndBooks) {
  const std::uint32_t tenants = 8;
  const std::size_t capacity = 64;
  const auto costs = quadratic_costs(tenants);
  auto locked_options = options_for(capacity, 4, tenants);
  locked_options.min_shard_capacity = 4;
  auto opt_options = seqlock_options(capacity, 4, tenants);
  opt_options.min_shard_capacity = 4;
  ShardedCache locked(locked_options, make_convex_factory(), &costs);
  ShardedCache seqlock(opt_options, make_convex_factory(), &costs);

  std::size_t total = 0;
  for (int round = 0; round < 4; ++round) {
    const Trace trace =
        zipf_trace(tenants, 32, 3000, 200 + static_cast<std::uint64_t>(round));
    for (const Request& request : trace) {
      const StepEvent expected = locked.access(request);
      const StepEvent actual = seqlock.access(request);
      ASSERT_EQ(actual.hit, expected.hit) << "round " << round;
      ASSERT_EQ(actual.victim, expected.victim) << "round " << round;
    }
    total += trace.size();
    locked.rebalance();
    seqlock.rebalance();
    EXPECT_EQ(locked.capacities(), seqlock.capacities()) << "round " << round;
  }

  const Metrics a = locked.aggregated_metrics();
  const Metrics b = seqlock.aggregated_metrics();
  EXPECT_EQ(b.total_hits() + b.total_misses(), total);
  for (TenantId t = 0; t < tenants; ++t) {
    EXPECT_EQ(a.hits(t), b.hits(t));
    EXPECT_EQ(a.misses(t), b.misses(t));
  }
  EXPECT_DOUBLE_EQ(locked.global_miss_cost(), seqlock.global_miss_cost());
}

// Lock-free hits must show up in every aggregation surface the same way
// locked hits do: shard_stats, aggregated_metrics and aggregated_perf all
// fold them in.
TEST(ShardedCacheSeqlock, LockfreeHitsLandInAllAggregationSurfaces) {
  const std::uint32_t tenants = 4;
  const Trace trace = zipf_trace(tenants, 16, 5000, 97);
  const auto costs = quadratic_costs(tenants);
  ShardedCache cache(seqlock_options(32, 2, tenants), nullptr, &costs);
  for (const Request& request : trace) (void)cache.access(request);

  const PerfCounters perf = cache.aggregated_perf();
  ASSERT_GT(perf.lockfree_hits, 0u);
  EXPECT_EQ(perf.requests, trace.size());

  const Metrics m = cache.aggregated_metrics();
  EXPECT_EQ(m.total_hits() + m.total_misses(), trace.size());

  const auto stats = cache.shard_stats();
  std::uint64_t shard_accesses = 0;
  for (const ShardStats& s : stats) shard_accesses += s.hits + s.misses;
  EXPECT_EQ(shard_accesses, trace.size());
  EXPECT_EQ(std::accumulate(stats.begin(), stats.end(), std::uint64_t{0},
                            [](std::uint64_t acc, const ShardStats& s) {
                              return acc + s.hits;
                            }),
            m.total_hits());
}

// The seqlock TSan target: concurrent writers (mixed single/batched
// access) race the lock-free read path against evictions and periodic
// rebalances. Under TSan any mis-fenced table access shows up here; in a
// plain build it still proves conservation under real contention.
TEST(ShardedCacheSeqlock, ConcurrentStressWithRebalanceIsRaceFreeAndConserving) {
  const std::uint32_t tenants = 8;
  const std::size_t writers = 4;
  const std::size_t requests_per_writer = 4000;
  const auto costs = quadratic_costs(tenants);
  auto options = seqlock_options(64, 8, tenants);
  options.min_shard_capacity = 2;
  ShardedCache cache(options, make_convex_factory(), &costs);

  std::vector<Trace> traces;
  for (std::size_t w = 0; w < writers; ++w)
    traces.push_back(
        zipf_trace(tenants, 24, requests_per_writer, 5000 + 17 * w));

  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(writers + 1);
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937 rng(static_cast<unsigned>(100 + w));
      std::uniform_int_distribution<std::size_t> batch_size(1, 53);
      const std::vector<Request>& requests = traces[w].requests();
      std::size_t begin = 0;
      while (begin < requests.size()) {
        const std::size_t count =
            std::min(batch_size(rng), requests.size() - begin);
        if (count == 1) {
          (void)cache.access(requests[begin]);
        } else {
          cache.access_batch(
              std::span<const Request>(&requests[begin], count));
        }
        sent.fetch_add(count, std::memory_order_relaxed);
        begin += count;
        if (begin % 512 == 0) {
          (void)cache.shard_stats();
          (void)cache.aggregated_perf();
        }
      }
    });
  }
  // Control thread: rebalances race the optimistic readers — the per-shard
  // odd seq windows must force them onto the locked path, never into a
  // torn table read.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      cache.rebalance();
      std::this_thread::yield();
    }
  });
  for (std::size_t w = 0; w < writers; ++w) threads[w].join();
  done.store(true, std::memory_order_relaxed);
  threads.back().join();

  const Metrics m = cache.aggregated_metrics();
  EXPECT_EQ(sent.load(), writers * requests_per_writer);
  EXPECT_EQ(m.total_hits() + m.total_misses(),
            writers * requests_per_writer);
  const PerfCounters perf = cache.aggregated_perf();
  EXPECT_EQ(perf.requests, writers * requests_per_writer);
  const auto caps = cache.capacities();
  EXPECT_EQ(std::accumulate(caps.begin(), caps.end(), std::size_t{0}), 64u);
}

// -------------------------------------------------------------- drain crew

// The daemon's default shape: 16 tenants × 64 pages, k = 8 per tenant, 4
// shards, 256-request batches.
constexpr std::uint32_t kCrewTenants = 16;
constexpr std::size_t kCrewCapacity = 8 * kCrewTenants;
constexpr std::size_t kCrewShards = 4;
constexpr std::size_t kCrewBatch = 256;
constexpr std::size_t kCrewPhaseBatches = 40;

/// Churn, then a serving-shaped stretch, then churn again. The serving
/// stretch asks for 4 pages per tenant, which fit: once they are resident
/// it stops missing, and the fan-out gate closes until churn returns.
std::vector<std::vector<Request>> churn_serving_churn() {
  constexpr std::size_t kPhase = kCrewPhaseBatches * kCrewBatch;
  return {zipf_trace(kCrewTenants, 64, kPhase, 101).requests(),
          zipf_trace(kCrewTenants, 4, kPhase, 102).requests(),
          zipf_trace(kCrewTenants, 64, kPhase, 103).requests()};
}

struct DrainRun {
  std::vector<StepEvent> events;
  Metrics metrics{1};
  double miss_cost = 0.0;
  std::vector<std::uint64_t> jobs;  ///< crew jobs at the end of each phase
};

/// Replays `phases` in kCrewBatch-request batches through the crew
/// overload with `helpers` helpers, or through the serial overload.
DrainRun drain_run(const std::vector<std::vector<Request>>& phases,
                   const std::vector<CostFunctionPtr>& costs, HitPath path,
                   std::size_t helpers, bool serial) {
  auto options = options_for(kCrewCapacity, kCrewShards, kCrewTenants);
  options.hit_path = path;
  ShardedCache cache(options, nullptr, &costs);
  DrainCrew crew(helpers);
  DrainRun run;
  for (const std::vector<Request>& phase : phases) {
    for (std::size_t i = 0; i < phase.size(); i += kCrewBatch) {
      const std::span<const Request> batch(
          phase.data() + i, std::min(kCrewBatch, phase.size() - i));
      cache.access_batch(batch, run.events, serial ? nullptr : &crew);
    }
    run.jobs.push_back(crew.jobs());
  }
  run.metrics = cache.aggregated_metrics();
  run.miss_cost = cache.global_miss_cost();
  return run;
}

TEST(DrainCrew, FannedOutDrainMatchesSerialDrainEventForEvent) {
  const auto phases = churn_serving_churn();
  for (const double exponent : {2.0, 1.0}) {
    const auto costs = monomial_costs(kCrewTenants, exponent);
    for (const HitPath path : {HitPath::kSeqlock, HitPath::kLocked}) {
      const DrainRun serial = drain_run(phases, costs, path, 0, true);
      for (const std::size_t helpers : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message()
                     << "x^" << exponent << " "
                     << (path == HitPath::kSeqlock ? "seqlock" : "locked")
                     << " helpers=" << helpers);
        const DrainRun crew = drain_run(phases, costs, path, helpers, false);
        ASSERT_EQ(crew.events.size(), serial.events.size());
        for (std::size_t i = 0; i < crew.events.size(); ++i) {
          ASSERT_EQ(crew.events[i].request, serial.events[i].request) << i;
          ASSERT_EQ(crew.events[i].hit, serial.events[i].hit) << i;
          ASSERT_EQ(crew.events[i].victim, serial.events[i].victim) << i;
          ASSERT_EQ(crew.events[i].victim_owner,
                    serial.events[i].victim_owner)
              << i;
        }
        for (TenantId t = 0; t < kCrewTenants; ++t) {
          EXPECT_EQ(crew.metrics.hits(t), serial.metrics.hits(t));
          EXPECT_EQ(crew.metrics.misses(t), serial.metrics.misses(t));
          EXPECT_EQ(crew.metrics.evictions(t), serial.metrics.evictions(t));
        }
        EXPECT_EQ(crew.miss_cost, serial.miss_cost);

        // Churn fans out; on both hit paths the serving stretch closes the
        // gate (it stops missing, though under kLocked its hits still take
        // the locks) and churn reopens it.
        const std::uint64_t serving = crew.jobs[1] - crew.jobs[0];
        const std::uint64_t churn_again = crew.jobs[2] - crew.jobs[1];
        EXPECT_GT(crew.jobs[0], kCrewPhaseBatches / 2);
        EXPECT_LT(serving, kCrewPhaseBatches / 4);
        EXPECT_GT(churn_again, kCrewPhaseBatches / 2);
      }
    }
  }
}

// A group's exception surfaces on the caller as the exception it was, after
// the batch's other groups finish; the crew then drains the next batch.
TEST(DrainCrew, GroupExceptionReachesCallerAndCrewDrainsNextBatch) {
  const auto costs = quadratic_costs(kCrewTenants);
  ShardedCache cache(options_for(kCrewCapacity, kCrewShards, kCrewTenants),
                     nullptr, &costs);
  DrainCrew crew(2);
  std::vector<StepEvent> events;
  // A cold cache misses on every first touch of a page, so the gate opens
  // for the next batch.
  cache.access_batch(zipf_trace(kCrewTenants, 64, kCrewBatch, 7).requests(),
                     events, &crew);
  std::vector<Request> poisoned =
      zipf_trace(kCrewTenants, 64, kCrewBatch, 8).requests();
  poisoned[200] = Request{0, ~PageId{0}};  // FlatMap's reserved key
  const std::uint64_t jobs = crew.jobs();
  EXPECT_THROW(cache.access_batch(poisoned, events, &crew),
               std::invalid_argument);
  EXPECT_EQ(crew.jobs(), jobs + 1) << "the poisoned batch was not fanned out";

  const Metrics before = cache.aggregated_metrics();
  const std::uint64_t requests_before = cache.aggregated_perf().requests;
  cache.access_batch(zipf_trace(kCrewTenants, 64, kCrewBatch, 9).requests(),
                     events, &crew);
  EXPECT_EQ(crew.jobs(), jobs + 2);
  const Metrics after = cache.aggregated_metrics();
  EXPECT_EQ(after.total_hits() + after.total_misses(),
            before.total_hits() + before.total_misses() + kCrewBatch);
  EXPECT_EQ(cache.aggregated_perf().requests, requests_before + kCrewBatch);
}

// Every task runs exactly once, a crew whose helpers have parked wakes them
// for the next job, and destroying a parked crew returns promptly.
TEST(DrainCrew, ParkedHelpersWakeForJobsAndJoinPromptly) {
  constexpr std::size_t kTasks = 8;
  auto crew = std::make_unique<DrainCrew>(3);
  for (int round = 0; round < 2; ++round) {
    // Far past the spin budget: every helper has parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<std::atomic<int>> runs(kTasks);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    auto task = [&](std::size_t i) {
      // Relaxed: the crew's completion handshake orders it before the
      // checks below.
      runs[i].fetch_add(1, std::memory_order_relaxed);
      {
        const std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      // Long enough that a woken helper claims a task before the caller
      // has run them all.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    crew->run(kTasks, task);
    for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1);
    EXPECT_GE(threads.size(), 2u) << "no helper woke for round " << round;
  }
  EXPECT_EQ(crew->jobs(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  crew.reset();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.5);
}

}  // namespace
}  // namespace ccc
