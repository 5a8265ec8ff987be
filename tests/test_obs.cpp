// Tests for the observability subsystem (src/obs): histogram bucket math,
// randomized quantiles vs brute force, exact/associative merging, thread
// safety of record(), the metrics registry (kind clashes, Prometheus and
// JSON exposition), the trace_event writer, and the SimObserver hooks end
// to end through SimulatorSession and ShardedCache (also together with the
// audit hook).
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "core/convex_caching.hpp"
#include "cost/monomial.hpp"
#include "obs/observer.hpp"
#include "obs/registry.hpp"
#include "obs/slow_ring.hpp"
#include "obs/trace_event.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc::obs {
namespace {

// ---------------------------------------------------------------- buckets

TEST(Histogram, BucketMathIsExactBelowSubBucketCount) {
  for (std::uint64_t v = 0; v < Histogram::kSubBucketCount; ++v) {
    const std::size_t idx = Histogram::bucket_of(v);
    EXPECT_EQ(Histogram::bucket_low(idx), v);
    EXPECT_EQ(Histogram::bucket_high(idx), v);
  }
}

TEST(Histogram, BucketRangesTileTheValueSpace) {
  // Consecutive buckets must abut: high(i) + 1 == low(i+1).
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i)
    EXPECT_EQ(Histogram::bucket_high(i) + 1, Histogram::bucket_low(i + 1))
        << "gap or overlap after bucket " << i;
  EXPECT_EQ(Histogram::bucket_high(Histogram::kBucketCount - 1),
            ~std::uint64_t{0});
}

TEST(Histogram, EveryValueLandsInItsOwnBucketRange) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 10000; ++trial) {
    // Stress all magnitudes: random bit width, then random bits.
    const unsigned bits = static_cast<unsigned>(rng() % 64) + 1;
    const std::uint64_t value =
        bits >= 64 ? rng() : rng() & ((1ULL << bits) - 1);
    const std::size_t idx = Histogram::bucket_of(value);
    ASSERT_LT(idx, Histogram::kBucketCount);
    EXPECT_GE(value, Histogram::bucket_low(idx));
    EXPECT_LE(value, Histogram::bucket_high(idx));
  }
}

TEST(Histogram, RelativeErrorBoundHolds) {
  // Bucket width / bucket low ≤ 2^-kSubBucketBits above the exact range.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t value = rng() | Histogram::kSubBucketCount;
    const std::size_t idx = Histogram::bucket_of(value);
    const double low = static_cast<double>(Histogram::bucket_low(idx));
    const double width = static_cast<double>(Histogram::bucket_high(idx)) -
                         low + 1.0;
    EXPECT_LE(width / low,
              1.0 / static_cast<double>(Histogram::kSubBucketCount) + 1e-12);
  }
}

// -------------------------------------------------------------- recording

TEST(Histogram, CountSumMinMaxTrackRecords) {
  Histogram h;
  h.record(3);
  h.record(100);
  h.record(7);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 110u);
  EXPECT_EQ(snap.min, 3u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.mean(), 110.0 / 3.0);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  const HistogramSnapshot snap = Histogram{}.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(Histogram, QuantilesMatchBruteForceWithinBucketError) {
  std::mt19937_64 rng(1234);
  // Log-uniform values: exercises exact and log-linear ranges together.
  std::uniform_real_distribution<double> log_value(0.0, 20.0);
  Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const auto v =
        static_cast<std::uint64_t>(std::exp(log_value(rng)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.snapshot();
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999}) {
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size()))) -
            (q > 0.0 ? 1 : 0));
    const double exact = static_cast<double>(values[rank]);
    const double approx = static_cast<double>(snap.quantile(q));
    // Midpoint representative: off by at most half a bucket, i.e. ~2^-4
    // relative. Allow 2x slack for rank straddling a bucket boundary.
    EXPECT_NEAR(approx, exact, exact / 8.0 + 1.0)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(Histogram, QuantileEndpointsClampToObservedRange) {
  Histogram h;
  h.record(1000);
  h.record(1001);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_GE(snap.quantile(0.0), snap.min);
  EXPECT_LE(snap.quantile(1.0), snap.max);
}

// ---------------------------------------------------------------- merging

Histogram& record_all(Histogram& h, const std::vector<std::uint64_t>& vs) {
  for (const std::uint64_t v : vs) h.record(v);
  return h;
}

TEST(Histogram, MergeEqualsRecordingTheUnion) {
  const std::vector<std::uint64_t> a{1, 5, 17, 900, 65536};
  const std::vector<std::uint64_t> b{0, 2, 17, 1u << 20};
  Histogram ha, hb, hu;
  record_all(ha, a);
  record_all(hb, b);
  record_all(record_all(hu, a), b);
  ha.merge(hb);
  const HistogramSnapshot sa = ha.snapshot();
  const HistogramSnapshot su = hu.snapshot();
  EXPECT_EQ(sa.buckets, su.buckets);
  EXPECT_EQ(sa.count, su.count);
  EXPECT_EQ(sa.sum, su.sum);
  EXPECT_EQ(sa.min, su.min);
  EXPECT_EQ(sa.max, su.max);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(99);
  std::vector<std::vector<std::uint64_t>> parts(3);
  for (auto& part : parts)
    for (int i = 0; i < 500; ++i) part.push_back(rng() % 100000);

  // (a ⊕ b) ⊕ c
  Histogram ab_c0, ab_c1, ab_c2;
  record_all(ab_c0, parts[0]);
  record_all(ab_c1, parts[1]);
  record_all(ab_c2, parts[2]);
  ab_c0.merge(ab_c1);
  ab_c0.merge(ab_c2);

  // c ⊕ (b ⊕ a) — different order AND different grouping.
  Histogram c_ba0, c_ba1, c_ba2;
  record_all(c_ba0, parts[2]);
  record_all(c_ba1, parts[1]);
  record_all(c_ba2, parts[0]);
  c_ba1.merge(c_ba2);
  c_ba0.merge(c_ba1);

  const HistogramSnapshot lhs = ab_c0.snapshot();
  const HistogramSnapshot rhs = c_ba0.snapshot();
  EXPECT_EQ(lhs.buckets, rhs.buckets);
  EXPECT_EQ(lhs.count, rhs.count);
  EXPECT_EQ(lhs.sum, rhs.sum);
  EXPECT_EQ(lhs.min, rhs.min);
  EXPECT_EQ(lhs.max, rhs.max);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i % 97));
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  const HistogramSnapshot snap = h.snapshot();
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(Histogram, SingleSampleHasDegenerateExtremaAndQuantiles) {
  Histogram h;
  h.record(42);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 42u);
  EXPECT_EQ(snap.min, 42u);
  EXPECT_EQ(snap.max, 42u);
  // Every quantile of a one-sample distribution is that sample.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(snap.quantile(q), 42u);
  EXPECT_DOUBLE_EQ(snap.mean(), 42.0);
}

TEST(Histogram, MergingEmptyAndNonEmptyIsIdentityEitherWay) {
  const std::vector<std::uint64_t> values{3, 70, 4096, 123456};
  Histogram reference;
  record_all(reference, values);
  const HistogramSnapshot expect = reference.snapshot();

  // empty ⊕ nonempty: the empty histogram's sentinel min (~0) must not
  // survive the merge as a bogus observed minimum.
  Histogram empty_lhs, rhs;
  record_all(rhs, values);
  empty_lhs.merge(rhs);
  const HistogramSnapshot lhs_snap = empty_lhs.snapshot();
  EXPECT_EQ(lhs_snap.buckets, expect.buckets);
  EXPECT_EQ(lhs_snap.count, expect.count);
  EXPECT_EQ(lhs_snap.min, expect.min);
  EXPECT_EQ(lhs_snap.max, expect.max);

  // nonempty ⊕ empty: a no-op.
  Histogram lhs2, empty_rhs;
  record_all(lhs2, values);
  lhs2.merge(empty_rhs);
  const HistogramSnapshot rhs_snap = lhs2.snapshot();
  EXPECT_EQ(rhs_snap.buckets, expect.buckets);
  EXPECT_EQ(rhs_snap.count, expect.count);
  EXPECT_EQ(rhs_snap.min, expect.min);
  EXPECT_EQ(rhs_snap.max, expect.max);
}

TEST(Histogram, TopBucketAbsorbsMaximalValuesWithoutOverflow) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_EQ(Histogram::bucket_of(kMax), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_high(Histogram::kBucketCount - 1), kMax);
  Histogram h;
  h.record(kMax);
  h.record(kMax);
  h.record(1);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.max, kMax);
  EXPECT_EQ(snap.min, 1u);
  // The top quantile's representative lies inside the saturated top
  // bucket and never exceeds the observed max (no midpoint overflow).
  EXPECT_GE(snap.quantile(1.0),
            Histogram::bucket_low(Histogram::kBucketCount - 1));
  EXPECT_LE(snap.quantile(1.0), kMax);
  EXPECT_EQ(snap.buckets[Histogram::kBucketCount - 1], 2u);
}

// -------------------------------------------------------------- slow ring

TEST(SlowRequestRing, KeepsTopNByTotalReplacingOnlyStrictlySlower) {
  SlowRequestRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(ring.snapshot().empty());

  for (const std::uint64_t total : {10u, 20u, 30u, 40u})
    ring.offer(SlowRequest{total, total, 0, 0, 0, 0, 0});
  // Not slower than the resident minimum (10): dropped.
  ring.offer(SlowRequest{5, 5, 0, 0, 0, 0, 0});
  ring.offer(SlowRequest{10, 10, 0, 0, 0, 0, 0});
  std::vector<SlowRequest> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().total_ns, 40u);
  EXPECT_EQ(snap.back().total_ns, 10u);

  // Strictly slower than the minimum: replaces exactly the minimum.
  ring.offer(SlowRequest{15, 15, 0, 0, 0, 0, 0});
  snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  const std::vector<std::uint64_t> want{40, 30, 20, 15};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(snap[i].total_ns, want[i]) << i;
}

TEST(SlowRequestRing, PayloadFieldsRoundTripThroughSnapshot) {
  SlowRequestRing ring(2);
  SlowRequest request;
  request.total_ns = 900;
  request.page = 0xDEADBEEF;
  request.tenant = 7;
  request.batch_size = 64;
  request.queue_ns = 100;
  request.cache_ns = 500;
  request.encode_ns = 300;
  ring.offer(request);
  const std::vector<SlowRequest> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].total_ns, 900u);
  EXPECT_EQ(snap[0].page, 0xDEADBEEFu);
  EXPECT_EQ(snap[0].tenant, 7u);
  EXPECT_EQ(snap[0].batch_size, 64u);
  EXPECT_EQ(snap[0].queue_ns, 100u);
  EXPECT_EQ(snap[0].cache_ns, 500u);
  EXPECT_EQ(snap[0].encode_ns, 300u);
}

TEST(SlowRequestRing, ConcurrentReadersNeverObserveTornRequests) {
  SlowRequestRing ring(8);
  std::atomic<bool> stop{false};
  // Writer publishes requests whose stage fields are fixed multiples of the
  // total — any torn read breaks a multiple and fails the invariant check.
  std::thread writer([&] {
    for (std::uint64_t v = 1; !stop.load(std::memory_order_relaxed); ++v)
      ring.offer(SlowRequest{v, v, static_cast<std::uint32_t>(v % 16), 1,
                             2 * v, 3 * v, 5 * v});
  });
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> observed{0};
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      for (int iter = 0; iter < 2000; ++iter) {
        const std::vector<SlowRequest> snap = ring.snapshot();
        for (std::size_t i = 0; i < snap.size(); ++i) {
          const SlowRequest& req = snap[i];
          EXPECT_EQ(req.queue_ns, 2 * req.total_ns);
          EXPECT_EQ(req.cache_ns, 3 * req.total_ns);
          EXPECT_EQ(req.encode_ns, 5 * req.total_ns);
          // Sorted slowest-first.
          if (i > 0) {
            EXPECT_GE(snap[i - 1].total_ns, req.total_ns);
          }
        }
        observed.fetch_add(snap.size(), std::memory_order_relaxed);
      }
    });
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(observed.load(), 0u);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, KindClashThrows) {
  MetricsRegistry registry;
  registry.set_counter("ccc_x_total", "help", {}, 1.0);
  EXPECT_THROW(registry.set_gauge("ccc_x_total", "help", {}, 2.0),
               std::invalid_argument);
  EXPECT_THROW(
      registry.set_histogram("ccc_x_total", "help", {}, HistogramSnapshot{}),
      std::invalid_argument);
}

TEST(MetricsRegistry, FindAndFamilies) {
  MetricsRegistry registry;
  registry.set_gauge("ccc_a", "first", {{"k", "v"}}, 1.5);
  registry.set_gauge("ccc_a", "first", {{"k", "w"}}, 2.5);
  registry.set_counter("ccc_b_total", "second", {}, 3.0);
  ASSERT_EQ(registry.families().size(), 2u);
  const MetricFamily* a = registry.find("ccc_a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->scalars.size(), 2u);
  EXPECT_EQ(registry.find("ccc_missing"), nullptr);
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.set_counter("ccc_hits_total", "Cache hits",
                       {{"tenant", "0"}, {"policy", "convex"}}, 42.0);
  Histogram h;
  h.record(5);
  h.record(5);
  h.record(300);
  registry.set_histogram("ccc_lat_ns", "Latency", {{"shard", "1"}},
                         h.snapshot());
  std::ostringstream os;
  registry.write_prometheus(os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# HELP ccc_hits_total Cache hits\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ccc_hits_total counter\n"), std::string::npos);
  EXPECT_NE(
      text.find("ccc_hits_total{tenant=\"0\",policy=\"convex\"} 42\n"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE ccc_lat_ns histogram\n"), std::string::npos);
  // Exact bucket for value 5 (below the sub-bucket threshold): le="5",
  // cumulative count 2.
  EXPECT_NE(text.find("ccc_lat_ns_bucket{shard=\"1\",le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ccc_lat_ns_bucket{shard=\"1\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ccc_lat_ns_sum{shard=\"1\"} 310\n"),
            std::string::npos);
  EXPECT_NE(text.find("ccc_lat_ns_count{shard=\"1\"} 3\n"),
            std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.set_gauge("ccc_g", "", {{"name", "a\"b\\c\nd"}}, 1.0);
  std::ostringstream os;
  registry.write_prometheus(os);
  EXPECT_NE(os.str().find("name=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(MetricsRegistry, JsonIsWellFormedEnoughToRoundTripKeys) {
  MetricsRegistry registry;
  registry.set_counter("ccc_hits_total", "hits", {{"tenant", "3"}}, 7.0);
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  registry.set_histogram("ccc_lat_ns", "lat", {}, h.snapshot());
  std::ostringstream os;
  registry.write_json(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"name\": \"ccc_hits_total\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"tenant\": \"3\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
  EXPECT_NE(text.find("\"count\": 100"), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity without a parser).
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(SnapshotHelpers, PerTenantAndPerfFamilies) {
  Metrics metrics(2);
  metrics.record_hit(0);
  metrics.record_miss(1);
  metrics.record_miss(1);
  const auto costs = uniform_costs(MonomialCost(2.0), 2);
  PerfCounters perf;
  perf.requests = 3;
  perf.wall_seconds = 0.5;

  MetricsRegistry registry;
  snapshot_metrics(registry, metrics, &costs, {{"policy", "convex"}});
  snapshot_perf(registry, perf);

  const MetricFamily* hits = registry.find("ccc_tenant_hits_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->scalars.size(), 2u);
  EXPECT_DOUBLE_EQ(hits->scalars[0].value, 1.0);
  const MetricFamily* cost = registry.find("ccc_tenant_miss_cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_DOUBLE_EQ(cost->scalars[1].value, 4.0);  // f(2) = 2^2
  const MetricFamily* wall = registry.find("ccc_perf_wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->scalars[0].value, 0.5);
}

// ------------------------------------------------------------ trace writer

TEST(TraceEventWriter, EmitsValidJsonArray) {
  std::ostringstream os;
  {
    TraceEventWriter writer(os);
    writer.complete_event("eviction", "cache", 10, 5,
                          {{"victim_page", 99}, {"index_work", 3}});
    writer.instant_event("window_rollover", "cache", 20, {{"tenant", 1}});
    EXPECT_EQ(writer.emitted(), 2u);
    EXPECT_EQ(writer.dropped(), 0u);
  }
  const std::string text = os.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"name\": \"eviction\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"victim_page\": 99"), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(text.find("]\n"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
}

TEST(TraceEventWriter, CapsEventsAndRecordsTruncationInBand) {
  std::ostringstream os;
  {
    TraceEventWriter writer(os, /*max_events=*/2);
    for (int i = 0; i < 5; ++i)
      writer.instant_event("e", "c", static_cast<std::uint64_t>(i), {});
    EXPECT_EQ(writer.emitted(), 2u);
    EXPECT_EQ(writer.dropped(), 3u);
  }
  const std::string text = os.str();
  EXPECT_NE(text.find("trace_truncated"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\": 3"), std::string::npos);
}

TEST(TraceEventWriter, FromEnvHonorsUnsetVariable) {
  // The test environment must not leak tracing into other tests.
  ASSERT_EQ(::getenv("CCC_OBS_TRACE"), nullptr);
  EXPECT_EQ(TraceEventWriter::from_env(), nullptr);
}

// ------------------------------------------------------------ SimObserver

Trace small_trace(std::uint32_t tenants, std::size_t length,
                  std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  workloads.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back({std::make_unique<ZipfPages>(64, 0.9), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

std::vector<CostFunctionPtr> square_costs(std::uint32_t tenants) {
  return uniform_costs(MonomialCost(2.0), tenants);
}

TEST(SimObserver, ObservesEveryStepOfASession) {
  const Trace trace = small_trace(2, 4000, 11);
  SimObserver observer;

  ConvexCachingPolicy policy;
  SimOptions options;
  options.step_observer = &observer;
  const auto costs = square_costs(2);
  SimulatorSession session(16, 2, policy, &costs, options);
  for (const Request& request : trace) session.step(request);

  EXPECT_EQ(observer.steps_observed(), trace.size());
  EXPECT_EQ(observer.evictions_observed(),
            session.perf_counters().evictions);
  EXPECT_EQ(observer.rollovers_observed(),
            session.perf_counters().window_rollovers);
  // Latency is sampled every step by default.
  EXPECT_EQ(observer.step_latency_ns().count(), trace.size());
  EXPECT_GT(observer.step_latency_ns().sum(), 0u);
  // Eviction index work histogram has one entry per eviction.
  EXPECT_EQ(observer.eviction_index_work().count(),
            observer.evictions_observed());
}

TEST(SimObserver, LatencySamplePeriodThinsClockReads) {
  const Trace trace = small_trace(1, 1000, 5);
  SimObserverOptions obs_options;
  obs_options.latency_sample_period = 10;
  SimObserver observer(obs_options);

  ConvexCachingPolicy policy;
  SimOptions options;
  options.step_observer = &observer;
  const auto costs = square_costs(1);
  SimulatorSession session(8, 1, policy, &costs, options);
  for (const Request& request : trace) session.step(request);

  // Steps after the last observed (sampled or eviction) step are not yet
  // covered by a delta, so the count may trail by up to period-1.
  EXPECT_GE(observer.steps_observed(), 991u);
  EXPECT_LE(observer.steps_observed(), 1000u);
  EXPECT_EQ(observer.step_latency_ns().count(), 100u);
}

TEST(SimObserver, ResultsAreIdenticalWithAndWithoutObserver) {
  // Every combination of the two runtime hooks — none, observer, auditor,
  // both — must see the same decisions, and the auditor must stay clean.
  const Trace trace = small_trace(2, 3000, 23);
  const auto costs = square_costs(2);
  const auto run = [&trace, &costs](StepObserver* observer,
                                    PolicyAuditor* auditor) {
    ConvexCachingPolicy policy;
    SimOptions options;
    options.step_observer = observer;
    options.auditor = auditor;
    SimulatorSession session(16, 2, policy, &costs, options);
    std::vector<StepEvent> events;
    events.reserve(trace.size());
    for (const Request& request : trace)
      events.push_back(session.step(request));
    session.end_run();
    return std::make_pair(std::move(events),
                          session.metrics().miss_vector());
  };
  const auto [plain_events, plain_misses] = run(nullptr, nullptr);
  SimObserver observer;
  SimObserver both_observer;
  ConvexCachingAuditor auditor;
  ConvexCachingAuditor both_auditor;
  const std::vector<std::pair<StepObserver*, PolicyAuditor*>> hooks = {
      {&observer, nullptr},
      {nullptr, &auditor},
      {&both_observer, &both_auditor}};
  for (const auto& [hook_observer, hook_auditor] : hooks) {
    const auto [events, misses] = run(hook_observer, hook_auditor);
    ASSERT_EQ(plain_events.size(), events.size());
    for (std::size_t i = 0; i < plain_events.size(); ++i) {
      EXPECT_EQ(plain_events[i].request, events[i].request);
      EXPECT_EQ(plain_events[i].hit, events[i].hit);
      EXPECT_EQ(plain_events[i].victim, events[i].victim);
      EXPECT_EQ(plain_events[i].victim_owner, events[i].victim_owner);
    }
    EXPECT_EQ(plain_misses, misses);
  }
  for (const ConvexCachingAuditor* a : {&auditor, &both_auditor}) {
    EXPECT_TRUE(a->report().ok()) << a->report().summary();
    EXPECT_GT(a->report().victim_checks, 0u);
  }
  EXPECT_EQ(observer.steps_observed(), trace.size());
  EXPECT_EQ(both_observer.steps_observed(), trace.size());
}

TEST(SimObserver, SharedAcrossShardsAndRebalance) {
  const Trace trace = small_trace(4, 6000, 31);
  SimObserver observer;

  ShardedCacheOptions options;
  options.capacity = 64;
  options.num_shards = 4;
  options.num_tenants = 4;
  options.seed = 7;
  options.step_observer = &observer;
  const auto costs = square_costs(4);
  ShardedCache cache(options, make_convex_factory(), &costs);
  std::vector<StepEvent> events;
  cache.access_batch(trace.requests(), events);

  EXPECT_EQ(observer.steps_observed(), trace.size());
  EXPECT_EQ(observer.evictions_observed(),
            cache.aggregated_perf().evictions);
  EXPECT_EQ(observer.rebalances_observed(), 0u);
  cache.rebalance();
  EXPECT_EQ(observer.rebalances_observed(), 1u);
}

TEST(SimObserver, MergeCombinesTwoObservers) {
  const Trace trace = small_trace(2, 2000, 3);
  SimObserver a, b;
  const auto costs = square_costs(2);
  const auto run = [&trace, &costs](SimObserver& observer) {
    ConvexCachingPolicy policy;
    SimOptions options;
    options.step_observer = &observer;
    SimulatorSession session(16, 2, policy, &costs, options);
    for (const Request& request : trace) session.step(request);
  };
  run(a);
  run(b);
  const std::uint64_t steps_b = b.steps_observed();
  a.merge(b);
  EXPECT_EQ(a.steps_observed(), trace.size() + steps_b);
  EXPECT_EQ(a.step_latency_ns().count(), 2 * trace.size());
}

TEST(SimObserver, FillExportsHistogramsAndCounters) {
  const Trace trace = small_trace(1, 500, 17);
  SimObserver observer;
  ConvexCachingPolicy policy;
  SimOptions options;
  options.step_observer = &observer;
  const auto costs = square_costs(1);
  SimulatorSession session(8, 1, policy, &costs, options);
  for (const Request& request : trace) session.step(request);

  MetricsRegistry registry;
  observer.fill(registry, {{"bench", "test"}});
  const MetricFamily* latency = registry.find("ccc_step_latency_ns");
  ASSERT_NE(latency, nullptr);
  ASSERT_EQ(latency->histograms.size(), 1u);
  EXPECT_EQ(latency->histograms[0].snapshot.count, 500u);
  const MetricFamily* steps = registry.find("ccc_obs_steps_total");
  ASSERT_NE(steps, nullptr);
  EXPECT_DOUBLE_EQ(steps->scalars[0].value, 500.0);
}

TEST(SimObserver, EmitsTraceSpansForEvictions) {
  const Trace trace = small_trace(2, 2000, 29);
  std::ostringstream os;
  std::uint64_t evictions = 0;
  {
    TraceEventWriter writer(os);
    SimObserverOptions obs_options;
    obs_options.trace = &writer;
    SimObserver observer(obs_options);
    ConvexCachingPolicy policy;
    SimOptions options;
    options.step_observer = &observer;
    const auto costs = square_costs(2);
    SimulatorSession session(8, 2, policy, &costs, options);
    for (const Request& request : trace) session.step(request);
    evictions = observer.evictions_observed();
    ASSERT_GT(evictions, 0u);
    EXPECT_GE(writer.emitted(), evictions);
  }
  const std::string text = os.str();
  EXPECT_NE(text.find("\"name\": \"eviction\""), std::string::npos);
  EXPECT_NE(text.find("\"index_work\":"), std::string::npos);
}

}  // namespace
}  // namespace ccc::obs
