// Behavioral tests for LRU-K (policies/lru_k.hpp).
#include "policies/lru_k.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

Trace from_pages(std::initializer_list<int> pages) {
  Trace t(1);
  for (const int p : pages) t.append(0, static_cast<PageId>(p));
  return t;
}

std::vector<std::optional<PageId>> victims(const Trace& t, std::size_t k,
                                           ReplacementPolicy& policy) {
  SimOptions options;
  options.record_events = true;
  const SimResult result = run_trace(t, k, policy, nullptr, options);
  std::vector<std::optional<PageId>> out;
  for (const StepEvent& e : result.events) out.push_back(e.victim);
  return out;
}

TEST(LruK, InfiniteDistancePagesGoFirst) {
  LruKPolicy lru2(2);
  // 1 1 2 3: page 1 has two references (finite K-distance); page 2 only
  // one (infinite) → 3 must evict 2 even though 2 is more recent.
  const auto v = victims(from_pages({1, 1, 2, 3}), 2, lru2);
  EXPECT_EQ(v[3], PageId{2});
}

TEST(LruK, AmongFiniteEvictsOldestKthReference) {
  LruKPolicy lru2(2);
  // Build: 1 1 2 2 1 (k=2). Kth-most-recent (2nd) refs: page 1 → t=1,
  // page 2 → t=2. Request 3: both finite, evict page 1 (older 2nd ref).
  const auto v = victims(from_pages({1, 1, 2, 2, 1, 3}), 2, lru2);
  EXPECT_EQ(v[5], PageId{1});
}

TEST(LruK, K1ReducesToLru) {
  LruKPolicy lru1(1);
  const auto v = victims(from_pages({1, 2, 1, 3}), 2, lru1);
  EXPECT_EQ(v[3], PageId{2});
}

TEST(LruK, TwiceReferencedPageOutlivesSingletons) {
  LruKPolicy lru2(2);
  // 1 1 2 3 1 4 (k=2): page 1's two references give it a finite K-distance,
  // so the once-referenced pages 2 and then 3 are evicted around it.
  const auto v = victims(from_pages({1, 1, 2, 3, 1, 4}), 2, lru2);
  EXPECT_EQ(v[3], PageId{2});
  EXPECT_FALSE(v[4].has_value());  // 1 is still resident: hit
  EXPECT_EQ(v[5], PageId{3});
  LruKPolicy fresh(2);
  SimulatorSession session(2, 1, fresh, nullptr);
  for (const int p : {1, 1, 2, 3, 1, 4})
    session.step({0, static_cast<PageId>(p)});
  EXPECT_TRUE(session.contains(1));
}

TEST(LruK, RejectsZeroK) {
  EXPECT_THROW(LruKPolicy(0), std::invalid_argument);
}

TEST(LruK, NameReflectsK) {
  EXPECT_EQ(LruKPolicy(2).name(), "LRU-2");
  EXPECT_EQ(LruKPolicy(3).name(), "LRU-3");
}

TEST(LruK, StableOnRandomTraces) {
  Rng rng(23);
  const Trace t = random_uniform_trace(2, 8, 500, rng);
  LruKPolicy lru2(2);
  const SimResult result = run_trace(t, 4, lru2, nullptr);
  EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
            t.size());
}

}  // namespace
}  // namespace ccc
