// Unit tests for the simulation engine (sim/simulator.hpp).
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "cost/monomial.hpp"
#include "policies/lru.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

Trace abc_trace() {
  Trace t(1);
  for (const int p : {1, 2, 3, 1, 2, 3}) t.append(0, static_cast<PageId>(p));
  return t;
}

TEST(Simulator, ColdMissesThenHits) {
  Trace t(1);
  for (const int p : {1, 2, 1, 2}) t.append(0, static_cast<PageId>(p));
  LruPolicy lru;
  const SimResult result = run_trace(t, 2, lru, nullptr);
  EXPECT_EQ(result.metrics.misses(0), 2u);
  EXPECT_EQ(result.metrics.hits(0), 2u);
  EXPECT_EQ(result.metrics.evictions(0), 0u);
}

TEST(Simulator, EvictionsWhenFull) {
  const Trace t = abc_trace();  // 1 2 3 1 2 3 with k=2: LRU misses all
  LruPolicy lru;
  const SimResult result = run_trace(t, 2, lru, nullptr);
  EXPECT_EQ(result.metrics.misses(0), 6u);
  EXPECT_EQ(result.metrics.evictions(0), 4u);
}

TEST(Simulator, EventsRecordVictims) {
  const Trace t = abc_trace();
  LruPolicy lru;
  SimOptions options;
  options.record_events = true;
  const SimResult result = run_trace(t, 2, lru, nullptr, options);
  ASSERT_EQ(result.events.size(), 6u);
  EXPECT_FALSE(result.events[0].victim.has_value());  // cold insert
  EXPECT_FALSE(result.events[1].victim.has_value());
  ASSERT_TRUE(result.events[2].victim.has_value());   // 3 evicts 1 (LRU)
  EXPECT_EQ(*result.events[2].victim, 1u);
  EXPECT_EQ(*result.events[2].victim_owner, 0u);
}

TEST(Simulator, SessionStepInterface) {
  LruPolicy lru;
  SimulatorSession session(2, 1, lru, nullptr);
  EXPECT_FALSE(session.step({0, 1}).hit);
  EXPECT_FALSE(session.step({0, 2}).hit);
  EXPECT_TRUE(session.step({0, 1}).hit);
  EXPECT_TRUE(session.contains(1));
  EXPECT_TRUE(session.contains(2));
  EXPECT_EQ(session.now(), 3u);
}

TEST(Simulator, InvalidateRemovesAndNotifies) {
  LruPolicy lru;
  SimulatorSession session(2, 1, lru, nullptr);
  session.step({0, 1});
  session.step({0, 2});
  session.invalidate(1);
  EXPECT_FALSE(session.contains(1));
  EXPECT_EQ(session.metrics().evictions(0), 1u);
  // LRU must have dropped its bookkeeping: a fresh page must not crash and
  // the invalidated page re-misses.
  EXPECT_FALSE(session.step({0, 1}).hit);
  EXPECT_THROW(session.invalidate(99), std::invalid_argument);
}

TEST(Simulator, CacheNeverExceedsCapacity) {
  Rng rng(4);
  const Trace t = random_uniform_trace(2, 10, 500, rng);
  LruPolicy lru;
  SimulatorSession session(3, 2, lru, nullptr);
  for (const Request& r : t) {
    session.step(r);
    EXPECT_LE(session.size(), 3u);
    EXPECT_TRUE(session.contains(r.page));
  }
}

TEST(Simulator, RejectsTenantOutOfRange) {
  LruPolicy lru;
  SimulatorSession session(2, 1, lru, nullptr);
  EXPECT_THROW(session.step({5, 1}), std::invalid_argument);
}

TEST(Simulator, CostVectorValidation) {
  LruPolicy lru;
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(1.0));
  // Two tenants but one cost function.
  EXPECT_THROW(SimulatorSession(2, 2, lru, &costs), std::invalid_argument);
}

}  // namespace
}  // namespace ccc
