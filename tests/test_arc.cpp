// Behavioral tests for ARC (policies/arc.hpp).
#include "policies/arc.hpp"

#include <gtest/gtest.h>

#include "policies/lru.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

TEST(Arc, SingleAccessPagesStayProbationary) {
  // k=4: a stream of one-shot pages lives and dies in T1; a page hit once
  // moves to T2 and outlives the churn.
  ArcPolicy arc;
  SimulatorSession session(4, 1, arc, nullptr);
  session.step({0, 1});
  session.step({0, 1});  // hit → T2
  for (int p = 10; p < 30; ++p) session.step({0, static_cast<PageId>(p)});
  EXPECT_TRUE(session.contains(1))
      << "the frequency list must shield the twice-accessed page";
}

TEST(Arc, GhostHitGrowsRecencyTarget) {
  ArcPolicy arc;
  SimulatorSession session(3, 1, arc, nullptr);
  EXPECT_DOUBLE_EQ(arc.target_p(), 0.0);
  // Keep one page in T2 (so T1 never refills to capacity and B1 ghosts
  // survive trimming), overflow T1 to demote page 2 into B1, then
  // re-request it: the B1 ghost hit must raise p.
  session.step({0, 1});
  session.step({0, 1});  // hit → T2
  session.step({0, 2});
  session.step({0, 3});
  session.step({0, 4});  // evicts 2 from T1 into B1
  EXPECT_FALSE(session.contains(2));
  session.step({0, 2});  // B1 ghost hit
  EXPECT_GT(arc.target_p(), 0.0);
}

TEST(Arc, ScanResistanceBeatsLru) {
  // Hot loop + cold scan: ARC adapts, LRU drowns.
  Trace t(1);
  Rng rng(3);
  for (int round = 0; round < 400; ++round) {
    // hot set of 8 pages
    t.append(0, static_cast<PageId>(rng.next_below(8)));
    // interleaved cold scan
    t.append(0, static_cast<PageId>(1000 + round));
  }
  ArcPolicy arc;
  LruPolicy lru;
  const SimResult a = run_trace(t, 10, arc, nullptr);
  const SimResult b = run_trace(t, 10, lru, nullptr);
  EXPECT_LT(a.metrics.total_misses(), b.metrics.total_misses());
}

TEST(Arc, TargetPStaysWithinCapacity) {
  Rng rng(11);
  const Trace t = random_uniform_trace(2, 20, 3000, rng);
  ArcPolicy arc;
  SimulatorSession session(8, 2, arc, nullptr);
  for (const Request& r : t) {
    session.step(r);
    EXPECT_GE(arc.target_p(), 0.0);
    EXPECT_LE(arc.target_p(), 8.0);
    EXPECT_LE(session.size(), 8u);
  }
}

TEST(Arc, ContractOnRandomTraces) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    Rng rng(seed);
    const Trace t = random_uniform_trace(3, 10, 2000, rng);
    ArcPolicy arc;
    const SimResult result = run_trace(t, 6, arc, nullptr);
    EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
              t.size());
    EXPECT_LE(result.metrics.total_misses() -
                  result.metrics.total_evictions(),
              6u);
  }
}

TEST(Arc, RerunIsDeterministic) {
  Rng rng(31);
  const Trace t = random_uniform_trace(1, 16, 1200, rng);
  ArcPolicy arc;
  SimOptions options;
  options.record_events = true;
  const SimResult a = run_trace(t, 6, arc, nullptr, options);
  const SimResult b = run_trace(t, 6, arc, nullptr, options);
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_EQ(a.events[i].victim, b.events[i].victim);
}

TEST(Arc, SurvivesInvalidation) {
  ArcPolicy arc;
  SimulatorSession session(3, 1, arc, nullptr);
  session.step({0, 1});
  session.step({0, 2});
  session.invalidate(1);
  EXPECT_FALSE(session.contains(1));
  EXPECT_FALSE(session.step({0, 1}).hit);
}

}  // namespace
}  // namespace ccc
