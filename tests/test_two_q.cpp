// Behavioral tests for simplified 2Q (policies/two_q.hpp).
#include "policies/two_q.hpp"

#include <gtest/gtest.h>

#include "policies/lru.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

TEST(TwoQ, ScanResistance) {
  // Promote pages 1 and 2 into the protected queue via ghost
  // re-references, run a long one-shot scan that churns only the
  // probationary queue, then revisit the hot pair: 2Q keeps them resident
  // where LRU has flushed them.
  Trace t(1);
  for (int p = 1; p <= 10; ++p) t.append(0, static_cast<PageId>(p));
  // Pages 1 and 2 were demoted to ghosts by the A1in overflow; their
  // re-reference promotes them into Am.
  t.append(0, 1);
  t.append(0, 2);
  for (int p = 100; p < 140; ++p) t.append(0, static_cast<PageId>(p));
  t.append(0, 1);
  t.append(0, 2);

  TwoQPolicy two_q;
  LruPolicy lru;
  const SimResult a = run_trace(t, 8, two_q, nullptr);
  const SimResult b = run_trace(t, 8, lru, nullptr);
  EXPECT_LT(a.metrics.total_misses(), b.metrics.total_misses())
      << "2Q must beat LRU on a scan-polluted trace";
}

TEST(TwoQ, GhostReReferencePromotesToProtected) {
  // k=4, kin=1: pages flow through the probationary queue; page 1 is
  // demoted to a ghost, and its re-reference promotes it into Am where it
  // survives further probationary churn.
  TwoQPolicy two_q;  // defaults: kin = 1, kout = 2 at k=4
  SimulatorSession session(4, 1, two_q, nullptr);
  for (const int p : {1, 2, 3, 4}) session.step({0, static_cast<PageId>(p)});
  session.step({0, 5});  // A1in over quota → evict 1 → ghost
  EXPECT_FALSE(session.contains(1));
  session.step({0, 1});  // ghost hit → evict 2, promote 1 into Am
  EXPECT_TRUE(session.contains(1));
  session.step({0, 6});  // churns A1in, not Am
  session.step({0, 7});
  EXPECT_TRUE(session.contains(1));
}

TEST(TwoQ, ValidatesParameters) {
  EXPECT_THROW(TwoQPolicy(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(TwoQPolicy(1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(TwoQPolicy(0.25, 0.0), std::invalid_argument);
}

TEST(TwoQ, ContractOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const Trace t = random_uniform_trace(2, 10, 1500, rng);
    TwoQPolicy two_q;
    const SimResult result = run_trace(t, 6, two_q, nullptr);
    EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
              t.size());
    EXPECT_LE(result.metrics.total_misses() -
                  result.metrics.total_evictions(),
              6u);
  }
}

TEST(TwoQ, RerunIsDeterministic) {
  Rng rng(5);
  const Trace t = random_uniform_trace(1, 12, 800, rng);
  TwoQPolicy two_q;
  SimOptions options;
  options.record_events = true;
  const SimResult a = run_trace(t, 5, two_q, nullptr, options);
  const SimResult b = run_trace(t, 5, two_q, nullptr, options);
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_EQ(a.events[i].victim, b.events[i].victim);
}

}  // namespace
}  // namespace ccc
