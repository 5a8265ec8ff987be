// Behavioral tests for randomized marking
// (policies/randomized_marking.hpp).
#include "policies/randomized_marking.hpp"

#include <gtest/gtest.h>

#include "exp/adversary.hpp"
#include "cost/monomial.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

TEST(RandomizedMarking, NeverEvictsMarkedPageWithinPhase) {
  // k=3: pages 1,2,3 all marked (fresh); a miss on 4 starts a new phase.
  // Then hits on two survivors mark them; the next miss must evict the
  // only unmarked page regardless of the random draw.
  RandomizedMarkingPolicy policy;
  SimulatorSession session(3, 1, policy, nullptr);
  for (const int p : {1, 2, 3, 4}) session.step({0, static_cast<PageId>(p)});
  // One of {1,2,3} was evicted; 4 is marked. Touch the two survivors.
  std::vector<PageId> survivors;
  for (const int p : {1, 2, 3})
    if (session.contains(static_cast<PageId>(p)))
      survivors.push_back(static_cast<PageId>(p));
  ASSERT_EQ(survivors.size(), 2u);
  session.step({0, survivors[0]});
  const StepEvent miss = session.step({0, 99});
  ASSERT_TRUE(miss.victim.has_value());
  EXPECT_EQ(*miss.victim, survivors[1])
      << "the single unmarked page must be the victim";
}

TEST(RandomizedMarking, SeededAndReproducible) {
  Rng rng(3);
  const Trace t = random_uniform_trace(1, 10, 600, rng);
  SimOptions options;
  options.record_events = true;
  options.seed = 42;
  RandomizedMarkingPolicy p1, p2;
  const SimResult a = run_trace(t, 4, p1, nullptr, options);
  const SimResult b = run_trace(t, 4, p2, nullptr, options);
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_EQ(a.events[i].victim, b.events[i].victim);
}

TEST(RandomizedMarking, AdaptiveAdversaryStillWins) {
  // Theorem 1.4's adversary is adaptive (it sees the actual cache), so
  // even randomization cannot save the algorithm: zero hits.
  const std::uint32_t n = 6;
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t i = 0; i < n; ++i)
    costs.push_back(std::make_unique<MonomialCost>(2.0));
  RandomizedMarkingPolicy policy;
  const AdversaryRun run = run_adversary(n, 300, policy, costs);
  EXPECT_EQ(run.alg_metrics.total_hits(), 0u);
}

TEST(RandomizedMarking, ContractOnRandomTraces) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    Rng rng(seed);
    const Trace t = random_uniform_trace(2, 9, 1200, rng);
    RandomizedMarkingPolicy policy;
    const SimResult result = run_trace(t, 5, policy, nullptr);
    EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
              t.size());
    EXPECT_LE(result.metrics.total_misses() -
                  result.metrics.total_evictions(),
              5u);
  }
}

}  // namespace
}  // namespace ccc
