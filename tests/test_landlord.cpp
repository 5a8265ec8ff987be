// Behavioral tests for Landlord / weighted caching: ALG-DISCRETE with every
// marginal pinned at f'_i(1) (DerivativeMode::kFirstMarginal), built by
// make_policy("landlord"). A tenant's weight is its cost's f'(1), so the
// weighted-caching instances here are written as `linear:w` costs.
#include <gtest/gtest.h>

#include "core/convex_caching.hpp"
#include "cost/spec.hpp"
#include "exp/policy_factory.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

std::vector<CostFunctionPtr> costs_of(const std::vector<std::string>& specs) {
  std::vector<CostFunctionPtr> costs;
  for (const std::string& spec : specs) costs.push_back(parse_cost_spec(spec));
  return costs;
}

std::vector<std::optional<PageId>> victims(
    const Trace& t, std::size_t k, const std::vector<CostFunctionPtr>& costs) {
  const auto landlord = make_policy("landlord");
  SimOptions options;
  options.record_events = true;
  const SimResult result = run_trace(t, k, *landlord, &costs, options);
  std::vector<std::optional<PageId>> out;
  for (const StepEvent& e : result.events) out.push_back(e.victim);
  return out;
}

TEST(Landlord, CheapTenantEvictedFirst) {
  // Tenant 0 weight 1, tenant 1 weight 10.
  const auto costs = costs_of({"linear:1", "linear:10"});
  Trace t(2);
  t.append(0, make_page(0, 0));
  t.append(1, make_page(1, 0));
  t.append(0, make_page(0, 1));  // forces an eviction with k=2
  const auto v = victims(t, 2, costs);
  EXPECT_EQ(v[2], make_page(0, 0));  // the cheap tenant's page goes
}

TEST(Landlord, DebitEventuallyEvictsExpensivePage) {
  const auto costs = costs_of({"linear:1", "linear:3"});
  Trace t(2);
  t.append(1, make_page(1, 0));  // credit 3
  // Cheap misses in a row debit the expensive page by 1 each time.
  t.append(0, make_page(0, 0));
  t.append(0, make_page(0, 1));  // evicts (0,0): credit 1 < 3; (1,0) → 2
  t.append(0, make_page(0, 2));  // evicts (0,1): credit 1 < 2; (1,0) → 1
  t.append(0, make_page(0, 3));  // (1,0) and (0,2) tie at credit 1
  const auto v = victims(t, 2, costs);
  EXPECT_EQ(v[2], make_page(0, 0));
  EXPECT_EQ(v[3], make_page(0, 1));
  // The tie goes to the lower page id: tenant 0's page, whose id is lower
  // under make_page — the debit has worn the expensive page down to it.
  ASSERT_LT(make_page(0, 2), make_page(1, 0));
  EXPECT_EQ(v[4], make_page(0, 2));
}

TEST(Landlord, HitRefreshesCredit) {
  const auto costs = costs_of({"linear:1", "linear:1"});
  ConvexCachingOptions options;
  options.derivative = DerivativeMode::kFirstMarginal;
  ConvexCachingPolicy landlord(options);
  SimulatorSession session(2, 2, landlord, &costs);
  session.step({0, make_page(0, 0)});
  session.step({1, make_page(1, 0)});
  // Evicting a credit-1 page debits the survivor down to 0 ...
  ASSERT_EQ(session.step({0, make_page(0, 1)}).victim, make_page(0, 0));
  EXPECT_DOUBLE_EQ(landlord.budget(make_page(1, 0)), 0.0);
  // ... and a hit restores its full credit.
  session.step({1, make_page(1, 0)});
  EXPECT_DOUBLE_EQ(landlord.budget(make_page(1, 0)), 1.0);
  // Both pages now hold credit 1 and the tie goes to the lower page id;
  // without the refresh, page (1,0) would have gone at credit 0.
  EXPECT_EQ(session.step({0, make_page(0, 2)}).victim, make_page(0, 1));
}

TEST(Landlord, DerivesWeightsFromCosts) {
  // The credit is f'(1) of the tenant's cost (2 for x², 15 for 10·x^1.5),
  // pinned for the whole run: it does not follow f' up as misses accrue.
  const auto costs = costs_of({"mono:2", "mono:1.5,10"});
  ConvexCachingOptions options;
  options.derivative = DerivativeMode::kFirstMarginal;
  ConvexCachingPolicy landlord(options);
  SimulatorSession session(2, 2, landlord, &costs);
  session.step({0, make_page(0, 0)});
  session.step({1, make_page(1, 0)});
  EXPECT_DOUBLE_EQ(landlord.budget(make_page(0, 0)), 2.0);
  EXPECT_DOUBLE_EQ(landlord.budget(make_page(1, 0)), 15.0);
  for (std::uint64_t p = 1; p <= 4; ++p) {
    const StepEvent e = session.step({0, make_page(0, p)});
    EXPECT_EQ(e.victim, make_page(0, p - 1));  // the cheap tenant pays
    EXPECT_DOUBLE_EQ(landlord.budget(make_page(0, p)), 2.0);
  }
  EXPECT_EQ(landlord.tenant_evictions()[0], 4u);
  EXPECT_EQ(landlord.name(), "Landlord");
}

TEST(Landlord, RequiresWeightsOrCosts) {
  const auto landlord = make_policy("landlord");
  Trace t(1);
  t.append(0, 1);
  EXPECT_THROW((void)run_trace(t, 2, *landlord, nullptr),
               std::invalid_argument);
}

TEST(Landlord, RejectsNonPositiveWeights) {
  // A weight is a linear cost's slope, and the cost layer refuses a
  // non-positive one.
  EXPECT_THROW((void)parse_cost_spec("linear:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_cost_spec("linear:-1"), std::invalid_argument);
  // A convex cost may still have f'(1) = 0 (an SLA below its knee): its
  // credit is floored to a tiny positive value, never 0.
  const auto costs = costs_of({"sla:8,1"});
  ConvexCachingOptions options;
  options.derivative = DerivativeMode::kFirstMarginal;
  ConvexCachingPolicy landlord(options);
  SimulatorSession session(2, 1, landlord, &costs);
  session.step({0, 1});
  EXPECT_EQ(costs[0]->derivative(1.0), 0.0);
  EXPECT_EQ(landlord.budget(1), kFirstMarginalFloor);
}

TEST(Landlord, UnitWeightsBehaveLikeFlushingPolicy) {
  // With equal weights Landlord is a valid k-competitive paging policy;
  // sanity-check it against LRU's miss count order of magnitude.
  Rng rng(31);
  const Trace t = random_uniform_trace(2, 10, 2000, rng);
  const auto costs = costs_of({"linear:1", "linear:1"});
  const auto landlord = make_policy("landlord");
  const SimResult result = run_trace(t, 5, *landlord, &costs);
  EXPECT_GT(result.metrics.total_hits(), 0u);
  EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
            t.size());
}

}  // namespace
}  // namespace ccc
