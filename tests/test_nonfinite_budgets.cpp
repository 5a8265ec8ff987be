// Non-finite budgets must stop ALG-DISCRETE with an error, never hang it.
//
// Reproduction: two tenants on f(x) = e^{0.05x} − 1, k = 16, a 40k-request
// uniform trace. Around 14k misses per tenant f' overflows to +inf, and a
// budget built from it compares false against everything. Both the
// indexed policy and the literal Fig. 3 transcription must throw naming
// the tenant and its miss count. This binary runs under a ctest TIMEOUT,
// so a regression to the old livelock fails instead of stalling the suite.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/convex_caching.hpp"
#include "core/naive_convex_caching.hpp"
#include "cost/spec.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

void expect_nonfinite_error(ReplacementPolicy& policy, const Trace& trace,
                            const std::vector<CostFunctionPtr>& costs) {
  try {
    (void)run_trace(trace, 16, policy, &costs);
    ADD_FAILURE() << policy.name() << " finished the overflowing trace";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budgets are no longer finite"), std::string::npos)
        << policy.name() << ": " << what;
    EXPECT_NE(what.find("marginal cost of tenant "), std::string::npos)
        << policy.name() << ": " << what;
    EXPECT_NE(what.find(" misses"), std::string::npos)
        << policy.name() << ": " << what;
  }
}

TEST(NonFiniteBudgets, ExponentialOverflowFailsLoudly) {
  Rng rng(5);
  const Trace trace = random_uniform_trace(2, 64, 40'000, rng);
  std::vector<CostFunctionPtr> costs;
  costs.push_back(parse_cost_spec("exp:1,0.05"));
  costs.push_back(parse_cost_spec("exp:1,0.05"));

  ConvexCachingPolicy indexed;
  expect_nonfinite_error(indexed, trace, costs);
  NaiveConvexCachingPolicy naive;
  expect_nonfinite_error(naive, trace, costs);
}

}  // namespace
}  // namespace ccc
