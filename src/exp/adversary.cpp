#include "exp/adversary.hpp"

#include "util/check.hpp"

namespace ccc {

AdversaryRun run_adversary(std::uint32_t n, std::size_t length,
                           ReplacementPolicy& policy,
                           const std::vector<CostFunctionPtr>& costs) {
  CCC_REQUIRE(n >= 2, "the adversary needs at least two tenants");
  CCC_REQUIRE(costs.size() >= n, "need one cost function per tenant");
  CCC_REQUIRE(length >= n, "run at least n requests to pass warm-up");

  AdversaryRun run(n);
  const std::size_t capacity = n - 1;
  SimulatorSession session(capacity, n, policy, &costs);

  // Tenant i owns the single page make_page(i, 0).
  for (std::size_t t = 0; t < length; ++t) {
    TenantId target = 0;
    if (t < capacity) {
      // Warm-up: fill the cache with the first n−1 pages.
      target = static_cast<TenantId>(t);
    } else {
      // Request the unique page missing from the algorithm's cache.
      bool found = false;
      for (TenantId i = 0; i < n; ++i) {
        if (!session.contains(make_page(i, 0))) {
          target = i;
          found = true;
          break;
        }
      }
      CCC_CHECK(found, "cache unexpectedly holds every page");
    }
    const Request request{target, make_page(target, 0)};
    run.trace.append(request);
    session.step(request);
  }
  run.alg_metrics = session.metrics();
  std::vector<std::uint64_t> misses(run.alg_metrics.miss_vector().begin(),
                                    run.alg_metrics.miss_vector().end());
  run.alg_cost = total_cost(misses, costs);
  return run;
}

}  // namespace ccc
