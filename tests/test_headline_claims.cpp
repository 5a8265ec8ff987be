// Integration tests pinning the *reproduced shapes* — the qualitative
// claims EXPERIMENTS.md reports — so a regression in any component that
// silently flips a headline conclusion fails CI, not just a bench rerun.
#include <gtest/gtest.h>

#include <chrono>

#include "analysis/mrc.hpp"
#include "core/naive_convex_caching.hpp"
#include "bufferpool/buffer_pool.hpp"
#include "core/convex_caching.hpp"
#include "core/theory.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "exp/adversary.hpp"
#include "exp/policy_factory.hpp"
#include "offline/batch_balance.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

// Wall-clock ratio assertions only hold in optimized, uninstrumented
// builds; Debug and sanitizer CI jobs skip them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CCC_INSTRUMENTED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CCC_INSTRUMENTED_BUILD 1
#endif
#endif

namespace ccc {
namespace {

// The E4 scenario in miniature: the cost-aware algorithm must undercut the
// cost-oblivious and naive cost-aware baselines on SLA refunds (§1.1's
// motivating claim and the headline of the companion paper [14]).
TEST(HeadlineClaims, ConvexCachingCutsSlaRefundsVsClassicBaselines) {
  const auto contracts = [] {
    std::vector<TenantContract> c;
    c.push_back({"gold", std::make_unique<PiecewiseLinearCost>(
                             PiecewiseLinearCost::sla(50.0, 10.0))});
    c.push_back({"scan", std::make_unique<PiecewiseLinearCost>(
                             PiecewiseLinearCost::sla(400.0, 2.0))});
    c.push_back({"dev", std::make_unique<PiecewiseLinearCost>(
                            PiecewiseLinearCost::sla(150.0, 4.0))});
    c.push_back({"bg", std::make_unique<PiecewiseLinearCost>(
                           PiecewiseLinearCost::sla(300.0, 1.0))});
    return c;
  };
  const Trace trace = [] {
    std::vector<TenantWorkload> w;
    w.push_back({std::make_unique<ZipfPages>(400, 1.1), 4.0});
    w.push_back({std::make_unique<ScanPages>(300), 2.0});
    w.push_back({std::make_unique<WorkingSetPages>(300, 40, 2000, 0.9), 2.0});
    w.push_back({std::make_unique<UniformPages>(200), 1.0});
    Rng rng(7);
    return generate_trace(std::move(w), 60000, rng);
  }();

  const auto refund_for = [&](const std::string& policy_name) {
    BufferPool pool(192, contracts(), make_policy(policy_name), 2000);
    pool.replay(trace);
    return pool.report().total_refund;
  };

  const double convex = refund_for("convex");
  EXPECT_LT(convex, refund_for("lru"));
  EXPECT_LT(convex, refund_for("fifo"));
  EXPECT_LT(convex, refund_for("static"));
  EXPECT_LT(convex, refund_for("landlord"));
}

// The E3 shape: for fixed beta, the online/offline gap on the Theorem 1.4
// instance grows with n.
TEST(HeadlineClaims, LowerBoundGapGrowsWithN) {
  const double beta = 2.0;
  double previous_gap = 0.0;
  for (const std::uint32_t n : {7u, 11u, 15u}) {
    std::vector<CostFunctionPtr> costs;
    for (std::uint32_t i = 0; i < n; ++i)
      costs.push_back(std::make_unique<MonomialCost>(beta));
    const auto lru = make_policy("lru");
    const AdversaryRun adv = run_adversary(n, 2000, *lru, costs);
    BatchBalancePolicy offline((n - 1) / 2);
    const SimResult off = run_trace(adv.trace, n - 1, offline, &costs);
    const double gap =
        adv.alg_cost / total_cost(off.metrics.miss_vector(), costs);
    EXPECT_GT(gap, previous_gap) << "n=" << n;
    EXPECT_GT(gap, theorem14_lower_factor(n, beta)) << "n=" << n;
    previous_gap = gap;
  }
}

// The E8 shape: at matching k, ALG-DISCRETE's realized cost sits below the
// exact LRU cost curve on the SLA capacity-planning workload.
TEST(HeadlineClaims, ConvexCachingBeatsLruCostCurve) {
  std::vector<TenantWorkload> w;
  w.push_back({std::make_unique<ZipfPages>(300, 1.0), 2.0});
  w.push_back({std::make_unique<ScanPages>(200), 1.0});
  w.push_back({std::make_unique<MarkovPages>(250, 0.8, 0.8, 5), 1.5});
  Rng rng(13);
  const Trace trace = generate_trace(std::move(w), 40000, rng);

  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<PiecewiseLinearCost>(
      PiecewiseLinearCost::sla(500.0, 8.0)));
  costs.push_back(std::make_unique<PiecewiseLinearCost>(
      PiecewiseLinearCost::sla(5000.0, 1.0)));
  costs.push_back(std::make_unique<PiecewiseLinearCost>(
      PiecewiseLinearCost::sla(2000.0, 3.0)));

  const MissRateCurve curve = compute_mrc(trace);
  for (const std::size_t k : {128u, 256u}) {
    ConvexCachingPolicy policy;
    const SimResult run = run_trace(trace, k, policy, &costs);
    EXPECT_LE(total_cost(run.metrics.miss_vector(), costs),
              curve.cost_at(k, costs))
        << "k=" << k;
  }
}

// The E6 design claim, order-of-magnitude form: the optimized ALG-DISCRETE
// must process a many-tenant workload several times faster than the naive
// Fig. 3 transcription (which sweeps all k pages per eviction). The tenant
// count is the lever that separates them: every eviction bumps only the
// victim tenant, which moves one leaf of the tenant tree, while the naive
// oracle — a vectorized SoA sweep — still touches all k budgets. At 64
// tenants the index wins by well over the asserted 2x.
TEST(HeadlineClaims, OptimizedAlgorithmOutpacesNaiveAtLargeK) {
#if !defined(NDEBUG) || defined(CCC_INSTRUMENTED_BUILD)
  GTEST_SKIP() << "timing ratios are meaningless without optimization";
#endif
  constexpr std::uint32_t kTenants = 64;
  std::vector<TenantWorkload> w;
  for (std::uint32_t i = 0; i < kTenants; ++i)
    w.push_back({std::make_unique<ZipfPages>(64, 0.9), 1.0});
  Rng rng(3);
  const Trace trace = generate_trace(std::move(w), 60000, rng);
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t i = 0; i < kTenants; ++i)
    costs.push_back(std::make_unique<MonomialCost>(2.0, 1.0 + i % 4));

  const auto time_policy = [&](ReplacementPolicy& policy) {
    const auto start = std::chrono::steady_clock::now();
    (void)run_trace(trace, 2048, policy, &costs);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  ConvexCachingPolicy fast;
  NaiveConvexCachingPolicy naive;
  const double fast_seconds = time_policy(fast);
  const double naive_seconds = time_policy(naive);
  EXPECT_LT(fast_seconds * 2.0, naive_seconds)
      << "expected >2x speedup, got " << naive_seconds / fast_seconds << "x";
}

}  // namespace
}  // namespace ccc
