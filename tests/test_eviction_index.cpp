// Tests for the eviction index of ConvexCachingPolicy (per-tenant heaps
// under a tenant winner tree): randomized differential replay against a
// full scan of the policy's own effective budgets and against the literal
// Fig. 3 transcription (NaiveConvexCachingPolicy), tie-breaking (including
// keys that round to one score), window-rollover rebuilds, and the perf
// counters surfaced through SimResult.
//
// Unless a test says otherwise the cost families here have integer-valued
// marginals, so every implementation computes budgets exactly in floating
// point and victim sequences must match bit for bit.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/convex_caching.hpp"
#include "core/naive_convex_caching.hpp"
#include "cost/combinators.hpp"
#include "cost/monomial.hpp"
#include "exp/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

/// Drives a ConvexCachingPolicy and, at every eviction, compares its victim
/// with a full scan of the resident pages' effective budgets (lowest page
/// id on ties) — Fig. 3's "page with the smallest B(p)" with no index.
class ScanCheckedPolicy final : public ReplacementPolicy {
 public:
  explicit ScanCheckedPolicy(ConvexCachingOptions options = {})
      : inner_(options) {}

  void reset(const PolicyContext& ctx) override {
    cache_ = ctx.cache;
    mismatches_ = 0;
    inner_.reset(ctx);
  }
  void on_hit(const Request& request, TimeStep time) override {
    inner_.on_hit(request, time);
  }
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override {
    const PageId victim = inner_.choose_victim(request, time);
    bool found = false;
    double best = 0.0;
    PageId best_page = 0;
    for (const auto [page, owner] : cache_->pages()) {
      (void)owner;
      const double b = inner_.budget(page);
      if (!found || b < best || (b == best && page < best_page)) {
        found = true;
        best = b;
        best_page = page;
      }
    }
    if (best_page != victim) ++mismatches_;
    return victim;
  }
  void on_evict(PageId victim, TenantId owner, TimeStep time) override {
    inner_.on_evict(victim, owner, time);
  }
  void on_insert(const Request& request, TimeStep time) override {
    inner_.on_insert(request, time);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  /// Evictions where the index and the scan disagreed.
  [[nodiscard]] std::size_t mismatches() const noexcept { return mismatches_; }

 private:
  ConvexCachingPolicy inner_;
  const CacheState* cache_ = nullptr;
  std::size_t mismatches_ = 0;
};

/// Mixed multi-tenant workload: tenant t cycles through Zipf, sequential
/// scan and shifting-working-set generators, with unequal request rates.
Trace mixed_trace(std::uint32_t tenants, std::uint64_t pages_per_tenant,
                  std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    PageGeneratorPtr pages;
    switch (t % 3) {
      case 0:
        pages = std::make_unique<ZipfPages>(pages_per_tenant, 0.8);
        break;
      case 1:
        pages = std::make_unique<ScanPages>(pages_per_tenant);
        break;
      default:
        pages = std::make_unique<WorkingSetPages>(
            pages_per_tenant, pages_per_tenant / 2 + 1, 50, 0.8);
        break;
    }
    workloads.push_back({std::move(pages), 1.0 + 0.5 * (t % 4)});
  }
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

/// Per-tenant costs with integer marginals: rotate through quadratic,
/// linear and cubic monomials with integer weights.
std::vector<CostFunctionPtr> integer_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    const double weight = 1.0 + static_cast<double>(t % 5);
    const double beta = 1.0 + static_cast<double>(t % 3);
    costs.push_back(std::make_unique<MonomialCost>(beta, weight));
  }
  return costs;
}

void expect_identical_decisions(const SimResult& a, const SimResult& b,
                                const std::string& what) {
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i].hit, b.events[i].hit) << what << " step " << i;
    ASSERT_EQ(a.events[i].victim, b.events[i].victim)
        << what << " step " << i;
  }
}

// ---------------------------------------------------------------------------
// Differential replay: the index vs a scan of its budgets vs the naive
// oracle on randomized mixed traces.

struct DiffCase {
  std::uint64_t seed;
  std::uint32_t tenants;
  std::uint64_t pages_per_tenant;
  std::size_t k;
  std::size_t length;

  friend std::ostream& operator<<(std::ostream& os, const DiffCase& c) {
    return os << "seed" << c.seed << "_n" << c.tenants << "_p"
              << c.pages_per_tenant << "_k" << c.k << "_len" << c.length;
  }
};

class EvictionIndexDifferentialTest
    : public ::testing::TestWithParam<DiffCase> {};

TEST_P(EvictionIndexDifferentialTest, GlobalScanAndNaiveAgree) {
  const DiffCase c = GetParam();
  const Trace trace =
      mixed_trace(c.tenants, c.pages_per_tenant, c.length, c.seed);
  const auto costs = integer_costs(c.tenants);

  ScanCheckedPolicy indexed;
  NaiveConvexCachingPolicy naive;
  SimOptions options;
  options.record_events = true;
  const SimResult g = run_trace(trace, c.k, indexed, &costs, options);
  const SimResult n = run_trace(trace, c.k, naive, &costs, options);
  EXPECT_EQ(indexed.mismatches(), 0u) << "index vs scan";
  expect_identical_decisions(g, n, "index vs naive");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EvictionIndexDifferentialTest,
    ::testing::Values(DiffCase{11, 3, 8, 6, 1500},
                      DiffCase{12, 8, 6, 12, 2000},
                      DiffCase{13, 16, 5, 24, 2500},
                      DiffCase{14, 32, 4, 40, 3000},
                      DiffCase{15, 64, 3, 48, 3000},
                      DiffCase{16, 5, 12, 8, 2000},
                      DiffCase{17, 24, 4, 16, 2500}));

// Eviction-maximal churn: a universe far larger than k makes nearly every
// request an insert+evict pair, so the flat residency tables run a
// backward-shift erase per step while sitting at their load limit and the
// per-tenant heaps remove an entry per step. Any probe chain corrupted by
// a shift, or a heap slot left behind by a removal, breaks the victim
// sequence — which the index and the naive oracle must still agree on.
TEST(EvictionIndexDifferential, EraseHeavyChurnAgreesAcrossIndexes) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const Trace trace = mixed_trace(6, 256, 4000, seed);
    const auto costs = integer_costs(6);
    ScanCheckedPolicy indexed;
    NaiveConvexCachingPolicy naive;
    SimOptions options;
    options.record_events = true;
    const SimResult g = run_trace(trace, 8, indexed, &costs, options);
    const SimResult n = run_trace(trace, 8, naive, &costs, options);
    EXPECT_EQ(indexed.mismatches(), 0u) << "churn index vs scan";
    expect_identical_decisions(g, n, "churn index vs naive");
    // At capacity 8 over a 1536-page universe, misses dominate: the churn
    // premise (an eviction on nearly every step) must actually hold.
    EXPECT_GT(g.metrics.total_evictions(), trace.size() / 2);
  }
}

// The §2.5 discrete-marginal mode on non-convex costs shrinks tenant bumps
// (a step cost's marginal falls back to 0 after each jump). A shrinking
// bump moves the tenant's leaf but not its heap order; agreement with the
// oracle shows the leaf follows it.
TEST(EvictionIndexDifferential, NonConvexCostsAgreeAcrossIndexes) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const Trace trace = mixed_trace(6, 6, 2500, seed);
    std::vector<CostFunctionPtr> costs;
    for (std::uint32_t t = 0; t < 6; ++t) {
      if (t % 2 == 0)
        costs.push_back(std::make_unique<StepCost>(3.0 + t, 8.0));
      else
        costs.push_back(std::make_unique<MonomialCost>(2.0, 1.0 + t));
    }
    ConvexCachingOptions discrete;
    discrete.derivative = DerivativeMode::kDiscreteMarginal;

    ScanCheckedPolicy indexed(discrete);
    NaiveConvexCachingPolicy naive(discrete);
    SimOptions options;
    options.record_events = true;
    const SimResult g = run_trace(trace, 10, indexed, &costs, options);
    const SimResult n = run_trace(trace, 10, naive, &costs, options);
    EXPECT_EQ(indexed.mismatches(), 0u) << "non-convex index vs scan";
    expect_identical_decisions(g, n, "non-convex index vs naive");
  }
}

// ---------------------------------------------------------------------------
// Tie-breaking: equal effective budgets must resolve to the lowest page id,
// across tenants, in both index modes.

TEST(EvictionIndexTieBreak, EqualBudgetsEvictLowestPageId) {
  // Two linear tenants with identical weight: every budget is exactly 3.
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(1.0, 3.0));
  costs.push_back(std::make_unique<MonomialCost>(1.0, 3.0));
  ConvexCachingPolicy policy;
  SimulatorSession session(3, 2, policy, &costs);
  // Raw page ids chosen so the lowest id belongs to the tenant touched in
  // the middle — neither insertion order nor tenant order can fake the
  // right answer.
  session.step({0, 20});
  session.step({1, 10});
  session.step({0, 30});
  // All three budgets are 3; the victim must be the globally lowest page
  // id — tenant 1's page 10.
  const StepEvent e = session.step({1, 40});
  ASSERT_TRUE(e.victim.has_value());
  EXPECT_EQ(*e.victim, 10u);
}

TEST(EvictionIndexTieBreak, TieAfterRefreshUsesCurrentBudgets) {
  // A page refreshed by a hit must participate in ties with its *new*
  // budget and id ordering.
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(1.0, 2.0));
  ConvexCachingPolicy policy;
  SimulatorSession session(2, 1, policy, &costs);
  session.step({0, 4});
  session.step({0, 1});
  session.step({0, 4});  // hit: refreshes page 4 at the same budget (2)
  // Tie between pages 1 and 4 at budget 2 → page 1 goes.
  const StepEvent e = session.step({0, 9});
  ASSERT_TRUE(e.victim.has_value());
  EXPECT_EQ(*e.victim, 1u);
}

/// f'(1) = 1 and f'(m) = 2^53 for m ≥ 2, so the first bump is 2^53 − 1 and
/// keys 1 and 2 both round to the score 2^53.
class RoundingMarginalCost final : public CostFunction {
 public:
  [[nodiscard]] double value(double x) const override { return x; }
  [[nodiscard]] double derivative(double x) const override {
    return x <= 1.0 ? 1.0 : std::ldexp(1.0, 53);
  }
  [[nodiscard]] std::string describe() const override { return "rounding"; }
  [[nodiscard]] std::unique_ptr<CostFunction> clone() const override {
    return std::make_unique<RoundingMarginalCost>();
  }
  [[nodiscard]] bool is_convex() const override { return true; }
};

TEST(EvictionIndexTieBreak, KeysRoundingToOneScoreEvictLowestPageId) {
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<RoundingMarginalCost>());
  ConvexCachingPolicy policy;
  SimulatorSession session(2, 1, policy, &costs);
  session.step({0, 30});  // key 1
  session.step({0, 40});  // key 1
  // Evicts page 30 (budget 1, lower id): the offset becomes 1 and the bump
  // 2^53 − 1, so page 10 enters with key 2^53 − (2^53 − 1) + 1 = 2.
  ASSERT_EQ(session.step({0, 10}).victim, PageId{30});
  // Page 40 (key 1) tops the tenant's heap, but 1 + bump and 2 + bump
  // both round to 2^53: the tie goes to the lower page id, page 10.
  const StepEvent e = session.step({0, 50});
  ASSERT_TRUE(e.victim.has_value());
  EXPECT_EQ(*e.victim, PageId{10});
}

// ---------------------------------------------------------------------------
// Window rollover: the index must be rebuilt when budgets re-base.

TEST(EvictionIndexWindow, GlobalAndScanAgreeAcrossBoundaries) {
  // The naive transcription has no accounting windows, so the oracle here
  // is the scan of the re-based budgets.
  for (const std::size_t window : {7u, 32u, 100u}) {
    const Trace trace = mixed_trace(8, 6, 2000, /*seed=*/31 + window);
    const auto costs = integer_costs(8);
    ConvexCachingOptions windowed;
    windowed.window_length = window;
    ScanCheckedPolicy indexed(windowed);
    const SimResult g = run_trace(trace, 12, indexed, &costs);
    EXPECT_GT(g.perf.evictions, 0u) << "window=" << window;
    EXPECT_EQ(indexed.mismatches(), 0u) << "window=" << window;
  }
}

TEST(EvictionIndexWindow, RollRebuildsIndexAndRebasesBudgets) {
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(2.0));  // f' = 2x
  ConvexCachingOptions options;
  options.window_length = 4;
  ConvexCachingPolicy policy(options);
  SimulatorSession session(2, 1, policy, &costs);
  for (const int p : {1, 2, 3, 4}) session.step({0, static_cast<PageId>(p)});
  // t=4 rolls the window: the eviction index must be rebuilt on re-based
  // budgets (see ConvexCaching.WindowedMissCountsReset for the arithmetic).
  session.step({0, 5});
  EXPECT_DOUBLE_EQ(policy.budget(5), 4.0);
  EXPECT_DOUBLE_EQ(policy.budget(4), 2.0);
  EXPECT_GE(policy.perf_counters().index_rebuilds, 1u);
}

// ---------------------------------------------------------------------------
// Index hygiene and counters.

TEST(EvictionIndexCompaction, HitHeavyStreamStaysBounded) {
  // Capacity 8 over a 10-page universe: hits dominate. Refreshes re-sift in
  // place, so the index holds exactly one entry per resident page and
  // never needs a rebuild.
  std::vector<CostFunctionPtr> costs;
  costs.push_back(std::make_unique<MonomialCost>(2.0));
  Rng rng(99);
  const Trace trace = random_uniform_trace(1, 10, 50'000, rng);
  ConvexCachingPolicy policy;
  const SimResult result = run_trace(trace, 8, policy, &costs);
  EXPECT_EQ(result.perf.index_rebuilds, 0u);
  EXPECT_EQ(policy.index_size(), 8u);
  EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
            trace.size());
}

TEST(EvictionIndexCounters, RunTraceFillsPerfCounters) {
  const Trace trace = mixed_trace(4, 8, 5000, /*seed=*/7);
  const auto costs = integer_costs(4);
  ConvexCachingPolicy policy;
  const SimResult result = run_trace(trace, 10, policy, &costs);
  EXPECT_EQ(result.perf.requests, trace.size());
  EXPECT_EQ(result.perf.evictions, result.metrics.total_evictions());
  EXPECT_GT(result.perf.evictions, 0u);
  // One index removal per eviction, and never a stale entry to skip.
  EXPECT_EQ(result.perf.heap_pops, result.perf.evictions);
  EXPECT_EQ(result.perf.stale_skips, 0u);
  EXPECT_EQ(result.perf.stale_skips_per_eviction(), 0.0);
  EXPECT_GT(result.perf.wall_seconds, 0.0);
  EXPECT_GT(result.perf.ns_per_request(), 0.0);
  EXPECT_GT(result.perf.seconds_per_million(), 0.0);
}

TEST(EvictionIndexCounters, CostObliviousPoliciesReportZeroIndexWork) {
  const Trace trace = mixed_trace(2, 8, 500, /*seed=*/8);
  const auto policy = make_policy("lru");
  const SimResult result = run_trace(trace, 6, *policy, nullptr);
  EXPECT_EQ(result.perf.requests, trace.size());
  EXPECT_EQ(result.perf.heap_pops, 0u);
  EXPECT_EQ(result.perf.stale_skips, 0u);
}

}  // namespace
}  // namespace ccc
