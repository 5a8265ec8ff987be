// Tests for the src/audit runtime verification layer (CCC_AUDIT builds).
//
// Two halves:
//  - Clean runs: the auditor attached to honest ConvexCachingPolicy runs
//    across cost families, derivative modes and window modes must report zero
//    violations while actually exercising every check (positive counters).
//  - Mutation runs: AuditTestPeer (a friend of ConvexCachingPolicy)
//    corrupts one piece of internal state at a time, and the matching
//    audit — and only an expected one — must fire. A check that cannot be
//    made to fail verifies nothing.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "core/convex_caching.hpp"
#include "cost/combinators.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {

/// White-box corruption hooks for the mutation tests. Each static method
/// breaks exactly one internal invariant of ConvexCachingPolicy so the
/// corresponding audit can be proven to fire.
struct AuditTestPeer {
  static void shift_offset(ConvexCachingPolicy& p, double delta) {
    p.offset_ += delta;
  }
  static void shift_bump(ConvexCachingPolicy& p, TenantId tenant,
                         double delta) {
    p.tenant_bump_[tenant] += delta;
  }
  static void add_tenant_evictions(ConvexCachingPolicy& p, TenantId tenant,
                                   std::uint64_t delta) {
    p.evictions_[tenant] += delta;
  }
  static void drop_page_tracking(ConvexCachingPolicy& p, PageId page) {
    p.pages_.erase(page);
  }
  /// A tenant whose heap holds at least `size` entries.
  static TenantId tenant_with(const ConvexCachingPolicy& p, std::size_t size) {
    for (TenantId t = 0; t < p.heaps_.size(); ++t)
      if (p.heaps_[t].size() >= size) return t;
    throw std::logic_error("no tenant holds enough pages");
  }
  /// Swaps a heap's root with its first child and re-records both slots,
  /// so only the heap order is broken.
  static void swap_heap_slots(ConvexCachingPolicy& p, TenantId tenant) {
    std::vector<ConvexCachingPolicy::Handle>& heap = p.heaps_[tenant];
    std::swap(heap[0], heap[1]);
    p.nodes_[heap[0]].pos = 0;
    p.nodes_[heap[1]].pos = 1;
  }
  /// Points a node's recorded slot at a slot its handle does not occupy.
  static void corrupt_position(ConvexCachingPolicy& p, TenantId tenant) {
    p.nodes_[p.heaps_[tenant][0]].pos = 1;
  }
  /// Moves a tenant's leaf away from its heap's argmin without replaying
  /// the tree, as a skipped refresh would.
  static void stale_leaf(ConvexCachingPolicy& p, TenantId tenant) {
    p.leaves_[tenant].score -= 1.0;
  }
  /// Hands the tree root to a tenant that does not win it.
  static void stale_root(ConvexCachingPolicy& p) {
    const TenantId winner = p.tree_[1];
    for (TenantId t = 0; t < p.heaps_.size(); ++t)
      if (t != winner && p.leaves_[t].page != p.leaves_[winner].page) {
        p.tree_[1] = t;
        return;
      }
    throw std::logic_error("no other tenant to crown");
  }
};

namespace {

std::vector<CostFunctionPtr> monomial_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(std::make_unique<MonomialCost>(
        1.0 + static_cast<double>(t % 3), 1.0 + static_cast<double>(t % 5)));
  return costs;
}

std::vector<CostFunctionPtr> sla_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(std::make_unique<PiecewiseLinearCost>(
        PiecewiseLinearCost::sla(5.0 + t, 2.0 + t)));
  return costs;
}

std::vector<CostFunctionPtr> nonconvex_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t) {
    if (t % 2 == 0)
      costs.push_back(std::make_unique<StepCost>(3.0 + t, 8.0));
    else
      costs.push_back(std::make_unique<SqrtCost>(2.0 + t));
  }
  return costs;
}

Trace zipf_trace(std::uint32_t tenants, std::uint64_t pages_per_tenant,
                 std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back(
        {std::make_unique<ZipfPages>(pages_per_tenant, 0.8), 1.0 + 0.3 * t});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

bool fired(const AuditReport& report, const std::string& check) {
  return std::any_of(
      report.failures.begin(), report.failures.end(),
      [&](const AuditViolation& v) { return v.check == check; });
}

/// Session + auditor wired together, cache pre-filled past its capacity so
/// budgets, heaps and offsets are all non-trivial before a test corrupts
/// anything.
struct Rig {
  explicit Rig(ConvexCachingOptions policy_options = {},
               AuditConfig config = {}, std::uint32_t tenants = 2,
               std::size_t capacity = 4)
      : costs(monomial_costs(tenants)),
        policy(policy_options),
        auditor(config),
        session(capacity, tenants, policy, &costs, with_auditor(&auditor)) {
    for (std::uint64_t i = 0; i < 4 * capacity; ++i)
      session.step({static_cast<TenantId>(i % tenants), PageId{10} + i});
    EXPECT_TRUE(auditor.report().ok())
        << "corruption-free warm-up must be clean: "
        << auditor.report().summary();
  }

  static SimOptions with_auditor(PolicyAuditor* auditor) {
    SimOptions options;
    options.auditor = auditor;
    return options;
  }

  void audit_now() { auditor.audit_now(policy, session.cache(), session.now()); }

  std::vector<CostFunctionPtr> costs;
  ConvexCachingPolicy policy;
  ConvexCachingAuditor auditor;
  SimulatorSession session;
};

// ---------------------------------------------------------------------------
// Clean runs: zero violations, every check actually exercised.

struct CleanCase {
  const char* name;
  std::vector<CostFunctionPtr> (*costs)(std::uint32_t);
  DerivativeMode derivative;
  std::size_t window;
};

class AuditCleanRunTest : public ::testing::TestWithParam<CleanCase> {};

TEST_P(AuditCleanRunTest, NoFalsePositives) {
  const CleanCase& c = GetParam();
  const std::uint32_t tenants = 4;
  const Trace trace = zipf_trace(tenants, 10, 3000, /*seed=*/42);
  const auto costs = c.costs(tenants);

  ConvexCachingOptions options;
  options.derivative = c.derivative;
  options.window_length = c.window;
  ConvexCachingPolicy policy(options);

  ConvexCachingAuditor auditor;
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  const SimResult result = run_trace(trace, 12, policy, &costs, sim_options);

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.steps_observed, trace.size());
  EXPECT_GT(report.victim_checks, 0u);
  EXPECT_GT(report.budget_checks, 0u);
  EXPECT_GT(report.index_checks, 0u);
  EXPECT_EQ(result.metrics.total_hits() + result.metrics.total_misses(),
            trace.size());
}

INSTANTIATE_TEST_SUITE_P(
    Families, AuditCleanRunTest,
    ::testing::Values(
        CleanCase{"monomial", monomial_costs, DerivativeMode::kAnalytic, 0},
        CleanCase{"monomial_windowed", monomial_costs,
                  DerivativeMode::kAnalytic, 64},
        CleanCase{"monomial_discrete", monomial_costs,
                  DerivativeMode::kDiscreteMarginal, 0},
        CleanCase{"sla", sla_costs, DerivativeMode::kAnalytic, 0},
        CleanCase{"nonconvex", nonconvex_costs,
                  DerivativeMode::kDiscreteMarginal, 0}),
    [](const ::testing::TestParamInfo<CleanCase>& param_info) {
      return param_info.param.name;
    });

TEST(AuditShadow, AlgContReplayAcceptsHonestRun) {
  // Integer-valued convex costs, default policy options: the full §2.3
  // certificate must verify AND the continuous replay must evict exactly
  // as many pages per tenant as the live discrete policy did.
  const std::uint32_t tenants = 3;
  const Trace trace = zipf_trace(tenants, 8, 800, /*seed=*/7);
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(
        std::make_unique<MonomialCost>(2.0, 1.0 + static_cast<double>(t)));

  ConvexCachingPolicy policy;
  AuditConfig config;
  config.shadow_alg_cont = true;
  config.shadow_compare_evictions = true;
  ConvexCachingAuditor auditor(config);
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  (void)run_trace(trace, 6, policy, &costs, sim_options);

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.shadow_checks, 1u);
}

TEST(AuditShadow, OverflowSkipsReplayInsteadOfTruncating) {
  AuditConfig config;
  config.shadow_alg_cont = true;
  config.max_shadow_requests = 8;  // far fewer than the rig's warm-up steps
  Rig rig({}, config);
  rig.session.end_run();
  EXPECT_EQ(rig.auditor.report().shadow_checks, 0u);
  EXPECT_TRUE(rig.auditor.report().ok()) << rig.auditor.report().summary();
}

TEST(AuditCadence, SamplingSkipsSteps) {
  AuditConfig sparse;
  sparse.step_cadence = 7;
  sparse.eviction_cadence = 3;
  const Trace trace = zipf_trace(2, 8, 700, /*seed=*/11);
  const auto costs = monomial_costs(2);
  ConvexCachingPolicy policy;
  ConvexCachingAuditor auditor(sparse);
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  (void)run_trace(trace, 5, policy, &costs, sim_options);

  const AuditReport& report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.steps_observed, trace.size());
  EXPECT_EQ(report.index_checks, trace.size() / 7);
}

TEST(AuditConfig_, RejectsZeroCadence) {
  AuditConfig broken;
  broken.step_cadence = 0;
  EXPECT_THROW(ConvexCachingAuditor{broken}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mutation tests: every audit must fire when its invariant is broken.

TEST(AuditMutation, OffsetCorruptionBreaksBudgetLowerBound) {
  Rig rig;
  // A huge extra debit pushes every resident budget below zero — the
  // discrete analogue of invariant (3a).
  AuditTestPeer::shift_offset(rig.policy, 1e6);
  rig.audit_now();
  EXPECT_FALSE(rig.auditor.report().ok());
  EXPECT_TRUE(fired(rig.auditor.report(), "budget-bounds"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, NegativeOffsetBreaksBudgetUpperBound) {
  Rig rig;
  // Un-debiting inflates budgets past f'(m+1), the refresh ceiling.
  AuditTestPeer::shift_offset(rig.policy, -1e6);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "budget-bounds"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, SwappedHeapSlotsBreakHeapOrder) {
  Rig rig({}, {}, 2, 8);
  AuditTestPeer::swap_heap_slots(rig.policy,
                                 AuditTestPeer::tenant_with(rig.policy, 2));
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-heap-order"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, CorruptedPositionIsCaught) {
  Rig rig({}, {}, 2, 8);
  AuditTestPeer::corrupt_position(rig.policy,
                                  AuditTestPeer::tenant_with(rig.policy, 2));
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-position"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, StaleLeafBreaksTree) {
  Rig rig;
  AuditTestPeer::stale_leaf(rig.policy,
                            AuditTestPeer::tenant_with(rig.policy, 1));
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-tree"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, StaleTreeNodeBreaksTree) {
  Rig rig;
  AuditTestPeer::stale_root(rig.policy);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-tree"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, BumpShiftWithoutRefreshBreaksTree) {
  Rig rig;
  // The leaf froze score = key + old bump; moving the bump without
  // refreshing the leaf leaves the tree ranking the tenant wrongly.
  const TenantId tenant = AuditTestPeer::tenant_with(rig.policy, 1);
  AuditTestPeer::shift_bump(rig.policy, tenant, -3.0);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-tree"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, UntrackedPageBreaksResidencyAgreement) {
  Rig rig;
  const PageId page = rig.session.cache().pages().begin()->first;
  AuditTestPeer::drop_page_tracking(rig.policy, page);
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "residency"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, NonFiniteOffsetIsFlaggedDirectly) {
  Rig rig;
  AuditTestPeer::shift_offset(rig.policy,
                              std::numeric_limits<double>::quiet_NaN());
  rig.audit_now();
  EXPECT_TRUE(fired(rig.auditor.report(), "index-state"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, CorruptedVictimBudgetBreaksDualNonnegativity) {
  Rig rig;
  // With every budget pushed negative, the next eviction's y_t increment
  // B(victim) is negative — invariant (1c) caught at on_victim_chosen.
  AuditTestPeer::shift_offset(rig.policy, 1e6);
  rig.session.step({0, 999'999});
  EXPECT_TRUE(fired(rig.auditor.report(), "dual-nonnegativity"))
      << rig.auditor.report().summary();
}

TEST(AuditMutation, EvictionMiscountBreaksShadowComparison) {
  AuditConfig config;
  config.shadow_alg_cont = true;
  config.shadow_compare_evictions = true;
  Rig rig({}, config);
  // The live policy claims one extra eviction for tenant 0; the ALG-CONT
  // replay of the very same request stream disagrees.
  AuditTestPeer::add_tenant_evictions(rig.policy, 0, 1);
  rig.session.end_run();
  EXPECT_TRUE(fired(rig.auditor.report(), "shadow-evictions"))
      << rig.auditor.report().summary();
  EXPECT_EQ(rig.auditor.report().shadow_checks, 1u);
}

TEST(AuditMutation, FailFastThrowsAtFirstViolation) {
  AuditConfig config;
  config.fail_fast = true;
  Rig rig({}, config);
  AuditTestPeer::shift_offset(rig.policy, 1e6);
  EXPECT_THROW(rig.audit_now(), std::logic_error);
  EXPECT_EQ(rig.auditor.report().violations, 1u);
}

TEST(AuditMutation, RecordedFailuresAreCappedButCounted) {
  AuditConfig config;
  config.max_recorded_failures = 2;
  Rig rig({}, config);
  AuditTestPeer::shift_offset(rig.policy, 1e6);  // every page violates
  rig.audit_now();
  const AuditReport& report = rig.auditor.report();
  EXPECT_GT(report.violations, 2u);
  EXPECT_EQ(report.failures.size(), 2u);
}

// ---------------------------------------------------------------------------
// Victim minimality via a wrapper policy that lies about its choice.

/// Delegates everything to an inner ConvexCachingPolicy but swaps the
/// chosen victim for some *other* resident page. Any substitute is wrong:
/// either its budget is larger than the minimum, or it ties and loses the
/// lowest-page-id tie-break (the honest index already returns the
/// lowest-id minimum).
class WrongVictimPolicy final : public ReplacementPolicy {
 public:
  ConvexCachingPolicy& inner() noexcept { return inner_; }

  void reset(const PolicyContext& ctx) override {
    resident_.clear();
    inner_.reset(ctx);
  }
  void on_hit(const Request& request, TimeStep time) override {
    inner_.on_hit(request, time);
  }
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override {
    const PageId honest = inner_.choose_victim(request, time);
    for (const PageId page : resident_)
      if (page != honest) return page;
    return honest;
  }
  void on_evict(PageId victim, TenantId owner, TimeStep time) override {
    resident_.erase(victim);
    inner_.on_evict(victim, owner, time);
  }
  void on_insert(const Request& request, TimeStep time) override {
    resident_.insert(request.page);
    inner_.on_insert(request, time);
  }
  [[nodiscard]] std::string name() const override { return "wrong-victim"; }

 private:
  ConvexCachingPolicy inner_;
  std::set<PageId> resident_;
};

TEST(AuditMutation, WrongVictimFailsMinimalityCheck) {
  const std::uint32_t tenants = 2;
  const auto costs = monomial_costs(tenants);
  WrongVictimPolicy policy;
  AuditConfig config;
  // Evicting a non-minimal page debits survivors too much, so budget and
  // index checks would fire as collateral — disable them to pin the
  // verdict on the victim check alone.
  config.check_budget_bounds = false;
  config.check_index = false;
  ConvexCachingAuditor auditor(config);
  auditor.set_target(&policy.inner());
  SimOptions sim_options;
  sim_options.auditor = &auditor;
  SimulatorSession session(3, tenants, policy, &costs, sim_options);
  for (std::uint64_t i = 0; i < 12; ++i)
    session.step({static_cast<TenantId>(i % tenants), PageId{20} + i});
  session.end_run();

  const AuditReport& report = auditor.report();
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.victim_checks, 0u);
  EXPECT_TRUE(fired(report, "victim-minimality")) << report.summary();
  for (const AuditViolation& v : report.failures)
    EXPECT_TRUE(v.check == "victim-minimality" ||
                v.check == "dual-nonnegativity")
        << v.check << ": " << v.detail;
}

// ---------------------------------------------------------------------------
// Report ergonomics.

TEST(AuditReport_, SummaryNamesFirstFailure) {
  Rig rig;
  AuditTestPeer::stale_root(rig.policy);
  rig.audit_now();
  const std::string s = rig.auditor.report().summary();
  EXPECT_NE(s.find("index-tree"), std::string::npos) << s;
}

TEST(AuditReport_, CleanSummaryReportsZeroViolations) {
  Rig rig;
  rig.session.end_run();
  const std::string s = rig.auditor.report().summary();
  EXPECT_NE(s.find("0 violations"), std::string::npos) << s;
}

}  // namespace
}  // namespace ccc
