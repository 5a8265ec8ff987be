#pragma once
/// \file audit.hpp
/// \brief Runtime verification of ALG-DISCRETE and its eviction index —
///        the §2.3 "execute the proof" philosophy applied to the production
///        code path while it runs.
///
/// `ConvexCachingAuditor` plugs into `SimulatorSession` (via the
/// `PolicyAuditor` hook, attached at runtime) and shadow-checks, at
/// configurable cadence:
///
///  1. **Victim minimality** (Fig. 3, "let p be the page with smallest
///     B(p)"): every victim the index picks is re-derived by a naive scan
///     over all resident budgets, tie broken by lowest page id.
///  2. **Dual non-negativity** — invariant (1c): the dual `y_t` rises by
///     exactly B(victim) per eviction, so B(victim) ≥ 0 (convex costs).
///  3. **Budget bounds** — the discrete analogue of invariants (2a)/(3a):
///     for every resident page, 0 ≤ B(p) ≤ f'_{i(p)}(m(i(p))+1), the
///     policy mode's `next_miss_marginal` (convex_caching.hpp). The lower
///     bound is (3a) (a resident interval has non-negative gradient slack,
///     z = 0); the upper bound holds because B(p) starts at the marginal
///     and each eviction moves it down by B(victim) ≥ 0 relative to the
///     marginal. Both are skipped automatically for non-convex §2.5 costs,
///     where Fig. 3 gives no guarantee.
///  4. **Eviction-index consistency**: the policy's page table matches the
///     resident set replayed from the session's events and invalidations
///     (owners included); global offset and per-tenant bumps
///     are finite; heap order holds within each tenant's heap; every
///     handle's recorded slot holds that handle; and every winner-tree
///     leaf equals its tenant's argmin of (key + bump, page id), with each
///     internal node holding the better of its children.
///  5. **ALG-CONT shadow** (opt-in): the observed request stream is
///     replayed through `run_alg_cont` at end of run and the full §2.3
///     certificate is verified by `check_invariants` (Lemma 2.1), plus an
///     optional per-tenant eviction-count comparison against the live
///     policy (exact only for integer-valued cost families).
///
/// Violations are collected in an `AuditReport`; `fail_fast` turns the
/// first violation into a `std::logic_error` so CI aborts at the point of
/// corruption.

#include <cstdint>
#include <string>
#include <vector>

#include "core/convex_caching.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace ccc {

struct AuditConfig {
  /// Run the per-step checks (budgets, index) every Nth request.
  std::uint64_t step_cadence = 1;
  /// Run the victim-minimality check every Nth eviction.
  std::uint64_t eviction_cadence = 1;
  /// Absolute tolerance for floating-point comparisons.
  double tolerance = 1e-7;
  /// Throw std::logic_error at the first violation instead of collecting.
  bool fail_fast = false;
  bool check_victim_minimality = true;
  /// B(p) ∈ [0, f'(m+1)] — auto-skipped unless every cost is convex.
  bool check_budget_bounds = true;
  bool check_index = true;
  /// Replay the observed requests through ALG-CONT at end of run and
  /// machine-check the §2.3 invariants (Lemma 2.1) on the transcript.
  bool shadow_alg_cont = false;
  /// With shadow_alg_cont: also require the continuous run's per-tenant
  /// eviction counts to equal the audited policy's. Exact only for
  /// integer-valued cost families (floating point may legitimately break
  /// ties differently otherwise) — leave off unless the costs qualify.
  bool shadow_compare_evictions = false;
  /// Shadow replay is skipped beyond this many requests (O(k) per miss).
  std::size_t max_shadow_requests = std::size_t{1} << 20;
  /// At most this many violations keep their full diagnostics.
  std::size_t max_recorded_failures = 16;
};

/// One audit failure: which check fired, when, and why.
struct AuditViolation {
  std::string check;   ///< "victim-minimality", "budget-bounds", ...
  std::string detail;  ///< first-failure diagnostics
  TimeStep time = 0;   ///< request index at which the check ran
};

/// Outcome of one audited run. `ok()` must be consulted — a dropped report
/// would silently discard detected invariant violations.
struct [[nodiscard]] AuditReport {
  std::uint64_t steps_observed = 0;
  std::uint64_t victim_checks = 0;
  std::uint64_t budget_checks = 0;   ///< pages whose bounds were verified
  std::uint64_t index_checks = 0;
  std::uint64_t shadow_checks = 0;   ///< ALG-CONT replays verified
  std::uint64_t violations = 0;
  std::vector<AuditViolation> failures;  ///< capped at max_recorded_failures

  [[nodiscard]] bool ok() const noexcept { return violations == 0; }
  /// One-line human-readable digest (counts + first failure, if any).
  [[nodiscard]] std::string summary() const;
};

/// The runtime auditor for `ConvexCachingPolicy`. Attach via
/// `SimOptions.auditor`; non-ConvexCaching policies are observed but only
/// the ALG-CONT shadow applies to them. One auditor audits one run at a
/// time; `on_reset` clears the report.
class ConvexCachingAuditor final : public PolicyAuditor {
 public:
  explicit ConvexCachingAuditor(AuditConfig config = {});

  void on_reset(const PolicyContext& ctx) override;
  void on_victim_chosen(PageId victim, const ConvexCachingPolicy& policy,
                        TimeStep time) override;
  void on_step(const StepEvent& event, const ConvexCachingPolicy* policy,
               TimeStep time) override;
  void on_invalidate(PageId page) override;
  void on_run_end(const ConvexCachingPolicy* policy) override;

  [[nodiscard]] const AuditReport& report() const noexcept { return report_; }
  [[nodiscard]] const AuditConfig& config() const noexcept { return config_; }

  /// Runs every per-step check immediately, ignoring cadence. Public so
  /// mutation tests can corrupt policy state and force a verdict without
  /// arranging for the next sampled step.
  void audit_now(const ConvexCachingPolicy& policy, TimeStep time);

  /// Individual checks (audit_now composes them; public for tests).
  void check_budget_bounds(const ConvexCachingPolicy& policy, TimeStep time);
  void check_victim_minimality(const ConvexCachingPolicy& policy,
                               PageId victim, TimeStep time);
  void check_index(const ConvexCachingPolicy& policy, TimeStep time);

 private:
  void violation(const std::string& check, const std::string& detail,
                 TimeStep time);
  void check_residency_agreement(const ConvexCachingPolicy& policy,
                                 TimeStep time);
  void shadow_check(const ConvexCachingPolicy* policy);

  AuditConfig config_;
  AuditReport report_;

  // Captured from PolicyContext at on_reset.
  std::size_t capacity_ = 0;
  std::uint32_t num_tenants_ = 0;
  const std::vector<CostFunctionPtr>* costs_ = nullptr;
  bool all_convex_ = false;

  std::uint64_t evictions_seen_ = 0;
  /// Resident page → owner, replayed from the observed events and
  /// invalidations: what the policy's page table must hold.
  util::FlatMap<TenantId> resident_;
  /// Request stream accumulated for the ALG-CONT shadow replay.
  std::vector<Request> observed_;
  bool shadow_overflow_ = false;
};

}  // namespace ccc
