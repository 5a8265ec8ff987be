#include "audit/audit.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "core/invariants.hpp"
#include "core/primal_dual.hpp"
#include "util/check.hpp"

namespace ccc {

namespace {

std::string page_str(PageId page) { return std::to_string(page); }

}  // namespace

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << "audit: " << steps_observed << " steps, " << victim_checks
     << " victim checks, " << budget_checks << " budget checks, "
     << index_checks << " index checks, " << shadow_checks
     << " shadow replays, " << violations << " violations";
  if (!failures.empty())
    os << "; first: [" << failures.front().check << "] t="
       << failures.front().time << " " << failures.front().detail;
  return os.str();
}

ConvexCachingAuditor::ConvexCachingAuditor(AuditConfig config)
    : config_(config) {
  CCC_REQUIRE(config_.step_cadence > 0, "step_cadence must be positive");
  CCC_REQUIRE(config_.eviction_cadence > 0,
              "eviction_cadence must be positive");
}

void ConvexCachingAuditor::on_reset(const PolicyContext& ctx) {
  report_ = AuditReport{};
  evictions_seen_ = 0;
  resident_.clear();
  resident_.reserve(ctx.capacity);
  observed_.clear();
  shadow_overflow_ = false;
  capacity_ = ctx.capacity;
  num_tenants_ = ctx.num_tenants;
  costs_ = ctx.costs;
  all_convex_ = costs_ != nullptr;
  if (costs_ != nullptr)
    for (std::uint32_t t = 0; t < num_tenants_; ++t)
      if (!(*costs_)[t]->is_convex()) all_convex_ = false;
}

void ConvexCachingAuditor::violation(const std::string& check,
                                     const std::string& detail,
                                     TimeStep time) {
  ++report_.violations;
  if (report_.failures.size() < config_.max_recorded_failures)
    report_.failures.push_back(AuditViolation{check, detail, time});
  if (config_.fail_fast)
    throw std::logic_error("audit violation [" + check + "] at t=" +
                           std::to_string(time) + ": " + detail);
}

void ConvexCachingAuditor::on_victim_chosen(PageId victim,
                                            const ConvexCachingPolicy& policy,
                                            TimeStep time) {
  ++evictions_seen_;
  if (!config_.check_victim_minimality) return;
  if (evictions_seen_ % config_.eviction_cadence != 0) return;
  check_victim_minimality(policy, victim, time);
}

void ConvexCachingAuditor::on_step(const StepEvent& event,
                                   const ConvexCachingPolicy* policy,
                                   TimeStep time) {
  ++report_.steps_observed;
  if (config_.shadow_alg_cont) {
    if (observed_.size() < config_.max_shadow_requests)
      observed_.push_back(event.request);
    else
      shadow_overflow_ = true;
  }
  if (policy == nullptr) return;
  if (!event.hit) {
    if (event.victim.has_value()) (void)resident_.take(*event.victim);
    (void)resident_.try_emplace(event.request.page, event.request.tenant);
  }
  if (report_.steps_observed % config_.step_cadence != 0) return;
  audit_now(*policy, time);
}

void ConvexCachingAuditor::on_invalidate(PageId page) {
  (void)resident_.take(page);
}

void ConvexCachingAuditor::on_run_end(const ConvexCachingPolicy* policy) {
  shadow_check(policy);
}

void ConvexCachingAuditor::audit_now(const ConvexCachingPolicy& policy,
                                     TimeStep time) {
  check_residency_agreement(policy, time);
  if (config_.check_budget_bounds) check_budget_bounds(policy, time);
  if (config_.check_index) check_index(policy, time);
}

void ConvexCachingAuditor::check_residency_agreement(
    const ConvexCachingPolicy& policy, TimeStep time) {
  if (policy.pages_->size() != resident_.size())
    violation("residency",
              "policy tracks " + std::to_string(policy.pages_->size()) +
                  " pages, the events leave " +
                  std::to_string(resident_.size()) + " resident",
              time);
  policy.pages_->for_each([&](PageId page, ConvexCachingPolicy::Handle handle) {
    const auto it = resident_.find(page);
    if (it == resident_.end()) {
      violation("residency",
                "policy tracks non-resident page " + page_str(page), time);
      return;
    }
    const TenantId tenant = policy.nodes_[handle].tenant;
    if (it->second != tenant)
      violation("residency",
                "page " + page_str(page) + " owner mismatch: policy says " +
                    std::to_string(tenant) + ", the events say " +
                    std::to_string(it->second),
                time);
  });
}

void ConvexCachingAuditor::check_budget_bounds(
    const ConvexCachingPolicy& policy, TimeStep time) {
  const double tol = config_.tolerance;
  policy.pages_->for_each([&](PageId page, ConvexCachingPolicy::Handle handle) {
    ++report_.budget_checks;
    const ConvexCachingPolicy::Node& node = policy.nodes_[handle];
    const double eff = policy.effective(node.key, node.tenant);
    if (!std::isfinite(eff)) {
      violation("budget-bounds",
                "non-finite budget for page " + page_str(page), time);
      return;
    }
    // The bounds are only a theorem for convex costs (§2.5 waives them).
    if (!all_convex_) return;
    if (eff < -tol) {
      violation("budget-bounds",
                "B(" + page_str(page) + ") = " + std::to_string(eff) +
                    " < 0 — invariant (3a) analogue violated",
                time);
      return;
    }
    // Recomputed from m(i), not read from the policy's marginal cache.
    const double marginal =
        next_miss_marginal(*(*costs_)[node.tenant],
                           policy.evictions_[node.tenant],
                           policy.options_.derivative);
    if (eff > marginal + tol)
      violation("budget-bounds",
                "B(" + page_str(page) + ") = " + std::to_string(eff) +
                    " exceeds next marginal f'(m+1) = " +
                    std::to_string(marginal) + " of tenant " +
                    std::to_string(node.tenant),
                time);
  });
}

void ConvexCachingAuditor::check_victim_minimality(
    const ConvexCachingPolicy& policy, PageId victim, TimeStep time) {
  ++report_.victim_checks;
  const std::size_t victim_slot = policy.pages_->find(victim);
  if (victim_slot == ConvexCachingPolicy::PageTable::kNoSlot) {
    violation("victim-minimality",
              "victim " + page_str(victim) + " is not tracked as resident",
              time);
    return;
  }
  const auto budget_of = [&policy](ConvexCachingPolicy::Handle handle) {
    const ConvexCachingPolicy::Node& node = policy.nodes_[handle];
    return policy.effective(node.key, node.tenant);
  };
  // Naive Fig. 3 recomputation: argmin of effective budget, lowest page id
  // on ties — exactly what the O(log k) index must reproduce.
  bool found = false;
  double best_eff = 0.0;
  PageId best_page = 0;
  policy.pages_->for_each([&](PageId page, ConvexCachingPolicy::Handle handle) {
    const double eff = budget_of(handle);
    if (!found || eff < best_eff || (eff == best_eff && page < best_page)) {
      found = true;
      best_eff = eff;
      best_page = page;
    }
  });
  const double victim_budget =
      budget_of(policy.pages_->handle(victim_slot));
  if (best_page != victim)
    violation("victim-minimality",
              "index chose page " + page_str(victim) + " (B=" +
                  std::to_string(victim_budget) +
                  ") but the naive scan finds page " + page_str(best_page) +
                  " (B=" + std::to_string(best_eff) + ")",
              time);
  // Invariant (1c): y_t rises by B(victim), so B(victim) must be ≥ 0.
  if (all_convex_ && victim_budget < -config_.tolerance)
    violation("dual-nonnegativity",
              "eviction would raise y_t by the negative amount B(" +
                  page_str(victim) + ") = " + std::to_string(victim_budget),
              time);
}

void ConvexCachingAuditor::check_index(const ConvexCachingPolicy& policy,
                                       TimeStep time) {
  ++report_.index_checks;
  if (!std::isfinite(policy.offset_))
    violation("index-state", "global debit offset is not finite", time);
  for (std::size_t t = 0; t < policy.tenant_bump_.size(); ++t)
    if (!std::isfinite(policy.tenant_bump_[t]))
      violation("index-state",
                "bump of tenant " + std::to_string(t) + " is not finite",
                time);

  // Heap order within each tenant: no entry precedes its parent in
  // (key, page id) order, and every entry belongs to that tenant.
  std::size_t entries = 0;
  for (TenantId t = 0; t < policy.heaps_.size(); ++t) {
    const std::vector<ConvexCachingPolicy::Handle>& heap = policy.heaps_[t];
    entries += heap.size();
    for (std::size_t pos = 0; pos < heap.size(); ++pos) {
      if (policy.nodes_[heap[pos]].tenant != t)
        violation("index-heap-order",
                  "heap of tenant " + std::to_string(t) + " holds page " +
                      page_str(policy.nodes_[heap[pos]].page) +
                      " of tenant " +
                      std::to_string(policy.nodes_[heap[pos]].tenant),
                  time);
      if (pos > 0 && policy.precedes(heap[pos], heap[(pos - 1) / 2]))
        violation("index-heap-order",
                  "tenant " + std::to_string(t) + ": page " +
                      page_str(policy.nodes_[heap[pos]].page) + " at slot " +
                      std::to_string(pos) + " precedes its parent",
                  time);
    }
  }

  // Handles: every resident page's node names it and records the slot its
  // handle occupies, and the heaps hold exactly the resident pages.
  if (entries != policy.pages_->size())
    violation("index-position",
              "heaps hold " + std::to_string(entries) + " entries for " +
                  std::to_string(policy.pages_->size()) + " resident pages",
              time);
  policy.pages_->for_each([&](PageId page, ConvexCachingPolicy::Handle handle) {
    const ConvexCachingPolicy::Node& node = policy.nodes_[handle];
    const bool placed = node.page == page &&
                        node.tenant < policy.heaps_.size() &&
                        node.pos < policy.heaps_[node.tenant].size() &&
                        policy.heaps_[node.tenant][node.pos] == handle;
    if (!placed)
      violation("index-position",
                "page " + page_str(page) + " records slot " +
                    std::to_string(node.pos) +
                    " but its handle is not there",
                time);
  });

  // Winner tree: every leaf equals its tenant's argmin of (key + bump,
  // page id), recomputed by a full scan, and every internal node holds the
  // better of its two children.
  for (TenantId t = 0; t < policy.heaps_.size(); ++t) {
    ConvexCachingPolicy::Leaf best{std::numeric_limits<double>::infinity(),
                                   ConvexCachingPolicy::kNoPage};
    for (const ConvexCachingPolicy::Handle handle : policy.heaps_[t]) {
      const ConvexCachingPolicy::Node& node = policy.nodes_[handle];
      const double score = node.key + policy.tenant_bump_[t];
      if (score < best.score || (score == best.score && node.page < best.page))
        best = {score, node.page};
    }
    const ConvexCachingPolicy::Leaf& leaf = policy.leaves_[t];
    if (leaf.score != best.score || leaf.page != best.page)
      violation("index-tree",
                "leaf of tenant " + std::to_string(t) + " holds page " +
                    page_str(leaf.page) + " at " + std::to_string(leaf.score) +
                    ", its argmin is page " + page_str(best.page) + " at " +
                    std::to_string(best.score),
                time);
  }
  for (std::size_t node = 1; node < policy.tree_.size(); ++node) {
    const TenantId left = policy.winner_at(2 * node);
    const TenantId right = policy.winner_at(2 * node + 1);
    const TenantId better = policy.leaf_before(right, left) ? right : left;
    const ConvexCachingPolicy::Leaf& want = policy.leaves_[better];
    const TenantId held = policy.tree_[node];
    if (held >= policy.leaves_.size() ||
        policy.leaves_[held].score != want.score ||
        policy.leaves_[held].page != want.page)
      violation("index-tree",
                "tree node " + std::to_string(node) + " holds tenant " +
                    std::to_string(held) +
                    " but its children are won by tenant " +
                    std::to_string(better),
                time);
  }
}

void ConvexCachingAuditor::shadow_check(const ConvexCachingPolicy* policy) {
  if (!config_.shadow_alg_cont) return;
  if (costs_ == nullptr || observed_.empty() || shadow_overflow_) return;
  if (!all_convex_) return;  // §2.3 invariants are a convex-cost theorem

  Trace trace(num_tenants_);
  try {
    for (const Request& r : observed_) trace.append(r);
  } catch (const std::exception& e) {
    violation("shadow-trace",
              std::string("observed request stream is not a valid trace: ") +
                  e.what(),
              observed_.size());
    return;
  }

  const PrimalDualRun run = run_alg_cont(trace, capacity_, *costs_);
  const InvariantReport inv =
      check_invariants(run, trace, capacity_, *costs_);
  ++report_.shadow_checks;
  if (!inv.ok(config_.tolerance)) {
    std::string detail = "ALG-CONT replay violates §2.3:";
    for (const std::string& f : inv.failures) detail += " " + f;
    violation("alg-cont-invariants", detail, trace.size());
  }

  if (!config_.shadow_compare_evictions || policy == nullptr) return;
  const ConvexCachingOptions& opt = policy->options();
  // The discrete ≡ continuous eviction theorem needs Fig. 3 as written:
  // analytic derivative, whole-run accounting, both budget updates on.
  if (opt.derivative != DerivativeMode::kAnalytic || opt.window_length != 0 ||
      !opt.debit_survivors || !opt.bump_victim_tenant)
    return;
  const std::vector<std::uint64_t>& discrete = policy->tenant_evictions();
  for (std::uint32_t t = 0; t < num_tenants_; ++t) {
    const std::uint64_t cont = run.final_m[t];
    if (discrete[t] != cont)
      violation("shadow-evictions",
                "tenant " + std::to_string(t) + ": ALG-DISCRETE evicted " +
                    std::to_string(discrete[t]) + " pages, ALG-CONT " +
                    std::to_string(cont),
                trace.size());
  }
}

}  // namespace ccc
