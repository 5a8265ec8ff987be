#include "core/naive_convex_caching.hpp"

#include <cmath>
#include <string>

#include "util/check.hpp"

namespace ccc {

NaiveConvexCachingPolicy::NaiveConvexCachingPolicy(
    ConvexCachingOptions options)
    : options_(options) {}

void NaiveConvexCachingPolicy::reset(const PolicyContext& ctx) {
  CCC_REQUIRE(ctx.costs != nullptr,
              "NaiveConvexCachingPolicy needs per-tenant cost functions");
  costs_ = ctx.costs;
  slot_of_.clear();
  slot_of_.reserve(ctx.capacity);
  slot_page_.clear();
  slot_budget_.clear();
  slot_tenant_.clear();
  slot_page_.reserve(ctx.capacity);
  slot_budget_.reserve(ctx.capacity);
  slot_tenant_.reserve(ctx.capacity);
  evictions_.assign(ctx.num_tenants, 0);
}

double NaiveConvexCachingPolicy::derivative_at(TenantId tenant,
                                               std::uint64_t m) const {
  const double marginal =
      next_miss_marginal(*(*costs_)[tenant], m, options_.derivative);
  CCC_CHECK(std::isfinite(marginal),
            "NaiveConvexCaching: the marginal cost of tenant " +
                std::to_string(tenant) + "'s next miss is " +
                std::to_string(marginal) + " after " +
                std::to_string(evictions_[tenant]) +
                " misses; budgets are no longer finite");
  return marginal;
}

void NaiveConvexCachingPolicy::on_hit(const Request& request,
                                      TimeStep /*time*/) {
  // "bring in page p_t in cache and update B(p_t) ← f'(m(i(p_t),t−1)+1)"
  const auto it = slot_of_.find(request.page);
  CCC_CHECK(it != slot_of_.end(), "NaiveConvexCaching hit on untracked page");
  slot_budget_[it->second] =
      derivative_at(request.tenant, evictions_[request.tenant]);
}

PageId NaiveConvexCachingPolicy::choose_victim(const Request& /*request*/,
                                               TimeStep /*time*/) {
  // "Let p be the page in the cache with smallest B(p)."
  // Linear argmin over the dense array; the (budget, page-id) tie-break is
  // a total order, so the result is independent of slot order.
  CCC_CHECK(!slot_budget_.empty(),
            "NaiveConvexCaching asked for a victim with an empty cache");
  double best = slot_budget_[0];
  PageId best_page = slot_page_[0];
  for (std::size_t slot = 1; slot < slot_budget_.size(); ++slot) {
    const double b = slot_budget_[slot];
    const PageId page = slot_page_[slot];
    if (b < best || (b == best && page < best_page)) {
      best = b;
      best_page = page;
    }
  }
  return best_page;
}

void NaiveConvexCachingPolicy::on_evict(PageId victim, TenantId owner,
                                        TimeStep /*time*/) {
  const auto it = slot_of_.find(victim);
  CCC_CHECK(it != slot_of_.end(),
            "NaiveConvexCaching evicting an untracked page");
  const std::uint32_t slot = it->second;
  const double victim_budget = slot_budget_[slot];

  // Swap-remove the victim's slot; repoint the moved page's index entry.
  const std::uint32_t last = static_cast<std::uint32_t>(slot_page_.size() - 1);
  if (slot != last) {
    slot_page_[slot] = slot_page_[last];
    slot_budget_[slot] = slot_budget_[last];
    slot_tenant_[slot] = slot_tenant_[last];
    slot_of_.at(slot_page_[slot]) = slot;
  }
  slot_page_.pop_back();
  slot_budget_.pop_back();
  slot_tenant_.pop_back();
  slot_of_.erase(victim);

  // "For each p' ∉ {p, p_t} in the cache, B(p') ← B(p') − B(p)."
  // (p_t is not yet resident here; it is inserted afterwards.)
  if (options_.debit_survivors)
    for (double& b : slot_budget_) b -= victim_budget;

  const std::uint64_t m_before = evictions_[owner]++;
  // "For each page p' in the cache such that i(p') = i(p):
  //    B(p') ← B(p') + f'(m+2) − f'(m+1)."
  if (options_.bump_victim_tenant) {
    const double delta = derivative_at(owner, m_before + 1) -
                         derivative_at(owner, m_before);
    for (std::size_t s = 0; s < slot_budget_.size(); ++s)
      if (slot_tenant_[s] == owner) slot_budget_[s] += delta;
  }
}

void NaiveConvexCachingPolicy::on_insert(const Request& request,
                                         TimeStep /*time*/) {
  // "Set B(p_t) ← f'(m(i(p_t),t−1)+1)" — with m already reflecting this
  // step's eviction, which together with the same-tenant bump equals the
  // figure's update order (see DESIGN.md §5).
  slot_of_.insert_or_assign(request.page,
                            static_cast<std::uint32_t>(slot_page_.size()));
  slot_page_.push_back(request.page);
  slot_tenant_.push_back(request.tenant);
  slot_budget_.push_back(
      derivative_at(request.tenant, evictions_[request.tenant]));
}

double NaiveConvexCachingPolicy::budget(PageId page) const {
  const auto it = slot_of_.find(page);
  CCC_REQUIRE(it != slot_of_.end(), "budget() of a non-resident page");
  return slot_budget_[it->second];
}

}  // namespace ccc
