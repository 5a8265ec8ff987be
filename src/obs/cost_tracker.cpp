#include "obs/cost_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/theory.hpp"
#include "util/check.hpp"

namespace ccc::obs {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Scaled dual objective of one shard account at scaling u:
///   g(u) = u·Σ_i Y_i − Σ_i f_i*(u·f_i'(m_i)).
/// Every u > 0 yields a feasible scaled dual (y/γ, z/γ with γ = 1/u), so
/// every evaluation is a valid lower bound on that shard's OPT — the
/// search below only has to find a *good* u, never a "correct" one.
/// Returns −∞ when a conjugate is unbounded at this scaling (linear
/// tenants cap u at slope/f'(m)). `shares`, when non-null, receives the
/// per-tenant decomposition Y_i·u − f_i*(u·λ_i).
double scaled_dual(const DualAccount& account,
                   const std::vector<CostFunctionPtr>& costs, double u,
                   std::vector<double>* shares) {
  double total = 0.0;
  if (shares != nullptr) shares->assign(account.mass.size(), 0.0);
  for (std::size_t t = 0; t < account.mass.size(); ++t) {
    const CostFunction& f = *costs[t];
    const double lambda =
        f.derivative(static_cast<double>(account.evictions[t]));
    const double conj = f.conjugate(u * lambda);
    if (!std::isfinite(conj)) return kNegInf;
    const double share = account.mass[t] * u - conj;
    if (shares != nullptr) (*shares)[t] = share;
    total += share;
  }
  return total;
}

/// Maximizes the concave g(u) over u > 0: bracket by doubling from u = 1,
/// then ternary-search. Returns the best (u, g(u)) seen — by the argument
/// above, any evaluated point would do; the maximizer is just tightest.
std::pair<double, double> best_scaling(
    const DualAccount& account, const std::vector<CostFunctionPtr>& costs) {
  const auto g = [&](double u) {
    return scaled_dual(account, costs, u, nullptr);
  };
  double lo = 1e-9;
  double hi = 1.0;
  double best_u = 1.0;
  double best_g = g(1.0);
  for (int i = 0; i < 60; ++i) {
    const double v = g(hi * 2.0);
    if (!(v > best_g)) break;  // past the peak (or infeasible): bracketed
    best_g = v;
    hi *= 2.0;
    best_u = hi;
  }
  hi *= 2.0;
  for (int i = 0; i < 120; ++i) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    const double g1 = g(m1);
    const double g2 = g(m2);
    if (g1 > best_g) {
      best_g = g1;
      best_u = m1;
    }
    if (g2 > best_g) {
      best_g = g2;
      best_u = m2;
    }
    if (g1 < g2) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  return {best_u, best_g};
}

}  // namespace

CostTracker::CostTracker(std::uint32_t num_tenants)
    : misses_(num_tenants, 0) {}

CostTracker CostTracker::collect(const ShardedCache& cache) {
  CostTracker tracker(cache.num_tenants());
  tracker.add_misses(cache.aggregated_metrics().miss_vector());
  std::vector<ShardDualAccount> accounts = cache.dual_accounts();
  for (std::size_t s = 0; s < accounts.size(); ++s) {
    DualAccount account;
    account.id = s;
    account.valid = accounts[s].valid;
    account.mass = std::move(accounts[s].mass);
    account.evictions = std::move(accounts[s].evictions);
    tracker.add_account(std::move(account));
  }
  return tracker;
}

void CostTracker::add_misses(const std::vector<std::uint64_t>& misses) {
  if (misses.size() != misses_.size())
    throw std::invalid_argument(
        "CostTracker::add_misses: tenant count mismatch");
  for (std::size_t t = 0; t < misses_.size(); ++t) misses_[t] += misses[t];
}

void CostTracker::add_account(DualAccount account) {
  if (account.mass.size() != misses_.size() ||
      account.evictions.size() != misses_.size())
    throw std::invalid_argument(
        "CostTracker::add_account: tenant count mismatch");
  const auto pos = std::lower_bound(
      accounts_.begin(), accounts_.end(), account.id,
      [](const DualAccount& a, std::uint64_t id) { return a.id < id; });
  if (pos != accounts_.end() && pos->id == account.id)
    throw std::invalid_argument(
        "CostTracker::add_account: duplicate account id " +
        std::to_string(account.id) +
        " — accounts of the same shard must never be summed");
  accounts_.insert(pos, std::move(account));
}

void CostTracker::merge(const CostTracker& other) {
  add_misses(other.misses_);
  for (const DualAccount& account : other.accounts_) add_account(account);
}

CostSnapshot CostTracker::snapshot(const std::vector<CostFunctionPtr>& costs,
                                   std::size_t capacity) const {
  CCC_REQUIRE(costs.size() >= misses_.size(),
              "CostTracker::snapshot needs one cost function per tenant");
  CostSnapshot snap;
  const std::size_t n = misses_.size();
  snap.tenant_cost.resize(n, 0.0);
  snap.tenant_lower_bound.resize(n, 0.0);
  snap.tenant_ratio.resize(n, 0.0);

  double total_misses = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    snap.tenant_cost[t] =
        costs[t]->value(static_cast<double>(misses_[t]));
    snap.cost_total += snap.tenant_cost[t];
    total_misses += static_cast<double>(misses_[t]);
  }

  snap.certified = !accounts_.empty();
  for (const DualAccount& account : accounts_)
    snap.certified = snap.certified && account.valid;

  if (snap.certified) {
    double lb = 0.0;
    std::vector<double> shares;
    for (const DualAccount& account : accounts_) {
      const auto [u, g] = best_scaling(account, costs);
      // A non-positive account bound is replaced by the trivial OPT_s ≥ 0
      // (and contributes no per-tenant shares, keeping Σ shares == LB).
      if (g <= 0.0) continue;
      lb += g;
      scaled_dual(account, costs, u, &shares);
      for (std::size_t t = 0; t < n; ++t)
        snap.tenant_lower_bound[t] += shares[t];
    }
    snap.dual_lower_bound = std::max(0.0, lb);
    if (snap.dual_lower_bound > 0.0) {
      snap.competitive_ratio = snap.cost_total / snap.dual_lower_bound;
      for (std::size_t t = 0; t < n; ++t)
        if (snap.tenant_lower_bound[t] > 0.0)
          snap.tenant_ratio[t] =
              snap.tenant_cost[t] / snap.tenant_lower_bound[t];
    }
  }

  // Theorem 1.1 predictions for the dashboards: the argument-domain
  // blow-up α·k, and its value-domain ratio cap max_i f_i(αk·x)/f_i(x)
  // evaluated at each tenant's own scale — exact (and x-independent) for
  // monomials, where it equals Corollary 1.2's β^β·k^β.
  const double x_max = std::max(1.0, total_misses);
  const double alpha = curvature_alpha(costs, x_max);
  snap.theorem_alpha_k = alpha * static_cast<double>(capacity);
  for (std::size_t t = 0; t < n; ++t) {
    const double x = std::max(1.0, static_cast<double>(misses_[t]));
    const double denom = costs[t]->value(x);
    if (denom <= 0.0) continue;  // flat-at-x SLA region: ratio undefined
    snap.theorem_ratio_bound = std::max(
        snap.theorem_ratio_bound,
        costs[t]->value(snap.theorem_alpha_k * x) / denom);
  }
  return snap;
}

}  // namespace ccc::obs
