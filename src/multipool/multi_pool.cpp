#include "multipool/multi_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccc {

MultiPoolManager::MultiPoolManager(MultiPoolOptions options,
                                   PolicyFactory policy_factory,
                                   std::vector<std::size_t> initial_assignment,
                                   const std::vector<CostFunctionPtr>& costs)
    : options_(std::move(options)),
      assignment_(std::move(initial_assignment)),
      costs_(costs) {
  CCC_REQUIRE(!options_.pool_capacities.empty(),
              "need at least one pool");
  CCC_REQUIRE(!assignment_.empty(), "need at least one tenant");
  CCC_REQUIRE(costs_.size() >= assignment_.size(),
              "need one cost function per tenant");
  CCC_REQUIRE(policy_factory != nullptr, "need a policy factory");
  for (const std::size_t pool : assignment_)
    CCC_REQUIRE(pool < options_.pool_capacities.size(),
                "initial assignment references a missing pool");

  const auto num_tenants = static_cast<std::uint32_t>(assignment_.size());
  pools_.reserve(options_.pool_capacities.size());
  for (std::size_t p = 0; p < options_.pool_capacities.size(); ++p) {
    Pool pool;
    pool.policy = policy_factory();
    CCC_REQUIRE(pool.policy != nullptr, "policy factory returned null");
    SimOptions sim_options;
    sim_options.seed = options_.seed + p;
    pool.session = std::make_unique<SimulatorSession>(
        options_.pool_capacities[p], num_tenants, *pool.policy, &costs_,
        sim_options);
    pools_.push_back(std::move(pool));
  }
  misses_.assign(num_tenants, 0);
  hits_.assign(num_tenants, 0);
  recent_misses_.assign(num_tenants, 0);
  last_migration_.assign(num_tenants, 0);
}

std::size_t MultiPoolManager::pool_of(TenantId tenant) const {
  CCC_REQUIRE(tenant < assignment_.size(), "tenant id out of range");
  return assignment_[tenant];
}

void MultiPoolManager::access(TenantId tenant, PageId page) {
  const std::size_t pool = pool_of(tenant);
  const StepEvent event = pools_[pool].session->step(Request{tenant, page});
  if (event.hit) {
    ++hits_[tenant];
  } else {
    ++misses_[tenant];
    ++recent_misses_[tenant];
  }
  ++clock_;
  if (options_.rebalance_period > 0 &&
      clock_ % options_.rebalance_period == 0)
    maybe_rebalance();
}

void MultiPoolManager::migrate(TenantId tenant, std::size_t pool) {
  CCC_REQUIRE(pool < pools_.size(), "pool index out of range");
  const std::size_t from = pool_of(tenant);
  if (from == pool) return;
  // Drop the tenant's resident pages in the old pool; they will fault back
  // in at the destination on first access.
  for (const PageId page : pools_[from].session->pages_of(tenant))
    pools_[from].session->invalidate(page);
  assignment_[tenant] = pool;
  last_migration_[tenant] = clock_;
  ++migrations_;
  switching_cost_paid_ += options_.switching_cost;
}

void MultiPoolManager::maybe_rebalance() {
  // Pressure of tenant i: recent misses × marginal cost of the next miss.
  // Move the highest-pressure tenant to the pool with the lowest total
  // pressure, if (a) it is not already there and (b) its estimated gain
  // over the next period exceeds the switching cost.
  std::vector<double> pool_pressure(pools_.size(), 0.0);
  double best_pressure = -1.0;
  TenantId candidate = 0;
  bool have_candidate = false;
  for (TenantId i = 0; i < assignment_.size(); ++i) {
    const double marginal =
        costs_[i]->marginal(misses_[i]);
    const double pressure =
        static_cast<double>(recent_misses_[i]) * marginal;
    pool_pressure[assignment_[i]] += pressure;
    // Cooldown: a tenant that just moved sits out two periods.
    const bool settled =
        last_migration_[i] == 0 ||
        clock_ - last_migration_[i] >= 2 * options_.rebalance_period;
    if (settled && pressure > best_pressure) {
      best_pressure = pressure;
      candidate = i;
      have_candidate = true;
    }
  }
  if (!have_candidate) {
    std::fill(recent_misses_.begin(), recent_misses_.end(), 0);
    return;
  }
  const auto coolest = static_cast<std::size_t>(
      std::min_element(pool_pressure.begin(), pool_pressure.end()) -
      pool_pressure.begin());
  if (coolest != assignment_[candidate] && best_pressure > 0.0) {
    // Gain estimate: the tenant keeps its pressure but stops competing with
    // its current pool's other tenants; discount by the share of pressure
    // it already dominates.
    const double others =
        pool_pressure[assignment_[candidate]] - best_pressure;
    const double gain = std::min(best_pressure, others);
    if (gain > options_.switching_cost) migrate(candidate, coolest);
  }
  std::fill(recent_misses_.begin(), recent_misses_.end(), 0);
}

void MultiPoolManager::replay(const Trace& trace) {
  CCC_REQUIRE(trace.num_tenants() <= assignment_.size(),
              "trace has more tenants than the manager was built for");
  for (const Request& request : trace) access(request.tenant, request.page);
}

MultiPoolReport MultiPoolManager::report() const {
  MultiPoolReport out;
  out.misses = misses_;
  out.hits = hits_;
  out.assignment = assignment_;
  out.migrations = migrations_;
  out.switching_cost_paid = switching_cost_paid_;
  for (std::size_t i = 0; i < misses_.size(); ++i)
    out.miss_cost += costs_[i]->value(static_cast<double>(misses_[i]));
  out.total_cost = out.miss_cost + out.switching_cost_paid;
  return out;
}

}  // namespace ccc
