// Tests for the §5 multipool extension (multipool/multi_pool.hpp).
#include "multipool/multi_pool.hpp"

#include <gtest/gtest.h>

#include "core/convex_caching.hpp"
#include "cost/monomial.hpp"
#include "policies/lru.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

PolicyFactory lru_factory() {
  return [] { return std::make_unique<LruPolicy>(); };
}

std::vector<CostFunctionPtr> quad_costs(std::uint32_t n) {
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t i = 0; i < n; ++i)
    costs.push_back(std::make_unique<MonomialCost>(2.0));
  return costs;
}

TEST(MultiPool, RoutesToAssignedPool) {
  MultiPoolOptions options;
  options.pool_capacities = {2, 2};
  const auto costs = quad_costs(2);
  MultiPoolManager mgr(options, lru_factory(), {0, 1}, costs);
  mgr.access(0, make_page(0, 0));
  mgr.access(1, make_page(1, 0));
  EXPECT_EQ(mgr.pool_of(0), 0u);
  EXPECT_EQ(mgr.pool_of(1), 1u);
  // Tenants in different pools never evict each other: fill tenant 1's
  // pool; tenant 0's page must still be resident (re-access hits).
  mgr.access(1, make_page(1, 1));
  mgr.access(1, make_page(1, 2));
  mgr.access(0, make_page(0, 0));
  const MultiPoolReport report = mgr.report();
  EXPECT_EQ(report.hits[0], 1u);
}

TEST(MultiPool, MigrationDropsPagesAndChargesSwitchingCost) {
  MultiPoolOptions options;
  options.pool_capacities = {3, 3};
  options.switching_cost = 7.5;
  const auto costs = quad_costs(2);
  MultiPoolManager mgr(options, lru_factory(), {0, 0}, costs);
  mgr.access(0, make_page(0, 0));
  mgr.access(0, make_page(0, 1));
  mgr.migrate(0, 1);
  EXPECT_EQ(mgr.pool_of(0), 1u);
  // Pages were dropped: both re-miss in the new pool.
  mgr.access(0, make_page(0, 0));
  mgr.access(0, make_page(0, 1));
  const MultiPoolReport report = mgr.report();
  EXPECT_EQ(report.misses[0], 4u);
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_DOUBLE_EQ(report.switching_cost_paid, 7.5);
  EXPECT_DOUBLE_EQ(report.total_cost, report.miss_cost + 7.5);
}

TEST(MultiPool, MigrationToSamePoolIsNoop) {
  MultiPoolOptions options;
  options.pool_capacities = {2};
  const auto costs = quad_costs(1);
  MultiPoolManager mgr(options, lru_factory(), {0}, costs);
  mgr.migrate(0, 0);
  EXPECT_EQ(mgr.report().migrations, 0u);
}

TEST(MultiPool, RebalancerMovesHotTenantOffSharedPool) {
  // Two tenants share pool 0 and thrash; pool 1 is empty. With rebalancing
  // on and zero switching cost, the manager must eventually migrate one.
  MultiPoolOptions options;
  options.pool_capacities = {2, 2};
  options.rebalance_period = 50;
  options.switching_cost = 0.0;
  const auto costs = quad_costs(2);
  MultiPoolManager mgr(options, lru_factory(), {0, 0}, costs);
  Rng rng(81);
  for (int i = 0; i < 500; ++i) {
    const auto tenant = static_cast<TenantId>(i % 2);
    mgr.access(tenant, make_page(tenant, rng.next_below(4)));
  }
  const MultiPoolReport report = mgr.report();
  EXPECT_GE(report.migrations, 1u);
  EXPECT_NE(mgr.pool_of(0), mgr.pool_of(1));
}

TEST(MultiPool, SeparatePoolsBeatOneSharedPoolUnderPressure) {
  // The §5 motivation: two pools of size 2 outperform one pool of size 2
  // shared by both tenants (more total memory), and the framework must
  // expose that difference.
  const auto costs = quad_costs(2);
  Rng rng(82);
  const Trace t = random_uniform_trace(2, 3, 600, rng);

  MultiPoolOptions shared;
  shared.pool_capacities = {2};
  MultiPoolManager one(shared, lru_factory(), {0, 0}, costs);
  one.replay(t);

  MultiPoolOptions split;
  split.pool_capacities = {2, 2};
  MultiPoolManager two(split, lru_factory(), {0, 1}, costs);
  two.replay(t);

  EXPECT_LT(two.report().miss_cost, one.report().miss_cost);
}

TEST(MultiPool, AlgDiscreteMigrationChargesEachDropAsAnEviction) {
  // Two ALG-DISCRETE pools; the factory records each pool's policy so the
  // test can read its books.
  std::vector<const ConvexCachingPolicy*> pools;
  const PolicyFactory recording = [&pools, convex = make_convex_factory()] {
    std::unique_ptr<ReplacementPolicy> policy = convex();
    pools.push_back(static_cast<const ConvexCachingPolicy*>(policy.get()));
    return policy;
  };
  MultiPoolOptions options;
  options.pool_capacities = {6, 6};
  const auto costs = quad_costs(3);
  MultiPoolManager mgr(options, recording, {0, 0, 1}, costs);
  ASSERT_EQ(pools.size(), 2u);

  // A replica of pool 0 prices each drop: Fig. 3 raises the dual by the
  // dropped page's budget at that moment and debits the survivors by it.
  ConvexCachingPolicy replica;
  SimulatorSession replica_session(6, 3, replica, &costs);
  Rng rng(83);
  std::uint64_t requests = 0;
  const auto traffic = [&] {
    for (int i = 0; i < 300; ++i, ++requests) {
      const auto tenant = static_cast<TenantId>(rng.next_below(3));
      const PageId page = make_page(tenant, rng.next_below(5));
      if (mgr.pool_of(tenant) == 0) replica_session.step({tenant, page});
      mgr.access(tenant, page);
    }
  };
  traffic();
  const ConvexCachingPolicy& old_pool = *pools[0];
  const std::vector<PageId> dropped = old_pool.pages_of(0);
  ASSERT_FALSE(dropped.empty());
  const std::uint64_t m_before = old_pool.tenant_evictions()[0];
  const double mass_before = old_pool.dual_mass_by_tenant()[0];
  double mass = mass_before;
  for (const PageId page : dropped) {
    mass += replica.budget(page);
    replica_session.invalidate(page);
  }
  mgr.migrate(0, 1);
  for (const PageId page : dropped)
    EXPECT_EQ(old_pool.page_table().find(page),
              ConvexCachingPolicy::PageTable::kNoSlot);
  EXPECT_EQ(old_pool.tenant_evictions()[0], m_before + dropped.size());
  EXPECT_GT(mass, mass_before);
  EXPECT_EQ(old_pool.dual_mass_by_tenant()[0], mass);
  EXPECT_EQ(old_pool.tenant_evictions(), replica.tenant_evictions());

  // Tenant 2 moves the other way, and its pages leave pool 1 alike.
  traffic();
  const std::size_t moved = pools[1]->pages_of(2).size();
  const std::uint64_t m2_before = pools[1]->tenant_evictions()[2];
  mgr.migrate(2, 0);
  EXPECT_TRUE(pools[1]->pages_of(2).empty());
  EXPECT_EQ(pools[1]->tenant_evictions()[2], m2_before + moved);
  traffic();

  const MultiPoolReport report = mgr.report();
  EXPECT_EQ(report.migrations, 2u);
  std::uint64_t served = 0;
  for (std::size_t t = 0; t < 3; ++t)
    served += report.hits[t] + report.misses[t];
  EXPECT_EQ(served, requests);
}

TEST(MultiPool, ValidatesConfiguration) {
  const auto costs = quad_costs(2);
  MultiPoolOptions options;
  EXPECT_THROW(MultiPoolManager(options, lru_factory(), {0}, costs),
               std::invalid_argument);  // no pools
  options.pool_capacities = {2};
  EXPECT_THROW(MultiPoolManager(options, lru_factory(), {1}, costs),
               std::invalid_argument);  // pool index out of range
  EXPECT_THROW(MultiPoolManager(options, nullptr, {0}, costs),
               std::invalid_argument);
  MultiPoolManager ok(options, lru_factory(), {0}, costs);
  EXPECT_THROW(ok.migrate(0, 5), std::invalid_argument);
  EXPECT_THROW((void)ok.pool_of(3), std::invalid_argument);
}

}  // namespace
}  // namespace ccc
