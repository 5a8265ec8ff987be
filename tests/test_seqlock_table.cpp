// Direct single-threaded coverage of SeqlockResidencyTable over the
// production StdAtomics policy: the per-tenant freshness semantics (which
// evictions stale whom), the writer-side resume signal, the handle column
// through backward-shift erases, allocation validation, and the
// observable behavior of the SeqlockConfig ablations
// that ship only inside the model checker's mutation suite. The
// concurrency of the protocol is proven elsewhere (the exhaustive checker
// in test_seqlock_model.cpp and the TSan stress in test_sharded_cache.cpp);
// here every call happens on one thread, so the assertions pin down the
// *sequential* contract each configuration implements.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/seqlock_table.hpp"

namespace ccc {
namespace {

// Ablations under test (field order matches SeqlockConfig).
constexpr SeqlockConfig kNoGlobalBump{.bump_epoch = false};
constexpr SeqlockConfig kNoTenantBump{.bump_tenant_epoch = false};
constexpr SeqlockConfig kNoTenantStamp{.stamp_tenant_epoch = false};

using Table = SeqlockResidencyTable<StdAtomics>;

/// Publishes `page` as the policy's insert does, with the page id as its
/// handle.
template <typename T>
void fill(T& table, std::uint64_t page, std::uint32_t tenant) {
  table.insert(page, tenant, static_cast<std::uint32_t>(page));
}

/// The policy's evicting miss: erase the victim (and bump what its
/// eviction moved), then publish the fetched page.
template <typename T>
void evict(T& table, std::uint64_t victim, std::uint32_t victim_tenant,
           std::uint64_t page, std::uint32_t page_tenant, bool offset_moved,
           bool victim_refreshed) {
  table.erase(table.find(victim), victim_tenant, offset_moved,
              victim_refreshed);
  fill(table, page, page_tenant);
}

TEST(SeqlockTable, AllocateValidatesItsArguments) {
  Table not_pow2;
  EXPECT_THROW(not_pow2.allocate(12, 2), std::invalid_argument);
  Table no_tenants;
  EXPECT_THROW(no_tenants.allocate(16, 0), std::invalid_argument);
  Table once;
  once.allocate(16, 2);
  EXPECT_TRUE(once.allocated());
  EXPECT_EQ(once.num_tenants(), 2u);
  // Reallocation would pull the arrays out from under lock-free readers.
  EXPECT_THROW(once.allocate(16, 2), std::logic_error);
}

TEST(SeqlockTable, InsertRejectsTheReservedKeyAndResidentPages) {
  Table table;
  table.allocate(16, 1);
  EXPECT_THROW(fill(table, Table::kEmptySlot, 0), std::invalid_argument);
  EXPECT_EQ(table.find(Table::kEmptySlot), Table::kNoSlot);
  fill(table, 7, 0);
  EXPECT_THROW(fill(table, 7, 0), std::logic_error);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SeqlockTable, TenantRefreshOnlyEvictionStalesOnlyTheVictimTenant) {
  Table table;
  table.allocate(16, 2);
  fill(table, /*page=*/1, /*tenant=*/0);
  fill(table, /*page=*/2, /*tenant=*/0);
  fill(table, /*page=*/3, /*tenant=*/1);
  EXPECT_TRUE(table.try_fresh_hit(1, 0));
  EXPECT_TRUE(table.try_fresh_hit(2, 0));
  EXPECT_TRUE(table.try_fresh_hit(3, 1));
  EXPECT_FALSE(table.try_fresh_hit(4, 0));  // never resident

  // Zero-budget eviction whose marginal delta re-based tenant 0's
  // budgets: the shared offset never moved, so tenant 1 must keep its
  // lock-free service while tenant 0's survivor goes stale.
  evict(table, /*victim=*/1, /*victim_tenant=*/0, /*page=*/4,
        /*page_tenant=*/0, /*offset_moved=*/false,
        /*victim_refreshed=*/true);
  EXPECT_FALSE(table.try_fresh_hit(1, 0));  // evicted
  EXPECT_FALSE(table.try_fresh_hit(2, 0));  // victim tenant: re-based
  EXPECT_TRUE(table.try_fresh_hit(3, 1));   // other tenant: untouched
  EXPECT_TRUE(table.try_fresh_hit(4, 0));   // incoming page: post-bump stamp

  // Writer resume signal: the stamp reads stale until a locked restamp,
  // current after it.
  EXPECT_FALSE(table.fresh(table.find(2), 0));
  table.restamp(table.find(2), 0);
  EXPECT_TRUE(table.fresh(table.find(2), 0));
  EXPECT_TRUE(table.try_fresh_hit(2, 0));
}

TEST(SeqlockTable, OffsetMovingEvictionStalesEveryTenant) {
  Table table;
  table.allocate(16, 2);
  fill(table, 1, 0);
  fill(table, 2, 0);
  fill(table, 3, 1);

  // Nonzero victim budget: the survivor debit shifted the shared offset,
  // so *every* tenant's re-freeze value changed.
  evict(table, /*victim=*/1, /*victim_tenant=*/0, /*page=*/4,
        /*page_tenant=*/1, /*offset_moved=*/true, /*victim_refreshed=*/true);
  EXPECT_FALSE(table.try_fresh_hit(2, 0));
  EXPECT_FALSE(table.try_fresh_hit(3, 1));
  EXPECT_TRUE(table.try_fresh_hit(4, 1));
}

TEST(SeqlockTable, GenerationalEvictionStalesNothing) {
  Table table;
  table.allocate(16, 2);
  fill(table, 1, 0);
  fill(table, 2, 0);
  fill(table, 3, 1);

  // The over-staling fix: a zero-budget eviction with a flat marginal
  // (linear costs at steady state) leaves every survivor fresh —
  // including the victim's own tenant.
  evict(table, /*victim=*/1, /*victim_tenant=*/0, /*page=*/4,
        /*page_tenant=*/0, /*offset_moved=*/false,
        /*victim_refreshed=*/false);
  EXPECT_FALSE(table.try_fresh_hit(1, 0));  // the victim itself left
  EXPECT_TRUE(table.try_fresh_hit(2, 0));   // victim's tenant stays fresh
  EXPECT_TRUE(table.try_fresh_hit(3, 1));
  EXPECT_TRUE(table.try_fresh_hit(4, 0));
}

TEST(SeqlockTable, EraseOnlyShrinkStalesWhatItMovedAndKeepsHandles) {
  Table table;
  table.allocate(16, 2);
  // Four pages sharing one home slot, so each erase backward-shifts the
  // rest of the chain — handles included.
  std::vector<std::uint64_t> chain;
  const std::size_t home = util::splitmix64(1) & table.mask();
  for (std::uint64_t id = 1; chain.size() < 4; ++id)
    if ((util::splitmix64(id) & table.mask()) == home) chain.push_back(id);
  for (std::size_t i = 0; i < chain.size(); ++i)
    fill(table, chain[i], static_cast<std::uint32_t>(i % 2));
  const auto handles_follow_pages = [&table, &chain](std::size_t from) {
    for (std::size_t i = from; i < chain.size(); ++i) {
      const std::size_t slot = table.find(chain[i]);
      ASSERT_NE(slot, Table::kNoSlot);
      EXPECT_EQ(table.handle(slot), static_cast<std::uint32_t>(chain[i]));
    }
  };

  // A shrink's eviction with nothing moved (zero budget, flat marginal)
  // stales nothing, though the survivors changed slots.
  table.erase(table.find(chain[0]), 0, /*offset_moved=*/false,
              /*tenant_refreshed=*/false);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.find(chain[0]), Table::kNoSlot);
  handles_follow_pages(1);
  EXPECT_TRUE(table.try_fresh_hit(chain[1], 1));
  EXPECT_TRUE(table.try_fresh_hit(chain[2], 0));

  // One that moved the shared offset stales every survivor until a
  // locked hit restamps it.
  table.erase(table.find(chain[1]), 1, /*offset_moved=*/true,
              /*tenant_refreshed=*/true);
  handles_follow_pages(2);
  EXPECT_FALSE(table.try_fresh_hit(chain[2], 0));
  EXPECT_FALSE(table.try_fresh_hit(chain[3], 1));
  EXPECT_FALSE(table.fresh(table.find(chain[2]), 0));
  table.restamp(table.find(chain[2]), 0);
  EXPECT_TRUE(table.try_fresh_hit(chain[2], 0));
  EXPECT_FALSE(table.try_fresh_hit(chain[3], 1));  // still stale

  std::size_t visited = 0;
  table.for_each([&](std::uint64_t page, std::uint32_t handle) {
    EXPECT_EQ(handle, static_cast<std::uint32_t>(page));
    ++visited;
  });
  EXPECT_EQ(visited, 2u);
}

// --- Ablation contracts (the mutation suite proves these unsound under
// --- concurrency; these tests pin down what each knob observably does).

TEST(SeqlockTableAblations, NoGlobalBumpIgnoresOffsetMovingErases) {
  SeqlockResidencyTable<StdAtomics, kNoGlobalBump> table;
  table.allocate(16, 2);
  fill(table, 1, 0);
  fill(table, 2, 1);
  fill(table, 3, 1);

  // Without the global bump an offset-moving eviction goes unnoticed by
  // the other tenant (exactly the bug class kNoEpochBump seeds for the
  // model checker)...
  evict(table, 1, /*victim_tenant=*/0, 4, /*page_tenant=*/0,
        /*offset_moved=*/true, /*victim_refreshed=*/false);
  EXPECT_TRUE(table.try_fresh_hit(2, 1));

  // ...and so does a shrink's offset-moving erase.
  table.erase(table.find(2), 1, /*offset_moved=*/true,
              /*tenant_refreshed=*/false);
  EXPECT_TRUE(table.try_fresh_hit(3, 1));
  EXPECT_TRUE(table.try_fresh_hit(4, 0));
}

TEST(SeqlockTableAblations, NoTenantBumpMissesTenantLocalRefreshes) {
  SeqlockResidencyTable<StdAtomics, kNoTenantBump> table;
  table.allocate(16, 2);
  fill(table, 1, 0);
  fill(table, 2, 0);
  evict(table, 1, /*victim_tenant=*/0, 3, /*page_tenant=*/0,
        /*offset_moved=*/false, /*victim_refreshed=*/true);
  // The re-based survivor still validates — the seeded bug.
  EXPECT_TRUE(table.try_fresh_hit(2, 0));
}

TEST(SeqlockTableAblations, NoTenantStampMissesTenantLocalRefreshes) {
  SeqlockResidencyTable<StdAtomics, kNoTenantStamp> table;
  table.allocate(16, 2);
  fill(table, 1, 0);
  fill(table, 2, 0);
  evict(table, 1, /*victim_tenant=*/0, 3, /*page_tenant=*/0,
        /*offset_moved=*/false, /*victim_refreshed=*/true);
  // The writer bumps tenant_epoch[0], but stamps never include it, so the
  // reader cannot see the re-base.
  EXPECT_TRUE(table.try_fresh_hit(2, 0));
}

}  // namespace
}  // namespace ccc
