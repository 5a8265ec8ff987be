// Unit tests for the cache residency bookkeeping (sim/cache_state.hpp).
#include "sim/cache_state.hpp"

#include <gtest/gtest.h>

namespace ccc {
namespace {

TEST(CacheState, InsertContainsErase) {
  CacheState cache(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.full());
  cache.insert(10, 0);
  EXPECT_TRUE(cache.contains(10));
  EXPECT_EQ(cache.owner(10), 0u);
  cache.insert(20, 1);
  EXPECT_TRUE(cache.full());
  EXPECT_EQ(cache.take(10), TenantId{0});
  EXPECT_FALSE(cache.contains(10));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheState, RejectsOverfill) {
  CacheState cache(1);
  cache.insert(1, 0);
  EXPECT_THROW(cache.insert(2, 0), std::invalid_argument);
}

TEST(CacheState, RejectsDuplicateInsert) {
  CacheState cache(2);
  cache.insert(1, 0);
  EXPECT_THROW(cache.insert(1, 1), std::invalid_argument);
  EXPECT_EQ(cache.owner(1), 0u);  // the rejected insert changed nothing
}

TEST(CacheState, RejectsEvictingAbsent) {
  CacheState cache(2);
  cache.insert(1, 0);
  EXPECT_EQ(cache.take(5), std::nullopt);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheState, OwnerOfAbsentThrows) {
  CacheState cache(2);
  EXPECT_THROW((void)cache.owner(5), std::invalid_argument);
}

TEST(CacheState, ZeroCapacityRejected) {
  EXPECT_THROW(CacheState(0), std::invalid_argument);
}

TEST(CacheState, ClearEmptiesResident) {
  CacheState cache(2);
  cache.insert(1, 0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(1));
}

TEST(CacheState, PagesExposesOwners) {
  CacheState cache(3);
  cache.insert(1, 0);
  cache.insert(2, 1);
  const auto& pages = cache.pages();
  EXPECT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages.at(1), 0u);
  EXPECT_EQ(pages.at(2), 1u);
}

}  // namespace
}  // namespace ccc
