// Tests for util::FlatMap — the open-addressing residency table behind
// NaiveConvexCachingPolicy::slot_of_ and CacheState::resident_.
//
// The centerpiece is a randomized differential suite against
// std::unordered_map over insert/assign/erase/lookup histories heavy enough
// to force several rehashes and exercise backward-shift deletion across
// wrapped probe chains. The map's extra contracts — deterministic
// slot-order iteration, reserve-no-rehash, reserved-key rejection — get
// directed tests.
#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flat_map.hpp"

namespace ccc::util {
namespace {

using Map = FlatMap<std::uint64_t>;

std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_entries(
    const Map& map) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (const auto [key, value] : map) entries.emplace_back(key, value);
  std::sort(entries.begin(), entries.end());
  return entries;
}

// ---------------------------------------------------------------------------
// Randomized differential replay vs std::unordered_map.

struct ChurnCase {
  std::uint64_t seed;
  std::uint64_t key_space;  ///< keys drawn from [0, key_space)
  std::size_t ops;
  int erase_weight;  ///< erase probability = erase_weight / 10

  friend std::ostream& operator<<(std::ostream& os, const ChurnCase& c) {
    return os << "seed" << c.seed << "_keys" << c.key_space << "_ops" << c.ops
              << "_ew" << c.erase_weight;
  }
};

class FlatMapDifferentialTest : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(FlatMapDifferentialTest, MatchesUnorderedMapUnderChurn) {
  const ChurnCase c = GetParam();
  std::mt19937_64 rng(c.seed);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, c.key_space - 1);
  std::uniform_int_distribution<int> op_dist(0, 9);

  Map map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (std::size_t i = 0; i < c.ops; ++i) {
    const std::uint64_t key = key_dist(rng);
    const int op = op_dist(rng);
    if (op < c.erase_weight) {
      ASSERT_EQ(map.erase(key), reference.erase(key)) << "op " << i;
    } else if (op < c.erase_weight + 1) {
      // operator[] default-constructs on first touch, like the node map.
      map[key] += i;
      reference[key] += i;
    } else {
      const bool inserted = map.insert_or_assign(key, i);
      ASSERT_EQ(inserted, reference.insert_or_assign(key, i).second)
          << "op " << i;
    }
    ASSERT_EQ(map.size(), reference.size()) << "op " << i;
    // Spot-check membership of the key just touched plus a random probe.
    for (const std::uint64_t probe : {key, key_dist(rng)}) {
      const auto ref_it = reference.find(probe);
      ASSERT_EQ(map.contains(probe), ref_it != reference.end())
          << "op " << i << " key " << probe;
      const auto it = map.find(probe);
      if (ref_it == reference.end()) {
        ASSERT_EQ(it, map.end()) << "op " << i << " key " << probe;
      } else {
        ASSERT_NE(it, map.end()) << "op " << i << " key " << probe;
        ASSERT_EQ(it->first, probe);
        ASSERT_EQ(it->second, ref_it->second) << "op " << i;
        ASSERT_EQ(map.at(probe), ref_it->second) << "op " << i;
      }
    }
  }

  // Full-content equivalence after the run: every surviving entry agrees.
  const auto entries = sorted_entries(map);
  ASSERT_EQ(entries.size(), reference.size());
  for (const auto& [key, value] : entries) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "key " << key;
    EXPECT_EQ(value, it->second) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlatMapDifferentialTest,
    ::testing::Values(
        // Small key space + heavy erase: sustained churn near the load
        // limit, exercising backward shifts over long clustered chains.
        ChurnCase{101, 64, 20'000, 5},
        // Growth-dominated: key space far exceeds ops, forcing rehashes.
        ChurnCase{102, 1'000'000, 20'000, 2},
        // Erase-dominated: the map repeatedly drains toward empty.
        ChurnCase{103, 128, 20'000, 7},
        // Adversarial keys for the low bits: multiples of a power of two
        // would collide catastrophically without the SplitMix64 mix.
        ChurnCase{104, 256, 15'000, 4},
        ChurnCase{105, 4096, 30'000, 5}));

TEST(FlatMapDifferential, ClusteredKeysStayCorrect) {
  // Dense sequential keys (the common PageId pattern: small per-tenant
  // offsets) with interleaved erases of every other key.
  Map map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (std::uint64_t k = 0; k < 4096; ++k) {
    map.insert_or_assign(k, k * 3);
    reference.insert_or_assign(k, k * 3);
  }
  for (std::uint64_t k = 0; k < 4096; k += 2) {
    ASSERT_EQ(map.erase(k), 1u);
    reference.erase(k);
  }
  ASSERT_EQ(map.size(), reference.size());
  for (std::uint64_t k = 0; k < 4096; ++k) {
    ASSERT_EQ(map.contains(k), reference.count(k) == 1) << "key " << k;
    if (map.contains(k)) {
      ASSERT_EQ(map.at(k), reference.at(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic iteration: slot order is a pure function of the op history.

TEST(FlatMapIteration, IdenticalHistoriesIterateIdentically) {
  // Two replicas fed the same operation sequence must agree element-for-
  // element under iteration — the property the sharded frontend and the
  // audit layer rely on for reproducible replays.
  Map a;
  Map b;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 511);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const std::uint64_t key = key_dist(rng);
    if (key_dist(rng) % 3 == 0) {
      a.erase(key);
      b.erase(key);
    } else {
      a.insert_or_assign(key, i);
      b.insert_or_assign(key, i);
    }
  }
  ASSERT_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    ASSERT_NE(ib, b.end());
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second, ib->second);
  }
  EXPECT_EQ(ib, b.end());
}

TEST(FlatMapIteration, VisitsEveryElementExactlyOnce) {
  Map map;
  for (std::uint64_t k = 0; k < 1000; ++k) map.insert_or_assign(k * 17, k);
  std::unordered_map<std::uint64_t, int> seen;
  for (const auto [key, value] : map) ++seen[key];
  EXPECT_EQ(seen.size(), 1000u);
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1) << "key " << key;
}

TEST(FlatMapIteration, MutationThroughIteratorSticks) {
  Map map;
  map.insert_or_assign(5, 1);
  auto it = map.find(5);
  ASSERT_NE(it, map.end());
  it->second = 42;
  EXPECT_EQ(map.at(5), 42u);
  (*it).second = 43;
  EXPECT_EQ(map.at(5), 43u);
}

TEST(FlatMapIteration, ConstIterationAndConversion) {
  Map map;
  map.insert_or_assign(1, 10);
  map.insert_or_assign(2, 20);
  const Map& cref = map;
  std::uint64_t sum = 0;
  for (const auto [key, value] : cref) sum += key + value;
  EXPECT_EQ(sum, 33u);
  Map::const_iterator cit = map.find(1);  // iterator → const_iterator
  ASSERT_NE(cit, cref.end());
  EXPECT_EQ(cit->second, 10u);
}

// ---------------------------------------------------------------------------
// Directed API contracts.

TEST(FlatMapApi, EmptyMapBehaves) {
  Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.contains(0));
  EXPECT_EQ(map.find(0), map.end());
  EXPECT_EQ(map.erase(0), 0u);
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_THROW((void)map.at(0), std::out_of_range);
}

TEST(FlatMapApi, AtThrowsOnAbsentPresentOnHit) {
  Map map;
  map.insert_or_assign(3, 30);
  EXPECT_EQ(map.at(3), 30u);
  EXPECT_THROW((void)map.at(4), std::out_of_range);
  const Map& cref = map;
  EXPECT_EQ(cref.at(3), 30u);
  EXPECT_THROW((void)cref.at(4), std::out_of_range);
}

TEST(FlatMapApi, ReservedKeyIsRejected) {
  Map map;
  EXPECT_THROW(map.insert_or_assign(Map::kEmptyKey, 1), std::invalid_argument);
  EXPECT_THROW(map[Map::kEmptyKey], std::invalid_argument);
  // Lookups treat it as simply absent.
  EXPECT_FALSE(map.contains(Map::kEmptyKey));
  EXPECT_EQ(map.erase(Map::kEmptyKey), 0u);
}

TEST(FlatMapApi, EraseByIteratorRemovesAndValidates) {
  Map map;
  for (std::uint64_t k = 0; k < 100; ++k) map.insert_or_assign(k, k);
  map.erase(map.find(37));
  EXPECT_FALSE(map.contains(37));
  EXPECT_EQ(map.size(), 99u);
  EXPECT_THROW(map.erase(map.end()), std::logic_error);
}

TEST(FlatMapApi, ClearEmptiesButKeepsWorking) {
  Map map;
  for (std::uint64_t k = 0; k < 500; ++k) map.insert_or_assign(k, k);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_FALSE(map.contains(10));
  map.insert_or_assign(10, 7);
  EXPECT_EQ(map.at(10), 7u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapApi, ReservePreventsIteratorChurnDuringFill) {
  // After reserve(n), inserting n keys must not rehash: the address of a
  // value observed early stays valid through the fill.
  Map map;
  map.reserve(1000);
  map.insert_or_assign(0, 99);
  const std::uint64_t* where = &map.at(0);
  for (std::uint64_t k = 1; k < 1000; ++k) map.insert_or_assign(k, k);
  EXPECT_EQ(&map.at(0), where);
  EXPECT_EQ(map.at(0), 99u);
}

TEST(FlatMapApi, SubscriptDefaultConstructs) {
  FlatMap<std::vector<int>> map;
  map[8].push_back(1);
  map[8].push_back(2);
  EXPECT_EQ(map.at(8).size(), 2u);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace ccc::util
