#pragma once
/// \file flat_map.hpp
/// \brief Open-addressing hash table with SoA storage for `std::uint64_t`
/// keys (PageIds), built for the residency hot path.
///
/// Design points, all load-bearing for the simulator:
///  - **Flat, power-of-two capacity, linear probing.** One cache line of
///    keys covers eight probe slots; the common hit probe touches a single
///    line instead of chasing a node pointer per lookup.
///  - **SplitMix64-mixed hashing.** PageIds pack the tenant id into the
///    high bits, so identity hashing would collapse every tenant onto the
///    same low-bit range. The finalizer gives full avalanche at ~3 cycles.
///  - **Tombstone-free backward-shift deletion.** Eviction-heavy workloads
///    (every miss at capacity erases a page) would otherwise accumulate
///    tombstones and degrade probes toward O(capacity). Backward shifting
///    keeps every probe chain as short as if the erased key had never been
///    inserted, so performance is independent of erase history.
///  - **SoA key/value arrays.** Probes scan only the key array; values are
///    touched once on match. Policies additionally rely on this to keep
///    their own dense side arrays (see NaiveConvexCachingPolicy).
///  - **Deterministic iteration.** Iteration visits slots in index order,
///    which is a pure function of the insert/erase history — two replicas
///    applying the same operation sequence iterate identically. (This is
///    weaker than insertion order, and erase() invalidates iterators.)
///
/// The full key space minus `kEmptyKey` (~0) is usable; PageIds never take
/// that value because it would require tenant id 2^24-1 at the maximum
/// local offset, and TenantId construction is range-checked well below.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ccc::util {

/// SplitMix64 finalizer (Steele et al.), preceded by the golden-gamma
/// increment. Bijective on uint64, full avalanche. Shared by FlatMap and
/// the sharded frontend's page→shard partition so both agree on mixing.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename Value>
class FlatMap {
 public:
  using key_type = std::uint64_t;
  using mapped_type = Value;

  /// Reserved slot marker; never a valid key.
  static constexpr key_type kEmptyKey = ~key_type{0};

 private:
  // Proxy references: iterators materialize an Entry on demand instead of
  // storing std::pair<const K, V> (which SoA layout cannot provide). The
  // reference members make `it->second = v` and `for (auto [k, v] : m)`
  // behave like the node-map equivalents; `auto&` bindings do not compile
  // against proxies, which call sites accept by value-binding the proxy.
  struct Entry {
    const key_type& first;
    Value& second;
  };
  struct ConstEntry {
    const key_type& first;
    const Value& second;
  };
  template <typename E>
  struct ArrowProxy {
    E entry;
    E* operator->() noexcept { return &entry; }
  };

  template <bool Const>
  class Iter {
    using map_t = std::conditional_t<Const, const FlatMap, FlatMap>;
    using entry_t = std::conditional_t<Const, ConstEntry, Entry>;

   public:
    using value_type = entry_t;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iter() = default;
    Iter(map_t* map, std::size_t slot) : map_(map), slot_(slot) {}
    /// iterator → const_iterator
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other) : map_(other.map_), slot_(other.slot_) {}

    entry_t operator*() const {
      return entry_t{map_->keys_[slot_], map_->values_[slot_]};
    }
    ArrowProxy<entry_t> operator->() const { return ArrowProxy<entry_t>{**this}; }

    Iter& operator++() {
      ++slot_;
      skip_empty();
      return *this;
    }
    Iter operator++(int) {
      Iter copy = *this;
      ++*this;
      return copy;
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.slot_ == b.slot_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) { return !(a == b); }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;
    void skip_empty() {
      while (slot_ < map_->keys_.size() && map_->keys_[slot_] == kEmptyKey)
        ++slot_;
    }
    map_t* map_ = nullptr;
    std::size_t slot_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Pre-size so `count` keys fit without rehashing.
  void reserve(std::size_t count) {
    const std::size_t cap = min_capacity_for(count);
    if (cap > keys_.size()) rehash(cap);
  }

  void clear() noexcept {
    keys_.assign(keys_.size(), kEmptyKey);
    values_.assign(values_.size(), Value{});
    size_ = 0;
  }

  [[nodiscard]] bool contains(key_type key) const {
    return find_slot(key) != kNoSlot;
  }

  [[nodiscard]] iterator find(key_type key) {
    const std::size_t slot = find_slot(key);
    return slot == kNoSlot ? end() : iterator(this, slot);
  }
  [[nodiscard]] const_iterator find(key_type key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNoSlot ? end() : const_iterator(this, slot);
  }

  [[nodiscard]] Value& at(key_type key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) throw std::out_of_range("FlatMap::at: key absent");
    return values_[slot];
  }
  [[nodiscard]] const Value& at(key_type key) const {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) throw std::out_of_range("FlatMap::at: key absent");
    return values_[slot];
  }

  Value& operator[](key_type key) { return *insert_slot(key).first; }

  /// Returns true when the key was newly inserted (false: assigned over).
  bool insert_or_assign(key_type key, Value value) {
    const auto [slot_value, inserted] = insert_slot(key);
    *slot_value = std::move(value);
    return inserted;
  }

  /// Inserts `value` unless `key` is present (a present key keeps its
  /// value); one probe. Returns true when the key was newly inserted.
  bool try_emplace(key_type key, Value value) {
    const auto [slot_value, inserted] = insert_slot(key);
    if (inserted) *slot_value = std::move(value);
    return inserted;
  }

  /// Removes `key` and returns its value, or nullopt when absent; one probe.
  [[nodiscard]] std::optional<Value> take(key_type key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return std::nullopt;
    std::optional<Value> value(std::move(values_[slot]));
    erase_at(slot);
    return value;
  }

  /// Erase by key; returns the number of elements removed (0 or 1).
  std::size_t erase(key_type key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return 0;
    erase_at(slot);
    return 1;
  }

  /// Erase the pointed-to element. Invalidates all iterators (backward
  /// shifting may move other elements into lower slots).
  void erase(const_iterator it) {
    CCC_CHECK(it.map_ == this && it.slot_ < keys_.size() &&
                  keys_[it.slot_] != kEmptyKey,
              "FlatMap::erase: invalid iterator");
    erase_at(it.slot_);
  }

  [[nodiscard]] iterator begin() {
    iterator it(this, 0);
    it.skip_empty();
    return it;
  }
  [[nodiscard]] iterator end() { return iterator(this, keys_.size()); }
  [[nodiscard]] const_iterator begin() const {
    const_iterator it(this, 0);
    it.skip_empty();
    return it;
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, keys_.size());
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  /// Smallest power-of-two capacity holding `count` keys at ≤ 3/4 load.
  static std::size_t min_capacity_for(std::size_t count) {
    std::size_t cap = kMinCapacity;
    while (count * 4 > cap * 3) cap <<= 1;
    return cap;
  }

  [[nodiscard]] std::size_t home(key_type key) const {
    return static_cast<std::size_t>(splitmix64(key)) & mask_;
  }

  [[nodiscard]] std::size_t find_slot(key_type key) const {
    if (keys_.empty() || key == kEmptyKey) return kNoSlot;
    std::size_t slot = home(key);
    while (true) {
      const key_type stored = keys_[slot];
      if (stored == key) return slot;
      if (stored == kEmptyKey) return kNoSlot;
      slot = (slot + 1) & mask_;
    }
  }

  /// Find-or-insert: returns the value slot and whether it was created.
  std::pair<Value*, bool> insert_slot(key_type key) {
    CCC_REQUIRE(key != kEmptyKey, "FlatMap: reserved key");
    if ((size_ + 1) * 4 > keys_.size() * 3)
      rehash(min_capacity_for(size_ + 1));
    std::size_t slot = home(key);
    while (true) {
      const key_type stored = keys_[slot];
      if (stored == key) return {&values_[slot], false};
      if (stored == kEmptyKey) {
        keys_[slot] = key;
        ++size_;
        return {&values_[slot], true};
      }
      slot = (slot + 1) & mask_;
    }
  }

  void erase_at(std::size_t slot) {
    // Backward-shift deletion: walk the probe chain past `slot` and pull
    // back every element whose home precedes-or-equals the hole in cyclic
    // probe order, so no chain is ever interrupted by an empty slot.
    std::size_t hole = slot;
    std::size_t probe = slot;
    while (true) {
      probe = (probe + 1) & mask_;
      const key_type key = keys_[probe];
      if (key == kEmptyKey) break;
      const std::size_t h = home(key);
      // Cyclic distance test: the element at `probe` may move into `hole`
      // iff hole lies within [h, probe] going forward from h.
      if (((probe - h) & mask_) >= ((probe - hole) & mask_)) {
        keys_[hole] = key;
        values_[hole] = std::move(values_[probe]);
        hole = probe;
      }
    }
    keys_[hole] = kEmptyKey;
    values_[hole] = Value{};
    --size_;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<key_type> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(new_capacity, kEmptyKey);
    values_.assign(new_capacity, Value{});
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      std::size_t slot = home(old_keys[i]);
      while (keys_[slot] != kEmptyKey) slot = (slot + 1) & mask_;
      keys_[slot] = old_keys[i];
      values_[slot] = std::move(old_values[i]);
      ++size_;
    }
  }

  std::vector<key_type> keys_;
  std::vector<Value> values_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace ccc::util
