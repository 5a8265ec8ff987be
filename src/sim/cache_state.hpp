#pragma once
/// \file cache_state.hpp
/// \brief The shared cache of §1.2: at most `k` resident pages, each owned
///        by a tenant. Pure bookkeeping — replacement decisions live in
///        ReplacementPolicy implementations.

#include <optional>

#include "trace/types.hpp"
#include "util/flat_map.hpp"

namespace ccc {

class CacheState {
 public:
  explicit CacheState(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return resident_.size(); }
  [[nodiscard]] bool full() const noexcept { return size() >= capacity_; }
  [[nodiscard]] bool contains(PageId page) const {
    return resident_.contains(page);
  }

  /// Owner of a resident page; throws if not resident.
  [[nodiscard]] TenantId owner(PageId page) const;

  /// Inserts a page with one probe. Throws if already resident or if the
  /// cache is full (the simulator must evict first — this enforces the
  /// §1.2 constraint).
  void insert(PageId page, TenantId tenant);

  /// Evicts a page with one probe and returns its owner; nullopt (and no
  /// change) if the page is not resident.
  [[nodiscard]] std::optional<TenantId> take(PageId page) {
    return resident_.take(page);
  }

  /// Resident pages and their owners (iteration order unspecified).
  [[nodiscard]] const util::FlatMap<TenantId>& pages() const noexcept {
    return resident_;
  }

  void clear() noexcept { resident_.clear(); }

 private:
  std::size_t capacity_;
  util::FlatMap<TenantId> resident_;
};

}  // namespace ccc
