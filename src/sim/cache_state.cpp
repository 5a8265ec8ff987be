#include "sim/cache_state.hpp"

#include "util/check.hpp"

namespace ccc {

CacheState::CacheState(std::size_t capacity) : capacity_(capacity) {
  CCC_REQUIRE(capacity > 0, "cache capacity must be positive");
  resident_.reserve(capacity);
}

TenantId CacheState::owner(PageId page) const {
  const auto it = resident_.find(page);
  CCC_REQUIRE(it != resident_.end(), "page is not resident");
  return it->second;
}

void CacheState::insert(PageId page, TenantId tenant) {
  CCC_REQUIRE(!full(), "inserting into a full cache — evict first");
  CCC_REQUIRE(resident_.try_emplace(page, tenant), "page is already resident");
}

void CacheState::set_capacity(std::size_t capacity) {
  CCC_REQUIRE(capacity > 0, "cache capacity must be positive");
  capacity_ = capacity;
}

}  // namespace ccc
