#pragma once
/// \file alloc_counter.hpp
/// \brief Process-wide count of `operator new` calls, from the replacement
///        allocation functions in alloc_counter.cpp. Read it before and after
///        a section to count the section's heap allocations (all threads).

#include <cstdint>

namespace perfbench {

[[nodiscard]] std::uint64_t heap_allocs() noexcept;

}  // namespace perfbench
