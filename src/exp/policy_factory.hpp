#pragma once
/// \file policy_factory.hpp
/// \brief Name-based policy construction for benchmark/example CLIs.
///
/// Known names: lru, clock, 2q, arc, fifo, lfu, random, marking, lru2
/// (LRU-K with K=2), landlord, static (equal-quota static partition),
/// convex (ALG-DISCRETE, O(log k + log n) eviction index), convex-naive
/// (the literal Fig. 3 transcription, O(k) per eviction), convex-discrete
/// (§2.5 marginals), belady (offline).

#include <memory>
#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace ccc {

/// Constructs a policy by name; throws std::invalid_argument for unknown
/// names (message lists the valid ones).
[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_policy(
    const std::string& name);

/// All online policy names (excludes offline `belady`) — the default
/// comparison set of experiment E4.
[[nodiscard]] std::vector<std::string> online_policy_names();

}  // namespace ccc
