#pragma once
/// \file rungs.hpp
/// \brief The in-process rungs of the layer ladder, timed from outside
///        through each layer's public API, and the untimed replays the
///        cross-layer book checks compare.
///
/// Rungs, bottom to top:
///   sim       SimulatorSession::step over ALG-DISCRETE, unsharded, full
///             capacity, one thread;
///   shard     ShardedCache::access_batch, batch kBatch, 1 or 4 shards, on
///             the locked or the seqlock hit path, one thread;
///   replay    ParallelReplayer::replay, kReplayThreads threads, 4 shards;
/// and above them the server rung (loadgen.hpp). Every rung replays the
/// same generated trace: one pass to warm up, then whole passes until its
/// time budget is spent. Times are medians over passes; counts come from
/// the first timed pass, so they repeat exactly for a seed.

#include <cstdint>
#include <string>
#include <vector>

#include "shard/sharded_cache.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

inline constexpr std::size_t kBatch = 256;
inline constexpr std::size_t kReplayThreads = 2;

/// Per-tenant books.
struct Books {
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> misses;
  std::vector<std::uint64_t> evictions;

  friend bool operator==(const Books&, const Books&) = default;
};

[[nodiscard]] Books books_of(const ccc::Metrics& metrics);

/// Books after `passes` back-to-back passes over `trace` through the sim
/// rung's configuration (seeded like shard 0 of a ShardedCache).
[[nodiscard]] Books replay_sim(const ccc::Trace& trace,
                               const std::vector<ccc::CostFunctionPtr>& costs,
                               std::size_t capacity, std::uint64_t seed,
                               std::size_t passes);

/// Books after `passes` back-to-back passes over `trace` through
/// access_batch in chunks of kBatch, single-threaded.
[[nodiscard]] Books replay_sharded(
    const ccc::Trace& trace, const std::vector<ccc::CostFunctionPtr>& costs,
    const ccc::ShardedCacheOptions& options, std::size_t passes);

struct SimRung {
  double ns_per_req = 0.0;
  double allocs_per_kreq = 0.0;
  ccc::PerfCounters first_pass;  ///< counter deltas over the first timed pass
};

[[nodiscard]] SimRung time_sim(const ccc::Trace& trace,
                               const std::vector<ccc::CostFunctionPtr>& costs,
                               std::size_t capacity, std::uint64_t seed,
                               double budget_s, SpanLog& log);

struct ShardRung {
  double ns_per_req = 0.0;
  double batch_p99_us = 0.0;      ///< per access_batch call
  double allocs_per_batch = 0.0;
  double lockfree_frac = 0.0;     ///< lock-free hits ÷ hits, first timed pass
};

[[nodiscard]] ShardRung time_shard(
    const char* span_name, const ccc::Trace& trace,
    const std::vector<ccc::CostFunctionPtr>& costs,
    const ccc::ShardedCacheOptions& options, double budget_s, SpanLog& log);

/// Requests per second through ParallelReplayer::replay.
[[nodiscard]] double time_replay(
    const ccc::Trace& trace, const std::vector<ccc::CostFunctionPtr>& costs,
    const ccc::ShardedCacheOptions& options, double budget_s);

}  // namespace perfbench
