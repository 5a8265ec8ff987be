#pragma once
/// \file parallel_replay.hpp
/// \brief Multi-threaded trace replay against a ShardedCache.
///
/// The trace is partitioned *by shard* — shard s's subsequence, in trace
/// order — and the per-shard streams are executed across a worker pool in
/// chunks of `batch_size` via access_batch. Because each shard's requests
/// are replayed in trace order by exactly one in-flight task at a time,
/// per-shard victim sequences (and therefore all aggregated counts) are
/// identical for every thread count: the replay is a deterministic
/// scaling experiment, not a race. Wall-clock is measured around the
/// parallel section only; cross-shard request *interleaving* is the one
/// thing that varies with scheduling, which is exactly the freedom the
/// sharded decomposition grants (shards share no state).

#include <cstddef>
#include <vector>

#include "shard/sharded_cache.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace ccc {

struct ParallelReplayOptions {
  std::size_t threads = 0;       ///< worker threads; 0 = hardware concurrency
  std::size_t batch_size = 1024; ///< requests per access_batch call
};

struct ParallelReplayResult {
  Metrics metrics{1};            ///< aggregated across shards
  /// Aggregated counters. `perf.wall_seconds` is the *elapsed* time of the
  /// parallel section (what throughput is computed from); the summed
  /// per-shard processing time that ShardedCache::aggregated_perf reports
  /// is preserved in `shard_seconds` below.
  PerfCounters perf;
  /// Σ over shards of in-lock processing time. shard_seconds / (threads ×
  /// perf.wall_seconds) is the parallel efficiency of the replay.
  double shard_seconds = 0.0;
  double miss_cost = 0.0;        ///< Σ_i f_i(misses_i)
  std::vector<std::uint64_t> shard_requests;  ///< trace share per shard
};

class ParallelReplayer {
 public:
  explicit ParallelReplayer(ParallelReplayOptions options = {});

  /// Replays `trace` against `cache` and returns the aggregated books.
  /// The cache is *not* reset — chain calls to replay phased workloads.
  /// Throws std::invalid_argument if the trace's tenant count exceeds the
  /// cache's.
  ParallelReplayResult replay(const Trace& trace, ShardedCache& cache);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return pool_.thread_count();
  }

 private:
  ParallelReplayOptions options_;
  ThreadPool pool_;
};

}  // namespace ccc
