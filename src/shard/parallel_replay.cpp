#include "shard/parallel_replay.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "util/check.hpp"

namespace ccc {

ParallelReplayer::ParallelReplayer(ParallelReplayOptions options)
    : options_(options), pool_(options.threads) {
  CCC_REQUIRE(options_.batch_size > 0, "batch size must be positive");
}

ParallelReplayResult ParallelReplayer::replay(const Trace& trace,
                                              ShardedCache& cache) {
  CCC_REQUIRE(trace.num_tenants() <= cache.num_tenants(),
              "trace has more tenants than the sharded cache");

  // Partition the trace by shard, preserving order within each shard.
  const std::size_t num_shards = cache.num_shards();
  std::vector<std::vector<Request>> streams(num_shards);
  for (const Request& request : trace)
    streams[cache.shard_of(request.page)].push_back(request);

  const std::size_t batch = options_.batch_size;
  const auto start = std::chrono::steady_clock::now();
  pool_.parallel_for(num_shards, [&](std::size_t s) {
    const std::vector<Request>& stream = streams[s];
    for (std::size_t begin = 0; begin < stream.size(); begin += batch) {
      const std::size_t count = std::min(batch, stream.size() - begin);
      cache.access_batch(std::span<const Request>(&stream[begin], count));
    }
  });
  const auto stop = std::chrono::steady_clock::now();

  ParallelReplayResult result;
  result.metrics = cache.aggregated_metrics();
  result.perf = cache.aggregated_perf();
  result.shard_seconds = result.perf.wall_seconds;
  result.perf.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  result.shard_requests.reserve(num_shards);
  for (const std::vector<Request>& stream : streams)
    result.shard_requests.push_back(stream.size());
  result.miss_cost = cache.global_miss_cost();
  return result;
}

}  // namespace ccc
