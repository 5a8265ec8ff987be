#include "rungs.hpp"

#include <algorithm>
#include <span>

#include "alloc_counter.hpp"
#include "core/convex_caching.hpp"
#include "shard/parallel_replay.hpp"

namespace perfbench {
namespace {

/// Steps per timed sim chunk (one span each).
constexpr std::size_t kSimChunk = 4096;
/// Bounds on timed passes per rung: enough for a median, and a cap so a
/// very fast rung does not spend its whole budget on bookkeeping.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 200;

double nanos(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Calls `pass(p)` for p = 0, 1, ... until `budget_s` has elapsed (at least
/// kMinPasses, at most kMaxPasses times); returns the number of passes.
template <class PassFn>
std::size_t run_passes(double budget_s, PassFn&& pass) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  std::size_t p = 0;
  do {
    pass(p);
    ++p;
  } while (p < kMinPasses || (p < kMaxPasses && Clock::now() < deadline));
  return p;
}

ccc::PerfCounters minus(const ccc::PerfCounters& a,
                        const ccc::PerfCounters& b) {
  ccc::PerfCounters d;
  d.requests = a.requests - b.requests;
  d.evictions = a.evictions - b.evictions;
  d.heap_pops = a.heap_pops - b.heap_pops;
  d.stale_skips = a.stale_skips - b.stale_skips;
  d.index_rebuilds = a.index_rebuilds - b.index_rebuilds;
  d.window_rollovers = a.window_rollovers - b.window_rollovers;
  d.lockfree_hits = a.lockfree_hits - b.lockfree_hits;
  d.wall_seconds = a.wall_seconds - b.wall_seconds;
  return d;
}

/// One pass through access_batch in kBatch chunks. With `batch_ns` each
/// call is timed; with `log` each call is also recorded as a span.
void batch_pass(ccc::ShardedCache& cache, const ccc::Trace& trace,
                std::vector<ccc::StepEvent>& events,
                std::vector<double>* batch_ns, SpanLog* log,
                const char* span_name) {
  const std::vector<ccc::Request>& all = trace.requests();
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    const std::span<const ccc::Request> batch(
        all.data() + i, std::min(kBatch, all.size() - i));
    events.clear();
    if (batch_ns == nullptr) {
      cache.access_batch(batch, events);
      continue;
    }
    const Clock::time_point start = Clock::now();
    cache.access_batch(batch, events);
    const Clock::time_point end = Clock::now();
    batch_ns->push_back(nanos(end - start));
    if (log != nullptr)
      log->add(log->next_id(), span_name, 0, i / kBatch, start, end);
  }
}

}  // namespace

Books books_of(const ccc::Metrics& metrics) {
  Books books;
  for (ccc::TenantId t = 0; t < metrics.num_tenants(); ++t) {
    books.hits.push_back(metrics.hits(t));
    books.misses.push_back(metrics.misses(t));
    books.evictions.push_back(metrics.evictions(t));
  }
  return books;
}

Books replay_sim(const ccc::Trace& trace,
                 const std::vector<ccc::CostFunctionPtr>& costs,
                 std::size_t capacity, std::uint64_t seed,
                 std::size_t passes) {
  ccc::ConvexCachingPolicy policy;
  ccc::SimOptions options;
  options.seed = seed;
  ccc::SimulatorSession session(capacity, trace.num_tenants(), policy, &costs,
                                options);
  for (std::size_t p = 0; p < passes; ++p)
    for (const ccc::Request& request : trace) session.step(request);
  return books_of(session.metrics());
}

Books replay_sharded(const ccc::Trace& trace,
                     const std::vector<ccc::CostFunctionPtr>& costs,
                     const ccc::ShardedCacheOptions& options,
                     std::size_t passes) {
  ccc::ShardedCache cache(options, nullptr, &costs);
  std::vector<ccc::StepEvent> events;
  for (std::size_t p = 0; p < passes; ++p)
    batch_pass(cache, trace, events, nullptr, nullptr, "");
  return books_of(cache.aggregated_metrics());
}

SimRung time_sim(const ccc::Trace& trace,
                 const std::vector<ccc::CostFunctionPtr>& costs,
                 std::size_t capacity, std::uint64_t seed, double budget_s,
                 SpanLog& log) {
  ccc::ConvexCachingPolicy policy;
  ccc::SimOptions options;
  options.seed = seed;
  ccc::SimulatorSession session(capacity, trace.num_tenants(), policy, &costs,
                                options);
  for (const ccc::Request& request : trace) session.step(request);  // warm-up

  const std::vector<ccc::Request>& all = trace.requests();
  SimRung rung;
  std::vector<double> pass_ns;
  pass_ns.reserve(kMaxPasses);
  log.reserve(all.size() / kSimChunk + 1);
  std::uint64_t allocs = 0;
  const std::size_t passes = run_passes(budget_s, [&](std::size_t p) {
    SpanLog* record = p == 0 ? &log : nullptr;
    const ccc::PerfCounters before = session.perf_counters();
    const std::uint64_t allocs_before = heap_allocs();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < all.size(); i += kSimChunk) {
      const Clock::time_point chunk_start =
          record != nullptr ? Clock::now() : Clock::time_point{};
      const std::size_t end = std::min(all.size(), i + kSimChunk);
      for (std::size_t j = i; j < end; ++j) session.step(all[j]);
      if (record != nullptr)
        record->add(record->next_id(), "sim.step_chunk", 0, i / kSimChunk,
                    chunk_start, Clock::now());
    }
    const double elapsed_ns = nanos(Clock::now() - start);
    allocs += heap_allocs() - allocs_before;
    pass_ns.push_back(elapsed_ns / static_cast<double>(all.size()));
    if (p == 0) rung.first_pass = minus(session.perf_counters(), before);
  });
  rung.ns_per_req = median(pass_ns);
  rung.allocs_per_kreq = static_cast<double>(allocs) * 1000.0 /
                         static_cast<double>(passes * all.size());
  return rung;
}

ShardRung time_shard(const char* span_name, const ccc::Trace& trace,
                     const std::vector<ccc::CostFunctionPtr>& costs,
                     const ccc::ShardedCacheOptions& options, double budget_s,
                     SpanLog& log) {
  ccc::ShardedCache cache(options, nullptr, &costs);
  std::vector<ccc::StepEvent> events;
  events.reserve(kBatch);
  batch_pass(cache, trace, events, nullptr, nullptr, "");  // warm-up

  const std::size_t batches = (trace.size() + kBatch - 1) / kBatch;
  ShardRung rung;
  std::vector<double> pass_ns;
  std::vector<double> pass_p99_us;
  std::vector<double> batch_ns;
  pass_ns.reserve(kMaxPasses);
  pass_p99_us.reserve(kMaxPasses);
  batch_ns.reserve(batches);
  log.reserve(batches);
  std::uint64_t allocs = 0;
  const std::size_t passes = run_passes(budget_s, [&](std::size_t p) {
    const ccc::PerfCounters perf_before = cache.aggregated_perf();
    const std::uint64_t hits_before = cache.aggregated_metrics().total_hits();
    batch_ns.clear();
    const std::uint64_t allocs_before = heap_allocs();
    const Clock::time_point start = Clock::now();
    batch_pass(cache, trace, events, &batch_ns, p == 0 ? &log : nullptr,
               span_name);
    const double elapsed_ns = nanos(Clock::now() - start);
    allocs += heap_allocs() - allocs_before;
    pass_ns.push_back(elapsed_ns / static_cast<double>(trace.size()));
    pass_p99_us.push_back(quantile(batch_ns, 0.99) / 1e3);
    if (p == 0) {
      const std::uint64_t hits =
          cache.aggregated_metrics().total_hits() - hits_before;
      const std::uint64_t lockfree =
          cache.aggregated_perf().lockfree_hits - perf_before.lockfree_hits;
      rung.lockfree_frac = hits == 0 ? 0.0
                                     : static_cast<double>(lockfree) /
                                           static_cast<double>(hits);
    }
  });
  rung.ns_per_req = median(pass_ns);
  rung.batch_p99_us = median(pass_p99_us);
  rung.allocs_per_batch = static_cast<double>(allocs) /
                          static_cast<double>(passes * batches);
  return rung;
}

double time_replay(const ccc::Trace& trace,
                   const std::vector<ccc::CostFunctionPtr>& costs,
                   const ccc::ShardedCacheOptions& options, double budget_s) {
  ccc::ShardedCache cache(options, nullptr, &costs);
  ccc::ParallelReplayOptions replay_options;
  replay_options.threads = kReplayThreads;
  replay_options.batch_size = kBatch;
  ccc::ParallelReplayer replayer(replay_options);
  (void)replayer.replay(trace, cache);  // warm-up

  std::vector<double> rps;
  run_passes(budget_s, [&](std::size_t) {
    const double wall = replayer.replay(trace, cache).perf.wall_seconds;
    rps.push_back(static_cast<double>(trace.size()) / wall);
  });
  return median(rps);
}

}  // namespace perfbench
