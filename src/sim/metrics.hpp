#pragma once
/// \file metrics.hpp
/// \brief Per-tenant accounting of hits, misses (fetches) and evictions,
///        and the two cost accountings discussed in §2.1.
///
/// The paper charges *evictions* and closes the books with a cache flush so
/// that evictions equal misses per tenant. We track both: `misses` (page
/// fetches of a tenant's pages — the quantity a_i(σ) in Theorem 1.1) and
/// `evictions` (the ICP objective's x-variables). On a flushed trace they
/// coincide; on an unflushed trace they differ by the ≤ k pages resident at
/// the end.

#include <vector>

#include "cost/cost_function.hpp"
#include "trace/types.hpp"

namespace ccc {

/// Lightweight performance counters for one simulation run: how much work
/// the policy's victim index did, and how fast the run was. Policies with
/// an index report its work; the simulator fills in requests, evictions
/// and wall-clock time. All fields are plain counts so recording them
/// costs one increment on the hot path.
///
/// ALG-DISCRETE (ConvexCachingPolicy) keeps no stale entries: `heap_pops`
/// counts one index removal per eviction, `stale_skips` stays 0 (kept for
/// the benchmark's per-layer report and any lazy index), and
/// `index_rebuilds` counts the window re-heapifies.
struct PerfCounters {
  std::uint64_t requests = 0;        ///< requests processed
  std::uint64_t evictions = 0;       ///< victims chosen (== index queries)
  std::uint64_t heap_pops = 0;       ///< entries removed from index heaps
  std::uint64_t stale_skips = 0;     ///< popped entries that were stale
  std::uint64_t index_rebuilds = 0;  ///< full index rebuilds
  std::uint64_t window_rollovers = 0;  ///< accounting-window boundary crossings
  std::uint64_t lockfree_hits = 0;   ///< hits served by the optimistic path
  double wall_seconds = 0.0;         ///< wall-clock time of the request loop

  /// Adds another run's counters into this one — *every* field, including
  /// `wall_seconds` (dropping it is exactly the aggregation bug this method
  /// exists to prevent). Summed wall-clock means "total processing time
  /// across the merged runs": for runs executed back to back it equals the
  /// elapsed time; for runs executed in parallel it is the combined
  /// CPU-side time, an upper bound on the elapsed wall-clock (which the
  /// parallel driver measures around its own section and overwrites).
  void merge(const PerfCounters& other) noexcept;

  /// Nanoseconds of wall-clock per request (0 when nothing ran).
  [[nodiscard]] double ns_per_request() const noexcept;
  /// Wall-clock seconds per one million requests (0 when nothing ran).
  [[nodiscard]] double seconds_per_million() const noexcept;
  /// Average stale entries skipped per eviction — the price of laziness.
  [[nodiscard]] double stale_skips_per_eviction() const noexcept;
};

class Metrics {
 public:
  explicit Metrics(std::uint32_t num_tenants);

  void record_hit(TenantId tenant);
  /// Adds `count` hits at once (folding in a shard's lock-free hit tally).
  void record_hits(TenantId tenant, std::uint64_t count);
  void record_miss(TenantId tenant);
  void record_eviction(TenantId tenant);

  /// Adds another run's per-tenant counts into this one (cross-shard
  /// aggregation). Throws if the tenant counts differ.
  void merge(const Metrics& other);

  [[nodiscard]] std::uint32_t num_tenants() const noexcept {
    return static_cast<std::uint32_t>(hits_.size());
  }
  [[nodiscard]] std::uint64_t hits(TenantId tenant) const;
  [[nodiscard]] std::uint64_t misses(TenantId tenant) const;
  [[nodiscard]] std::uint64_t evictions(TenantId tenant) const;

  [[nodiscard]] std::uint64_t total_hits() const noexcept;
  [[nodiscard]] std::uint64_t total_misses() const noexcept;
  [[nodiscard]] std::uint64_t total_evictions() const noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& miss_vector() const noexcept {
    return misses_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& eviction_vector()
      const noexcept {
    return evictions_;
  }

 private:
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::uint64_t> evictions_;
};

/// Σ_i f_i(x_i) — the paper's objective applied to a per-tenant count
/// vector. `costs` may be longer than `counts` is wide; extra tenants
/// (e.g. the zero-cost flush tenant) must carry explicit cost functions.
[[nodiscard]] double total_cost(const std::vector<std::uint64_t>& counts,
                                const std::vector<CostFunctionPtr>& costs);

/// Builds n identical cost functions (one clone per tenant).
[[nodiscard]] std::vector<CostFunctionPtr> uniform_costs(
    const CostFunction& prototype, std::uint32_t num_tenants);

}  // namespace ccc
