#pragma once
/// \file observer.hpp
/// \brief The standard `StepObserver` implementation: lock-free latency /
///        index-work histograms plus optional Chrome trace spans.
///
/// One `SimObserver` may be attached to a single `SimulatorSession`
/// (`SimOptions.step_observer`) or shared by every shard of a
/// `ShardedCache` (`ShardedCacheOptions.step_observer`): all recording
/// paths are thread-safe (relaxed atomics into `Histogram` buckets and
/// counters; the trace writer serializes on its own mutex and is opt-in).
/// Pairs of observers merge like `Metrics::merge`, so per-thread or
/// per-shard observers can also be aggregated after the fact.
///
/// Recorded signals:
///  - `step_latency_ns`: wall-clock of one simulator step, sampled every
///    `latency_sample_period` steps (1 = every step; raise it to push the
///    observation overhead down — unsampled non-eviction steps then cost
///    the session only a countdown decrement).
///  - `eviction_index_work`: heap pops + stale skips charged to each
///    eviction — the per-eviction price of the index (1 for ALG-DISCRETE,
///    which removes one heap entry and never skips). Exact per eviction
///    regardless of the sample period (every eviction step is observed).
///  - counters for steps, evictions, window rollovers, index rebuilds and
///    shard rebalances, derived from `PerfCounters` deltas. Totals are
///    exact up to the last observed step; with a sample period > 1, up to
///    period-1 trailing hit steps of each session may not be counted yet.
///  - optional spans (evictions, rollovers, rebuilds, rebalances) to a
///    `TraceEventWriter`, typically `TraceEventWriter::from_env()`
///    (`CCC_OBS_TRACE=trace.json`).
///
/// Attachment requires a `CCC_OBS=ON` build; see `StepObserver`.

#include <atomic>
#include <cstdint>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace_event.hpp"
#include "sim/simulator.hpp"

namespace ccc::obs {

struct SimObserverOptions {
  /// Time (two steady_clock reads) every Nth step; counters and the
  /// eviction histogram are recorded on every step regardless.
  std::uint64_t latency_sample_period = 1;
  /// Span sink; nullptr = no span export. Not owned.
  TraceEventWriter* trace = nullptr;
};

class SimObserver final : public StepObserver {
 public:
  explicit SimObserver(SimObserverOptions options = {});

  void on_step(const StepEvent& event, std::uint64_t latency_ns,
               const PerfCounters& before,
               const PerfCounters& after) override;
  void on_rebalance(std::span<const std::size_t> before,
                    std::span<const std::size_t> after,
                    std::uint64_t duration_ns) override;
  [[nodiscard]] std::uint64_t latency_sample_period()
      const noexcept override {
    return options_.latency_sample_period;
  }

  [[nodiscard]] const Histogram& step_latency_ns() const noexcept {
    return step_latency_ns_;
  }
  [[nodiscard]] const Histogram& eviction_index_work() const noexcept {
    return eviction_index_work_;
  }

  // Relaxed accessor loads throughout: each counter is an independent
  // monotone accumulator, so a reporting read needs no ordering.
  [[nodiscard]] std::uint64_t steps_observed() const noexcept {
    return steps_.load(std::memory_order_relaxed);
  }
  /// Every eviction records exactly one value into the index-work
  /// histogram, so its count doubles as the eviction count — one fewer
  /// atomic on the eviction path. O(buckets), reporting-only.
  [[nodiscard]] std::uint64_t evictions_observed() const noexcept {
    return eviction_index_work_.count();
  }
  [[nodiscard]] std::uint64_t rollovers_observed() const noexcept {
    return rollovers_.load(std::memory_order_relaxed);  // reporting read
  }
  [[nodiscard]] std::uint64_t rebuilds_observed() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);  // reporting read
  }
  [[nodiscard]] std::uint64_t rebalances_observed() const noexcept {
    return rebalances_.load(std::memory_order_relaxed);  // reporting read
  }

  /// Adds another observer's histograms and counters into this one
  /// (per-shard / per-thread aggregation).
  void merge(const SimObserver& other) noexcept;

  /// Dumps both histograms and all counters into `registry`, labeled with
  /// `extra`.
  void fill(MetricsRegistry& registry, const LabelSet& extra = {}) const;

 private:
  SimObserverOptions options_;
  Histogram step_latency_ns_;
  Histogram eviction_index_work_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> rollovers_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> rebalances_{0};
};

}  // namespace ccc::obs
