#pragma once
/// \file registry.hpp
/// \brief Named counter/gauge/histogram registry with Prometheus
///        text-exposition and JSON writers.
///
/// The registry is a *snapshot* container, not a live instrumentation
/// surface: the hot path records into lock-free `Histogram`s and plain
/// counters owned by `SimObserver`; at exposition time a snapshot of
/// everything — per-tenant hits/misses/cost, per-shard capacity/residency,
/// all `PerfCounters`, the histograms — is dumped into a registry and
/// serialized. That keeps string handling and maps entirely off the
/// request path.
///
/// Families are emitted in registration order. Within a family, samples
/// keep insertion order too, so output is deterministic and diffable.
///
/// Thread-safety contract: externally synchronized. A registry is built
/// and serialized by one thread at a time (snapshot-at-exposition by
/// design, see above), so it carries no mutex and no CCC_GUARDED_BY
/// annotations — adding a lock here would suggest the hot path may touch
/// it concurrently, which is exactly what the design rules out
/// (DESIGN.md §11).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/cost_tracker.hpp"
#include "obs/histogram.hpp"
#include "sim/metrics.hpp"

namespace ccc {
class ShardedCache;
}  // namespace ccc

namespace ccc::obs {

/// Ordered label set, e.g. {{"tenant","3"},{"policy","convex"}}.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

struct ScalarSample {
  LabelSet labels;
  double value = 0.0;
};

struct HistogramSample {
  LabelSet labels;
  HistogramSnapshot snapshot;
};

/// One named metric family: all samples of one name share a kind and help.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kGauge;
  std::vector<ScalarSample> scalars;       ///< counter/gauge samples
  std::vector<HistogramSample> histograms; ///< histogram samples
};

class MetricsRegistry {
 public:
  /// Adds a sample to the named family, creating it on first use. A name
  /// must keep one kind for its lifetime (throws std::invalid_argument on
  /// a kind clash — Prometheus rejects mixed families).
  void set_counter(const std::string& name, const std::string& help,
                   LabelSet labels, double value);
  void set_gauge(const std::string& name, const std::string& help,
                 LabelSet labels, double value);
  void set_histogram(const std::string& name, const std::string& help,
                     LabelSet labels, HistogramSnapshot snapshot);

  [[nodiscard]] const std::vector<MetricFamily>& families() const noexcept {
    return families_;
  }
  /// The family registered under `name`, or nullptr.
  [[nodiscard]] const MetricFamily* find(const std::string& name) const;

  /// Prometheus text exposition format 0.0.4: `# HELP` / `# TYPE` headers,
  /// one line per sample; histograms expand to cumulative `_bucket{le=}`
  /// lines plus `_sum` and `_count`. Only non-empty buckets up to the
  /// highest occupied one are listed (plus the mandatory `+Inf`).
  void write_prometheus(std::ostream& os) const;

  /// JSON document: {"metrics":[{name, kind, help, samples:[...]}]}.
  /// Histogram samples carry count/sum/min/max/mean, p50/p90/p99/p999 and
  /// the non-empty buckets as [upper_bound, count] pairs.
  void write_json(std::ostream& os) const;

 private:
  MetricFamily& family(const std::string& name, const std::string& help,
                       MetricKind kind);

  std::vector<MetricFamily> families_;
};

/// Per-tenant books: hits/misses/evictions counters and — when `costs` is
/// non-null — each tenant's share f_i(misses_i) of the paper objective,
/// all labeled {tenant=}. `extra` labels are appended to every sample.
void snapshot_metrics(MetricsRegistry& registry, const Metrics& metrics,
                      const std::vector<CostFunctionPtr>* costs,
                      const LabelSet& extra = {});

/// Every PerfCounters field as a counter (wall_seconds as a gauge in
/// seconds), labeled with `extra`.
void snapshot_perf(MetricsRegistry& registry, const PerfCounters& perf,
                   const LabelSet& extra = {});

/// Per-shard capacity/residency/hits/misses/evictions gauges {shard=},
/// the aggregated per-tenant books, the aggregated PerfCounters and the
/// live competitive-ratio gauges of snapshot_costs, all for a sharded
/// frontend.
void snapshot_sharded(MetricsRegistry& registry, const ShardedCache& cache,
                      const LabelSet& extra = {});

/// Live competitive-ratio telemetry from an evaluated CostSnapshot:
/// per-tenant `ccc_cost_total` / `ccc_dual_lower_bound` /
/// `ccc_competitive_ratio` gauges {tenant=}, their unlabeled totals, and
/// the Theorem 1.1 prediction gauges `ccc_theorem11_alpha_k` /
/// `ccc_theorem11_ratio_bound`. Ratio gauges read 0 while no positive
/// dual certificate exists — dashboards and the nightly bound check skip
/// zeros instead of dividing by nothing.
void snapshot_costs(MetricsRegistry& registry, const CostSnapshot& snap,
                    const LabelSet& extra = {});

}  // namespace ccc::obs
