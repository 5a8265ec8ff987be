#include "obs/registry.hpp"

#include <ostream>
#include <stdexcept>

#include "shard/sharded_cache.hpp"
#include "util/string_util.hpp"

namespace ccc::obs {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void write_label_block(std::ostream& os, const LabelSet& labels) {
  if (labels.empty()) return;
  os << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) os << ',';
    os << labels[i].first << "=\"" << prom_escape(labels[i].second) << '"';
  }
  os << '}';
}

/// As write_label_block but with one extra label appended (histogram le=).
void write_label_block_le(std::ostream& os, const LabelSet& labels,
                          const std::string& le) {
  os << '{';
  for (const auto& [key, value] : labels)
    os << key << "=\"" << prom_escape(value) << "\",";
  os << "le=\"" << le << "\"}";
}

void write_json_labels(std::ostream& os, const LabelSet& labels) {
  os << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) os << ", ";
    os << '"' << json_escape(labels[i].first) << "\": \""
       << json_escape(labels[i].second) << '"';
  }
  os << '}';
}

}  // namespace

MetricFamily& MetricsRegistry::family(const std::string& name,
                                      const std::string& help,
                                      MetricKind kind) {
  for (MetricFamily& f : families_) {
    if (f.name != name) continue;
    if (f.kind != kind)
      throw std::invalid_argument("metric family '" + name +
                                  "' re-registered with a different kind");
    return f;
  }
  families_.push_back(MetricFamily{name, help, kind, {}, {}});
  return families_.back();
}

const MetricFamily* MetricsRegistry::find(const std::string& name) const {
  for (const MetricFamily& f : families_)
    if (f.name == name) return &f;
  return nullptr;
}

void MetricsRegistry::set_counter(const std::string& name,
                                  const std::string& help, LabelSet labels,
                                  double value) {
  family(name, help, MetricKind::kCounter)
      .scalars.push_back(ScalarSample{std::move(labels), value});
}

void MetricsRegistry::set_gauge(const std::string& name,
                                const std::string& help, LabelSet labels,
                                double value) {
  family(name, help, MetricKind::kGauge)
      .scalars.push_back(ScalarSample{std::move(labels), value});
}

void MetricsRegistry::set_histogram(const std::string& name,
                                    const std::string& help, LabelSet labels,
                                    HistogramSnapshot snapshot) {
  family(name, help, MetricKind::kHistogram)
      .histograms.push_back(
          HistogramSample{std::move(labels), std::move(snapshot)});
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  for (const MetricFamily& f : families_) {
    if (!f.help.empty()) os << "# HELP " << f.name << ' ' << f.help << '\n';
    os << "# TYPE " << f.name << ' ' << kind_name(f.kind) << '\n';
    for (const ScalarSample& s : f.scalars) {
      os << f.name;
      write_label_block(os, s.labels);
      os << ' ' << s.value << '\n';
    }
    for (const HistogramSample& h : f.histograms) {
      // Cumulative buckets over the occupied range only; `le` is the
      // bucket's inclusive upper value bound.
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h.snapshot.buckets.size(); ++i) {
        if (h.snapshot.buckets[i] == 0) continue;
        cumulative += h.snapshot.buckets[i];
        os << f.name << "_bucket";
        write_label_block_le(os, h.labels,
                             std::to_string(Histogram::bucket_high(i)));
        os << ' ' << cumulative << '\n';
      }
      os << f.name << "_bucket";
      write_label_block_le(os, h.labels, "+Inf");
      os << ' ' << h.snapshot.count << '\n';
      os << f.name << "_sum";
      write_label_block(os, h.labels);
      os << ' ' << h.snapshot.sum << '\n';
      os << f.name << "_count";
      write_label_block(os, h.labels);
      os << ' ' << h.snapshot.count << '\n';
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"metrics\": [\n";
  for (std::size_t fi = 0; fi < families_.size(); ++fi) {
    const MetricFamily& f = families_[fi];
    os << "    {\"name\": \"" << json_escape(f.name) << "\", \"kind\": \""
       << kind_name(f.kind) << "\", \"help\": \"" << json_escape(f.help)
       << "\", \"samples\": [";
    bool first = true;
    for (const ScalarSample& s : f.scalars) {
      if (!first) os << ", ";
      first = false;
      os << "{\"labels\": ";
      write_json_labels(os, s.labels);
      os << ", \"value\": " << s.value << '}';
    }
    for (const HistogramSample& h : f.histograms) {
      if (!first) os << ", ";
      first = false;
      const HistogramSnapshot& snap = h.snapshot;
      os << "{\"labels\": ";
      write_json_labels(os, h.labels);
      os << ", \"count\": " << snap.count << ", \"sum\": " << snap.sum
         << ", \"min\": " << snap.min << ", \"max\": " << snap.max
         << ", \"mean\": " << snap.mean()
         << ", \"p50\": " << snap.quantile(0.50)
         << ", \"p90\": " << snap.quantile(0.90)
         << ", \"p99\": " << snap.quantile(0.99)
         << ", \"p999\": " << snap.quantile(0.999) << ", \"buckets\": [";
      bool first_bucket = true;
      for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
        if (snap.buckets[i] == 0) continue;
        if (!first_bucket) os << ", ";
        first_bucket = false;
        os << '[' << Histogram::bucket_high(i) << ", " << snap.buckets[i]
           << ']';
      }
      os << "]}";
    }
    os << "]}" << (fi + 1 < families_.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

void snapshot_metrics(MetricsRegistry& registry, const Metrics& metrics,
                      const std::vector<CostFunctionPtr>* costs,
                      const LabelSet& extra) {
  for (TenantId t = 0; t < metrics.num_tenants(); ++t) {
    LabelSet labels = extra;
    labels.emplace_back("tenant", std::to_string(t));
    registry.set_counter("ccc_tenant_hits_total", "Cache hits per tenant",
                         labels, static_cast<double>(metrics.hits(t)));
    registry.set_counter("ccc_tenant_misses_total",
                         "Cache misses (fetches) per tenant", labels,
                         static_cast<double>(metrics.misses(t)));
    registry.set_counter("ccc_tenant_evictions_total",
                         "Evictions charged per tenant", labels,
                         static_cast<double>(metrics.evictions(t)));
    if (costs != nullptr && t < costs->size())
      registry.set_gauge(
          "ccc_tenant_miss_cost",
          "f_i(misses_i) — the tenant's share of the paper objective",
          labels,
          (*costs)[t]->value(static_cast<double>(metrics.misses(t))));
  }
}

void snapshot_perf(MetricsRegistry& registry, const PerfCounters& perf,
                   const LabelSet& extra) {
  registry.set_counter("ccc_perf_requests_total", "Requests processed",
                       extra, static_cast<double>(perf.requests));
  registry.set_counter("ccc_perf_evictions_total", "Victims chosen", extra,
                       static_cast<double>(perf.evictions));
  registry.set_counter("ccc_perf_heap_pops_total",
                       "Entries popped from victim-index heaps", extra,
                       static_cast<double>(perf.heap_pops));
  registry.set_counter("ccc_perf_stale_skips_total",
                       "Popped index entries that were stale", extra,
                       static_cast<double>(perf.stale_skips));
  registry.set_counter("ccc_perf_index_rebuilds_total",
                       "Full victim-index rebuilds", extra,
                       static_cast<double>(perf.index_rebuilds));
  registry.set_counter("ccc_perf_window_rollovers_total",
                       "Accounting-window boundary crossings", extra,
                       static_cast<double>(perf.window_rollovers));
  registry.set_counter("ccc_perf_lockfree_hits_total",
                       "Hits served by the optimistic seqlock path", extra,
                       static_cast<double>(perf.lockfree_hits));
  registry.set_gauge("ccc_perf_wall_seconds",
                     "Wall-clock time of the measured request loop", extra,
                     perf.wall_seconds);
}

void snapshot_sharded(MetricsRegistry& registry, const ShardedCache& cache,
                      const LabelSet& extra) {
  const std::vector<ShardStats> stats = cache.shard_stats();
  for (std::size_t s = 0; s < stats.size(); ++s) {
    LabelSet labels = extra;
    labels.emplace_back("shard", std::to_string(s));
    registry.set_gauge("ccc_shard_capacity_pages",
                       "Capacity currently assigned to the shard", labels,
                       static_cast<double>(stats[s].capacity));
    registry.set_gauge("ccc_shard_resident_pages",
                       "Pages resident in the shard", labels,
                       static_cast<double>(stats[s].resident));
    registry.set_counter("ccc_shard_hits_total", "Hits served by the shard",
                         labels, static_cast<double>(stats[s].hits));
    registry.set_counter("ccc_shard_misses_total",
                         "Misses served by the shard", labels,
                         static_cast<double>(stats[s].misses));
    registry.set_counter("ccc_shard_evictions_total",
                         "Evictions performed by the shard", labels,
                         static_cast<double>(stats[s].evictions));
  }
  snapshot_metrics(registry, cache.aggregated_metrics(), &cache.costs(),
                   extra);
  snapshot_perf(registry, cache.aggregated_perf(), extra);
  registry.set_gauge("ccc_global_miss_cost",
                     "Σ_i f_i(Σ_s misses_{i,s}) across all shards", extra,
                     cache.global_miss_cost());
  snapshot_costs(registry,
                 CostTracker::collect(cache).snapshot(cache.costs(),
                                                      cache.total_capacity()),
                 extra);
}

void snapshot_costs(MetricsRegistry& registry, const CostSnapshot& snap,
                    const LabelSet& extra) {
  for (std::size_t t = 0; t < snap.tenant_cost.size(); ++t) {
    LabelSet labels = extra;
    labels.emplace_back("tenant", std::to_string(t));
    registry.set_gauge("ccc_cost_total",
                       "Running ALG cost f_i(a_i) per tenant", labels,
                       snap.tenant_cost[t]);
    registry.set_gauge(
        "ccc_dual_lower_bound",
        "Per-tenant share of the certified online dual lower bound on OPT "
        "(may be negative; only the total is a certificate)",
        labels, snap.tenant_lower_bound[t]);
    registry.set_gauge(
        "ccc_competitive_ratio",
        "f_i(a_i) over the tenant's dual share; 0 = no certificate yet",
        labels, snap.tenant_ratio[t]);
  }
  registry.set_gauge("ccc_cost_total", "Running ALG cost f_i(a_i)", extra,
                     snap.cost_total);
  registry.set_gauge(
      "ccc_dual_lower_bound",
      "Certified online lower bound on the partition-respecting OPT", extra,
      snap.dual_lower_bound);
  registry.set_gauge(
      "ccc_competitive_ratio",
      "Total ALG cost over the certified lower bound; 0 = no certificate",
      extra, snap.competitive_ratio);
  registry.set_gauge("ccc_theorem11_alpha_k",
                     "Theorem 1.1 argument blow-up α·k", extra,
                     snap.theorem_alpha_k);
  registry.set_gauge(
      "ccc_theorem11_ratio_bound",
      "Theorem 1.1 value-domain ratio cap (β^β·k^β for monomials)", extra,
      snap.theorem_ratio_bound);
}

}  // namespace ccc::obs
