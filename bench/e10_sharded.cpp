/// \file e10_sharded.cpp
/// \brief Experiment E10 — sharded-frontend scaling study.
///
/// Sweeps shard counts × worker threads × hit paths × cost families over
/// one fixed Zipf-skewed multi-tenant trace and reports, per cell:
///
///   - throughput (wall-clock of the parallel replay section, Mreq/s) and
///     the speedup over the 1-shard × 1-thread cell of the same family;
///   - the *partitioning cost*: Σ_i f_i(misses_i) of the sharded run
///     divided by the same objective for the unsharded ALG-DISCRETE replay
///     (E1/E6's single SimulatorSession) on the identical trace. Sharding
///     buys parallelism by pinning capacity to page subsets; this ratio is
///     what that costs in the paper's objective.
///
/// Results are emitted as JSON (default BENCH_sharded.json) next to the
/// ASCII table, in the same shape CI archives for e6.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/convex_caching.hpp"
#include "cost/spec.hpp"
#include "harness.hpp"
#include "obs/observer.hpp"
#include "obs/registry.hpp"
#include "obs/trace_event.hpp"
#include "shard/parallel_replay.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace ccc {
namespace {

struct BenchRow {
  std::string cost_family;
  std::string hitpath;  ///< "locked" or "seqlock"
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::size_t capacity = 0;
  PerfCounters perf;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double miss_cost = 0.0;
  double speedup = 0.0;     ///< vs the 1-shard/1-thread cell, same family
  double cost_ratio = 0.0;  ///< miss_cost / unsharded miss_cost
  double shard_seconds = 0.0;  ///< Σ per-shard in-lock time
};

void write_json(const std::string& path, const Cli& cli, std::size_t tenants,
                const std::vector<BenchRow>& rows,
                const std::vector<std::pair<std::string, double>>& baselines) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"e10_sharded\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"config\": {\n";
  os << "    \"requests\": " << cli.get_u64("requests") << ",\n";
  os << "    \"tenants\": " << tenants << ",\n";
  os << "    \"pages_per_tenant\": " << cli.get_u64("pages-per-tenant")
     << ",\n";
  os << "    \"k_per_tenant\": " << cli.get_u64("k-per-tenant") << ",\n";
  os << "    \"skew\": " << cli.get_double("skew") << ",\n";
  os << "    \"seed\": " << cli.get_u64("seed") << ",\n";
  os << "    \"batch\": " << cli.get_u64("batch") << ",\n";
  os << "    \"shards\": \"" << json_escape(cli.get("shards")) << "\",\n";
  os << "    \"threads\": \"" << json_escape(cli.get("threads")) << "\",\n";
  os << "    \"hitpaths\": \"" << json_escape(cli.get("hitpaths")) << "\",\n";
  os << "    \"costs\": \"" << json_escape(cli.get("costs")) << "\"\n";
  os << "  },\n";
  os << "  \"unsharded_baselines\": {";
  for (std::size_t i = 0; i < baselines.size(); ++i)
    os << (i ? ", " : "") << "\"" << json_escape(baselines[i].first)
       << "\": " << baselines[i].second;
  os << "},\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    os << "    {\"cost\": \"" << json_escape(r.cost_family)
       << "\", \"hitpath\": \"" << json_escape(r.hitpath)
       << "\", \"shards\": " << r.shards << ", \"threads\": " << r.threads
       << ", \"capacity\": " << r.capacity
       << ", \"requests\": " << r.perf.requests
       << ", \"wall_seconds\": " << r.perf.wall_seconds
       << ", \"ns_per_request\": " << r.perf.ns_per_request()
       << ", \"requests_per_second\": "
       << (r.perf.wall_seconds > 0.0
               ? static_cast<double>(r.perf.requests) / r.perf.wall_seconds
               : 0.0)
       << ", \"speedup_vs_1shard\": " << r.speedup
       << ", \"shard_seconds\": " << r.shard_seconds
       << ", \"hits\": " << r.hits << ", \"misses\": " << r.misses
       << ", \"evictions\": " << r.perf.evictions
       << ", \"lockfree_hits\": " << r.perf.lockfree_hits
       << ", \"miss_cost\": " << r.miss_cost
       << ", \"cost_ratio_vs_unsharded\": " << r.cost_ratio << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << os.str();
  std::cout << "wrote " << path << "\n";
}

int run(int argc, const char* const* argv) {
  Cli cli(
      "E10 — sharded concurrent frontend: throughput scaling across shard "
      "and thread counts, and the competitive-cost degradation partitioning "
      "causes vs the unsharded ALG-DISCRETE replay; emits JSON for CI");
  cli.flag("shards", "1,2,4,8", "comma-separated shard counts to sweep")
      .flag("threads", "1,2,4,8", "comma-separated worker thread counts")
      .flag("hitpaths", "locked",
            "comma-separated hit paths to sweep: locked,seqlock (seqlock "
            "serves fresh hits lock-free via the flat residency tables)")
      .flag("costs", "mono2", "cost families: mono2,mono3,linear,sla")
      .flag("tenants", "64", "tenant count")
      .flag("requests", "1000000", "requests per measured run")
      .flag("pages-per-tenant", "64", "page universe per tenant")
      .flag("k-per-tenant", "8", "cache capacity = k-per-tenant × tenants")
      .flag("skew", "0.9", "Zipf skew of every tenant's stream")
      .flag("batch", "1024", "requests per access_batch call")
      .flag("seed", "1234", "trace generator seed")
      .flag("obs", "0",
            "1 = share one SimObserver across every cell's shards and dump "
            "latency/eviction histograms plus all counters next to the "
            "bench JSON")
      .flag("obs-cadence", "8",
            "observed cells: time every Nth step (1 = every step)")
      .flag("json", "BENCH_sharded.json", "output JSON path (empty = none)");
  if (!cli.parse(argc, argv)) return 0;

  const auto tenants = static_cast<std::uint32_t>(cli.get_u64("tenants"));
  const auto shard_counts = cli.get_u64_list("shards");
  const auto thread_counts = cli.get_u64_list("threads");
  const auto hitpath_names = split(cli.get("hitpaths"), ',');
  for (const std::string& name : hitpath_names)
    if (name != "locked" && name != "seqlock")
      throw std::invalid_argument("unknown hit path '" + name +
                                  "'; valid: locked seqlock");
  const auto families = split(cli.get("costs"), ',');
  const auto requests = static_cast<std::size_t>(cli.get_u64("requests"));
  const std::size_t capacity =
      static_cast<std::size_t>(cli.get_u64("k-per-tenant")) * tenants;
  const auto batch = static_cast<std::size_t>(cli.get_u64("batch"));
  const bool observe = cli.get_bool("obs");
  const std::uint64_t obs_cadence =
      std::max<std::uint64_t>(1, cli.get_u64("obs-cadence"));
  const std::unique_ptr<obs::TraceEventWriter> trace_writer =
      observe ? obs::TraceEventWriter::from_env() : nullptr;
  obs::MetricsRegistry obs_registry;

  const Trace trace = bench::make_zipf_trace(
      tenants, cli.get_u64("pages-per-tenant"), cli.get_double("skew"),
      requests, cli.get_u64("seed"));

  std::vector<BenchRow> rows;
  std::vector<std::pair<std::string, double>> baselines;
  Table table({"cost", "hitpath", "shards", "threads", "ns/req", "Mreq/s",
               "speedup", "miss_cost", "cost_ratio"});

  for (const std::string& family : families) {
    const auto costs = make_rotated_costs(family, tenants);

    // Unsharded reference: one ALG-DISCRETE over the whole cache — the
    // cost yardstick every sharded cell is divided by.
    ConvexCachingPolicy unsharded;
    const SimResult reference = run_trace(trace, capacity, unsharded, &costs);
    const double unsharded_cost =
        total_cost(reference.metrics.miss_vector(), costs);
    baselines.emplace_back(family, unsharded_cost);
    std::cout << family << " unsharded: "
              << reference.perf.ns_per_request() << " ns/req, cost "
              << format_compact(unsharded_cost) << "\n";

    for (const std::string& hitpath_name : hitpath_names) {
      // 1-shard/1-thread wall-clock of this family × hit path. Latched on
      // the first cell exactly once: the old `base_wall == 0.0` re-latch
      // made a later cell the baseline whenever the first one timed at
      // zero, silently inflating every speedup in the family.
      double base_wall = 0.0;
      bool have_base = false;
      for (const std::uint64_t s64 : shard_counts) {
        for (const std::uint64_t t64 : thread_counts) {
          const auto num_shards = static_cast<std::size_t>(s64);
          const auto num_threads = static_cast<std::size_t>(t64);

          ShardedCacheOptions options;
          options.capacity = capacity;
          options.num_shards = num_shards;
          options.num_tenants = tenants;
          options.seed = cli.get_u64("seed");
          options.hit_path = hitpath_name == "seqlock" ? HitPath::kSeqlock
                                                       : HitPath::kLocked;
          std::unique_ptr<obs::SimObserver> observer;
          if (observe) {
            obs::SimObserverOptions observer_options;
            observer_options.latency_sample_period = obs_cadence;
            observer_options.trace = trace_writer.get();
            observer = std::make_unique<obs::SimObserver>(observer_options);
            options.step_observer = observer.get();
          }
          ShardedCache cache(options, make_convex_factory(), &costs);

          ParallelReplayOptions replay_options;
          replay_options.threads = num_threads;
          replay_options.batch_size = batch;
          ParallelReplayer replayer(replay_options);
          const ParallelReplayResult result = replayer.replay(trace, cache);

          BenchRow row;
          row.cost_family = family;
          row.hitpath = hitpath_name;
          row.shards = num_shards;
          row.threads = num_threads;
          row.capacity = capacity;
          row.perf = result.perf;
          row.hits = result.metrics.total_hits();
          row.misses = result.metrics.total_misses();
          row.miss_cost = result.miss_cost;
          row.shard_seconds = result.shard_seconds;
          if (observer != nullptr) {
            const obs::LabelSet labels{
                {"cost", family},
                {"hitpath", hitpath_name},
                {"shards", std::to_string(num_shards)},
                {"threads", std::to_string(num_threads)}};
            observer->fill(obs_registry, labels);
            obs::snapshot_perf(obs_registry, result.perf, labels);
            obs::snapshot_sharded(obs_registry, cache, labels);
          }
          if (!have_base) {
            base_wall = result.perf.wall_seconds;
            have_base = true;
            if (base_wall <= 0.0)
              std::cerr << "warning: " << family
                        << " baseline cell reported zero wall_seconds; "
                           "speedups for this family are unreliable\n";
          }
          row.speedup =
              result.perf.wall_seconds > 0.0 && base_wall > 0.0
                  ? base_wall / result.perf.wall_seconds
                  : 0.0;
          row.cost_ratio =
              unsharded_cost > 0.0 ? row.miss_cost / unsharded_cost : 0.0;

          table.add(family, hitpath_name, num_shards, num_threads,
                    row.perf.ns_per_request(),
                    row.perf.wall_seconds > 0.0
                        ? static_cast<double>(row.perf.requests) /
                              (row.perf.wall_seconds * 1e6)
                        : 0.0,
                    row.speedup, row.miss_cost, row.cost_ratio);
          std::cout << family << " " << hitpath_name << " S=" << num_shards
                    << " T=" << num_threads << ": "
                    << row.perf.ns_per_request() << " ns/req, "
                    << "speedup " << format_double(row.speedup, 2)
                    << ", cost ratio " << format_double(row.cost_ratio, 3)
                    << "\n";
          rows.push_back(std::move(row));
        }
      }
    }
  }

  std::cout << "\n" << table.to_ascii() << "\n";
  const std::string json_path = cli.get("json");
  if (!json_path.empty()) write_json(json_path, cli, tenants, rows, baselines);
  if (observe && !json_path.empty())
    bench::write_obs_outputs(obs_registry, json_path);
  return 0;
}

}  // namespace
}  // namespace ccc

int main(int argc, char** argv) {
  try {
    return ccc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e10_sharded: " << e.what() << "\n";
    return 1;
  }
}
