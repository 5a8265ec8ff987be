/// \file e6_throughput.cpp
/// \brief Experiment E6 — request-processing throughput harness.
///
/// Adoption-grade numbers: nanoseconds per request across tenant counts,
/// cache sizes and cost families, on Zipf-skewed multi-tenant streams. The
/// point of ALG-DISCRETE's eviction index is that per-request work is
/// O(log k_i + log n); the `convex-naive` rows (the literal Fig. 3
/// transcription, O(k) per eviction) grow with the cache while `convex`
/// stays nearly flat.
///
/// Every run is also written as machine-readable JSON (default
/// `BENCH_throughput.json`) so CI can track the perf trajectory:
///
///   e6_throughput --tenants 16,256,4096,65536
///                 --policies convex,convex-naive,lru --json out.json
///
/// `convex-naive` is auto-skipped above `--max-naive-tenants` (its O(k)
/// blow-up is the point; no need to wait hours for it) and the skip is
/// recorded in the JSON.
///
/// Two pseudo-policies route the trace through a 1-shard ShardedCache
/// instead of a bare SimulatorSession, measuring the frontend's hit paths
/// under identical decisions: `sharded-locked` (every request takes the
/// shard mutex) and `sharded-seqlock` (fresh hits bypass it via the
/// optimistic flat-table probe). Both are timed externally around the
/// access loop — the seqlock path deliberately does no per-request
/// bookkeeping — and after the sweep the harness *asserts* that every
/// locked/seqlock cell pair produced identical hits/misses/evictions:
/// the optimistic path must buy speed, never different decisions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/convex_caching.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "exp/policy_factory.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

#ifdef CCC_AUDIT_ENABLED
#include "audit/audit.hpp"
#endif

#include "obs/observer.hpp"
#include "obs/registry.hpp"
#include "obs/trace_event.hpp"

// ----------------------------------------------------------------------
// Counting operator new/delete replacements (whole-binary, this TU only
// links into e6). The --alloc-stats probes snapshot the counter around a
// steady-state replay to assert the eviction path performs zero heap
// allocations per request once every table has reached its size. The
// relaxed increment costs ~1ns per *allocation* — and the claim under
// test is precisely that steady-state cells allocate nothing, so the
// hook cannot skew the throughput numbers it rides along with.
// ----------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc requires size to be a multiple of the alignment.
  size = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
// Deletes must pair with the malloc-family allocators above (the default
// ones are not guaranteed to be free()-compatible).
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ccc {
namespace {

std::uint64_t heap_alloc_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

Trace make_trace(std::uint32_t tenants, std::uint64_t pages_per_tenant,
                 double skew, std::size_t length, std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  workloads.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back(
        {std::make_unique<ZipfPages>(pages_per_tenant, skew), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

/// Cost families swept by the harness. Per-tenant parameters rotate so
/// tenants are not interchangeable (otherwise the convex policy degenerates
/// to round-robin and the index is never stressed).
std::vector<CostFunctionPtr> make_costs(const std::string& family,
                                        std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  costs.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    const double w = 1.0 + static_cast<double>(t % 4);
    if (family == "mono2") {
      costs.push_back(std::make_unique<MonomialCost>(2.0, w));
    } else if (family == "mono3") {
      costs.push_back(std::make_unique<MonomialCost>(3.0, w));
    } else if (family == "linear") {
      costs.push_back(std::make_unique<MonomialCost>(1.0, w));
    } else if (family == "sla") {
      costs.push_back(std::make_unique<PiecewiseLinearCost>(
          PiecewiseLinearCost::sla(8.0 * w, w)));
    } else {
      throw std::invalid_argument("unknown cost family '" + family +
                                  "'; valid: mono2 mono3 linear sla");
    }
  }
  return costs;
}

struct BenchRow {
  std::string policy;
  std::string cost_family;
  std::uint32_t tenants = 0;
  std::size_t capacity = 0;
  bool skipped = false;
  std::string skip_reason;
  bool audited = false;       // run with the CCC_AUDIT shadow checks on
  PerfCounters perf;          // best (min wall-clock) repeat
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // --alloc-stats probe rows only (no requests_per_second, so the CI
  // regression gate skips them automatically).
  bool alloc_probe = false;
  std::uint64_t steady_allocs = 0;     // operator new calls, measured half
  std::uint64_t steady_evictions = 0;  // evictions in the measured half
  std::uint64_t steady_requests = 0;   // requests in the measured half
};

[[nodiscard]] bool is_sharded_policy(const std::string& name) {
  return name == "sharded-locked" || name == "sharded-seqlock";
}

void write_json(const std::string& path, const Cli& cli,
                const std::vector<BenchRow>& rows) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"e6_throughput\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"config\": {\n";
  os << "    \"requests\": " << cli.get_u64("requests") << ",\n";
  os << "    \"pages_per_tenant\": " << cli.get_u64("pages-per-tenant")
     << ",\n";
  os << "    \"k_per_tenant\": " << cli.get_u64("k-per-tenant") << ",\n";
  os << "    \"skew\": " << cli.get_double("skew") << ",\n";
  os << "    \"seed\": " << cli.get_u64("seed") << ",\n";
  os << "    \"repeats\": " << cli.get_u64("repeats") << ",\n";
  os << "    \"sharded_batch\": " << cli.get_u64("sharded-batch") << ",\n";
  os << "    \"tenants\": \"" << json_escape(cli.get("tenants")) << "\",\n";
  os << "    \"policies\": \"" << json_escape(cli.get("policies")) << "\",\n";
  os << "    \"costs\": \"" << json_escape(cli.get("costs")) << "\"\n";
  os << "  },\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    os << "    {\"policy\": \"" << json_escape(r.policy) << "\", \"cost\": \""
       << json_escape(r.cost_family) << "\", \"tenants\": " << r.tenants
       << ", \"capacity\": " << r.capacity
       << ", \"audit\": " << (r.audited ? "true" : "false");
    if (r.skipped) {
      os << ", \"skipped\": true, \"reason\": \"" << json_escape(r.skip_reason)
         << "\"}";
    } else if (r.alloc_probe) {
      // Deliberately no requests_per_second: probe rows measure heap
      // traffic, not throughput, and must stay out of the perf gate.
      os << ", \"skipped\": false, \"alloc_probe\": true"
         << ", \"steady_state_allocs\": " << r.steady_allocs
         << ", \"evictions_measured\": " << r.steady_evictions
         << ", \"requests_measured\": " << r.steady_requests << "}";
    } else {
      os << ", \"skipped\": false"
         << ", \"requests\": " << r.perf.requests
         << ", \"wall_seconds\": " << r.perf.wall_seconds
         << ", \"ns_per_request\": " << r.perf.ns_per_request()
         << ", \"requests_per_second\": "
         << (r.perf.wall_seconds > 0.0
                 ? static_cast<double>(r.perf.requests) / r.perf.wall_seconds
                 : 0.0)
         << ", \"hits\": " << r.hits << ", \"misses\": " << r.misses
         << ", \"evictions\": " << r.perf.evictions
         << ", \"heap_pops\": " << r.perf.heap_pops
         << ", \"stale_skips\": " << r.perf.stale_skips
         << ", \"index_rebuilds\": " << r.perf.index_rebuilds
         << ", \"lockfree_hits\": " << r.perf.lockfree_hits << "}";
    }
    os << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << os.str();
  std::cout << "wrote " << path << "\n";
}

/// Derives the obs snapshot path from the bench JSON path: `foo.json` →
/// `foo.obs.json` / `foo.obs.prom`; a non-.json path just gets the suffix
/// appended.
std::string obs_path(const std::string& json_path, const char* suffix) {
  const std::string base =
      json_path.size() > 5 && json_path.ends_with(".json")
          ? json_path.substr(0, json_path.size() - 5)
          : json_path;
  return base + suffix;
}

void write_obs_outputs(const obs::MetricsRegistry& registry,
                       const std::string& json_path) {
  const std::string obs_json = obs_path(json_path, ".obs.json");
  std::ofstream json_out(obs_json);
  if (!json_out) throw std::runtime_error("cannot write " + obs_json);
  registry.write_json(json_out);
  std::cout << "wrote " << obs_json << "\n";

  const std::string obs_prom = obs_path(json_path, ".obs.prom");
  std::ofstream prom_out(obs_prom);
  if (!prom_out) throw std::runtime_error("cannot write " + obs_prom);
  registry.write_prometheus(prom_out);
  std::cout << "wrote " << obs_prom << "\n";
}

/// Measures one cell: `repeats` runs of `policy_name` over `trace`, keeping
/// the min-wall-clock repeat. With `audit` true the runs carry a
/// ConvexCachingAuditor (cadence `audit_cadence`); any reported violation
/// aborts the benchmark — an audited number from a broken run is worthless.
/// `observer`, when non-null, is attached to every repeat (requires a
/// CCC_OBS build).
void measure(BenchRow& row, const Trace& trace, std::size_t capacity,
             const std::vector<CostFunctionPtr>& costs,
             const std::string& policy_name, std::uint64_t repeats,
             bool audit, std::uint64_t audit_cadence,
             StepObserver* observer) {
  const auto policy = make_policy(policy_name);
  SimOptions options;
  options.step_observer = observer;
#ifdef CCC_AUDIT_ENABLED
  AuditConfig audit_config;
  audit_config.step_cadence = audit_cadence;
  audit_config.eviction_cadence = audit_cadence;
  ConvexCachingAuditor auditor(audit_config);
  if (audit) options.auditor = &auditor;
#else
  (void)audit_cadence;
  if (audit)
    throw std::runtime_error(
        "--audit requires a binary built with -DCCC_AUDIT=ON");
#endif
  row.audited = audit;
  bool first = true;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    const SimResult result = run_trace(trace, capacity, *policy, &costs,
                                       options);
#ifdef CCC_AUDIT_ENABLED
    if (audit && !auditor.report().ok())
      throw std::runtime_error("audit violations in benchmarked run: " +
                               auditor.report().summary());
#endif
    if (first || result.perf.wall_seconds < row.perf.wall_seconds) {
      row.perf = result.perf;
      row.hits = result.metrics.total_hits();
      row.misses = result.metrics.total_misses();
      first = false;
    }
  }
}

/// Measures one sharded-frontend cell: `repeats` fresh 1-shard
/// ShardedCaches driven through access_batch() in fixed-size windows
/// (`batch` requests each; 1 = per-request access()), keeping the
/// min-wall-clock repeat. Batch submission is the frontend's intended
/// steady-state interface: it amortises the shard lock and the clock reads
/// over each locked group, engages the probe-ahead prefetch, and under
/// kSeqlock lets the optimistic prefix of every group bypass the lock.
/// Timing is external around the submission loop — under kSeqlock the fast
/// path does no per-request bookkeeping, so the frontend's internal
/// wall_seconds covers only the locked residue and would flatter the
/// optimistic path.
void measure_sharded(BenchRow& row, const Trace& trace, std::size_t capacity,
                     const std::vector<CostFunctionPtr>& costs,
                     HitPath hit_path, std::uint32_t tenants,
                     std::uint64_t repeats, std::uint64_t seed,
                     std::size_t batch, StepObserver* observer) {
  using Clock = std::chrono::steady_clock;
  bool first = true;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    ShardedCacheOptions options;
    options.capacity = capacity;
    options.num_shards = 1;
    options.num_tenants = tenants;
    options.seed = seed;
    options.hit_path = hit_path;
    options.step_observer = observer;
    ShardedCache cache(options, nullptr, &costs);
    const std::span<const Request> requests(trace.requests());
    const auto start = Clock::now();
    if (batch <= 1) {
      for (const Request& request : requests) (void)cache.access(request);
    } else {
      for (std::size_t i = 0; i < requests.size(); i += batch)
        cache.access_batch(
            requests.subspan(i, std::min(batch, requests.size() - i)));
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    PerfCounters perf = cache.aggregated_perf();
    perf.wall_seconds = wall;
    if (first || perf.wall_seconds < row.perf.wall_seconds) {
      const Metrics metrics = cache.aggregated_metrics();
      row.perf = perf;
      row.hits = metrics.total_hits();
      row.misses = metrics.total_misses();
      first = false;
    }
  }
}

/// One --alloc-stats probe row: `replay(first, last)` serves requests
/// [first, last) of the trace. The first half warms up (residency tables,
/// per-tenant heaps and batch-grouping scratch reach their high-water
/// sizes), then operator new calls are counted over the second half. In
/// Release builds a nonzero count fails the benchmark (the CI allocation
/// gate). `evictions()` reads the probe's eviction total.
BenchRow alloc_probe(
    const std::string& policy, const Trace& trace, std::size_t capacity,
    const std::string& family, std::uint32_t tenants,
    const std::function<void(std::size_t, std::size_t)>& replay,
    const std::function<std::uint64_t()>& evictions) {
  BenchRow row;
  row.policy = policy;
  row.cost_family = family;
  row.tenants = tenants;
  row.capacity = capacity;
  row.alloc_probe = true;

  const std::size_t half = trace.size() / 2;
  replay(0, half);
  const std::uint64_t evictions_before = evictions();
  const std::uint64_t allocs_before = heap_alloc_count();
  replay(half, trace.size());
  row.steady_allocs = heap_alloc_count() - allocs_before;
  row.steady_evictions = evictions() - evictions_before;
  row.steady_requests = trace.size() - half;

  std::cout << policy << " n=" << tenants << " cost=" << family << ": "
            << row.steady_allocs << " heap allocations over "
            << row.steady_requests << " steady-state requests ("
            << row.steady_evictions << " evictions)\n";
  return row;
}

/// Allocation probe through one bare ALG-DISCRETE session.
BenchRow run_alloc_probe(const Trace& trace, std::size_t capacity,
                         const std::vector<CostFunctionPtr>& costs,
                         const std::string& family, std::uint32_t tenants) {
  ConvexCachingPolicy policy;
  SimulatorSession session(capacity, tenants, policy, &costs);
  const std::span<const Request> requests(trace.requests());
  return alloc_probe(
      "convex-alloc-probe", trace, capacity, family, tenants,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i)
          (void)session.step(requests[i]);
      },
      [&] { return session.perf_counters().evictions; });
}

/// Shards of the sharded allocation probe: enough that access_batch takes
/// its grouping path.
constexpr std::size_t kProbeShards = 4;

/// Allocation probe through a kProbeShards-shard seqlock ShardedCache
/// driven by access_batch in `batch`-request windows — the server's path.
BenchRow run_sharded_alloc_probe(const Trace& trace, std::size_t capacity,
                                 const std::vector<CostFunctionPtr>& costs,
                                 const std::string& family,
                                 std::uint32_t tenants, std::uint64_t seed,
                                 std::size_t batch) {
  ShardedCacheOptions options;
  options.capacity = capacity;
  options.num_shards = kProbeShards;
  options.num_tenants = tenants;
  options.seed = seed;
  options.hit_path = HitPath::kSeqlock;
  ShardedCache cache(options, nullptr, &costs);
  const std::span<const Request> requests(trace.requests());
  return alloc_probe(
      "sharded-seqlock-s4-alloc-probe", trace, capacity, family, tenants,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; i += batch)
          cache.access_batch(requests.subspan(i, std::min(batch, last - i)));
      },
      [&] { return cache.aggregated_perf().evictions; });
}

/// The sharded cells' zero-drift gate: every (cost, tenants) pair measured
/// on both hit paths must have produced identical books. A divergence means
/// the optimistic path served a stale hit — a correctness bug, so the
/// benchmark aborts rather than publish numbers from a broken run.
void check_hit_path_equivalence(const std::vector<BenchRow>& rows) {
  for (const BenchRow& locked : rows) {
    if (locked.policy != "sharded-locked" || locked.skipped) continue;
    for (const BenchRow& seqlock : rows) {
      if (seqlock.policy != "sharded-seqlock" || seqlock.skipped) continue;
      if (seqlock.cost_family != locked.cost_family ||
          seqlock.tenants != locked.tenants)
        continue;
      if (locked.hits != seqlock.hits || locked.misses != seqlock.misses ||
          locked.perf.evictions != seqlock.perf.evictions)
        throw std::runtime_error(
            "hit-path divergence at cost=" + locked.cost_family +
            " tenants=" + std::to_string(locked.tenants) +
            ": locked " + std::to_string(locked.hits) + "/" +
            std::to_string(locked.misses) + "/" +
            std::to_string(locked.perf.evictions) + " vs seqlock " +
            std::to_string(seqlock.hits) + "/" +
            std::to_string(seqlock.misses) + "/" +
            std::to_string(seqlock.perf.evictions) +
            " (hits/misses/evictions)");
      std::cout << "hit-path equivalence OK: cost=" << locked.cost_family
                << " n=" << locked.tenants << " (cost ratio 1.00)\n";
    }
  }
}

int run(int argc, const char* const* argv) {
  Cli cli(
      "E6 — request throughput of online policies across tenant counts, "
      "cache sizes and cost families; emits JSON for CI perf tracking");
  cli.flag("tenants", "16,256,4096,65536",
           "comma-separated tenant counts to sweep")
      .flag("policies", "convex,convex-naive,lru",
            "comma-separated policy names (see policy_factory); "
            "sharded-locked / sharded-seqlock route through a 1-shard "
            "ShardedCache on the corresponding hit path")
      .flag("costs", "mono2", "cost families: mono2,mono3,linear,sla")
      .flag("requests", "1000000", "requests per measured run")
      .flag("pages-per-tenant", "16", "page universe per tenant")
      .flag("k-per-tenant", "8", "cache capacity = k-per-tenant × tenants")
      .flag("skew", "0.9", "Zipf skew of every tenant's stream")
      .flag("repeats", "1", "measured repeats per cell (min wall-clock wins)")
      .flag("seed", "1234", "trace generator seed")
      .flag("max-naive-tenants", "64",
            "skip convex-naive above this tenant count")
      .flag("audit", "0",
            "1 = add an audited twin row per convex cell "
            "(requires a CCC_AUDIT build); measures the audit overhead")
      .flag("audit-cadence", "64",
            "audited rows: run the shadow checks every Nth request/eviction")
      .flag("obs", "0",
            "1 = attach a SimObserver to every measured cell and dump "
            "latency/eviction histograms plus all counters next to the "
            "bench JSON (requires a CCC_OBS build; see --obs-cadence)")
      .flag("sharded-batch", "256",
            "sharded cells: requests per access_batch() submission "
            "(1 = drive access() per request)")
      .flag("obs-cadence", "8",
            "observed rows: time every Nth step (1 = every step; higher "
            "values shrink the observation overhead)")
      .flag("alloc-stats", "0",
            "1 = add allocation-probe rows per (cost, tenants) cell — a "
            "bare convex session and a 4-shard seqlock access_batch "
            "replay: warm on the first half of the trace, count operator "
            "new calls over the second half; Release builds fail on a "
            "nonzero steady-state count (the CI allocation gate)")
      .flag("expect-lockfree-frac", "0",
            "fail unless every sharded-seqlock cell served at least this "
            "fraction of its requests lock-free (0 = no check); the CI "
            "eviction-pressure cell uses this to pin the per-tenant-epoch "
            "freshness win")
      .flag("json", "BENCH_throughput.json",
            "output JSON path (empty = no JSON)");
  if (!cli.parse(argc, argv)) return 0;

  const auto tenant_counts = cli.get_u64_list("tenants");
  const auto policies = split(cli.get("policies"), ',');
  const auto families = split(cli.get("costs"), ',');
  const auto requests = static_cast<std::size_t>(cli.get_u64("requests"));
  const std::uint64_t pages_per_tenant = cli.get_u64("pages-per-tenant");
  const std::uint64_t k_per_tenant = cli.get_u64("k-per-tenant");
  const double skew = cli.get_double("skew");
  const std::uint64_t repeats = std::max<std::uint64_t>(1,
                                                        cli.get_u64("repeats"));
  const std::uint64_t max_naive = cli.get_u64("max-naive-tenants");
  const bool audit = cli.get_bool("audit");
  const std::uint64_t audit_cadence =
      std::max<std::uint64_t>(1, cli.get_u64("audit-cadence"));
#ifndef CCC_AUDIT_ENABLED
  if (audit)
    throw std::runtime_error(
        "--audit requires a binary built with -DCCC_AUDIT=ON");
#endif
  const bool observe = cli.get_bool("obs");
  const std::uint64_t obs_cadence =
      std::max<std::uint64_t>(1, cli.get_u64("obs-cadence"));
#ifndef CCC_OBS_ENABLED
  if (observe)
    throw std::runtime_error(
        "--obs requires a binary built with -DCCC_OBS=ON");
#endif
  // Optional Chrome trace spans (CCC_OBS_TRACE=path), shared by all cells.
  const std::unique_ptr<obs::TraceEventWriter> trace_writer =
      observe ? obs::TraceEventWriter::from_env() : nullptr;
  obs::MetricsRegistry obs_registry;

  std::vector<BenchRow> rows;
  Table table({"policy", "cost", "tenants", "capacity", "ns/req", "Mreq/s",
               "hit%", "stale/evict"});

  for (const std::uint64_t n64 : tenant_counts) {
    const auto tenants = static_cast<std::uint32_t>(n64);
    const std::size_t capacity =
        static_cast<std::size_t>(k_per_tenant) * tenants;
    const Trace trace = make_trace(tenants, pages_per_tenant, skew, requests,
                                   cli.get_u64("seed"));
    for (const std::string& family : families) {
      const auto costs = make_costs(family, tenants);
      if (cli.get_bool("alloc-stats")) {
        rows.push_back(
            run_alloc_probe(trace, capacity, costs, family, tenants));
        if (capacity >= kProbeShards)
          rows.push_back(run_sharded_alloc_probe(
              trace, capacity, costs, family, tenants, cli.get_u64("seed"),
              static_cast<std::size_t>(std::max<std::uint64_t>(
                  1, cli.get_u64("sharded-batch")))));
      }
      for (const std::string& policy_name : policies) {
        BenchRow row;
        row.policy = policy_name;
        row.cost_family = family;
        row.tenants = tenants;
        row.capacity = capacity;

        if (policy_name == "convex-naive" && n64 > max_naive) {
          row.skipped = true;
          row.skip_reason = "tenants > max-naive-tenants";
        }
        if (row.skipped) {
          std::cout << policy_name << " n=" << tenants << " cost=" << family
                    << ": skipped (" << row.skip_reason << ")\n";
          rows.push_back(std::move(row));
          continue;
        }

        // Unaudited cell, plus — with --audit and an audit-capable policy —
        // an audited twin, so the JSON carries overhead pairs. (The sharded
        // pseudo-policies take neither an auditor nor audit twins: the
        // frontend owns its sessions.)
        const bool audit_capable = policy_name == "convex";
        for (const bool audited : {false, true}) {
          if (audited && !(audit && audit_capable)) continue;
          BenchRow cell = row;
          std::unique_ptr<obs::SimObserver> observer;
          if (observe) {
            obs::SimObserverOptions observer_options;
            observer_options.latency_sample_period = obs_cadence;
            observer_options.trace = trace_writer.get();
            observer = std::make_unique<obs::SimObserver>(observer_options);
          }
          if (is_sharded_policy(policy_name)) {
            measure_sharded(cell, trace, capacity, costs,
                            policy_name == "sharded-seqlock"
                                ? HitPath::kSeqlock
                                : HitPath::kLocked,
                            tenants, repeats, cli.get_u64("seed"),
                            static_cast<std::size_t>(std::max<std::uint64_t>(
                                1, cli.get_u64("sharded-batch"))),
                            observer.get());
          } else {
            measure(cell, trace, capacity, costs, policy_name, repeats,
                    audited, audit_cadence, observer.get());
          }
          if (observer != nullptr && !audited) {
            const obs::LabelSet labels{{"policy", policy_name},
                                       {"cost", family},
                                       {"tenants", std::to_string(tenants)}};
            observer->fill(obs_registry, labels);
            obs::snapshot_perf(obs_registry, cell.perf, labels);
          }
          const std::uint64_t accesses = cell.hits + cell.misses;
          const double hit_pct =
              accesses == 0 ? 0.0
                            : 100.0 * static_cast<double>(cell.hits) /
                                  static_cast<double>(accesses);
          const std::string label =
              policy_name + (audited ? "+audit" : "");
          table.add(label, family, tenants, capacity,
                    cell.perf.ns_per_request(),
                    cell.perf.wall_seconds > 0.0
                        ? static_cast<double>(cell.perf.requests) /
                              (cell.perf.wall_seconds * 1e6)
                        : 0.0,
                    hit_pct, cell.perf.stale_skips_per_eviction());
          std::cout << label << " n=" << tenants << " cost=" << family
                    << ": " << cell.perf.ns_per_request() << " ns/req\n";
          rows.push_back(std::move(cell));
        }
      }
    }
  }

  std::cout << "\n" << table.to_ascii() << "\n";
  check_hit_path_equivalence(rows);
  const std::string json_path = cli.get("json");
  if (!json_path.empty()) write_json(json_path, cli, rows);
  if (observe && !json_path.empty()) write_obs_outputs(obs_registry, json_path);

  // CI assertions last, after the JSON landed (a failing gate should
  // still leave the numbers on disk for diagnosis).
  const double expect_lockfree = cli.get_double("expect-lockfree-frac");
  if (expect_lockfree > 0.0) {
    bool any = false;
    for (const BenchRow& row : rows) {
      if (row.policy != "sharded-seqlock" || row.skipped) continue;
      any = true;
      const double frac =
          row.perf.requests == 0
              ? 0.0
              : static_cast<double>(row.perf.lockfree_hits) /
                    static_cast<double>(row.perf.requests);
      std::cout << "lockfree fraction n=" << row.tenants
                << " cost=" << row.cost_family << ": " << frac << "\n";
      if (frac < expect_lockfree)
        throw std::runtime_error(
            "sharded-seqlock cell cost=" + row.cost_family + " n=" +
            std::to_string(row.tenants) + " served only " +
            std::to_string(frac) + " of requests lock-free (< " +
            std::to_string(expect_lockfree) + ")");
    }
    if (!any)
      throw std::runtime_error(
          "--expect-lockfree-frac set but no sharded-seqlock cell ran");
  }
  if (cli.get_bool("alloc-stats")) {
    for (const BenchRow& row : rows) {
      if (!row.alloc_probe) continue;
#ifdef NDEBUG
      if (row.steady_allocs != 0)
        throw std::runtime_error(
            "allocation gate: " + row.policy + " cost=" + row.cost_family +
            " n=" +
            std::to_string(row.tenants) + " performed " +
            std::to_string(row.steady_allocs) +
            " heap allocations at steady state (expected 0)");
#endif
    }
  }
  return 0;
}

}  // namespace
}  // namespace ccc

int main(int argc, char** argv) {
  try {
    return ccc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e6_throughput: " << e.what() << "\n";
    return 1;
  }
}
