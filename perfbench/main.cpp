/// \file main.cpp
/// \brief The layer-ladder benchmark: one named workload served over
///        loopback by an in-process CacheServer, measured end to end
///        (`--trace 0`) or layer by layer (`--trace 1`).
///
///   ladder --workload serving|churn|pressure --seed N --seconds S
///          --trace 0|1 [--span-file PATH]
///
/// `--trace 0` times whole passes over the trace with no instrumentation
/// beyond one clock read per response, and reports the end-to-end metrics.
/// `--trace 1` times each layer's public entry points on the same trace —
/// sim → shard (1 and 4 shards, locked and seqlock) → parallel replay →
/// server — prints the ladder table, writes the spans, and reports the
/// per-layer metrics. Both modes check that every layer that must agree
/// keeps identical books; a mismatch prints `"correct": false` and exits 1.
/// The last line of standard output is the result JSON object.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "obs/registry.hpp"
#include "rungs.hpp"
#include "sim/metrics.hpp"
#include "spans.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;
/// Bounds on timed server passes per run (the cap bounds the direct
/// replay that re-checks the server's books afterwards).
constexpr std::size_t kMinServerPasses = 3;
constexpr std::size_t kMaxServerPasses = 300;
/// Share of `--seconds` each traced rung gets; the server rung takes the
/// rest, split between untraced and traced passes.
constexpr double kRungShare = 0.09;
/// Slack on the check that the server's busy stages claim no more time
/// than the passes took, on top of the measured tracing overhead.
constexpr double kAccountingSlack = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string span_file;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --flag value pairs, got '" + key +
                                  "'");
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&flags](const std::string& key, bool required) {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      if (required) throw std::invalid_argument("missing --" + key);
      return std::string();
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  Args args;
  args.workload = take("workload", true);
  args.seed = std::stoull(take("seed", true));
  args.seconds = std::stod(take("seconds", true));
  const std::string trace = take("trace", true);
  if (trace != "0" && trace != "1")
    throw std::invalid_argument("--trace must be 0 or 1");
  args.trace = trace == "1";
  args.span_file = take("span-file", false);
  if (!flags.empty())
    throw std::invalid_argument("unknown flag --" + flags.begin()->first);
  if (!(args.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  return args;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

void print_result(Report& report) {
  for (const Metric& metric : report.metrics)
    if (!std::isfinite(metric.value))
      report.fail("metric " + metric.name + " is not finite");
  for (const std::string& problem : report.problems)
    std::cerr << "ladder: CHECK FAILED: " << problem << "\n";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (report.correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << metric.name << "\": {\"value\": "
       << (std::isfinite(metric.value) ? metric.value : 0.0)
       << ", \"unit\": \"" << metric.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// The identity of this run's inputs: seed, workload parameters, load
/// shape, environment and the generated trace's fingerprint.
std::string inputs_json(const Workload& workload, const Args& args,
                        const ccc::Trace& trace) {
  std::ostringstream os;
  os << "{\"workload\": \"" << workload.name << "\", \"seed\": " << args.seed
     << ", \"tenants\": " << kTenants
     << ", \"pages_per_tenant\": " << workload.pages_per_tenant
     << ", \"k_per_tenant\": " << workload.k_per_tenant
     << ", \"skew\": " << workload.skew << ", \"costs\": \""
     << workload.costs << "\", \"pass_requests\": " << trace.size()
     << ", \"trace_fingerprint\": \"" << std::hex << fingerprint(trace)
     << std::dec << "\", \"shards\": " << kShards
     << ", \"connections\": " << kConnections << ", \"window\": " << kWindow
     << ", \"server_loops\": " << kServerLoops
     << ", \"nproc\": " << usable_cpus() << ", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"trace\": " << (args.trace ? 1 : 0)
     << "}";
  return os.str();
}

std::vector<std::uint64_t> add(std::vector<std::uint64_t> a,
                               const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

/// Accumulates server passes: the client-side books and failure counts.
struct ServedTotals {
  std::vector<std::uint64_t> hits = std::vector<std::uint64_t>(kTenants);
  std::vector<std::uint64_t> misses = std::vector<std::uint64_t>(kTenants);
  std::size_t passes = 0;  ///< including warm-up
  std::uint64_t attempted = 0;  ///< timed passes only
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::string failure;
  double wall_s = 0.0;  ///< all passes, warm-up included

  void add_pass(const PassResult& pass, bool timed) {
    hits = add(std::move(hits), pass.hits);
    misses = add(std::move(misses), pass.misses);
    ++passes;
    wall_s += pass.wall_s;
    if (failure.empty()) failure = pass.failure;
    if (!timed) return;
    attempted += pass.attempted;
    answered += pass.answered;
    failed += pass.failed();
  }
};

/// The checks every mode makes once its server has stopped: the books the
/// clients saw equal the server's, and the server's equal a direct
/// single-threaded access_batch replay of the same passes at 4 shards.
void check_server_books(const Workload& workload, std::uint64_t seed,
                        const ServerRig& rig,
                        const ccc::server::StatsPayload& stats,
                        const ServedTotals& served, Report& report) {
  if (!served.failure.empty())
    report.fail("transport failure: " + served.failure);
  if (report.failed != 0)
    report.fail(std::to_string(report.failed) +
                " requests failed or went unanswered");
  if (stats.hits != served.hits || stats.misses != served.misses)
    report.fail("server STATS books differ from the responses clients saw");
  const Books direct =
      replay_sharded(rig.trace(), rig.costs(),
                     server_cache_options(workload, seed), served.passes);
  std::uint64_t drift = 0;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const auto diff = [](std::uint64_t a, std::uint64_t b) {
      return a > b ? a - b : b - a;
    };
    drift += diff(stats.hits[t], direct.hits[t]) +
             diff(stats.misses[t], direct.misses[t]) +
             diff(stats.evictions[t], direct.evictions[t]);
  }
  const double cost_ratio = ccc::total_cost(stats.misses, rig.costs()) /
                            ccc::total_cost(direct.misses, rig.costs());
  std::cout << "books: server vs direct access_batch replay (" << served.passes
            << " passes, " << kShards << " shards): drift=" << drift
            << " miss_cost ratio=" << cost_ratio << "\n";
  if (drift != 0)
    report.fail("server books drift from the direct replay by " +
                std::to_string(drift));
  if (cost_ratio != 1.0)
    report.fail("server/direct miss-cost ratio is not exactly 1");
}

/// The ladder rungs that must agree, on warm-up + one pass: sim equals
/// shard_s1 on both hit paths; shard_s4 locked equals shard_s4 seqlock.
void check_rungs(const Workload& workload, std::uint64_t seed,
                 const ccc::Trace& trace,
                 const std::vector<ccc::CostFunctionPtr>& costs,
                 Report& report) {
  constexpr std::size_t kPasses = 2;
  const auto sharded = [&](std::size_t shards, ccc::HitPath path) {
    ccc::ShardedCacheOptions options = server_cache_options(workload, seed);
    options.num_shards = shards;
    options.hit_path = path;
    return replay_sharded(trace, costs, options, kPasses);
  };
  const Books sim =
      replay_sim(trace, costs, capacity_of(workload), seed, kPasses);
  const bool sim_s1 = sim == sharded(1, ccc::HitPath::kLocked) &&
                      sim == sharded(1, ccc::HitPath::kSeqlock);
  const bool s4 = sharded(kShards, ccc::HitPath::kLocked) ==
                  sharded(kShards, ccc::HitPath::kSeqlock);
  std::cout << "books: sim == shard_s1 locked == shard_s1 seqlock: "
            << (sim_s1 ? "ok" : "MISMATCH")
            << "; shard_s4 locked == shard_s4 seqlock: "
            << (s4 ? "ok" : "MISMATCH") << "\n";
  if (!sim_s1) report.fail("sim books differ from shard_s1 books");
  if (!s4) report.fail("shard_s4 locked books differ from seqlock books");
}

void check_load_generator() {
  const std::size_t cpus = usable_cpus();
  if (kConnections + kServerLoops > cpus)
    throw std::runtime_error(
        std::to_string(kConnections) + " client connections + " +
        std::to_string(kServerLoops) + " server loop threads exceed the " +
        std::to_string(cpus) +
        " usable CPUs: the load generator would be measuring itself");
}

Report run_end_to_end(const Workload& workload, const Args& args) {
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<ServerRig> rig;
  ServedTotals served;
  std::uint64_t first_fingerprint = 0;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    rig.reset();  // tear-down of the previous set-up is not timed
    served = ServedTotals{};
    const Clock::time_point start = Clock::now();
    rig = std::make_unique<ServerRig>(workload, args.seed);
    served.add_pass(rig->serve_pass(false), false);  // warm-up
    setup_s.push_back(seconds_since(start));
    const std::uint64_t identity = fingerprint(rig->trace());
    if (r == 0) {
      first_fingerprint = identity;
      std::cout << "inputs: " << inputs_json(workload, args, rig->trace())
                << "\n";
    } else if (identity != first_fingerprint) {
      report.fail("trace generation is not a function of the seed");
    }
  }
  const std::vector<std::uint64_t> warm_misses = served.misses;

  std::vector<double> rps;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  double hit_rate = 0.0;
  double miss_cost = 0.0;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t p = 0;; ++p) {
    const PassResult pass = rig->serve_pass(false);
    served.add_pass(pass, true);
    rps.push_back(static_cast<double>(pass.answered) / pass.wall_s);
    p50_us.push_back(pass.latency_p50_us);
    p99_us.push_back(pass.latency_p99_us);
    if (p == 0) {
      std::uint64_t hits = 0;
      for (const std::uint64_t h : pass.hits) hits += h;
      hit_rate = ratio(hits, pass.answered);
      // The paper's objective Σ_i f_i(misses_i), over the run from a cold
      // cache through the first timed pass.
      miss_cost = ccc::total_cost(add(warm_misses, pass.misses), rig->costs());
    }
    if (!pass.failure.empty() || p + 1 >= kMaxServerPasses) break;
    if (p + 1 >= kMinServerPasses && seconds_since(timed_start) >= args.seconds)
      break;
  }
  const double timed_s = seconds_since(timed_start);
  const ccc::server::StatsPayload stats = rig->stats();
  rig->stop();
  report.attempted = served.attempted;
  report.failed = served.failed;
  std::cout << "timed: " << served.passes - 1 << " passes of "
            << rig->trace().size() << " requests in " << timed_s
            << " s; req/s per pass: min " << quantile(rps, 0.0) << " p10 "
            << quantile(rps, 0.10) << " p25 " << quantile(rps, 0.25)
            << " median " << median(rps) << " p75 " << quantile(rps, 0.75)
            << " p90 " << quantile(rps, 0.90) << " max " << quantile(rps, 1.0)
            << "; latency_p50_us p10/p25/median/p75 " << quantile(p50_us, 0.10)
            << "/" << quantile(p50_us, 0.25) << "/" << median(p50_us) << "/"
            << quantile(p50_us, 0.75) << "; latency_p99_us "
            << quantile(p99_us, 0.10) << "/" << quantile(p99_us, 0.25) << "/"
            << median(p99_us) << "/" << quantile(p99_us, 0.75) << "\n";

  check_server_books(workload, args.seed, *rig, stats, served, report);
  check_rungs(workload, args.seed, rig->trace(), rig->costs(), report);

  // Each timing is its median over the timed passes: on a shared 4-vCPU
  // host it spread less across seeds than the good-side quartile (the pass
  // a quarter of the passes beat).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.add("throughput_rps", median(rps), "req/s");
  report.add("latency_p50_us", median(p50_us), "us");
  report.add("latency_p99_us", median(p99_us), "us");
  report.add("miss_cost", miss_cost, "cost");
  report.add("hit_rate", hit_rate, "fraction");
  report.add("answered_frac", ratio(served.answered, served.attempted),
             "fraction");
  report.add("setup_s", median(setup_s), "s");
  report.add("rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
  return report;
}

/// The server's `ccc_server_stage_latency_ns` histograms, by stage.
std::map<std::string, ccc::obs::HistogramSnapshot> server_stages(
    const ccc::server::CacheServer& server) {
  ccc::obs::MetricsRegistry registry;
  server.fill_metrics(registry);
  std::map<std::string, ccc::obs::HistogramSnapshot> stages;
  if (const ccc::obs::MetricFamily* family =
          registry.find("ccc_server_stage_latency_ns"))
    for (const ccc::obs::HistogramSample& sample : family->histograms)
      for (const auto& [key, label] : sample.labels)
        if (key == "stage") stages[label] = sample.snapshot;
  return stages;
}

void print_row(const std::string& rung, const std::string& path, double ns,
               double below) {
  std::ostringstream row;
  row << "  " << std::left << std::setw(10) << rung << std::setw(9) << path
      << std::right << std::setw(10) << std::fixed << std::setprecision(1)
      << ns;
  if (below > 0.0) row << std::showpos << std::setw(10) << ns - below;
  std::cout << row.str() << "\n";
}

Report run_ladder(const Workload& workload, const Args& args) {
  Report report;
  ServerRig rig(workload, args.seed);
  ServedTotals served;
  served.add_pass(rig.serve_pass(false), false);  // warm-up
  std::cout << "inputs: " << inputs_json(workload, args, rig.trace()) << "\n";
  check_rungs(workload, args.seed, rig.trace(), rig.costs(), report);

  const double rung_s = kRungShare * args.seconds;
  const ccc::Trace& trace = rig.trace();
  const auto& costs = rig.costs();
  SpanLog sim_log(1);
  const SimRung sim = time_sim(trace, costs, capacity_of(workload), args.seed,
                               rung_s, sim_log);

  struct ShardCase {
    const char* span;
    std::size_t shards;
    ccc::HitPath path;
  };
  const ShardCase cases[] = {
      {"shard.locked_s1.batch", 1, ccc::HitPath::kLocked},
      {"shard.seqlock_s1.batch", 1, ccc::HitPath::kSeqlock},
      {"shard.locked_s4.batch", kShards, ccc::HitPath::kLocked},
      {"shard.seqlock_s4.batch", kShards, ccc::HitPath::kSeqlock},
  };
  std::vector<SpanLog> shard_logs;
  std::vector<ShardRung> shards;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    ccc::ShardedCacheOptions options =
        server_cache_options(workload, args.seed);
    options.num_shards = cases[i].shards;
    options.hit_path = cases[i].path;
    shard_logs.emplace_back(static_cast<std::uint32_t>(2 + i));
    shards.push_back(time_shard(cases[i].span, trace, costs, options, rung_s,
                                shard_logs.back()));
  }
  const double replay_rps = time_replay(
      trace, costs, server_cache_options(workload, args.seed), rung_s);

  // The server rung: untraced and traced passes alternate, each pair
  // switching which goes first, so drift in the machine hits both alike.
  SpanLog client_log(16);
  const double server_s =
      args.seconds *
      (1.0 - kRungShare * static_cast<double>(2 + std::size(cases)));
  std::vector<double> untraced_rps;
  std::vector<double> traced_rps;
  std::vector<double> wait_p99_us;
  double enqueue_s = 0.0;
  double read_s = 0.0;
  double client_wall_s = 0.0;
  std::uint64_t traced_answered = 0;
  const Clock::time_point server_start = Clock::now();
  for (std::size_t pair = 0;; ++pair) {
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side == 0) == (pair % 2 == 1);
      const PassResult pass =
          rig.serve_pass(traced, traced && traced_rps.empty() ? &client_log
                                                              : nullptr);
      served.add_pass(pass, true);
      const double rps = static_cast<double>(pass.answered) / pass.wall_s;
      if (!traced) {
        untraced_rps.push_back(rps);
        continue;
      }
      traced_rps.push_back(rps);
      wait_p99_us.push_back(pass.window_wait_p99_us);
      enqueue_s += pass.enqueue_s;
      read_s += pass.read_s;
      client_wall_s += pass.wall_s;
      traced_answered += pass.answered;
    }
    if (!served.failure.empty()) break;
    if (pair + 1 >= kMinServerPasses && seconds_since(server_start) >= server_s)
      break;
  }
  const ccc::server::StatsPayload stats = rig.stats();
  rig.stop();
  report.attempted = served.attempted;
  report.failed = served.failed;
  check_server_books(workload, args.seed, rig, stats, served, report);

  // Server-side attribution, exact now that the loop has joined. The
  // stage histograms cover every pass the server served, warm-up included.
  const ccc::server::ServerCounters counters = rig.server().counters();
  const std::map<std::string, ccc::obs::HistogramSnapshot> stages =
      server_stages(rig.server());
  const auto per_req = [&](const char* stage) {
    const auto it = stages.find(stage);
    return it == stages.end() ? 0.0
                              : static_cast<double>(it->second.sum) /
                                    static_cast<double>(counters.requests);
  };
  const double decode = per_req("decode");
  const double cache = per_req("cache");
  const double encode = per_req("encode");
  const double flush = per_req("flush");
  const double busy = decode + cache + encode + flush;
  const double wall_ns_per_req =
      served.wall_s * 1e9 / static_cast<double>(counters.requests);
  const double untraced = median(untraced_rps);
  const double overhead = (untraced - median(traced_rps)) / untraced;
  const auto queue = stages.find("queue");
  const double queue_p99_us =
      queue == stages.end()
          ? 0.0
          : static_cast<double>(queue->second.quantile(0.99)) / 1e3;

  const ShardRung& seqlock_s4 = shards[3];
  const double server_ns = 1e9 / untraced;
  std::cout << "ladder: " << workload.name << ", ns/req; delta = rung − the "
               "rung below on the same hit path\n";
  print_row("sim", "-", sim.ns_per_req, 0.0);
  print_row("shard_s1", "locked", shards[0].ns_per_req, sim.ns_per_req);
  print_row("shard_s1", "seqlock", shards[1].ns_per_req, sim.ns_per_req);
  print_row("shard_s4", "locked", shards[2].ns_per_req, shards[0].ns_per_req);
  print_row("shard_s4", "seqlock", seqlock_s4.ns_per_req,
            shards[1].ns_per_req);
  print_row("server", "seqlock", server_ns, seqlock_s4.ns_per_req);
  std::cout << "  server loop busy " << busy << " ns/req (decode " << decode
            << ", cache " << cache << ", encode " << encode << ", flush "
            << flush << ") of " << wall_ns_per_req
            << " ns/req wall; trace.overhead_frac " << overhead << "\n";
  std::cout << "spans (first timed pass per rung): name count total_us "
               "self_us\n";
  std::vector<const SpanLog*> logs{&sim_log};
  for (const SpanLog& log : shard_logs) logs.push_back(&log);
  logs.push_back(&client_log);
  for (const SpanSummary& s : summarize(logs))
    std::cout << "  " << s.name << " " << s.count << " " << s.total_us << " "
              << s.self_us << "\n";
  if (busy > wall_ns_per_req * (1.0 + std::max(overhead, 0.0) +
                                kAccountingSlack))
    report.fail("server stages claim more time per request than the passes "
                "took");
  if (!args.span_file.empty()) {
    std::ofstream out(args.span_file);
    write_chrome_trace(out, logs, inputs_json(workload, args, trace));
    if (!out) report.fail("cannot write " + args.span_file);
  }

  const ccc::PerfCounters& core = sim.first_pass;
  report.add("sim.step_ns", sim.ns_per_req, "ns/req");
  report.add("sim.allocs_per_kreq", sim.allocs_per_kreq, "count");
  report.add("core.evictions_per_kreq",
             ratio(core.evictions * 1000, core.requests), "count");
  report.add("core.heap_pops_per_eviction",
             ratio(core.heap_pops, core.evictions), "count");
  report.add("core.stale_skips_per_eviction",
             ratio(core.stale_skips, core.evictions), "count");
  report.add("core.index_rebuilds", static_cast<double>(core.index_rebuilds),
             "count");
  report.add("shard.locked_s1.ns_per_req", shards[0].ns_per_req, "ns/req");
  report.add("shard.seqlock_s1.ns_per_req", shards[1].ns_per_req, "ns/req");
  report.add("shard.locked_s4.ns_per_req", shards[2].ns_per_req, "ns/req");
  report.add("shard.seqlock_s4.ns_per_req", seqlock_s4.ns_per_req, "ns/req");
  report.add("shard.lockfree_frac", seqlock_s4.lockfree_frac, "ratio");
  report.add("shard.batch_p99_us", seqlock_s4.batch_p99_us, "us");
  report.add("shard.allocs_per_batch", seqlock_s4.allocs_per_batch, "count");
  report.add("replay.rps", replay_rps, "req/s");
  // Speed-up over the serial rung with the same shards, per thread. (The
  // shards' own busy time cannot serve as the reference: lock-free hits
  // are not timed inside the shard, so it reads ~0 on `serving`.)
  report.add("replay.parallel_eff",
             seqlock_s4.ns_per_req * replay_rps /
                 (1e9 * static_cast<double>(kReplayThreads)),
             "ratio");
  report.add("server.decode_ns_per_req", decode, "ns/req");
  report.add("server.cache_ns_per_req", cache, "ns/req");
  report.add("server.encode_ns_per_req", encode, "ns/req");
  report.add("server.flush_ns_per_req", flush, "ns/req");
  report.add("server.queue_p99_us", queue_p99_us, "us");
  report.add("server.cache_frac", ratio(cache, busy), "ratio");
  report.add("server.batch_size_mean",
             ratio(counters.requests, counters.batches), "req");
  report.add("server.bytes_per_req",
             ratio(counters.bytes_read + counters.bytes_written,
                   counters.requests),
             "bytes");
  report.add("client.encode_ns_per_req",
             enqueue_s * 1e9 / static_cast<double>(traced_answered), "ns/req");
  report.add("client.window_wait_p99_us", median(wait_p99_us), "us");
  report.add("client.busy_frac", (client_wall_s - read_s) / client_wall_s,
             "ratio");
  report.add("trace.overhead_frac", overhead, "ratio");
  return report;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold. glibc otherwise raises the threshold whenever a
  // large block is freed, so whether a later large buffer lands on the heap
  // (and stays resident once freed) depends on allocation history, and the
  // peak RSS of identical runs reads one of two values 8 MiB apart.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const perfbench::Workload& workload =
        perfbench::find_workload(args.workload);
    perfbench::check_load_generator();
    perfbench::Report report =
        args.trace ? perfbench::run_ladder(workload, args)
                   : perfbench::run_end_to_end(workload, args);
    perfbench::print_result(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ladder: " << e.what() << "\n";
    return 2;
  }
}
