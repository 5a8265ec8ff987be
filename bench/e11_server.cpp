/// \file e11_server.cpp
/// \brief Experiment E11 — networked cache-server loopback load test.
///
/// Replays a Zipf-skewed multi-tenant trace against a CacheServer through N
/// pipelined TCP connections (in-process by default; --connect drives an
/// externally launched ccc-serverd) and reports throughput plus response
/// latency quantiles (p50/p99/p999).
///
/// Determinism contract (DESIGN.md §12): the trace is partitioned by
/// connection with `shard_of_page(page, server_shards) % connections`, so
/// each shard's request subsequence arrives in trace order over exactly one
/// connection. The server batches per connection and access_batch preserves
/// per-shard order, hence the server-side books are **bit-identical** to a
/// direct single-threaded access_batch replay of the same trace — which
/// --verify (on by default) asserts per tenant: hits, misses, evictions,
/// and a miss-cost ratio of exactly 1.0. Drift fails the run. The check
/// compares post-minus-pre STATS deltas, so it also holds against a server
/// that has already served traffic.
///
/// Latency is measured per pipelined window: a window of W requests is
/// encoded, flushed, and each of its W responses is stamped against the
/// flush time — i.e. the quantiles describe what a client pipelining at
/// depth W actually observes, batching delay included.
///
/// --soak-seconds loops the trace until the deadline; connections agree on
/// the loop count through a barrier, so the determinism check survives
/// soaking. --rebalance-every N exercises ShardedCache::rebalance() under
/// live traffic: the trace is cut into N-request segments, every segment
/// boundary is a double barrier (all responses read → one worker sends
/// REBALANCE → traffic resumes), and the reference replay rebalances at
/// the identical boundaries — so --verify still demands bit-identical
/// books and a miss-cost ratio of exactly 1.0 across resizes and seqlock
/// table rebuilds. JSON rows land in the schema scripts/check_bench_regression.py
/// gates: (policy="server-cN", cost, tenants) keyed, with
/// requests_per_second and wall_seconds.

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cost/spec.hpp"
#include "harness.hpp"
#include "obs/cost_tracker.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shard/sharded_cache.hpp"
#include "sim/metrics.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace ccc {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-worker tallies, merged after join.
struct WorkerResult {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t errors = 0;  ///< kBadRequest/kMalformed/unknown statuses
  std::string failure;       ///< non-empty if the worker threw
};

struct VerifyResult {
  bool ran = false;
  std::uint64_t drift = 0;    ///< Σ |server book − reference book|
  double cost_ratio = 0.0;    ///< server miss cost / reference miss cost
  double server_cost = 0.0;
  double reference_cost = 0.0;
  /// Tenants where CostTracker::collect over the replayed reference cache
  /// disagrees with its aggregated books or where the tracker's per-tenant
  /// ALG cost f_i(a_i) is not bit-identical to f_i applied to those books.
  std::uint64_t tracker_mismatches = 0;
  double tracker_cost = 0.0;  ///< Σ_i f_i(a_i) as the tracker reports it
};

/// Per-stage server latency attribution, pulled from the in-process
/// server's metrics registry after shutdown (external servers keep theirs
/// behind their own /metrics port — scrape that instead).
struct StageLatency {
  std::string stage;
  obs::HistogramSnapshot snapshot;
};

/// Books delta between two STATS snapshots (post − pre, per tenant).
server::StatsPayload stats_delta(const server::StatsPayload& pre,
                                 const server::StatsPayload& post) {
  server::StatsPayload delta = post;
  for (std::size_t t = 0; t < delta.hits.size(); ++t) {
    delta.hits[t] -= pre.hits[t];
    delta.misses[t] -= pre.misses[t];
    delta.evictions[t] -= pre.evictions[t];
  }
  delta.lockfree_hits -= pre.lockfree_hits;
  return delta;
}

void write_json(const std::string& path, const Cli& cli,
                std::uint32_t tenants, std::size_t shards,
                std::size_t connections, std::uint64_t loops,
                std::uint64_t rebalances, std::uint64_t requests_sent,
                double wall_seconds,
                const obs::HistogramSnapshot& latency,
                const WorkerResult& totals, std::uint64_t lockfree_hits,
                const VerifyResult& verify,
                const std::vector<StageLatency>& stages) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"e11_server\",\n";
  os << "  \"schema_version\": 1,\n";
  os << "  \"config\": {\n";
  os << "    \"requests\": " << cli.get_u64("requests") << ",\n";
  os << "    \"tenants\": " << tenants << ",\n";
  os << "    \"shards\": " << shards << ",\n";
  os << "    \"connections\": " << connections << ",\n";
  os << "    \"window\": " << cli.get_u64("window") << ",\n";
  os << "    \"pages_per_tenant\": " << cli.get_u64("pages-per-tenant")
     << ",\n";
  os << "    \"k_per_tenant\": " << cli.get_u64("k-per-tenant") << ",\n";
  os << "    \"skew\": " << cli.get_double("skew") << ",\n";
  os << "    \"seed\": " << cli.get_u64("seed") << ",\n";
  os << "    \"soak_seconds\": " << cli.get_double("soak-seconds") << ",\n";
  os << "    \"rebalance_every\": " << cli.get_u64("rebalance-every")
     << ",\n";
  os << "    \"hitpath\": \"" << json_escape(cli.get("hitpath")) << "\",\n";
  os << "    \"connect\": \"" << json_escape(cli.get("connect")) << "\",\n";
  os << "    \"costs\": \"" << json_escape(cli.get("costs")) << "\"\n";
  os << "  },\n";
  os << "  \"results\": [\n";
  os << "    {\"policy\": \"server-c" << connections << "\", \"cost\": \""
     << json_escape(cli.get("costs")) << "\", \"tenants\": " << tenants
     << ", \"shards\": " << shards << ", \"connections\": " << connections
     << ", \"loops\": " << loops << ", \"rebalances\": " << rebalances
     << ", \"requests\": " << requests_sent
     << ", \"wall_seconds\": " << wall_seconds
     << ", \"requests_per_second\": "
     << (wall_seconds > 0.0
             ? static_cast<double>(requests_sent) / wall_seconds
             : 0.0)
     << ", \"p50_us\": "
     << static_cast<double>(latency.quantile(0.5)) / 1e3
     << ", \"p99_us\": "
     << static_cast<double>(latency.quantile(0.99)) / 1e3
     << ", \"p999_us\": "
     << static_cast<double>(latency.quantile(0.999)) / 1e3
     << ", \"hits\": " << totals.hits << ", \"misses\": " << totals.misses
     << ", \"errors\": " << totals.errors
     << ", \"lockfree_hits\": " << lockfree_hits;
  if (verify.ran)
    os << ", \"drift\": " << verify.drift
       << ", \"miss_cost\": " << verify.server_cost
       << ", \"cost_ratio_vs_direct\": " << verify.cost_ratio
       << ", \"tracker_mismatches\": " << verify.tracker_mismatches
       << ", \"tracker_cost\": " << verify.tracker_cost;
  // Per-stage request-latency attribution (in-process runs only): one
  // object per ccc_server_stage_latency_ns stage, quantiles in µs so they
  // read next to p50_us/p99_us above. Informational in the regression
  // gate — stage mix shifts with batch shape, so these are reported, not
  // thresholded (scripts/check_bench_regression.py).
  if (!stages.empty()) {
    os << ", \"stage_latency_us\": {";
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const StageLatency& stage = stages[s];
      os << (s == 0 ? "" : ", ") << "\"" << json_escape(stage.stage)
         << "\": {\"count\": " << stage.snapshot.count << ", \"p50_us\": "
         << static_cast<double>(stage.snapshot.quantile(0.5)) / 1e3
         << ", \"p99_us\": "
         << static_cast<double>(stage.snapshot.quantile(0.99)) / 1e3
         << ", \"p999_us\": "
         << static_cast<double>(stage.snapshot.quantile(0.999)) / 1e3 << "}";
    }
    os << "}";
  }
  os << "}\n";
  os << "  ]\n}\n";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << os.str();
  std::cout << "wrote " << path << "\n";
}

int run(int argc, const char* const* argv) {
  Cli cli(
      "E11 — loopback load test of the networked cache server: replays a "
      "multi-tenant Zipf trace through N pipelined connections, reports "
      "req/s and p50/p99/p999 response latency, and asserts the server's "
      "books are bit-identical to a direct access_batch replay "
      "(DESIGN.md §12); emits JSON for CI");
  cli.flag("connections", "4", "pipelined TCP connections (worker threads)")
      .flag("window", "256", "pipelining depth: requests in flight per "
            "connection")
      .flag("requests", "200000", "trace length (per loop)")
      .flag("tenants", "16", "tenant count")
      .flag("shards", "4", "server shard count (in-process mode)")
      .flag("pages-per-tenant", "64", "page universe per tenant")
      .flag("k-per-tenant", "8", "cache capacity = k-per-tenant × tenants")
      .flag("skew", "0.9", "Zipf skew of every tenant's stream")
      .flag("seed", "1234",
            "trace and policy seed (must match the server's --seed when "
            "--connect is used, or --verify will report drift)")
      .flag("hitpath", "seqlock",
            "hit path of the in-process server and of the verify reference: "
            "seqlock (default) or locked")
      .flag("costs", "mono2", "cost family: mono2,mono3,linear,sla")
      .flag("soak-seconds", "0",
            "0 = one pass over the trace; >0 = loop the trace until the "
            "deadline (connections agree on the loop count via a barrier, "
            "so --verify still holds)")
      .flag("connect", "",
            "host:port of an already-running ccc-serverd (empty = run the "
            "server in-process on an ephemeral port); shard count, tenant "
            "count and capacity are taken from its STATS response")
      .flag("verify", "1",
            "assert zero drift vs a direct single-threaded access_batch "
            "replay (post-minus-pre STATS deltas)")
      .flag("rebalance-every", "0",
            "0 = never; N = after every N trace requests, quiesce all "
            "connections at a barrier and have one worker send REBALANCE; "
            "the verify reference rebalances at the same boundaries, so "
            "the books must stay bit-identical (with --connect the server "
            "must be freshly started: the split reads total books, which "
            "pre-existing traffic would skew away from the reference)")
      .flag("json", "BENCH_server.json", "output JSON path (empty = none)");
  if (!cli.parse(argc, argv)) return 0;

  const auto tenants = static_cast<std::uint32_t>(cli.get_u64("tenants"));
  const auto connections =
      static_cast<std::size_t>(cli.get_u64("connections"));
  const auto window = static_cast<std::size_t>(cli.get_u64("window"));
  const auto requests = static_cast<std::size_t>(cli.get_u64("requests"));
  const double soak_seconds = cli.get_double("soak-seconds");
  const bool verify_books = cli.get_bool("verify");
  const std::string hitpath = cli.get("hitpath");
  if (hitpath != "seqlock" && hitpath != "locked")
    throw std::invalid_argument("unknown hit path '" + hitpath +
                                "'; valid: seqlock locked");
  if (connections == 0 || window == 0)
    throw std::invalid_argument("--connections and --window must be >= 1");

  const auto costs = make_rotated_costs(cli.get("costs"), tenants);

  // ---- the server: in-process on an ephemeral port, or external ----
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;
  std::unique_ptr<server::CacheServer> inproc;
  std::thread server_thread;
  int server_rc = -1;
  if (cli.get("connect").empty()) {
    ShardedCacheOptions cache_options;
    cache_options.capacity =
        static_cast<std::size_t>(cli.get_u64("k-per-tenant")) * tenants;
    cache_options.num_shards =
        static_cast<std::size_t>(cli.get_u64("shards"));
    cache_options.num_tenants = tenants;
    cache_options.seed = cli.get_u64("seed");
    cache_options.hit_path =
        hitpath == "seqlock" ? HitPath::kSeqlock : HitPath::kLocked;
    server::ServerOptions server_options;
    server_options.metrics = false;  // e11 measures the cache port only
    inproc = std::make_unique<server::CacheServer>(server_options,
                                                   cache_options, nullptr,
                                                   &costs);
    inproc->start();
    port = inproc->port();
    server_thread = std::thread([&] { server_rc = inproc->run(); });
  } else {
    const std::string target = cli.get("connect");
    const std::size_t colon = target.rfind(':');
    if (colon == std::string::npos)
      throw std::invalid_argument("--connect expects host:port");
    address = target.substr(0, colon);
    port = static_cast<std::uint16_t>(
        std::stoul(target.substr(colon + 1)));
  }

  // ---- pre-replay STATS: server config + baseline books ----
  server::StatsPayload pre;
  {
    server::BlockingClient probe(address, port);
    pre = probe.stats();
  }
  if (pre.num_tenants != tenants)
    throw std::runtime_error(
        "server has " + std::to_string(pre.num_tenants) +
        " tenants, e11 was asked for " + std::to_string(tenants) +
        " — align --tenants with the server");
  const auto server_shards = static_cast<std::size_t>(pre.num_shards);
  const auto capacity = static_cast<std::size_t>(pre.capacity);

  // ---- trace + by-shard connection partition (the determinism move) ----
  // With --rebalance-every N the trace is additionally cut into segments
  // of N requests *in trace order*: every connection finishes its share of
  // segment s (and has read all its responses, so the server books sit
  // exactly at the segment boundary) before anyone starts segment s+1.
  const Trace trace = bench::make_zipf_trace(
      tenants, cli.get_u64("pages-per-tenant"), cli.get_double("skew"),
      requests, cli.get_u64("seed"));
  const auto rebalance_every =
      static_cast<std::size_t>(cli.get_u64("rebalance-every"));
  const std::size_t num_segments =
      rebalance_every == 0
          ? 1
          : (trace.size() + rebalance_every - 1) / rebalance_every;
  std::vector<std::vector<std::vector<Request>>> partition(
      num_segments, std::vector<std::vector<Request>>(connections));
  {
    const std::vector<Request>& all = trace.requests();
    for (std::size_t i = 0; i < all.size(); ++i)
      partition[rebalance_every == 0 ? 0 : i / rebalance_every]
               [shard_of_page(all[i].page, server_shards) % connections]
          .push_back(all[i]);
  }

  // ---- connect all workers up front (excluded from the timed section) ----
  std::vector<std::unique_ptr<server::BlockingClient>> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c)
    clients.push_back(
        std::make_unique<server::BlockingClient>(address, port));

  obs::Histogram latency_hist;
  std::vector<WorkerResult> results(connections);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> loops_done{0};
  std::atomic<std::uint64_t> rebalances_sent{0};
  std::barrier loop_barrier(static_cast<std::ptrdiff_t>(connections));
  std::barrier rebalance_barrier(static_cast<std::ptrdiff_t>(connections));
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(soak_seconds));

  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      WorkerResult& result = results[c];
      server::BlockingClient& client = *clients[c];
      try {
        for (std::uint64_t loop = 0;; ++loop) {
          for (std::size_t seg = 0; seg < partition.size(); ++seg) {
            const std::vector<Request>& mine = partition[seg][c];
            std::size_t i = 0;
            while (i < mine.size()) {
              const std::size_t n = std::min(window, mine.size() - i);
              for (std::size_t j = 0; j < n; ++j)
                client.enqueue_get(mine[i + j].tenant, mine[i + j].page);
              const auto flushed = Clock::now();
              client.flush();
              client.read_responses(n, [&](const server::ResponseMsg& msg) {
                latency_hist.record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - flushed)
                        .count()));
                switch (static_cast<server::Status>(msg.status)) {
                  case server::Status::kHit: ++result.hits; break;
                  case server::Status::kMiss: ++result.misses; break;
                  default: ++result.errors; break;
                }
              });
              i += n;
            }
            if (rebalance_every != 0) {
              // Double barrier around the split: the first waits until
              // every connection has *read all its responses* for this
              // segment — the server has answered, hence applied, every
              // segment request, so its books sit exactly at the boundary.
              // Worker 0 then triggers the rebalance while everyone else
              // is quiescent (no in-flight traffic for the resize to
              // interleave with), and the second barrier releases the
              // next segment. REBALANCE fires after every segment, the
              // last included — the reference replay mirrors that.
              rebalance_barrier.arrive_and_wait();
              if (c == 0) {
                client.rebalance();
                rebalances_sent.fetch_add(1);
              }
              rebalance_barrier.arrive_and_wait();
            }
          }
          // Everyone finishes loop L, then worker 0 decides whether L+1
          // happens — so every connection replays the same loop count and
          // the books stay comparable to `loops × trace` (DESIGN.md §12).
          if (c == 0) {
            loops_done.store(loop + 1);
            stop.store(soak_seconds <= 0.0 || Clock::now() >= deadline);
          }
          loop_barrier.arrive_and_wait();
          if (stop.load()) break;
        }
      } catch (const std::exception& e) {
        result.failure = e.what();
        stop.store(true);
        // Do not touch the barrier here: a throwing worker can no longer
        // participate, and the others will fail on their sockets if the
        // server died. (Workers only throw on transport errors.)
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  WorkerResult totals;
  for (const WorkerResult& result : results) {
    if (!result.failure.empty())
      throw std::runtime_error("worker failed: " + result.failure);
    totals.hits += result.hits;
    totals.misses += result.misses;
    totals.errors += result.errors;
  }
  if (totals.errors != 0)
    throw std::runtime_error(std::to_string(totals.errors) +
                             " error responses — server rejected requests");
  const std::uint64_t loops = loops_done.load();
  const std::uint64_t requests_sent =
      loops * static_cast<std::uint64_t>(trace.size());

  // ---- post-replay STATS + zero-drift verification ----
  server::StatsPayload post;
  {
    server::BlockingClient probe(address, port);
    post = probe.stats();
  }
  const server::StatsPayload delta = stats_delta(pre, post);

  VerifyResult verify;
  if (verify_books) {
    ShardedCacheOptions ref_options;
    ref_options.capacity = capacity;
    ref_options.num_shards = server_shards;
    ref_options.num_tenants = tenants;
    ref_options.seed = cli.get_u64("seed");
    ref_options.hit_path =
        hitpath == "seqlock" ? HitPath::kSeqlock : HitPath::kLocked;
    ShardedCache reference(ref_options, nullptr, &costs);
    std::vector<StepEvent> events;
    constexpr std::size_t kRefBatch = 1024;
    const std::vector<Request>& all = trace.requests();
    for (std::uint64_t loop = 0; loop < loops; ++loop) {
      for (std::size_t seg = 0; seg < num_segments; ++seg) {
        const std::size_t begin =
            rebalance_every == 0 ? 0 : seg * rebalance_every;
        const std::size_t end =
            rebalance_every == 0
                ? all.size()
                : std::min(all.size(), begin + rebalance_every);
        for (std::size_t i = begin; i < end; i += kRefBatch) {
          events.clear();
          reference.access_batch(
              std::span<const Request>(all.data() + i,
                                       std::min(kRefBatch, end - i)),
              events);
        }
        // Mirror the live run: a rebalance after every segment, the last
        // included. The default hook's split depends only on per-shard
        // miss books, which are bit-identical to the server's at this
        // boundary — so both sides compute the same split and the
        // resize-driven evictions match exactly.
        if (rebalance_every != 0) reference.rebalance();
      }
    }
    const Metrics ref_metrics = reference.aggregated_metrics();
    verify.ran = true;
    for (TenantId t = 0; t < tenants; ++t) {
      const auto diff = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : b - a;
      };
      verify.drift += diff(delta.hits[t], ref_metrics.hits(t));
      verify.drift += diff(delta.misses[t], ref_metrics.misses(t));
      verify.drift += diff(delta.evictions[t], ref_metrics.evictions(t));
    }
    verify.server_cost = total_cost(delta.misses, costs);
    verify.reference_cost = total_cost(ref_metrics.miss_vector(), costs);
    verify.cost_ratio = verify.reference_cost > 0.0
                            ? verify.server_cost / verify.reference_cost
                            : (verify.server_cost == 0.0 ? 1.0 : 0.0);

    // The telemetry path must agree with the books it claims to describe:
    // CostTracker::collect aggregates the same replayed cache through the
    // per-shard snapshot path /metrics uses, so its per-tenant miss counts
    // must equal the aggregated books and its per-tenant ALG cost must be
    // bit-identical to f_i applied to those books — exact equality, not a
    // tolerance, since both sides add the same integers and evaluate the
    // same f_i once.
    const obs::CostTracker tracker = obs::CostTracker::collect(reference);
    const obs::CostSnapshot tracker_snap = tracker.snapshot(costs, capacity);
    for (TenantId t = 0; t < tenants; ++t) {
      const bool misses_match =
          tracker.misses()[t] == ref_metrics.misses(t);
      const bool cost_match =
          tracker_snap.tenant_cost[t] ==
          costs[t]->value(static_cast<double>(ref_metrics.misses(t)));
      if (!misses_match || !cost_match) ++verify.tracker_mismatches;
      verify.tracker_cost += tracker_snap.tenant_cost[t];
    }
  }

  // ---- shut down an in-process server gracefully ----
  std::vector<StageLatency> stages;
  if (inproc != nullptr) {
    for (auto& client : clients) client->close();
    inproc->request_stop();
    server_thread.join();
    if (server_rc != 0)
      throw std::runtime_error("in-process server exited with " +
                               std::to_string(server_rc));
    // With the loop joined the registry snapshot is exact: pull the
    // per-stage latency attribution for the JSON row.
    obs::MetricsRegistry registry;
    inproc->fill_metrics(registry);
    if (const obs::MetricFamily* family =
            registry.find("ccc_server_stage_latency_ns")) {
      for (const obs::HistogramSample& sample : family->histograms)
        for (const auto& [key, label] : sample.labels)
          if (key == "stage")
            stages.push_back(StageLatency{label, sample.snapshot});
    }
  }

  // ---- report ----
  const obs::HistogramSnapshot latency = latency_hist.snapshot();
  Table table({"policy", "cost", "conns", "window", "req/s", "p50_us",
               "p99_us", "p999_us", "hit_rate"});
  const double rps = wall_seconds > 0.0
                         ? static_cast<double>(requests_sent) / wall_seconds
                         : 0.0;
  const double hit_rate =
      requests_sent > 0
          ? static_cast<double>(totals.hits) /
                static_cast<double>(requests_sent)
          : 0.0;
  table.add("server-c" + std::to_string(connections), cli.get("costs"),
            connections, window, rps,
            static_cast<double>(latency.quantile(0.5)) / 1e3,
            static_cast<double>(latency.quantile(0.99)) / 1e3,
            static_cast<double>(latency.quantile(0.999)) / 1e3, hit_rate);
  std::cout << table.to_ascii() << "\n";
  std::cout << "requests=" << requests_sent << " loops=" << loops
            << " rebalances=" << rebalances_sent.load()
            << " wall=" << format_double(wall_seconds, 3) << "s hits="
            << totals.hits << " misses=" << totals.misses
            << " lockfree_hits=" << delta.lockfree_hits << "\n";
  if (verify.ran)
    std::cout << "verify: drift=" << verify.drift
              << " cost_ratio=" << format_double(verify.cost_ratio, 6)
              << " (server " << format_compact(verify.server_cost)
              << " vs direct " << format_compact(verify.reference_cost)
              << ") tracker_mismatches=" << verify.tracker_mismatches
              << " tracker_cost=" << format_compact(verify.tracker_cost)
              << "\n";
  if (!stages.empty()) {
    Table stage_table({"stage", "count", "p50_us", "p99_us", "p999_us"});
    for (const StageLatency& stage : stages)
      stage_table.add(
          stage.stage, stage.snapshot.count,
          static_cast<double>(stage.snapshot.quantile(0.5)) / 1e3,
          static_cast<double>(stage.snapshot.quantile(0.99)) / 1e3,
          static_cast<double>(stage.snapshot.quantile(0.999)) / 1e3);
    std::cout << stage_table.to_ascii() << "\n";
  }

  const std::string json_path = cli.get("json");
  if (!json_path.empty())
    write_json(json_path, cli, tenants, server_shards, connections, loops,
               rebalances_sent.load(), requests_sent, wall_seconds, latency,
               totals, delta.lockfree_hits, verify, stages);

  if (verify.ran && verify.drift != 0) {
    std::cerr << "e11_server: DRIFT — server books diverge from the direct "
                 "replay by "
              << verify.drift << "\n";
    return 1;
  }
  if (verify.ran && verify.cost_ratio != 1.0) {
    // Zero drift already implies this (both sides apply the same f_i to
    // the same integer books), so a failure here means the cost plumbing
    // itself diverged — worth its own message.
    std::cerr << "e11_server: COST DRIFT — server/reference miss-cost "
                 "ratio is "
              << format_double(verify.cost_ratio, 6) << ", want exactly 1\n";
    return 1;
  }
  if (verify.ran && verify.tracker_mismatches != 0) {
    std::cerr << "e11_server: TRACKER DRIFT — CostTracker disagrees with "
                 "the replayed books for "
              << verify.tracker_mismatches << " tenant(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ccc

int main(int argc, char** argv) {
  try {
    return ccc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e11_server: " << e.what() << "\n";
    return 1;
  }
}
