/// \file serverd_main.cpp
/// \brief ccc-serverd — the networked cache-server daemon: a ShardedCache
///        (ALG-DISCRETE per shard, seqlock hit path by default) behind the
///        pipelined binary protocol, with Prometheus /metrics on a second
///        port. SIGTERM/SIGINT drain gracefully and exit 0.
///
/// The first stdout line after startup is machine-readable:
///
///   ccc-serverd: listening cache=<addr>:<port> metrics=<addr>:<port>
///
/// so scripts launching with --port 0 (ephemeral) can scrape the actual
/// ports. The last line, printed during the graceful drain, carries the
/// final books (requests/hits/misses/evictions).

#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cost/spec.hpp"
#include "server/server.hpp"
#include "util/cli.hpp"

namespace ccc {
namespace {

int run(int argc, const char* const* argv) {
  Cli cli(
      "ccc-serverd — networked cache server: pipelined binary protocol on "
      "the cache port, Prometheus /metrics over HTTP on the metrics port; "
      "SIGTERM drains in-flight requests and exits 0");
  cli.flag("bind", "127.0.0.1", "address to bind both listeners to")
      .flag("port", "0", "cache-protocol port (0 = ephemeral, printed)")
      .flag("metrics-port", "0", "HTTP /metrics port (0 = ephemeral)")
      .flag("metrics", "1", "serve /metrics (0 disables the second listener)")
      .flag("tenants", "16", "tenant count")
      .flag("shards", "4", "shard count of the backing ShardedCache")
      .flag("k-per-tenant", "8", "cache capacity = k-per-tenant × tenants")
      .flag("capacity", "0", "total capacity in pages (overrides k-per-tenant)")
      .flag("hitpath", "seqlock", "hit path: seqlock (default) or locked")
      .flag("costs", "mono2",
            "per-tenant convex cost family: mono2,mono3,linear,sla")
      .flag("max-connections", "1024",
            "cache-protocol connection limit; extras are closed on accept")
      .flag("batch-limit", "1024",
            "max requests folded into one access_batch call")
      .flag("max-output-backlog", std::to_string(std::size_t{4} << 20),
            "pending-output bytes before a connection's reads are paused")
      .flag("drain-deadline", "5.0",
            "seconds allowed to flush responses during graceful shutdown");
  if (!cli.parse(argc, argv)) return 0;

  const auto tenants = static_cast<std::uint32_t>(cli.get_u64("tenants"));
  const std::string hitpath = cli.get("hitpath");
  if (hitpath != "seqlock" && hitpath != "locked")
    throw std::invalid_argument("unknown hit path '" + hitpath +
                                "'; valid: seqlock locked");

  ShardedCacheOptions cache_options;
  cache_options.capacity =
      cli.get_u64("capacity") > 0
          ? static_cast<std::size_t>(cli.get_u64("capacity"))
          : static_cast<std::size_t>(cli.get_u64("k-per-tenant")) * tenants;
  cache_options.num_shards = static_cast<std::size_t>(cli.get_u64("shards"));
  cache_options.num_tenants = tenants;
  cache_options.hit_path =
      hitpath == "seqlock" ? HitPath::kSeqlock : HitPath::kLocked;

  server::ServerOptions options;
  options.bind_address = cli.get("bind");
  options.port = static_cast<std::uint16_t>(cli.get_u64("port"));
  options.metrics = cli.get_bool("metrics");
  options.metrics_port =
      static_cast<std::uint16_t>(cli.get_u64("metrics-port"));
  options.max_connections =
      static_cast<std::size_t>(cli.get_u64("max-connections"));
  options.batch_limit = static_cast<std::size_t>(cli.get_u64("batch-limit"));
  options.max_output_backlog =
      static_cast<std::size_t>(cli.get_u64("max-output-backlog"));
  options.drain_deadline_seconds = cli.get_double("drain-deadline");

  const std::vector<CostFunctionPtr> costs =
      make_rotated_costs(cli.get("costs"), tenants);
  server::CacheServer server(options, cache_options, nullptr, &costs);
  // Per-batch server spans when CCC_OBS_TRACE names an output file; the
  // /debug/trace endpoint toggles the writer at runtime without a restart.
  const std::unique_ptr<obs::TraceEventWriter> trace_writer =
      obs::TraceEventWriter::from_env();
  if (trace_writer != nullptr) server.set_trace_writer(trace_writer.get());
  server.start();
  server::stop_on_signals(server);

  std::cout << "ccc-serverd: listening cache=" << options.bind_address << ":"
            << server.port();
  if (options.metrics)
    std::cout << " metrics=" << options.bind_address << ":"
              << server.metrics_port();
  std::cout << " shards=" << cache_options.num_shards
            << " tenants=" << tenants
            << " capacity=" << cache_options.capacity
            << " hitpath=" << hitpath << std::endl;  // flush: scripts pipe us

  return server.run();
}

}  // namespace
}  // namespace ccc

int main(int argc, char** argv) {
  try {
    return ccc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ccc-serverd: " << e.what() << "\n";
    return 1;
  }
}
