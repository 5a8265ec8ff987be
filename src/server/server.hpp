#pragma once
/// \file server.hpp
/// \brief Networked cache-server frontend: an epoll event loop serving the
///        pipelined binary protocol (protocol.hpp) over TCP on one port and
///        Prometheus metrics over HTTP on another, wrapping a ShardedCache.
///
/// Threading model: one event-loop thread owns every connection and all
/// server-side counters; the ShardedCache underneath is internally
/// synchronized, so `request_stop()` (and the signal glue) are the only
/// cross-thread entry points — both just write one byte to a wake pipe.
/// The single loop keeps request handling deterministic and the metrics
/// snapshot race-free; horizontal scale comes from running more shards
/// inside the cache (and, later, more server processes), not from sharing
/// connections across threads. Inside one access_batch call, a DrainCrew
/// of helper threads may drain the batch's shard groups beside the loop
/// thread (DrainCrew::helpers_for picks the count from the shard count and
/// the usable CPUs); the helpers touch only the cache, never a connection
/// or a counter, and the call returns after every group has finished.
///
/// Batching: each readiness event drains one connection's socket, decodes
/// every complete frame, and folds the contiguous run of GET/SET requests
/// into a single ShardedCache::access_batch call (bounded by
/// `batch_limit`). Responses are emitted in request order per connection,
/// so pipelining needs no sequence numbers. Determinism: access_batch
/// preserves per-shard request order within a batch, and batches from one
/// connection are processed in arrival order — so as long as each shard's
/// pages arrive via a single connection (how e11 partitions its trace),
/// the server-side books are bit-identical to a direct single-threaded
/// replay of the same trace, no matter how the event loop interleaves
/// connections (DESIGN.md §12).
///
/// Backpressure: a connection whose pending output exceeds
/// `max_output_backlog` stops being read (its EPOLLIN is masked) until the
/// peer drains half of it — a slow reader throttles itself, not the server.
///
/// Shutdown: SIGTERM/SIGINT (via stop_on_signals) or request_stop() wakes
/// the loop; the server stops accepting, performs one final read-drain per
/// connection (serving everything already in socket buffers), flushes all
/// pending responses under a deadline, prints the books, and run() returns
/// 0. In-flight pipelined requests are therefore answered, not dropped.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/slow_ring.hpp"
#include "obs/trace_event.hpp"
#include "shard/sharded_cache.hpp"

namespace ccc::server {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;          ///< cache protocol port; 0 = ephemeral
  bool metrics = true;             ///< serve HTTP /metrics
  std::uint16_t metrics_port = 0;  ///< 0 = ephemeral
  /// Cache-protocol connections beyond this are accepted and immediately
  /// closed (counted in `connections_rejected`).
  std::size_t max_connections = 1024;
  /// Upper bound on requests folded into one access_batch call.
  std::size_t batch_limit = 1024;
  /// Pending-output bytes beyond which a connection's reads are paused.
  std::size_t max_output_backlog = std::size_t{4} << 20;
  /// SO_SNDBUF for accepted cache connections; 0 keeps the kernel default.
  /// A small value makes send() hit EAGAIN early, forcing the backpressure
  /// machinery to engage — the lifecycle tests rely on that determinism.
  std::size_t so_sndbuf = 0;
  /// Seconds allowed for the shutdown flush of pending responses.
  double drain_deadline_seconds = 5.0;
};

/// Plain counters owned by the event-loop thread. Snapshot via
/// CacheServer::counters() — exact once run() has returned; advisory (the
/// loop may be mid-update) while it is still running.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  /// Over max_connections, or shed while the process is out of fds.
  std::uint64_t connections_rejected = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames = 0;           ///< well-formed frames decoded
  std::uint64_t requests = 0;         ///< GET/SET served through the cache
  std::uint64_t stats_requests = 0;   ///< STATS frames answered
  std::uint64_t rebalance_requests = 0;  ///< REBALANCE frames applied
  std::uint64_t bad_requests = 0;     ///< well-framed but unserviceable
  std::uint64_t protocol_errors = 0;  ///< framing errors (connection fatal)
  std::uint64_t batches = 0;          ///< access_batch calls
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t metrics_scrapes = 0;  ///< /metrics responses served
  std::uint64_t debug_requests = 0;   ///< /debug/* responses served
  std::uint64_t reads_paused = 0;     ///< backpressure activations
};

class CacheServer {
 public:
  /// `factory`/`costs` as in ShardedCache: nullptr `factory` selects
  /// ALG-DISCRETE; `costs` is required and must outlive the server.
  CacheServer(ServerOptions options, ShardedCacheOptions cache_options,
              PolicyFactory factory,
              const std::vector<CostFunctionPtr>* costs);
  ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  /// Binds and listens on both ports. After start() returns, port() and
  /// metrics_port() are final and a client may connect (the backlog queues
  /// until run() begins servicing). Throws std::runtime_error on any
  /// socket failure.
  void start();

  /// Runs the event loop until a stop request arrives; returns 0 after a
  /// graceful drain (the only non-throwing way out). Call start() first.
  int run();

  /// Thread-safe stop request: wakes the loop via the wake pipe. Safe to
  /// call from any thread, any number of times, before or during run().
  void request_stop() noexcept;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint16_t metrics_port() const noexcept {
    return metrics_port_;
  }

  [[nodiscard]] const ShardedCache& cache() const noexcept { return cache_; }
  [[nodiscard]] ServerCounters counters() const noexcept { return counters_; }

  /// Builds the same registry the /metrics endpoint serializes: server
  /// counters, batch-size/latency and per-connection-lifetime histograms,
  /// the per-stage request-latency attribution histograms
  /// (`ccc_server_stage_latency_ns{stage=decode|queue|cache|encode|flush}`),
  /// plus the full sharded-cache snapshot (per-tenant books, per-shard
  /// occupancy, perf counters, live competitive-ratio gauges).
  void fill_metrics(obs::MetricsRegistry& registry) const;

  /// Attaches a span writer for per-batch server spans, togglable at
  /// runtime via `GET /debug/trace?on|off`. The writer must outlive the
  /// server; call before run(). nullptr (the default) disables both the
  /// spans and the toggle endpoint.
  void set_trace_writer(obs::TraceEventWriter* writer) noexcept {
    trace_writer_ = writer;
  }

  /// The N slowest attributed requests (what /debug/slow serves).
  [[nodiscard]] const obs::SlowRequestRing& slow_ring() const noexcept {
    return slow_ring_;
  }

  /// Write end of the wake pipe — what the signal glue writes to. Owned by
  /// the server; do not close.
  [[nodiscard]] int wake_fd() const noexcept { return wake_write_fd_; }

 private:
  struct Connection;

  void event_loop();
  void accept_ready(int listener_fd, bool metrics_listener);
  /// Out of fds (EMFILE/ENFILE): frees the reserve fd to accept and close
  /// one pending connection, then re-arms the reserve. Returns false when
  /// nothing could be shed.
  bool shed_pending_connection(int listener_fd);
  void handle_readable(Connection& conn);
  void handle_cache_bytes(Connection& conn, std::string_view bytes);
  void handle_metrics_bytes(Connection& conn, std::string_view bytes);
  /// Routes one parsed HTTP request (GET/HEAD mux: /metrics, /debug/*).
  void handle_http_request(Connection& conn, const std::string& method,
                           const std::string& target);
  [[nodiscard]] std::string debug_costs_json() const;
  [[nodiscard]] std::string debug_slow_json() const;
  /// Full bucket dump of one named histogram family, or a 404 body
  /// listing the valid names (the bool distinguishes the two).
  [[nodiscard]] std::pair<bool, std::string> debug_hist_json(
      std::string_view name) const;
  /// Runs the pending GET/SET batch (if any) and queues the responses.
  void flush_pending_batch(Connection& conn);
  void queue_stats_response(Connection& conn);
  /// Opportunistic write; arms EPOLLOUT when the socket would block, and
  /// applies the backpressure read-pause policy.
  void flush_output(Connection& conn);
  void close_connection(Connection& conn);
  void update_epoll(Connection& conn);
  void drain_and_exit();

  ServerOptions options_;
  ShardedCache cache_;
  /// Declared after cache_: its helpers are joined before the cache they
  /// drain is destroyed.
  DrainCrew crew_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  /// An open /dev/null held back so that at fd exhaustion the loop can
  /// still accept-and-close pending connections; otherwise the
  /// level-triggered listener would stay readable and spin the loop.
  int reserve_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
  bool started_ = false;
  bool stopping_ = false;

  std::vector<std::unique_ptr<Connection>> connections_;
  std::size_t cache_connections_ = 0;

  ServerCounters counters_;
  obs::Histogram batch_size_hist_;
  obs::Histogram batch_latency_ns_hist_;
  obs::Histogram connection_requests_hist_;  ///< requests per closed conn

  /// Request-latency attribution (DESIGN.md §13): stage deltas recorded by
  /// the loop thread at the stage boundaries — decode per read chunk,
  /// queue/cache/encode per batch, flush per non-empty flush_output call.
  obs::Histogram stage_decode_ns_hist_;
  obs::Histogram stage_queue_ns_hist_;
  obs::Histogram stage_cache_ns_hist_;
  obs::Histogram stage_encode_ns_hist_;
  obs::Histogram stage_flush_ns_hist_;
  obs::SlowRequestRing slow_ring_;
  obs::TraceEventWriter* trace_writer_ = nullptr;  ///< not owned
  /// Batch wall time spent inside the current decode chunk (loop thread
  /// only) — subtracted so the decode stage excludes nested batch flushes.
  std::uint64_t chunk_batch_ns_ = 0;
};

/// Installs SIGTERM and SIGINT handlers that stop `server` through its
/// wake pipe (one async-signal-safe write). One server per process at a
/// time: installing for a second server retargets the handlers.
void stop_on_signals(CacheServer& server);

}  // namespace ccc::server
