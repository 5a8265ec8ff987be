#pragma once
/// \file loadgen.hpp
/// \brief The loopback rig: an in-process CacheServer (4 shards on the
///        seqlock hit path, one event-loop thread) driven closed loop by one
///        pipelined BlockingClient connection on the calling thread.
///
/// Closed loop because a cache's callers are application threads that each
/// wait for their replies: the client sends a window of kWindow requests,
/// flushes, and reads all kWindow responses before sending the next window.
/// The requests arrive in trace order over the one connection, so the
/// server's books equal a direct single-threaded access_batch replay of the
/// same trace (DESIGN.md §12) — the check main.cpp makes.
///
/// One connection, not several: with two (a client thread each, or one
/// thread taking turns), whether the server found both windows waiting or
/// only the first depended on how fast its thread woke, and on a shared
/// 4-vCPU host the pass rate flipped between two levels a third apart every
/// few hundred milliseconds. One connection serialises client and server,
/// so a pass takes the sum of their costs.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

inline constexpr std::size_t kShards = 4;
/// The rig's one connection and one loop, named for the output and the CPU
/// check.
inline constexpr std::size_t kConnections = 1;
inline constexpr std::size_t kServerLoops = 1;
inline constexpr std::size_t kWindow = 256;

/// The cache configuration the server runs, and the direct replay mirrors.
[[nodiscard]] ccc::ShardedCacheOptions server_cache_options(
    const Workload& workload, std::uint64_t seed);

/// One pass over the trace.
struct PassResult {
  double wall_s = 0.0;              ///< first send → last response
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;       ///< hit or miss responses
  std::uint64_t error_responses = 0;
  std::uint64_t lost = 0;           ///< unanswered after a transport failure
  std::string failure;              ///< first transport failure, if any
  std::vector<std::uint64_t> hits;    ///< per tenant, from the responses
  std::vector<std::uint64_t> misses;  ///< per tenant, from the responses
  /// Per request: window flush → response.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  // Traced passes only:
  double window_wait_p99_us = 0.0;  ///< per window: flush → last response
  double enqueue_s = 0.0;     ///< Σ time in the enqueue_get loops
  double read_s = 0.0;        ///< Σ time waiting for and reading responses

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return error_responses + lost;
  }
};

class ServerRig {
 public:
  /// Generates the trace, starts the server and connects the client.
  ServerRig(const Workload& workload, std::uint64_t seed);
  ~ServerRig();

  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;

  /// Replays the trace once. A traced pass also times each window's
  /// enqueue / flush / wait; with a `log` it records those as spans too.
  PassResult serve_pass(bool traced, SpanLog* log = nullptr);

  /// The server's books, through a STATS round-trip.
  [[nodiscard]] ccc::server::StatsPayload stats() const;

  /// Closes the client, stops the server and joins its loop; afterwards
  /// the server's counters() and fill_metrics() are exact. Throws if the
  /// loop did not exit cleanly. Idempotent.
  void stop();

  [[nodiscard]] const ccc::Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const std::vector<ccc::CostFunctionPtr>& costs()
      const noexcept {
    return costs_;
  }
  [[nodiscard]] const ccc::server::CacheServer& server() const noexcept {
    return *server_;
  }

 private:
  ccc::Trace trace_;
  std::vector<ccc::CostFunctionPtr> costs_;
  /// Sample buffers, sized once and reused by every pass: a pass allocates
  /// no large buffer, so it takes no page faults inside the timed region.
  std::vector<double> latency_ns_;
  std::vector<double> window_wait_ns_;
  std::unique_ptr<ccc::server::CacheServer> server_;
  std::unique_ptr<ccc::server::BlockingClient> client_;
  int loop_rc_ = -1;
  bool stopped_ = false;
  std::thread loop_;  ///< declared last: it uses the members above
};

}  // namespace perfbench
