#pragma once
/// \file client.hpp
/// \brief Blocking pipelined client for the cache-server protocol, plus a
///        one-shot HTTP GET helper — the client side of tests and the e11
///        loopback load generator.
///
/// The client is deliberately dumb: it buffers encoded requests until
/// flush(), then reads responses through the same FrameDecoder the server
/// uses. Pipelining discipline (bounding requests in flight so neither
/// side's socket buffers fill with unread data) is the caller's job — e11
/// sends a window of W requests, reads W responses, repeats.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.hpp"

namespace ccc::server {

class BlockingClient {
 public:
  /// Connects to `address:port` (blocking, TCP_NODELAY, 30 s receive
  /// timeout so a wedged server fails tests instead of hanging them).
  /// `max_response_body` bounds the response bodies this client will
  /// buffer — it must cover the STATS payload for the server's tenant
  /// count. Throws std::runtime_error on connect failure.
  explicit BlockingClient(const std::string& address, std::uint16_t port,
                          std::size_t max_response_body = std::size_t{1}
                                                          << 20);
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  // ---- pipelined interface ----

  void enqueue_get(TenantId tenant, PageId page);
  void enqueue_set(TenantId tenant, PageId page);
  void enqueue_stats();
  void enqueue_rebalance();
  /// Appends raw bytes to the outbox verbatim (tests: malformed frames).
  void append_raw(std::string_view bytes);
  [[nodiscard]] std::size_t outbox_bytes() const noexcept {
    return out_.size();
  }

  /// Writes the whole outbox to the socket (blocking until accepted).
  void flush();

  /// Blocks until at least `count` responses have been delivered to `sink`
  /// since this call began. Pipelined responses decoded in the same read
  /// are delivered in order as they arrive (possibly more than `count` if
  /// the caller over-sent; never beyond what was requested on the wire).
  /// Throws on EOF, receive timeout, or a framing error from the server.
  void read_responses(std::size_t count,
                      const std::function<void(const ResponseMsg&)>& sink);

  // ---- lockstep conveniences (tests) ----

  /// enqueue + flush + read one response; returns its status byte.
  std::uint8_t call(Opcode opcode, TenantId tenant, PageId page);
  /// STATS round-trip; throws if the payload does not parse.
  StatsPayload stats();
  /// REBALANCE round-trip; throws unless the server answers kOk. Returns
  /// only after the server has applied the new capacity split, so the
  /// caller can treat it as a synchronization point (e11's segment
  /// boundaries rely on that).
  void rebalance();

  /// Half-close: no more requests, but responses still flow — how a
  /// well-behaved client signals "done" before draining its tail.
  void shutdown_write();
  void close();
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  std::string out_;
  FrameDecoder decoder_;
  std::vector<char> in_;  ///< receive buffer, kept across read_responses
};

/// One-shot HTTP/1.1 GET: connects, requests `target`, reads to EOF and
/// returns the entire response (status line, headers, body). Throws on
/// connect/IO failure.
std::string http_get(const std::string& address, std::uint16_t port,
                     const std::string& target);

}  // namespace ccc::server
