/// \file server.cpp
/// \brief epoll event loop, request batching, metrics endpoint, shutdown.

#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "server/http.hpp"
#include "server/protocol.hpp"

namespace ccc::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds for the stage stamps (steady clock, comparable
/// only within this process).
std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// epoll user-data sentinels for the non-connection fds; connection events
/// carry the Connection pointer instead (always > kSentinelMax).
constexpr std::uint64_t kCacheListener = 1;
constexpr std::uint64_t kMetricsListener = 2;
constexpr std::uint64_t kWakePipe = 3;
constexpr std::uint64_t kSentinelMax = 3;

/// Bytes read per read() call on a ready connection.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

int make_listener(const std::string& address, std::uint16_t port,
                  std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad bind address: " + address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind");
  }
  if (::listen(fd, 128) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

/// Per-connection state. `metrics` connections speak HTTP; the rest speak
/// the binary protocol. All fields are touched only by the loop thread.
struct CacheServer::Connection {
  int fd = -1;
  bool metrics = false;
  bool closed = false;
  bool close_after_flush = false;
  bool read_paused = false;
  std::uint32_t epoll_mask = 0;  ///< events currently registered

  FrameDecoder decoder{kRequestBodyBytes};
  /// Contiguous run of GET/SET requests awaiting one access_batch call;
  /// `pending_ops[i]` is the opcode that produced `pending[i]` (SET
  /// responses say kOk where GET says kHit/kMiss).
  std::vector<Request> pending;
  std::vector<std::uint8_t> pending_ops;

  std::string out;
  std::size_t out_off = 0;
  std::string http_in;
  std::uint64_t requests_served = 0;
  /// Decode stamp of the oldest request in `pending` (0 = none): the queue
  /// stage of the latency attribution measures from here to batch start.
  std::uint64_t first_enqueue_ns = 0;
};

CacheServer::CacheServer(ServerOptions options,
                         ShardedCacheOptions cache_options,
                         PolicyFactory factory,
                         const std::vector<CostFunctionPtr>* costs)
    : options_(std::move(options)),
      cache_(cache_options, std::move(factory), costs),
      crew_(DrainCrew::helpers_for(cache_.num_shards())) {}

CacheServer::~CacheServer() {
  for (auto& conn : connections_)
    if (conn->fd >= 0) ::close(conn->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_listen_fd_ >= 0) ::close(metrics_listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void CacheServer::start() {
  if (started_) throw std::runtime_error("CacheServer::start called twice");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) throw_errno("pipe2");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (reserve_fd_ < 0) throw_errno("open(/dev/null)");

  listen_fd_ = make_listener(options_.bind_address, options_.port, port_);
  if (options_.metrics)
    metrics_listen_fd_ =
        make_listener(options_.bind_address, options_.metrics_port,
                      metrics_port_);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kCacheListener;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
    throw_errno("epoll_ctl(listener)");
  if (metrics_listen_fd_ >= 0) {
    ev.data.u64 = kMetricsListener;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, metrics_listen_fd_, &ev) != 0)
      throw_errno("epoll_ctl(metrics listener)");
  }
  ev.data.u64 = kWakePipe;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, &ev) != 0)
    throw_errno("epoll_ctl(wake pipe)");

  started_ = true;
}

int CacheServer::run() {
  if (!started_) throw std::runtime_error("CacheServer::run without start");
  event_loop();
  drain_and_exit();
  return 0;
}

void CacheServer::request_stop() noexcept {
  if (wake_write_fd_ < 0) return;
  const char byte = 's';
  // A full pipe means a wake is already pending — mission accomplished.
  (void)!::write(wake_write_fd_, &byte, 1);
}

void CacheServer::event_loop() {
  std::array<epoll_event, 128> events{};
  while (!stopping_) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kWakePipe) {
        stopping_ = true;
        continue;
      }
      if (ev.data.u64 == kCacheListener) {
        accept_ready(listen_fd_, /*metrics_listener=*/false);
        continue;
      }
      if (ev.data.u64 == kMetricsListener) {
        accept_ready(metrics_listen_fd_, /*metrics_listener=*/true);
        continue;
      }
      auto* conn = static_cast<Connection*>(ev.data.ptr);
      if (conn == nullptr || conn->closed) continue;
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (ev.events & EPOLLIN) == 0) {
        close_connection(*conn);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) flush_output(*conn);
      if (!conn->closed && (ev.events & EPOLLIN) != 0) handle_readable(*conn);
    }
    // Reap closed connections after the event batch: an event later in the
    // batch may still reference a connection closed by an earlier one.
    std::erase_if(connections_,
                  [](const std::unique_ptr<Connection>& c) {
                    return c->closed;
                  });
  }
}

void CacheServer::accept_ready(int listener_fd, bool metrics_listener) {
  while (true) {
    const int fd = ::accept4(listener_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if ((errno == EMFILE || errno == ENFILE) &&
          shed_pending_connection(listener_fd))
        continue;
      return;  // transient accept failures shed load, they don't kill the loop
    }
    if (!metrics_listener &&
        cache_connections_ >= options_.max_connections) {
      ::close(fd);
      ++counters_.connections_rejected;
      continue;
    }
    if (!metrics_listener) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (options_.so_sndbuf > 0) {
        const int sndbuf = static_cast<int>(options_.so_sndbuf);
        (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
      }
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->metrics = metrics_listener;
    conn->epoll_mask = EPOLLIN;
    epoll_event ev{};
    ev.events = conn->epoll_mask;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    ++counters_.connections_accepted;
    if (!metrics_listener) ++cache_connections_;
    connections_.push_back(std::move(conn));
  }
}

bool CacheServer::shed_pending_connection(int listener_fd) {
  if (reserve_fd_ < 0) return false;
  ::close(reserve_fd_);
  const int fd = ::accept4(listener_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) {
    ::close(fd);
    ++counters_.connections_rejected;
  }
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void CacheServer::handle_readable(Connection& conn) {
  // Read until EAGAIN, with a per-event byte cap so one firehose
  // connection cannot starve the rest (level-triggered epoll re-notifies).
  const std::size_t read_cap = kReadChunk * 16;
  std::size_t read_total = 0;
  static thread_local std::vector<char> chunk;
  chunk.resize(kReadChunk);
  while (read_total < read_cap && !conn.closed && !conn.close_after_flush) {
    const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
    if (n == 0) {
      // Peer closed. Serve whatever complete frames arrived (the books
      // must reflect every request the kernel delivered), then drop the
      // connection and any half-frame with it.
      flush_pending_batch(conn);
      close_connection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn);
      return;
    }
    counters_.bytes_read += static_cast<std::uint64_t>(n);
    read_total += static_cast<std::size_t>(n);
    const std::string_view bytes(chunk.data(), static_cast<std::size_t>(n));
    if (conn.metrics)
      handle_metrics_bytes(conn, bytes);
    else
      handle_cache_bytes(conn, bytes);
  }
  if (!conn.closed) {
    flush_pending_batch(conn);
    flush_output(conn);
  }
}

void CacheServer::handle_cache_bytes(Connection& conn,
                                     std::string_view bytes) {
  // One stamp per read chunk: every request decoded from this chunk shares
  // it as its arrival time — cheap (two clock reads per chunk, not per
  // frame) and accurate to within one chunk's decode time. Batch-limit
  // flushes run *inside* the decoder callback; their wall time accumulates
  // in chunk_batch_ns_ and is excluded so the decode stage measures only
  // frame parsing.
  const std::uint64_t decode_start_ns = now_ns();
  chunk_batch_ns_ = 0;
  const DecodeError err = conn.decoder.feed(
      bytes, [this, &conn, decode_start_ns](const FrameView& frame) {
        ++counters_.frames;
        const std::optional<RequestMsg> msg = parse_request(frame);
        // A body-size mismatch cannot happen here (the decoder's max body
        // equals the request body size and shorter lengths parse as a
        // wrong-sized body), but keep the guard honest.
        if (!msg.has_value()) {
          flush_pending_batch(conn);
          append_response(conn.out, Status::kBadRequest);
          ++counters_.bad_requests;
          return;
        }
        switch (static_cast<Opcode>(msg->opcode)) {
          case Opcode::kGet:
          case Opcode::kSet: {
            // Reject what the cache would reject — out-of-range tenants
            // throw in ShardedCache, and a page id whose high bits do not
            // encode its claimed owner violates the paper's disjoint page
            // sets (types.hpp). ~0 is FlatMap's reserved key.
            if (msg->tenant >= cache_.num_tenants() ||
                page_owner(msg->page) != msg->tenant ||
                msg->page == ~PageId{0}) {
              flush_pending_batch(conn);
              append_response(conn.out, Status::kBadRequest);
              ++counters_.bad_requests;
              return;
            }
            if (conn.pending.empty()) conn.first_enqueue_ns = decode_start_ns;
            conn.pending.push_back(Request{msg->tenant, msg->page});
            conn.pending_ops.push_back(msg->opcode);
            if (conn.pending.size() >= options_.batch_limit)
              flush_pending_batch(conn);
            return;
          }
          case Opcode::kStats:
            flush_pending_batch(conn);
            queue_stats_response(conn);
            ++counters_.stats_requests;
            return;
          case Opcode::kRebalance:
            // Flush first so the split sees this connection's pipelined
            // requests; other connections' batches flush on their own
            // readiness events, so a client wanting a deterministic
            // boundary must quiesce them (how e11's segment barriers do
            // it). rebalance() resizes each shard under its mutex — under
            // kSeqlock the table rebuild runs in an odd seq window — so
            // serving it from the loop thread is safe mid-traffic.
            flush_pending_batch(conn);
            cache_.rebalance();
            append_response(conn.out, Status::kOk);
            ++counters_.rebalance_requests;
            return;
        }
        flush_pending_batch(conn);
        append_response(conn.out, Status::kBadRequest);
        ++counters_.bad_requests;
      });
  const std::uint64_t decode_elapsed_ns = now_ns() - decode_start_ns;
  stage_decode_ns_hist_.record(decode_elapsed_ns > chunk_batch_ns_
                                   ? decode_elapsed_ns - chunk_batch_ns_
                                   : 0);
  if (err != DecodeError::kNone) {
    // Framing is unrecoverable: answer everything decoded so far, send one
    // kMalformed marker and close — this connection only.
    flush_pending_batch(conn);
    append_response(conn.out, Status::kMalformed,
                    static_cast<std::uint64_t>(err));
    ++counters_.protocol_errors;
    conn.close_after_flush = true;
  }
}

void CacheServer::flush_pending_batch(Connection& conn) {
  if (conn.pending.empty()) return;
  static thread_local std::vector<StepEvent> events;
  events.clear();
  // Stage stamps: queue = first enqueue → here; cache = access_batch;
  // encode = response serialization. Four clock reads per *batch* — the
  // per-request hit path is untouched (gated by the e11 regression cells).
  const std::uint64_t batch_start_ns = now_ns();
  const std::uint64_t queue_ns =
      conn.first_enqueue_ns != 0 && batch_start_ns > conn.first_enqueue_ns
          ? batch_start_ns - conn.first_enqueue_ns
          : 0;
  cache_.access_batch(std::span<const Request>(conn.pending), events, &crew_);
  const std::uint64_t cache_done_ns = now_ns();
  const std::uint64_t cache_ns = cache_done_ns - batch_start_ns;
  batch_latency_ns_hist_.record(cache_ns);
  batch_size_hist_.record(conn.pending.size());
  ++counters_.batches;
  counters_.requests += conn.pending.size();
  conn.requests_served += conn.pending.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (static_cast<Opcode>(conn.pending_ops[i]) == Opcode::kSet)
      append_response(conn.out, Status::kOk);
    else
      append_response(conn.out,
                      events[i].hit ? Status::kHit : Status::kMiss);
  }
  const std::uint64_t encode_done_ns = now_ns();
  const std::uint64_t encode_ns = encode_done_ns - cache_done_ns;
  stage_queue_ns_hist_.record(queue_ns);
  stage_cache_ns_hist_.record(cache_ns);
  stage_encode_ns_hist_.record(encode_ns);
  chunk_batch_ns_ += encode_done_ns - batch_start_ns;

  // Slow-request ring: attribute the batch to its oldest request (the one
  // that waited the full queue stage — the worst off in the batch).
  obs::SlowRequest slow;
  slow.queue_ns = queue_ns;
  slow.cache_ns = cache_ns;
  slow.encode_ns = encode_ns;
  slow.total_ns = queue_ns + cache_ns + encode_ns;
  slow.tenant = conn.pending.front().tenant;
  slow.page = conn.pending.front().page;
  slow.batch_size = static_cast<std::uint32_t>(conn.pending.size());
  slow_ring_.offer(slow);

  if (trace_writer_ != nullptr) {
    // complete_event drops the span itself when /debug/trace turned the
    // writer off — no second flag to keep in sync here. The span starts
    // at the first enqueue (queue + cache + encode ago).
    const std::uint64_t dur_us = slow.total_ns / 1000;
    const std::uint64_t end_us = trace_writer_->now_us();
    trace_writer_->complete_event(
        "batch", "server", end_us > dur_us ? end_us - dur_us : 0, dur_us,
        {{"size", conn.pending.size()},
         {"tenant", slow.tenant},
         {"queue_ns", queue_ns},
         {"cache_ns", cache_ns},
         {"encode_ns", encode_ns}});
  }

  conn.pending.clear();
  conn.pending_ops.clear();
  conn.first_enqueue_ns = 0;
}

void CacheServer::queue_stats_response(Connection& conn) {
  const Metrics metrics = cache_.aggregated_metrics();
  StatsPayload stats;
  stats.num_tenants = cache_.num_tenants();
  stats.num_shards = static_cast<std::uint32_t>(cache_.num_shards());
  stats.capacity = cache_.total_capacity();
  stats.lockfree_hits = cache_.aggregated_perf().lockfree_hits;
  stats.hits.reserve(stats.num_tenants);
  stats.misses.reserve(stats.num_tenants);
  stats.evictions.reserve(stats.num_tenants);
  for (TenantId t = 0; t < stats.num_tenants; ++t) {
    stats.hits.push_back(metrics.hits(t));
    stats.misses.push_back(metrics.misses(t));
    stats.evictions.push_back(metrics.evictions(t));
  }
  std::string body;
  append_stats_body(body, stats);
  append_response(conn.out, Status::kOk, 0,
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(body.data()),
                      body.size()));
}

void CacheServer::handle_metrics_bytes(Connection& conn,
                                       std::string_view bytes) {
  conn.http_in.append(bytes);
  HttpRequest request;
  std::size_t consumed = 0;
  const HttpParse parse = parse_http_head(conn.http_in, request, consumed);
  if (parse == HttpParse::kNeedMore) return;
  if (parse == HttpParse::kBad) {
    conn.out += make_http_response(400, "text/plain", "bad request\n");
    conn.close_after_flush = true;
    return;
  }
  conn.http_in.erase(0, consumed);
  handle_http_request(conn, request.method, request.target);
  conn.close_after_flush = true;
}

void CacheServer::handle_http_request(Connection& conn,
                                      const std::string& method,
                                      const std::string& target) {
  // HEAD gets the GET headers and Content-Length, no body (http.hpp).
  const bool head = method == "HEAD";
  if (method != "GET" && !head) {
    conn.out +=
        make_http_response(405, "text/plain", "method not allowed\n");
    return;
  }
  const std::size_t query_at = target.find('?');
  const std::string path = target.substr(0, query_at);
  const std::string query =
      query_at == std::string::npos ? "" : target.substr(query_at + 1);

  if (path == "/metrics") {
    obs::MetricsRegistry registry;
    fill_metrics(registry);
    std::ostringstream page;
    registry.write_prometheus(page);
    conn.out += make_http_response(200, std::string(kPrometheusContentType),
                                  page.str(), head);
    ++counters_.metrics_scrapes;
    return;
  }
  if (path == "/debug/costs") {
    conn.out +=
        make_http_response(200, "application/json", debug_costs_json(), head);
    ++counters_.debug_requests;
    return;
  }
  if (path == "/debug/slow") {
    conn.out +=
        make_http_response(200, "application/json", debug_slow_json(), head);
    ++counters_.debug_requests;
    return;
  }
  if (path == "/debug/trace") {
    if (trace_writer_ == nullptr) {
      conn.out += make_http_response(
          400, "application/json",
          "{\"error\": \"tracing not configured — start with CCC_OBS_TRACE "
          "set\"}\n",
          head);
      return;
    }
    if (query == "on") trace_writer_->set_enabled(true);
    if (query == "off") trace_writer_->set_enabled(false);
    conn.out += make_http_response(
        200, "application/json",
        trace_writer_->enabled() ? "{\"tracing\": true}\n"
                                 : "{\"tracing\": false}\n",
        head);
    ++counters_.debug_requests;
    return;
  }
  if (path.rfind("/debug/hist/", 0) == 0) {
    const auto [found, body] =
        debug_hist_json(std::string_view(path).substr(12));
    conn.out += make_http_response(found ? 200 : 404, "application/json",
                                   body, head);
    ++counters_.debug_requests;
    return;
  }
  conn.out += make_http_response(404, "text/plain", "not found\n", head);
}

std::string CacheServer::debug_costs_json() const {
  std::ostringstream os;
  const obs::CostSnapshot snap = obs::CostTracker::collect(cache_).snapshot(
      cache_.costs(), cache_.total_capacity());
  os << "{\n  \"certified\": " << (snap.certified ? "true" : "false")
     << ",\n  \"cost_total\": " << snap.cost_total
     << ",\n  \"dual_lower_bound\": " << snap.dual_lower_bound
     << ",\n  \"competitive_ratio\": " << snap.competitive_ratio
     << ",\n  \"theorem_alpha_k\": " << snap.theorem_alpha_k
     << ",\n  \"theorem_ratio_bound\": " << snap.theorem_ratio_bound
     << ",\n  \"tenants\": [";
  for (std::size_t t = 0; t < snap.tenant_cost.size(); ++t) {
    if (t != 0) os << ",";
    os << "\n    {\"tenant\": " << t << ", \"cost\": " << snap.tenant_cost[t]
       << ", \"lower_bound\": " << snap.tenant_lower_bound[t]
       << ", \"ratio\": " << snap.tenant_ratio[t] << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string CacheServer::debug_slow_json() const {
  const std::vector<obs::SlowRequest> slow = slow_ring_.snapshot();
  std::ostringstream os;
  os << "{\n  \"capacity\": " << slow_ring_.capacity()
     << ",\n  \"requests\": [";
  for (std::size_t i = 0; i < slow.size(); ++i) {
    const obs::SlowRequest& r = slow[i];
    if (i != 0) os << ",";
    os << "\n    {\"total_ns\": " << r.total_ns
       << ", \"tenant\": " << r.tenant << ", \"page\": " << r.page
       << ", \"batch_size\": " << r.batch_size
       << ", \"queue_ns\": " << r.queue_ns
       << ", \"cache_ns\": " << r.cache_ns
       << ", \"encode_ns\": " << r.encode_ns << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::pair<bool, std::string> CacheServer::debug_hist_json(
    std::string_view name) const {
  obs::MetricsRegistry registry;
  fill_metrics(registry);
  const obs::MetricFamily* family = registry.find(std::string(name));
  if (family == nullptr || family->kind != obs::MetricKind::kHistogram) {
    // 404 body lists what *would* work, so the endpoint is discoverable.
    std::ostringstream os;
    os << "{\"error\": \"no histogram named '" << name
       << "'\", \"histograms\": [";
    bool first = true;
    for (const obs::MetricFamily& f : registry.families()) {
      if (f.kind != obs::MetricKind::kHistogram) continue;
      if (!first) os << ", ";
      first = false;
      os << '"' << f.name << '"';
    }
    os << "]}\n";
    return {false, os.str()};
  }
  std::ostringstream os;
  os << "{\n  \"name\": \"" << family->name << "\",\n  \"help\": \""
     << family->help << "\",\n  \"samples\": [";
  for (std::size_t s = 0; s < family->histograms.size(); ++s) {
    const obs::HistogramSample& sample = family->histograms[s];
    if (s != 0) os << ",";
    os << "\n    {\"labels\": {";
    for (std::size_t l = 0; l < sample.labels.size(); ++l) {
      if (l != 0) os << ", ";
      os << '"' << sample.labels[l].first << "\": \""
         << sample.labels[l].second << '"';
    }
    const obs::HistogramSnapshot& snap = sample.snapshot;
    os << "}, \"count\": " << snap.count << ", \"sum\": " << snap.sum
       << ", \"min\": " << snap.min << ", \"max\": " << snap.max
       << ", \"p50\": " << snap.quantile(0.50)
       << ", \"p99\": " << snap.quantile(0.99)
       << ", \"p999\": " << snap.quantile(0.999) << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      if (snap.buckets[i] == 0) continue;
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << '[' << obs::Histogram::bucket_high(i) << ", " << snap.buckets[i]
         << ']';
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  return {true, os.str()};
}

void CacheServer::fill_metrics(obs::MetricsRegistry& registry) const {
  const ServerCounters& c = counters_;
  const auto counter = [&registry](const char* name, const char* help,
                                   std::uint64_t value) {
    registry.set_counter(name, help, {}, static_cast<double>(value));
  };
  counter("ccc_server_connections_accepted_total",
          "Connections accepted on the cache port", c.connections_accepted);
  counter("ccc_server_connections_rejected_total",
          "Connections refused over max_connections", c.connections_rejected);
  counter("ccc_server_connections_closed_total", "Connections closed",
          c.connections_closed);
  registry.set_gauge("ccc_server_connections_active",
                     "Cache-protocol connections currently open", {},
                     static_cast<double>(cache_connections_));
  counter("ccc_server_frames_total", "Well-formed frames decoded", c.frames);
  counter("ccc_server_requests_total", "GET/SET requests served", c.requests);
  counter("ccc_server_stats_requests_total", "STATS requests served",
          c.stats_requests);
  counter("ccc_server_rebalance_requests_total",
          "REBALANCE requests applied", c.rebalance_requests);
  counter("ccc_server_bad_requests_total",
          "Well-framed but unserviceable requests", c.bad_requests);
  counter("ccc_server_protocol_errors_total",
          "Framing errors (fatal per connection)", c.protocol_errors);
  counter("ccc_server_batches_total", "access_batch calls", c.batches);
  counter("ccc_server_drain_fanouts_total",
          "Batches whose shard groups the drain helpers drained beside the "
          "loop thread",
          crew_.jobs());
  registry.set_gauge("ccc_server_drain_helpers",
                     "Helper threads that drain shard groups beside the loop "
                     "thread",
                     {}, static_cast<double>(crew_.helpers()));
  counter("ccc_server_bytes_read_total", "Bytes read from cache connections",
          c.bytes_read);
  counter("ccc_server_bytes_written_total", "Bytes written to clients",
          c.bytes_written);
  counter("ccc_server_metrics_scrapes_total", "/metrics responses served",
          c.metrics_scrapes);
  counter("ccc_server_debug_requests_total", "/debug/* responses served",
          c.debug_requests);
  counter("ccc_server_reads_paused_total",
          "Backpressure activations (output backlog over limit)",
          c.reads_paused);
  registry.set_histogram("ccc_server_batch_size",
                         "Requests folded into one access_batch call", {},
                         batch_size_hist_.snapshot());
  registry.set_histogram("ccc_server_batch_latency_ns",
                         "access_batch service time per batch", {},
                         batch_latency_ns_hist_.snapshot());
  registry.set_histogram("ccc_server_connection_requests",
                         "Requests served per closed connection", {},
                         connection_requests_hist_.snapshot());
  // One family, one sample per stage: decode (frame parsing per read
  // chunk), queue (first enqueue → batch start), cache (access_batch),
  // encode (response serialization), flush (socket writes).
  const auto stage = [&registry](const char* name,
                                 const obs::Histogram& hist) {
    registry.set_histogram("ccc_server_stage_latency_ns",
                           "Per-stage request latency attribution",
                           {{"stage", name}}, hist.snapshot());
  };
  stage("decode", stage_decode_ns_hist_);
  stage("queue", stage_queue_ns_hist_);
  stage("cache", stage_cache_ns_hist_);
  stage("encode", stage_encode_ns_hist_);
  stage("flush", stage_flush_ns_hist_);
  obs::snapshot_sharded(registry, cache_);
}

void CacheServer::flush_output(Connection& conn) {
  // Flush stage: recorded only when there is output to push, so idle
  // wakeups do not flood the histogram with zeros.
  const bool had_output = conn.out_off < conn.out.size();
  const std::uint64_t flush_start_ns = had_output ? now_ns() : 0;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(conn);
      return;
    }
    counters_.bytes_written += static_cast<std::uint64_t>(n);
    conn.out_off += static_cast<std::size_t>(n);
  }
  if (had_output) stage_flush_ns_hist_.record(now_ns() - flush_start_ns);
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      close_connection(conn);
      return;
    }
  }
  const std::size_t backlog = conn.out.size() - conn.out_off;
  if (!conn.read_paused && backlog > options_.max_output_backlog) {
    conn.read_paused = true;
    ++counters_.reads_paused;
  } else if (conn.read_paused && backlog <= options_.max_output_backlog / 2) {
    conn.read_paused = false;
  }
  update_epoll(conn);
}

void CacheServer::update_epoll(Connection& conn) {
  if (conn.closed) return;
  std::uint32_t mask = 0;
  if (!conn.read_paused && !conn.close_after_flush) mask |= EPOLLIN;
  if (conn.out_off < conn.out.size()) mask |= EPOLLOUT;
  if (mask == conn.epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.ptr = &conn;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
    conn.epoll_mask = mask;
}

void CacheServer::close_connection(Connection& conn) {
  if (conn.closed) return;
  conn.closed = true;
  if (!conn.metrics) {
    --cache_connections_;
    connection_requests_hist_.record(conn.requests_served);
  }
  ++counters_.connections_closed;
  ::close(conn.fd);  // removes it from the epoll set too
  conn.fd = -1;
}

void CacheServer::drain_and_exit() {
  // 1. Stop accepting: new connections get RST/refused once the listeners
  //    close; already-accepted ones are served to completion below.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_listen_fd_ >= 0) {
    ::close(metrics_listen_fd_);
    metrics_listen_fd_ = -1;
  }

  // 2. Final read-drain: serve every complete frame the kernel has already
  //    queued for us, so no pipelined in-flight request goes unanswered.
  for (auto& conn : connections_)
    if (!conn->closed && !conn->metrics) handle_readable(*conn);

  // 3. Flush pending responses under a deadline.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.drain_deadline_seconds));
  std::array<epoll_event, 64> events{};
  while (Clock::now() < deadline) {
    bool backlog = false;
    for (auto& conn : connections_)
      if (!conn->closed && conn->out_off < conn->out.size()) backlog = true;
    if (!backlog) break;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 <= kSentinelMax) continue;
      auto* conn = static_cast<Connection*>(ev.data.ptr);
      if (conn == nullptr || conn->closed) continue;
      if ((ev.events & EPOLLOUT) != 0) flush_output(*conn);
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) close_connection(*conn);
    }
  }

  for (auto& conn : connections_)
    if (!conn->closed) close_connection(*conn);
  connections_.clear();

  // 4. Flush the books: one parseable summary line on stdout.
  const Metrics metrics = cache_.aggregated_metrics();
  std::cout << "ccc-serverd: graceful shutdown — requests="
            << counters_.requests << " hits=" << metrics.total_hits()
            << " misses=" << metrics.total_misses()
            << " evictions=" << metrics.total_evictions()
            << " connections=" << counters_.connections_accepted
            << " protocol_errors=" << counters_.protocol_errors
            << " miss_cost=" << cache_.global_miss_cost() << "\n"
            << std::flush;
}

namespace {

// The signal glue: handlers may fire on any thread at any time, so all
// they do is write one byte to the registered wake fd (async-signal-safe).
std::atomic<int> g_signal_wake_fd{-1};

void signal_stop_handler(int /*signo*/) {
  const int fd = g_signal_wake_fd.load();
  if (fd >= 0) {
    const char byte = 's';
    (void)!::write(fd, &byte, 1);
  }
}

}  // namespace

void stop_on_signals(CacheServer& server) {
  g_signal_wake_fd.store(server.wake_fd());
  struct sigaction sa{};
  sa.sa_handler = signal_stop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  (void)::sigaction(SIGTERM, &sa, nullptr);
  (void)::sigaction(SIGINT, &sa, nullptr);
}

}  // namespace ccc::server
