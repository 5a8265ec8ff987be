// Lifecycle and integration tests for the networked cache-server frontend
// (src/server): request/response semantics over real loopback sockets, the
// zero-drift determinism contract vs a direct access_batch replay
// (DESIGN.md §12), SIGTERM mid-pipeline draining, mid-frame connection
// drops, oversized-frame isolation, connection limits, fd exhaustion,
// backpressure, /metrics exposition under concurrent load, and an idle
// loop and drain helpers that block or park instead of spinning.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cost/monomial.hpp"
#include "obs/registry.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "sim/metrics.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

constexpr const char* kLoopback = "127.0.0.1";

std::vector<CostFunctionPtr> quadratic_costs(std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  costs.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    costs.push_back(
        std::make_unique<MonomialCost>(2.0, 1.0 + static_cast<double>(t % 3)));
  return costs;
}

/// In-process server on ephemeral ports with its event loop on a thread.
struct ServerHarness {
  std::vector<CostFunctionPtr> costs;
  std::unique_ptr<server::CacheServer> server;
  std::thread thread;
  int rc = -1;

  explicit ServerHarness(server::ServerOptions options = {},
                         std::uint32_t tenants = 4, std::size_t shards = 4,
                         std::size_t capacity = 32,
                         HitPath hit_path = HitPath::kSeqlock)
      : costs(quadratic_costs(tenants)) {
    ShardedCacheOptions cache_options;
    cache_options.capacity = capacity;
    cache_options.num_shards = shards;
    cache_options.num_tenants = tenants;
    cache_options.seed = 7;
    cache_options.hit_path = hit_path;
    server = std::make_unique<server::CacheServer>(
        std::move(options), cache_options, nullptr, &costs);
    server->start();
    thread = std::thread([this] { rc = server->run(); });
  }

  /// Stops (idempotent) and returns run()'s exit code.
  int stop() {
    server->request_stop();
    if (thread.joinable()) thread.join();
    return rc;
  }

  ~ServerHarness() { stop(); }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }
};

using StatusByte = std::uint8_t;

/// Window-pipelined replay of `requests` over one connection; returns the
/// response status bytes in request order.
std::vector<StatusByte> replay(server::BlockingClient& client,
                               const std::vector<Request>& requests,
                               std::size_t window) {
  std::vector<StatusByte> statuses;
  statuses.reserve(requests.size());
  std::size_t i = 0;
  while (i < requests.size()) {
    const std::size_t n = std::min(window, requests.size() - i);
    for (std::size_t j = 0; j < n; ++j)
      client.enqueue_get(requests[i + j].tenant, requests[i + j].page);
    client.flush();
    client.read_responses(n, [&](const server::ResponseMsg& msg) {
      statuses.push_back(msg.status);
    });
    i += n;
  }
  return statuses;
}

/// Raw HTTP exchange (arbitrary request text) against `port`; reads to EOF.
std::string http_raw(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, kLoopback, &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
      0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

Trace zipf_trace(std::uint32_t tenants, std::size_t length,
                 std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  workloads.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t)
    workloads.push_back({std::make_unique<ZipfPages>(64, 0.9), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

// ------------------------------------------------------------- semantics

TEST(Server, GetSetStatsRoundTrip) {
  ServerHarness harness;
  server::BlockingClient client(kLoopback, harness.port());

  const PageId page = make_page(0, 5);
  EXPECT_EQ(client.call(server::Opcode::kGet, 0, page),
            static_cast<StatusByte>(server::Status::kMiss));
  EXPECT_EQ(client.call(server::Opcode::kGet, 0, page),
            static_cast<StatusByte>(server::Status::kHit));
  EXPECT_EQ(client.call(server::Opcode::kSet, 0, page),
            static_cast<StatusByte>(server::Status::kOk));

  const server::StatsPayload stats = client.stats();
  EXPECT_EQ(stats.num_tenants, 4u);
  EXPECT_EQ(stats.num_shards, 4u);
  EXPECT_EQ(stats.capacity, 32u);
  ASSERT_EQ(stats.hits.size(), 4u);
  EXPECT_EQ(stats.misses[0], 1u);
  EXPECT_EQ(stats.hits[0], 2u);  // the second GET and the SET both hit
  EXPECT_EQ(harness.stop(), 0);
}

TEST(Server, PipelinedResponsesArriveInRequestOrder) {
  ServerHarness harness;
  server::BlockingClient client(kLoopback, harness.port());

  const PageId a = make_page(1, 1);
  const PageId b = make_page(1, 2);
  client.enqueue_get(1, a);
  client.enqueue_get(1, b);
  client.enqueue_get(1, a);
  client.enqueue_get(1, b);
  client.flush();
  std::vector<StatusByte> statuses;
  client.read_responses(
      4, [&](const server::ResponseMsg& msg) { statuses.push_back(msg.status); });
  const StatusByte kHit = static_cast<StatusByte>(server::Status::kHit);
  const StatusByte kMiss = static_cast<StatusByte>(server::Status::kMiss);
  EXPECT_EQ(statuses, (std::vector<StatusByte>{kMiss, kMiss, kHit, kHit}));
  EXPECT_EQ(harness.stop(), 0);
}

TEST(Server, WellFramedInvalidRequestsKeepConnectionAlive) {
  ServerHarness harness;
  server::BlockingClient client(kLoopback, harness.port());
  const StatusByte kBad = static_cast<StatusByte>(server::Status::kBadRequest);

  // Unknown opcode.
  EXPECT_EQ(client.call(static_cast<server::Opcode>(0x7F), 0, make_page(0, 1)),
            kBad);
  // Tenant out of range.
  EXPECT_EQ(client.call(server::Opcode::kGet, 99, make_page(99, 1)), kBad);
  // Page id whose high bits claim a different owner than the tenant field.
  EXPECT_EQ(client.call(server::Opcode::kGet, 0, make_page(1, 1)), kBad);
  // FlatMap's reserved key.
  EXPECT_EQ(client.call(server::Opcode::kGet, 0, ~PageId{0}), kBad);

  // Same connection still serves real traffic.
  EXPECT_EQ(client.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kMiss));
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.server->counters().bad_requests, 4u);
}

// --------------------------------------------------------- determinism

/// A server scalar (counter or gauge) from its metrics registry; exact once
/// the loop has stopped.
double server_scalar(const server::CacheServer& server, const char* name) {
  obs::MetricsRegistry registry;
  server.fill_metrics(registry);
  const obs::MetricFamily* family = registry.find(name);
  return family == nullptr || family->scalars.empty()
             ? -1.0
             : family->scalars.front().value;
}

TEST(Server, LoopbackReplayBitIdenticalToDirectBatchReplay) {
  constexpr std::uint32_t kTenants = 4;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCapacity = 32;
  const Trace trace = zipf_trace(kTenants, 20000, 42);

  // Direct single-threaded replay of the same trace — the reference books.
  const auto costs = quadratic_costs(kTenants);
  ShardedCacheOptions ref_options;
  ref_options.capacity = kCapacity;
  ref_options.num_shards = kShards;
  ref_options.num_tenants = kTenants;
  ref_options.seed = 7;
  ref_options.hit_path = HitPath::kSeqlock;
  ShardedCache reference(ref_options, nullptr, &costs);
  std::vector<StepEvent> events;
  reference.access_batch(std::span<const Request>(trace.requests()), events);
  const Metrics ref_metrics = reference.aggregated_metrics();

  // The books are hit-path invariant, so a server on either path must
  // reproduce the same reference. Three connections put at most two shards
  // into one batch; one connection carries all four, the widest fan-out
  // for the server's drain helpers.
  struct Case {
    std::size_t connections;
    std::size_t window;
  };
  for (const Case& c : {Case{3, 128}, Case{1, 256}}) {
    for (const HitPath path : {HitPath::kSeqlock, HitPath::kLocked}) {
      SCOPED_TRACE(testing::Message()
                   << (path == HitPath::kSeqlock ? "seqlock" : "locked")
                   << " connections=" << c.connections);
      // Partition by shard so each shard's subsequence arrives over exactly
      // one connection — the DESIGN.md §12 determinism precondition.
      std::vector<std::vector<Request>> partition(c.connections);
      for (const Request& request : trace.requests())
        partition[shard_of_page(request.page, kShards) % c.connections]
            .push_back(request);
      ServerHarness harness({}, kTenants, kShards, kCapacity, path);
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < c.connections; ++w)
        workers.emplace_back([&, w] {
          server::BlockingClient client(kLoopback, harness.port());
          const auto statuses = replay(client, partition[w], c.window);
          EXPECT_EQ(statuses.size(), partition[w].size());
        });
      for (std::thread& worker : workers) worker.join();

      server::BlockingClient probe(kLoopback, harness.port());
      const server::StatsPayload stats = probe.stats();
      for (TenantId t = 0; t < kTenants; ++t) {
        EXPECT_EQ(stats.hits[t], ref_metrics.hits(t)) << "tenant " << t;
        EXPECT_EQ(stats.misses[t], ref_metrics.misses(t)) << "tenant " << t;
        EXPECT_EQ(stats.evictions[t], ref_metrics.evictions(t))
            << "tenant " << t;
      }
      const double server_cost = total_cost(stats.misses, costs);
      const double reference_cost =
          total_cost(ref_metrics.miss_vector(), costs);
      // Cost ratio exactly 1.00.
      EXPECT_DOUBLE_EQ(server_cost, reference_cost);
      EXPECT_EQ(harness.stop(), 0);
      if (c.connections == 1 &&
          server_scalar(*harness.server, "ccc_server_drain_helpers") > 0) {
        EXPECT_GT(
            server_scalar(*harness.server, "ccc_server_drain_fanouts_total"),
            0);
      }
    }
  }
}

TEST(Server, RebalanceOpcodeMatchesDirectReplayWithRebalance) {
  constexpr std::uint32_t kTenants = 4;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kCapacity = 32;
  ServerHarness harness({}, kTenants, kShards, kCapacity);
  const Trace trace = zipf_trace(kTenants, 8000, 11);
  const std::vector<Request>& all = trace.requests();
  const std::size_t half = all.size() / 2;

  // One connection carries every shard's subsequence in trace order, so
  // the DESIGN.md §12 precondition holds trivially; REBALANCE lands at an
  // exact boundary because the client has read every response first.
  server::BlockingClient client(kLoopback, harness.port());
  const std::vector<Request> first(all.begin(),
                                   all.begin() + static_cast<long>(half));
  const std::vector<Request> second(all.begin() + static_cast<long>(half),
                                    all.end());
  replay(client, first, 128);
  client.rebalance();  // throws unless the server answers kOk
  replay(client, second, 128);

  // The applied split conserved total capacity.
  std::size_t total = 0;
  for (const std::size_t c : harness.server->cache().capacities()) total += c;
  EXPECT_EQ(total, kCapacity);

  // Books must be bit-identical to a direct replay that rebalances at the
  // same request boundary — same split (it reads the same miss books),
  // same resize-driven evictions, cost ratio exactly 1.
  const auto costs = quadratic_costs(kTenants);
  ShardedCacheOptions ref_options;
  ref_options.capacity = kCapacity;
  ref_options.num_shards = kShards;
  ref_options.num_tenants = kTenants;
  ref_options.seed = 7;
  ref_options.hit_path = HitPath::kSeqlock;
  ShardedCache reference(ref_options, nullptr, &costs);
  std::vector<StepEvent> events;
  reference.access_batch(std::span<const Request>(first), events);
  reference.rebalance();
  events.clear();
  reference.access_batch(std::span<const Request>(second), events);
  const Metrics ref_metrics = reference.aggregated_metrics();

  server::BlockingClient probe(kLoopback, harness.port());
  const server::StatsPayload stats = probe.stats();
  for (TenantId t = 0; t < kTenants; ++t) {
    EXPECT_EQ(stats.hits[t], ref_metrics.hits(t)) << "tenant " << t;
    EXPECT_EQ(stats.misses[t], ref_metrics.misses(t)) << "tenant " << t;
    EXPECT_EQ(stats.evictions[t], ref_metrics.evictions(t)) << "tenant " << t;
  }
  EXPECT_DOUBLE_EQ(total_cost(stats.misses, costs),
                   total_cost(ref_metrics.miss_vector(), costs));
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.server->counters().rebalance_requests, 1u);
}

// ----------------------------------------------------------- lifecycle

TEST(Server, SigtermMidPipelineDrainsEveryRequestAndExitsZero) {
  constexpr std::size_t kBurst = 5000;
  ServerHarness harness;
  server::stop_on_signals(*harness.server);
  server::BlockingClient client(kLoopback, harness.port());

  for (std::size_t i = 0; i < kBurst; ++i)
    client.enqueue_get(static_cast<TenantId>(i % 4),
                       make_page(static_cast<TenantId>(i % 4), i % 50));
  client.flush();
  // The whole burst now sits in socket buffers; SIGTERM must not drop it.
  std::raise(SIGTERM);

  std::size_t answered = 0;
  client.read_responses(kBurst, [&](const server::ResponseMsg& msg) {
    ++answered;
    EXPECT_TRUE(msg.status ==
                    static_cast<StatusByte>(server::Status::kHit) ||
                msg.status == static_cast<StatusByte>(server::Status::kMiss));
  });
  EXPECT_EQ(answered, kBurst);

  if (harness.thread.joinable()) harness.thread.join();
  EXPECT_EQ(harness.rc, 0);
  EXPECT_EQ(harness.server->counters().requests, kBurst);
}

// counters() is safe from any thread while run() is live (CI runs this
// under TSan): one thread polls it while a client pipelines 10^5 GETs.
// `requests` never decreases, and once every response is back it reads the
// client's count — before stop() as after.
TEST(Server, CountersReadableDuringLiveRun) {
  constexpr std::size_t kRequests = 100'000;
  ServerHarness harness;
  std::atomic<bool> done{false};
  std::uint64_t polls = 0;
  std::uint64_t decreases = 0;
  std::thread poller([&] {
    std::uint64_t last = 0;
    // Relaxed: `done` only ends the loop; join() orders the tallies.
    while (!done.load(std::memory_order_relaxed)) {
      const std::uint64_t now = harness.server->counters().requests;
      decreases += now < last ? 1 : 0;
      last = now;
      ++polls;
    }
  });
  std::vector<Request> requests;
  requests.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i)
    requests.push_back(Request{static_cast<TenantId>(i % 4),
                               make_page(static_cast<TenantId>(i % 4),
                                         (i * 7) % 40)});
  server::BlockingClient client(kLoopback, harness.port());
  EXPECT_EQ(replay(client, requests, 256).size(), kRequests);
  const std::uint64_t live = harness.server->counters().requests;
  done.store(true, std::memory_order_relaxed);  // see the poller's load
  poller.join();
  EXPECT_EQ(live, kRequests);
  EXPECT_EQ(decreases, 0u);
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.server->counters().requests, kRequests);
}

TEST(Server, MidFrameConnectionDropServesCompletePrefixAndLeaksNothing) {
  ServerHarness harness;
  {
    server::BlockingClient dropper(kLoopback, harness.port());
    // Two complete requests, answered — so we know the server parsed them.
    EXPECT_EQ(dropper.call(server::Opcode::kGet, 0, make_page(0, 1)),
              static_cast<StatusByte>(server::Status::kMiss));
    EXPECT_EQ(dropper.call(server::Opcode::kGet, 0, make_page(0, 1)),
              static_cast<StatusByte>(server::Status::kHit));
    // Then half a frame, then a hard close. (ASan ensures the buffered
    // half-frame and connection state leak nothing.)
    std::string half;
    server::append_request(half, server::Opcode::kGet, 0, make_page(0, 2));
    half.resize(half.size() / 2);
    dropper.append_raw(half);
    dropper.flush();
    dropper.close();
  }
  // The server keeps serving other connections.
  server::BlockingClient survivor(kLoopback, harness.port());
  EXPECT_EQ(survivor.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kHit));
  EXPECT_EQ(harness.stop(), 0);
  const server::ServerCounters counters = harness.server->counters();
  EXPECT_EQ(counters.requests, 3u);       // the half frame was never served
  EXPECT_EQ(counters.protocol_errors, 0u);  // a clean close is not an error
}

TEST(Server, OversizedFrameGetsErrorReplyWithoutTearingDownOthers) {
  ServerHarness harness;
  server::BlockingClient bystander(kLoopback, harness.port());
  EXPECT_EQ(bystander.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kMiss));

  server::BlockingClient offender(kLoopback, harness.port());
  // A length field promising a 1 GiB body.
  std::string huge(4, '\0');
  const std::uint32_t length = 1u << 30;
  std::memcpy(huge.data(), &length, sizeof length);
  offender.append_raw(huge);
  offender.flush();
  StatusByte status = 0;
  offender.read_responses(
      1, [&](const server::ResponseMsg& msg) { status = msg.status; });
  EXPECT_EQ(status, static_cast<StatusByte>(server::Status::kMalformed));
  // ...and that is the last frame on this connection.
  EXPECT_THROW(
      offender.read_responses(1, [](const server::ResponseMsg&) {}),
      std::runtime_error);

  // The bystander never noticed.
  EXPECT_EQ(bystander.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kHit));
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.server->counters().protocol_errors, 1u);
}

TEST(Server, BadMagicPoisonsOnlyThatConnection) {
  ServerHarness harness;
  server::BlockingClient offender(kLoopback, harness.port());
  offender.append_raw(std::string(24, '\x5A'));
  offender.flush();
  StatusByte status = 0;
  offender.read_responses(
      1, [&](const server::ResponseMsg& msg) { status = msg.status; });
  EXPECT_EQ(status, static_cast<StatusByte>(server::Status::kMalformed));

  server::BlockingClient survivor(kLoopback, harness.port());
  EXPECT_EQ(survivor.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kMiss));
  EXPECT_EQ(harness.stop(), 0);
}

TEST(Server, ConnectionLimitRejectsExtrasAndKeepsServingTheRest) {
  server::ServerOptions options;
  options.max_connections = 1;
  ServerHarness harness(std::move(options));

  server::BlockingClient first(kLoopback, harness.port());
  EXPECT_EQ(first.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kMiss));

  // The second connection is accepted and immediately closed.
  server::BlockingClient second(kLoopback, harness.port());
  EXPECT_THROW(second.call(server::Opcode::kGet, 0, make_page(0, 2)),
               std::runtime_error);

  // The first connection is unaffected.
  EXPECT_EQ(first.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kHit));
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.server->counters().connections_rejected, 1u);
}

/// CPU seconds `thread` has consumed so far.
double thread_cpu_seconds(std::thread& thread) {
  clockid_t clock{};
  EXPECT_EQ(::pthread_getcpuclockid(thread.native_handle(), &clock), 0);
  timespec ts{};
  EXPECT_EQ(::clock_gettime(clock, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Puts RLIMIT_NOFILE back when the test leaves scope.
struct FdLimitGuard {
  rlimit saved{};
  FdLimitGuard() { EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0); }
  ~FdLimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
};

TEST(Server, FdExhaustionShedsPendingConnectionsWithoutSpinning) {
  constexpr std::size_t kPeers = 8;
  ServerHarness harness;
  server::BlockingClient first(kLoopback, harness.port());
  EXPECT_EQ(first.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kMiss));

  // The peers' sockets exist before the limit drops, so only the server's
  // accept4 calls run into it.
  std::vector<int> peers;
  for (std::size_t i = 0; i < kPeers; ++i)
    peers.push_back(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.port());
  ASSERT_EQ(::inet_pton(AF_INET, kLoopback, &addr.sin_addr), 1);

  // New fds must number below the limit: leave room for about 2 accepts.
  FdLimitGuard guard;
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = guard.saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 2;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  for (const int fd : peers)
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // A listener left readable at EMFILE would spin the loop at 100%.
  const double cpu_before = thread_cpu_seconds(harness.thread);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(thread_cpu_seconds(harness.thread) - cpu_before, 0.1);

  EXPECT_EQ(first.call(server::Opcode::kGet, 0, make_page(0, 1)),
            static_cast<StatusByte>(server::Status::kHit));

  // Shed peers read EOF; the ones accepted before the limit bit stay open.
  std::size_t shed = 0;
  for (const int fd : peers) {
    pollfd pfd{fd, POLLIN, 0};
    char byte = 0;
    if (::poll(&pfd, 1, 100) == 1 && ::read(fd, &byte, 1) == 0) ++shed;
  }
  EXPECT_GE(shed, kPeers - 2);

  EXPECT_EQ(harness.stop(), 0);
  EXPECT_EQ(harness.server->counters().connections_rejected, shed);
  EXPECT_EQ(harness.server->counters().connections_accepted,
            1 + kPeers - shed);
  for (const int fd : peers) ::close(fd);
}

/// CPU seconds this whole process has consumed so far.
double process_cpu_seconds() {
  timespec ts{};
  EXPECT_EQ(::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The drain helpers spin only briefly after a batch: once traffic stops
// they park, and an idle daemon burns no CPU. The burst is churn-shaped
// (16 tenants × 64 pages, k = 8 per tenant, 4 shards, one connection), so
// its batches fan out wherever this host gives the server helpers.
TEST(Server, IdleDrainHelpersParkWithoutSpinning) {
  constexpr std::uint32_t kTenants = 16;
  ServerHarness harness({}, kTenants, 4, 8 * kTenants);
  {
    server::BlockingClient client(kLoopback, harness.port());
    const Trace trace = zipf_trace(kTenants, 20000, 5);
    EXPECT_EQ(replay(client, trace.requests(), 256).size(), trace.size());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(process_cpu_seconds() - cpu_before, 0.1);

  EXPECT_EQ(harness.stop(), 0);
  if (server_scalar(*harness.server, "ccc_server_drain_helpers") > 0) {
    EXPECT_GT(
        server_scalar(*harness.server, "ccc_server_drain_fanouts_total"), 0);
  }
}

// The loop polls only through the gap between request windows. Once traffic
// stops, with the connection still open, its last poll runs out, it blocks
// in epoll_wait again and its thread idles; a wake-up that serves no batch
// (here an HTTP scrape's accept and request) blocks without polling.
TEST(Server, LoopStopsPollingWhenTrafficStops) {
  constexpr std::uint32_t kTenants = 16;
  ServerHarness harness({}, kTenants, 4, 8 * kTenants);
  server::BlockingClient client(kLoopback, harness.port());
  const server::ServerCounters before = harness.server->counters();
  const Trace trace = zipf_trace(kTenants, 20000, 5);
  EXPECT_EQ(replay(client, trace.requests(), 256).size(), trace.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const server::ServerCounters quiet = harness.server->counters();
  const double cpu_before = thread_cpu_seconds(harness.thread);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(thread_cpu_seconds(harness.thread) - cpu_before, 0.05);
  EXPECT_GT(quiet.loop_waits, before.loop_waits);
  if (usable_cpus() >= 2) {
    EXPECT_GT(quiet.loop_polls, before.loop_polls);
    EXPECT_GT(quiet.loop_poll_budgets_expired,
              before.loop_poll_budgets_expired);
  }

  EXPECT_NE(http_raw(harness.server->metrics_port(),
                     "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("ccc_server_loop_polls_total"),
            std::string::npos);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const server::ServerCounters scraped = harness.server->counters();
  EXPECT_EQ(scraped.loop_polls, quiet.loop_polls);
  EXPECT_GT(scraped.loop_waits, quiet.loop_waits);
  EXPECT_EQ(harness.stop(), 0);
}

TEST(Server, BackpressurePausesReadsAndStillAnswersEverything) {
  constexpr std::size_t kBurst = 20000;
  server::ServerOptions options;
  options.max_output_backlog = 2048;
  options.batch_limit = 256;
  // A tiny server-side send buffer makes send() hit EAGAIN long before the
  // burst's responses fit — so the backlog provably crosses the pause
  // threshold while the client is not yet reading.
  options.so_sndbuf = 4096;
  ServerHarness harness(std::move(options));
  server::BlockingClient client(kLoopback, harness.port());

  for (std::size_t i = 0; i < kBurst; ++i)
    client.enqueue_get(static_cast<TenantId>(i % 4),
                       make_page(static_cast<TenantId>(i % 4), i % 64));
  std::thread writer([&] { client.flush(); });
  // Let the backlog build against the unread socket before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::size_t answered = 0;
  client.read_responses(kBurst,
                        [&](const server::ResponseMsg&) { ++answered; });
  writer.join();
  EXPECT_EQ(answered, kBurst);
  EXPECT_EQ(harness.stop(), 0);
  const server::ServerCounters counters = harness.server->counters();
  EXPECT_EQ(counters.requests, kBurst);
  EXPECT_GE(counters.reads_paused, 1u);
}

// -------------------------------------------------------------- metrics

TEST(Server, MetricsUnderConcurrentLoadIsValidExposition) {
  ServerHarness harness;
  const std::uint16_t metrics_port = harness.server->metrics_port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int w = 0; w < 2; ++w)
    load.emplace_back([&] {
      server::BlockingClient client(kLoopback, harness.port());
      std::vector<Request> requests;
      for (std::size_t i = 0; i < 2000; ++i) {
        const auto tenant = static_cast<TenantId>(i % 4);
        requests.push_back(Request{tenant, make_page(tenant, i % 64)});
      }
      while (!stop.load()) replay(client, requests, 128);
    });

  for (int scrape = 0; scrape < 5; ++scrape) {
    const std::string response =
        server::http_get(kLoopback, metrics_port, "/metrics");
    ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    const std::size_t body_start = response.find("\r\n\r\n");
    ASSERT_NE(body_start, std::string::npos);
    const std::string body = response.substr(body_start + 4);

    // The advertised series are present...
    for (const char* series :
         {"ccc_server_requests_total", "ccc_server_connections_active",
          "ccc_server_batch_size_bucket", "ccc_tenant_hits_total",
          "ccc_shard_resident_pages", "ccc_perf_lockfree_hits_total"})
      EXPECT_NE(body.find(series), std::string::npos) << series;

    // ...and every sample line is `name[{labels}] value`.
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_FALSE(std::isnan(std::stod(line.substr(space + 1)))) << line;
    }
  }
  stop.store(true);
  for (std::thread& worker : load) worker.join();

  EXPECT_NE(server::http_get(kLoopback, metrics_port, "/nope")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_raw(metrics_port,
                     "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(http_raw(metrics_port, "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_GE(harness.server->counters().metrics_scrapes, 5u);
}

TEST(Server, HeadMetricsAnswersGetHeadersWithoutBody) {
  ServerHarness harness;
  const std::uint16_t metrics_port = harness.server->metrics_port();

  const std::string response =
      http_raw(metrics_port, "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  // The Prometheus exposition content type, not a generic text/plain.
  EXPECT_NE(
      response.find(
          "Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  // Content-Length advertises the GET body's size (RFC 9110 §9.3.2)...
  const std::size_t length_at = response.find("Content-Length: ");
  ASSERT_NE(length_at, std::string::npos);
  EXPECT_GT(std::stoul(response.substr(length_at + 16)), 0u);
  // ...but the body itself is absent: http_raw reads to EOF, and the
  // response ends exactly at the blank line.
  const std::size_t head_end = response.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(response.size(), head_end + 4);

  // HEAD routes through the same mux as GET — unknown targets still 404.
  EXPECT_NE(http_raw(metrics_port, "HEAD /nope HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_EQ(harness.stop(), 0);
  EXPECT_GE(harness.server->counters().metrics_scrapes, 1u);
}

TEST(Server, DebugEndpointsServeJsonAndHistogramLookup) {
  ServerHarness harness;
  const std::uint16_t metrics_port = harness.server->metrics_port();

  // Enough traffic that /debug/costs has books and /debug/slow has entries.
  server::BlockingClient client(kLoopback, harness.port());
  for (std::size_t i = 0; i < 256; ++i) {
    const auto tenant = static_cast<TenantId>(i % 4);
    client.call(server::Opcode::kGet, tenant, make_page(tenant, i % 64));
  }

  const std::string costs =
      server::http_get(kLoopback, metrics_port, "/debug/costs");
  EXPECT_NE(costs.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(costs.find("Content-Type: application/json"), std::string::npos);
  for (const char* field : {"\"certified\"", "\"cost_total\"",
                            "\"dual_lower_bound\"", "\"competitive_ratio\"",
                            "\"theorem_ratio_bound\"", "\"tenants\""})
    EXPECT_NE(costs.find(field), std::string::npos) << field;

  const std::string slow =
      server::http_get(kLoopback, metrics_port, "/debug/slow");
  EXPECT_NE(slow.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(slow.find("\"capacity\""), std::string::npos);
  EXPECT_NE(slow.find("\"queue_ns\""), std::string::npos);

  const std::string hist = server::http_get(
      kLoopback, metrics_port, "/debug/hist/ccc_server_stage_latency_ns");
  EXPECT_NE(hist.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(hist.find("\"buckets\""), std::string::npos);
  EXPECT_NE(hist.find("\"stage\""), std::string::npos);

  // An unknown name 404s and the error body lists the valid names.
  const std::string missing =
      server::http_get(kLoopback, metrics_port, "/debug/hist/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(missing.find("ccc_server_batch_size"), std::string::npos);

  // No writer attached: the toggle reports its precondition, not a 500.
  const std::string trace =
      server::http_get(kLoopback, metrics_port, "/debug/trace?on");
  EXPECT_NE(trace.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(trace.find("tracing not configured"), std::string::npos);

  EXPECT_EQ(harness.stop(), 0);
  // The 400 precondition failure is not a served debug response.
  EXPECT_EQ(harness.server->counters().debug_requests, 4u);
}

TEST(Server, DebugTraceToggleRoundTrip) {
  std::ostringstream trace_out;
  obs::TraceEventWriter writer(trace_out);
  const auto costs = quadratic_costs(4);
  ShardedCacheOptions cache_options;
  cache_options.capacity = 32;
  cache_options.num_shards = 4;
  cache_options.num_tenants = 4;
  cache_options.seed = 7;
  server::CacheServer server({}, cache_options, nullptr, &costs);
  server.set_trace_writer(&writer);  // before run(), per the contract
  server.start();
  int rc = -1;
  std::thread thread([&] { rc = server.run(); });
  const std::uint16_t metrics_port = server.metrics_port();

  // Off: batches served while disabled emit no spans.
  EXPECT_NE(server::http_get(kLoopback, metrics_port, "/debug/trace?off")
                .find("{\"tracing\": false}"),
            std::string::npos);
  server::BlockingClient client(kLoopback, server.port());
  for (std::size_t i = 0; i < 32; ++i)
    client.call(server::Opcode::kGet, 0, make_page(0, i));
  EXPECT_EQ(writer.emitted(), 0u);

  // On again: the very next batch lands in the trace.
  EXPECT_NE(server::http_get(kLoopback, metrics_port, "/debug/trace?on")
                .find("{\"tracing\": true}"),
            std::string::npos);
  client.call(server::Opcode::kGet, 0, make_page(0, 99));
  EXPECT_GE(writer.emitted(), 1u);

  // A bare /debug/trace reports without toggling.
  EXPECT_NE(server::http_get(kLoopback, metrics_port, "/debug/trace")
                .find("{\"tracing\": true}"),
            std::string::npos);

  server.request_stop();
  thread.join();
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace ccc
