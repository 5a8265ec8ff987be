#include "loadgen.hpp"

#include <poll.h>

#include <algorithm>
#include <exception>
#include <iostream>
#include <stdexcept>

namespace perfbench {
namespace {

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double nanos(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace

ccc::ShardedCacheOptions server_cache_options(const Workload& workload,
                                              std::uint64_t seed) {
  ccc::ShardedCacheOptions options;
  options.capacity = capacity_of(workload);
  options.num_shards = kShards;
  options.num_tenants = kTenants;
  options.seed = seed;
  options.hit_path = ccc::HitPath::kSeqlock;
  return options;
}

ServerRig::ServerRig(const Workload& workload, std::uint64_t seed)
    : trace_(make_trace(workload, seed)), costs_(make_costs(workload)) {
  latency_ns_.reserve(trace_.size());
  window_wait_ns_.reserve(trace_.size() / kWindow + 1);

  ccc::server::ServerOptions options;
  options.metrics = false;  // the cache port is what is measured
  server_ = std::make_unique<ccc::server::CacheServer>(
      options, server_cache_options(workload, seed), nullptr, &costs_);
  server_->start();
  loop_ = std::thread([this] {
    try {
      loop_rc_ = server_->run();
    } catch (const std::exception&) {
      loop_rc_ = -1;
    }
  });
  try {
    client_ = std::make_unique<ccc::server::BlockingClient>("127.0.0.1",
                                                            server_->port());
  } catch (...) {
    server_->request_stop();
    loop_.join();
    throw;
  }
}

ServerRig::~ServerRig() {
  try {
    stop();
  } catch (const std::exception& e) {
    // The loop is joined either way; callers that care call stop() first.
    std::cerr << "ladder: " << e.what() << "\n";
  }
}

void ServerRig::stop() {
  if (stopped_) return;
  stopped_ = true;
  client_->close();
  server_->request_stop();
  loop_.join();
  if (loop_rc_ != 0)
    throw std::runtime_error("server loop exited with " +
                             std::to_string(loop_rc_));
}

ccc::server::StatsPayload ServerRig::stats() const {
  ccc::server::BlockingClient probe("127.0.0.1", server_->port());
  return probe.stats();
}

PassResult ServerRig::serve_pass(bool traced, SpanLog* log) {
  PassResult out;
  out.attempted = trace_.size();
  out.hits.assign(kTenants, 0);
  out.misses.assign(kTenants, 0);
  latency_ns_.clear();
  window_wait_ns_.clear();
  const std::uint32_t connection_span = log == nullptr ? 0 : log->next_id();
  const Clock::time_point start = Clock::now();
  try {
    for (std::size_t i = 0; i < trace_.size(); i += kWindow) {
      const std::size_t n = std::min(kWindow, trace_.size() - i);
      const Clock::time_point enqueue_start =
          traced ? Clock::now() : Clock::time_point{};
      for (std::size_t j = 0; j < n; ++j)
        client_->enqueue_get(trace_[i + j].tenant, trace_[i + j].page);
      const Clock::time_point flushed = Clock::now();
      client_->flush();
      const Clock::time_point sent = traced ? Clock::now() : flushed;
      // Wait for the responses without sleeping: a client that blocks in
      // recv lets its vCPU halt, and waking it again costs a variable,
      // host-dependent delay on every window. An error or hang-up ends the
      // wait too; read_responses then reports it.
      pollfd ready{client_->fd(), POLLIN, 0};
      while (::poll(&ready, 1, 0) == 0) {
      }
      std::size_t k = 0;
      client_->read_responses(n, [&](const ccc::server::ResponseMsg& msg) {
        latency_ns_.push_back(nanos(Clock::now() - flushed));
        const ccc::TenantId tenant = trace_[i + k++].tenant;
        switch (static_cast<ccc::server::Status>(msg.status)) {
          case ccc::server::Status::kHit:
            ++out.hits[tenant];
            ++out.answered;
            break;
          case ccc::server::Status::kMiss:
            ++out.misses[tenant];
            ++out.answered;
            break;
          default:
            ++out.error_responses;
            break;
        }
      });
      if (!traced) continue;
      const Clock::time_point done = Clock::now();
      window_wait_ns_.push_back(nanos(done - flushed));
      out.enqueue_s += seconds(flushed - enqueue_start);
      out.read_s += seconds(done - sent);
      if (log != nullptr) {
        // All spans of one window share its trace id.
        const std::uint64_t window = i / kWindow;
        const std::uint32_t id = log->next_id();
        log->add(log->next_id(), "client.enqueue", id, window, enqueue_start,
                 flushed);
        log->add(log->next_id(), "client.flush", id, window, flushed, sent);
        log->add(log->next_id(), "client.wait", id, window, sent, done);
        log->add(id, "client.window", connection_span, window, enqueue_start,
                 done);
      }
    }
  } catch (const std::exception& e) {
    out.failure = e.what();
  }
  const Clock::time_point end = Clock::now();
  out.wall_s = seconds(end - start);
  out.lost = out.attempted - out.answered - out.error_responses;
  if (log != nullptr)
    log->add(connection_span, "client.connection", 0, 0, start, end);
  out.latency_p50_us = quantile(latency_ns_, 0.50) / 1e3;
  out.latency_p99_us = quantile(latency_ns_, 0.99) / 1e3;
  if (traced) out.window_wait_p99_us = quantile(window_wait_ns_, 0.99) / 1e3;
  return out;
}

}  // namespace perfbench
