#pragma once
/// \file simulator.hpp
/// \brief The request-processing engine of §1.2: every requested page must
///        be resident or fetched; a full cache forces an eviction chosen by
///        the policy. Produces per-tenant metrics and (optionally) the full
///        event schedule consumed by the primal–dual machinery and the
///        convex-program evaluator.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/cache_state.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "trace/trace.hpp"

namespace ccc {

/// What happened at one time step.
struct StepEvent {
  Request request{};
  bool hit = false;
  /// Set when an eviction was required to make room.
  std::optional<PageId> victim;
  std::optional<TenantId> victim_owner;
};

/// Books one step's outcome: a hit, or a miss and the eviction it forced.
/// SimulatorSession and every ShardedCache shard book through this.
inline void record_step(Metrics& metrics, const StepEvent& event) {
  if (event.hit) {
    metrics.record_hit(event.request.tenant);
    return;
  }
  metrics.record_miss(event.request.tenant);
  if (event.victim_owner.has_value())
    metrics.record_eviction(*event.victim_owner);
}

class ConvexCachingPolicy;

/// Runtime-verification hook observed by the simulator (the `src/audit`
/// subsystem implements it). The call sites are compiled into every build;
/// attaching an auditor is a runtime choice (`SimOptions::auditor`), and a
/// session without one pays one predictable null-pointer branch per hook.
/// `policy` is the session's ALG-DISCRETE, or null when it drives a
/// baseline.
class PolicyAuditor {
 public:
  virtual ~PolicyAuditor() = default;

  /// The session was (re)initialized; `ctx` is what the policy saw.
  virtual void on_reset(const PolicyContext& ctx) = 0;

  /// ALG-DISCRETE only: the next step() will evict `victim`, still
  /// resident and after any window rollover, so budgets can be inspected
  /// before the eviction is applied.
  virtual void on_victim_chosen(PageId victim,
                                const ConvexCachingPolicy& policy,
                                TimeStep time) = 0;

  /// One request has been fully processed.
  virtual void on_step(const StepEvent& event,
                       const ConvexCachingPolicy* policy, TimeStep time) = 0;

  /// `page` left the cache outside the request path
  /// (SimulatorSession::invalidate).
  virtual void on_invalidate(PageId page) = 0;

  /// The request loop is over (run_trace calls this; hand-driven sessions
  /// call SimulatorSession::end_run()).
  virtual void on_run_end(const ConvexCachingPolicy* policy) = 0;
};

/// Observability hook observed by the simulator (the `src/obs` subsystem
/// implements it — see `obs::SimObserver`). Like `PolicyAuditor`, it is
/// attached at runtime (`SimOptions::step_observer`, or one per shard); an
/// unobserved driver pays one predictable branch per step.
class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// Invoked on every eviction step and on every latency-sampled step
  /// (see latency_sample_period()); plain hit steps in between are
  /// skipped so observation stays off the fastest path. `latency_ns` is
  /// the wall-clock time of this step when it was sampled for timing, 0
  /// otherwise. `before`/`after` are the *policy's* counters at the
  /// previous invocation and now (plus `requests` = session time), so
  /// deltas bracket the whole gap: summing them gives exact totals for
  /// requests, heap pops, stale skips, rebuilds and rollovers without the
  /// observer holding per-session state — which is what makes one
  /// thread-safe observer shareable across shards. Because every eviction
  /// step is observed and heap_pops/stale_skips only move during
  /// evictions, the delta on an eviction step is that eviction's exact
  /// index work. `evictions` and `wall_seconds` are NOT populated here —
  /// deriving them per step costs O(tenants); use the StepEvent's
  /// `victim` field and the session's own perf_counters() instead.
  virtual void on_step(const StepEvent& event, std::uint64_t latency_ns,
                       const PerfCounters& before,
                       const PerfCounters& after) = 0;

  /// Sharded frontend control path: the capacity split changed from
  /// `before` to `after` (one entry per shard) in `duration_ns`.
  virtual void on_rebalance(std::span<const std::size_t> before,
                            std::span<const std::size_t> after,
                            std::uint64_t duration_ns) {
    (void)before;
    (void)after;
    (void)duration_ns;
  }

  /// Time (two steady_clock reads) only every Nth step; 1 = every step.
  /// The session caches this at attach time — the clock is the dominant
  /// observation cost, counters are recorded on every step regardless.
  [[nodiscard]] virtual std::uint64_t latency_sample_period() const noexcept {
    return 1;
  }
};

/// StepObserver sampling for one driver's request stream (a
/// SimulatorSession or one ShardedCache shard). Around each step: start(),
/// the step, then report() if stop() says the observer wants it — a
/// sampled or an evicting step. Other steps cost a decrement and a branch.
class StepSampler {
 public:
  explicit StepSampler(StepObserver* observer = nullptr)
      : observer_(observer),
        period_(observer != nullptr
                    ? std::max<std::uint64_t>(
                          1, observer->latency_sample_period())
                    : 1) {}

  [[nodiscard]] bool attached() const noexcept { return observer_ != nullptr; }

  void start() {
    sampled_ = --countdown_ == 0;  // the very first step is sampled
    if (!sampled_) return;
    countdown_ = period_;
    start_ = std::chrono::steady_clock::now();
  }

  [[nodiscard]] bool stop(const StepEvent& event) {
    latency_ns_ = 0;
    if (sampled_)
      latency_ns_ = static_cast<std::uint64_t>(
          std::chrono::nanoseconds(std::chrono::steady_clock::now() - start_)
              .count());
    return sampled_ || event.victim.has_value();
  }

  /// `after`: the policy counters now; `requests`: the driver's steps.
  void report(const StepEvent& event, PerfCounters after,
              std::uint64_t requests) {
    after.requests = requests;
    observer_->on_step(event, latency_ns_, last_, after);
    last_ = after;
  }

 private:
  StepObserver* observer_;
  std::uint64_t period_;         ///< cached latency_sample_period()
  std::uint64_t countdown_ = 1;  ///< steps until the next timed one
  bool sampled_ = false;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t latency_ns_ = 0;
  PerfCounters last_;            ///< counters at the last report
};

struct SimOptions {
  /// Record a StepEvent per request (needed by the invariant checker and
  /// the ICP evaluator; costs memory on long traces).
  bool record_events = false;
  std::uint64_t seed = 1;
  /// Optional runtime-verification hook (nullptr = none). Not owned.
  PolicyAuditor* auditor = nullptr;
  /// Optional observability hook (nullptr = none). Not owned.
  StepObserver* step_observer = nullptr;
};

struct SimResult {
  Metrics metrics;
  std::vector<StepEvent> events;  ///< empty unless record_events
  /// Victim-index work + wall-clock of the request loop (filled by
  /// run_trace; zeros for hand-driven SimulatorSession use).
  PerfCounters perf;
};

/// Step-wise simulation session. Use this directly when the request stream
/// is *adaptive* (the Theorem 1.4 adversary inspects the cache between
/// requests); use run_trace() for a fixed trace.
///
/// ALG-DISCRETE (ConvexCachingPolicy, Landlord included) is recognised once,
/// at construction, and served through its own step() — the request path
/// every ShardedCache shard runs — with its page table as the only
/// residency record. Every other policy is driven through the
/// ReplacementPolicy hooks beside the session's own CacheState.
class SimulatorSession {
 public:
  /// `costs` may be null for cost-oblivious policies; when provided it must
  /// contain one function per tenant.
  SimulatorSession(std::size_t capacity, std::uint32_t num_tenants,
                   ReplacementPolicy& policy,
                   const std::vector<CostFunctionPtr>* costs,
                   SimOptions options = {});

  /// Processes one request and returns what happened.
  StepEvent step(const Request& request);

  /// Signals the attached auditor (if any) that the request loop is over,
  /// triggering its end-of-run checks. run_trace() calls this; hand-driven
  /// sessions call it once after their last step. No-op without an auditor.
  void end_run();

  /// Forcibly removes a resident page outside the normal request path
  /// (e.g. a multipool tenant migration); the policy observes it as an
  /// eviction. Throws if the page is not resident.
  void invalidate(PageId page);

  /// Residency, answered from whichever record the session drives.
  [[nodiscard]] bool contains(PageId page) const;
  [[nodiscard]] std::size_t size() const;
  /// The resident pages of `tenant`, in no particular order.
  [[nodiscard]] std::vector<PageId> pages_of(TenantId tenant) const;

  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] TimeStep now() const noexcept { return time_; }

  /// Policy index counters overlaid with this session's request/eviction
  /// totals. Wall-clock stays zero — the caller owns the request loop.
  [[nodiscard]] PerfCounters perf_counters() const;

 private:
  /// The unobserved request path; step() forwards here directly unless an
  /// observer is attached.
  StepEvent step_impl(const Request& request);
  /// The observed wrapper: step_impl under the sampler.
  StepEvent step_observed(const Request& request);
  /// A baseline's request: the hooks, beside `cache_`.
  void step_hooks(const Request& request, StepEvent& event);

  Metrics metrics_;
  ReplacementPolicy& policy_;
  /// The policy when it is ALG-DISCRETE, else null.
  ConvexCachingPolicy* convex_;
  /// The baselines' residency record; empty when `convex_` is set.
  std::optional<CacheState> cache_;
  PolicyAuditor* auditor_ = nullptr;
  StepSampler sampler_;
  TimeStep time_ = 0;
};

/// Runs `policy` over `trace` with a cache of size `capacity`.
[[nodiscard]] SimResult run_trace(const Trace& trace, std::size_t capacity,
                                  ReplacementPolicy& policy,
                                  const std::vector<CostFunctionPtr>* costs,
                                  SimOptions options = {});

}  // namespace ccc
