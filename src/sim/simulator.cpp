#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace ccc {

SimulatorSession::SimulatorSession(std::size_t capacity,
                                   std::uint32_t num_tenants,
                                   ReplacementPolicy& policy,
                                   const std::vector<CostFunctionPtr>* costs,
                                   SimOptions options)
    : cache_(capacity), metrics_(num_tenants), policy_(policy),
      auditor_(options.auditor), observer_(options.step_observer) {
  if (costs != nullptr)
    CCC_REQUIRE(costs->size() >= num_tenants,
                "need one cost function per tenant");
#ifndef CCC_AUDIT_ENABLED
  CCC_REQUIRE(auditor_ == nullptr,
              "SimOptions.auditor needs a build with -DCCC_AUDIT=ON "
              "(audit hooks are compiled out of this binary)");
#endif
#ifdef CCC_OBS_ENABLED
  if (observer_ != nullptr) {
    observer_period_ = std::max<std::uint64_t>(
        1, observer_->latency_sample_period());
    observer_countdown_ = 1;  // time the very first step
  }
#else
  CCC_REQUIRE(observer_ == nullptr,
              "SimOptions.step_observer needs a build with -DCCC_OBS=ON "
              "(observability hooks are compiled out of this binary)");
#endif
  PolicyContext ctx;
  ctx.capacity = capacity;
  ctx.num_tenants = num_tenants;
  ctx.costs = costs;
  ctx.cache = &cache_;
  ctx.seed = options.seed;
  policy_.reset(ctx);
#ifdef CCC_AUDIT_ENABLED
  if (auditor_ != nullptr) auditor_->on_reset(ctx);
#endif
}

StepEvent SimulatorSession::step(const Request& request) {
#ifdef CCC_OBS_ENABLED
  if (observer_ != nullptr) return step_observed(request);
#endif
  return step_impl(request);
}

StepEvent SimulatorSession::step_observed(const Request& request) {
#ifdef CCC_OBS_ENABLED
  // The observer is invoked only on eviction steps and latency-sampled
  // steps; a hit-path step pays one countdown decrement and a branch.
  // `observer_last_` carries the policy counters from the previous
  // invocation, so deltas bracket the whole gap and counter totals stay
  // exact. Per-eviction index work stays exact too: heap_pops and
  // stale_skips only move on eviction steps, every one of which is
  // observed. (The *policy's* counters, not the session-level
  // perf_counters() — that one derives its evictions field by summing
  // per-tenant metrics, which is O(tenants) and ruinous per step.)
  std::uint64_t latency_ns = 0;
  StepEvent event;
  const bool sampled = (--observer_countdown_ == 0);
  if (sampled) {
    observer_countdown_ = observer_period_;
    const auto start = std::chrono::steady_clock::now();
    event = step_impl(request);
    const auto stop = std::chrono::steady_clock::now();
    latency_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
  } else {
    event = step_impl(request);
  }
  if (sampled || event.victim.has_value()) {
    PerfCounters after = policy_.perf_counters();
    after.requests = time_;
    observer_->on_step(event, latency_ns, observer_last_, after);
    observer_last_ = after;
  }
  return event;
#else
  return step_impl(request);  // unreachable: attach throws without CCC_OBS
#endif
}

StepEvent SimulatorSession::step_impl(const Request& request) {
  CCC_REQUIRE(request.tenant < metrics_.num_tenants(),
              "request tenant out of range");
  StepEvent event;
  event.request = request;

  if (cache_.contains(request.page)) {
    event.hit = true;
    metrics_.record_hit(request.tenant);
    policy_.on_hit(request, time_);
  } else {
    metrics_.record_miss(request.tenant);
    std::optional<PageId> victim;
    if (cache_.full())
      victim = policy_.choose_victim(request, time_);
    else
      victim = policy_.quota_victim(request, time_);
    if (victim.has_value()) {
#ifdef CCC_AUDIT_ENABLED
      if (auditor_ != nullptr)
        auditor_->on_victim_chosen(request, *victim, cache_, policy_, time_);
#endif
      // Residency probes per evicting miss: the lookup above, this take
      // and the insert below.
      const std::optional<TenantId> victim_owner = cache_.take(*victim);
      CCC_CHECK(victim_owner.has_value(), "policy chose a non-resident victim");
      metrics_.record_eviction(*victim_owner);
      policy_.on_evict(*victim, *victim_owner, time_);
      event.victim = victim;
      event.victim_owner = victim_owner;
    }
    cache_.insert(request.page, request.tenant);
    policy_.on_insert(request, time_);
  }
#ifdef CCC_AUDIT_ENABLED
  if (auditor_ != nullptr) auditor_->on_step(event, cache_, policy_, time_);
#endif
  ++time_;
  return event;
}

void SimulatorSession::end_run() {
#ifdef CCC_AUDIT_ENABLED
  if (auditor_ != nullptr) auditor_->on_run_end(cache_, policy_);
#endif
}

PerfCounters SimulatorSession::perf_counters() const {
  PerfCounters perf = policy_.perf_counters();
  perf.requests = time_;
  perf.evictions = metrics_.total_evictions();
  return perf;
}

void SimulatorSession::resize(std::size_t new_capacity) {
  cache_.set_capacity(new_capacity);
  while (cache_.size() > new_capacity) {
    const PageId victim = policy_.choose_victim(Request{0, 0}, time_);
    const std::optional<TenantId> owner = cache_.take(victim);
    CCC_CHECK(owner.has_value(), "policy chose a non-resident victim");
    metrics_.record_eviction(*owner);
    policy_.on_evict(victim, *owner, time_);
  }
}

void SimulatorSession::invalidate(PageId page) {
  const std::optional<TenantId> owner = cache_.take(page);
  CCC_REQUIRE(owner.has_value(), "invalidating a page that is not resident");
  metrics_.record_eviction(*owner);
  policy_.on_evict(page, *owner, time_);
}

SimResult run_trace(const Trace& trace, std::size_t capacity,
                    ReplacementPolicy& policy,
                    const std::vector<CostFunctionPtr>* costs,
                    SimOptions options) {
  SimulatorSession session(capacity, trace.num_tenants(), policy, costs,
                           options);
  policy.preview(trace);
  SimResult result{Metrics(trace.num_tenants()), {}, {}};
  if (options.record_events) result.events.reserve(trace.size());
  const auto start = std::chrono::steady_clock::now();
  for (const Request& request : trace) {
    StepEvent event = session.step(request);
    if (options.record_events) result.events.push_back(std::move(event));
  }
  const auto stop = std::chrono::steady_clock::now();
  session.end_run();
  result.metrics = session.metrics();
  result.perf = session.perf_counters();
  result.perf.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace ccc
