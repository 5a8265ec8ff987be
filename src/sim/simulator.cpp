#include "sim/simulator.hpp"

#include <chrono>

#include "util/check.hpp"

namespace ccc {

SimulatorSession::SimulatorSession(std::size_t capacity,
                                   std::uint32_t num_tenants,
                                   ReplacementPolicy& policy,
                                   const std::vector<CostFunctionPtr>* costs,
                                   SimOptions options)
    : cache_(capacity), metrics_(num_tenants), policy_(policy),
      auditor_(options.auditor), sampler_(options.step_observer) {
  if (costs != nullptr)
    CCC_REQUIRE(costs->size() >= num_tenants,
                "need one cost function per tenant");
  PolicyContext ctx;
  ctx.capacity = capacity;
  ctx.num_tenants = num_tenants;
  ctx.costs = costs;
  ctx.cache = &cache_;
  ctx.seed = options.seed;
  policy_.reset(ctx);
  if (auditor_ != nullptr) auditor_->on_reset(ctx);
}

StepEvent SimulatorSession::step(const Request& request) {
  // [[unlikely]] keeps step_observed out of line; inlined, its stack frame
  // would be set up on the unobserved path too (~1-2% on e6 cells).
  if (sampler_.attached()) [[unlikely]] return step_observed(request);
  return step_impl(request);
}

StepEvent SimulatorSession::step_observed(const Request& request) {
  sampler_.start();
  StepEvent event = step_impl(request);
  if (sampler_.stop(event)) {
    // The *policy's* counters, not perf_counters(): that one derives its
    // evictions field by summing per-tenant metrics, which is O(tenants)
    // and ruinous per step.
    PerfCounters after = policy_.perf_counters();
    after.requests = time_;
    sampler_.report(event, after);
  }
  return event;
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
      if (auditor_ != nullptr) [[unlikely]]
        auditor_->on_victim_chosen(request, *victim, cache_, policy_, time_);
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
  if (auditor_ != nullptr) [[unlikely]]
    auditor_->on_step(event, cache_, policy_, time_);
  ++time_;
  return event;
}

void SimulatorSession::end_run() {
  if (auditor_ != nullptr) auditor_->on_run_end(cache_, policy_);
}

PerfCounters SimulatorSession::perf_counters() const {
  PerfCounters perf = policy_.perf_counters();
  perf.requests = time_;
  perf.evictions = metrics_.total_evictions();
  return perf;
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
