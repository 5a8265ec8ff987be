#include "sim/simulator.hpp"

#include <chrono>

#include "core/convex_caching.hpp"
#include "util/check.hpp"

namespace ccc {

SimulatorSession::SimulatorSession(std::size_t capacity,
                                   std::uint32_t num_tenants,
                                   ReplacementPolicy& policy,
                                   const std::vector<CostFunctionPtr>* costs,
                                   SimOptions options)
    : metrics_(num_tenants), policy_(policy),
      convex_(dynamic_cast<ConvexCachingPolicy*>(&policy)),
      auditor_(options.auditor), sampler_(options.step_observer) {
  CCC_REQUIRE(capacity > 0, "cache capacity must be positive");
  if (costs != nullptr)
    CCC_REQUIRE(costs->size() >= num_tenants,
                "need one cost function per tenant");
  if (convex_ == nullptr) cache_.emplace(capacity);
  const PolicyContext ctx{.capacity = capacity,
                          .num_tenants = num_tenants,
                          .costs = costs,
                          .seed = options.seed};
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
  // The *policy's* counters, not perf_counters(): that one derives its
  // evictions field by summing per-tenant metrics, which is O(tenants) and
  // ruinous per step. Only ALG-DISCRETE keeps index counters.
  if (sampler_.stop(event))
    sampler_.report(event,
                    convex_ != nullptr ? convex_->perf_counters()
                                       : PerfCounters{},
                    time_);
  return event;
}

StepEvent SimulatorSession::step_impl(const Request& request) {
  StepEvent event;
  if (convex_ != nullptr) {  // step() checks the tenant and the page id
    if (auditor_ != nullptr) [[unlikely]] {
      if (const std::optional<PageId> victim =
              convex_->victim_for(request, time_))
        auditor_->on_victim_chosen(*victim, *convex_, time_);
    }
    (void)convex_->step(request, time_, event);
  } else {
    step_hooks(request, event);
  }
  record_step(metrics_, event);
  if (auditor_ != nullptr) [[unlikely]]
    auditor_->on_step(event, convex_, time_);
  ++time_;
  return event;
}

void SimulatorSession::step_hooks(const Request& request, StepEvent& event) {
  CCC_REQUIRE(request.tenant < metrics_.num_tenants(),
              "request tenant out of range");
  CacheState& cache = *cache_;
  event.request = request;
  if (cache.contains(request.page)) {
    event.hit = true;
    policy_.on_hit(request, time_);
    return;
  }
  std::optional<PageId> victim;
  if (cache.full())
    victim = policy_.choose_victim(request, time_);
  else
    victim = policy_.quota_victim(request, time_);
  if (victim.has_value()) {
    event.victim_owner = cache.take(*victim);
    CCC_CHECK(event.victim_owner.has_value(),
              "policy chose a non-resident victim");
    event.victim = victim;
    policy_.on_evict(*victim, *event.victim_owner, time_);
  }
  cache.insert(request.page, request.tenant);
  policy_.on_insert(request, time_);
}

void SimulatorSession::end_run() {
  if (auditor_ != nullptr) auditor_->on_run_end(convex_);
}

PerfCounters SimulatorSession::perf_counters() const {
  PerfCounters perf =
      convex_ != nullptr ? convex_->perf_counters() : PerfCounters{};
  perf.requests = time_;
  perf.evictions = metrics_.total_evictions();
  return perf;
}

void SimulatorSession::invalidate(PageId page) {
  CCC_REQUIRE(contains(page), "invalidating a page that is not resident");
  TenantId owner = 0;
  if (convex_ != nullptr) {
    owner = convex_->evict(page);
  } else {
    owner = *cache_->take(page);
    policy_.on_evict(page, owner, time_);
  }
  metrics_.record_eviction(owner);
  if (auditor_ != nullptr) auditor_->on_invalidate(page);
}

bool SimulatorSession::contains(PageId page) const {
  if (convex_ != nullptr)
    return convex_->page_table().find(page) !=
           ConvexCachingPolicy::PageTable::kNoSlot;
  return cache_->contains(page);
}

std::size_t SimulatorSession::size() const {
  return convex_ != nullptr ? convex_->page_table().size() : cache_->size();
}

std::vector<PageId> SimulatorSession::pages_of(TenantId tenant) const {
  if (convex_ != nullptr) return convex_->pages_of(tenant);
  std::vector<PageId> pages;
  for (const auto& [page, owner] : cache_->pages())
    if (owner == tenant) pages.push_back(page);
  return pages;
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
