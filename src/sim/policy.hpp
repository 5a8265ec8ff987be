#pragma once
/// \file policy.hpp
/// \brief The replacement-policy interface driven by the simulator.
///
/// The simulator owns the cache state and the request loop; a policy only
/// decides *which resident page to evict* when the cache is full and a
/// non-resident page is requested, and observes hits/insertions/evictions
/// to maintain its internal metadata. Offline policies (Belady, the batch
/// balancer) additionally receive the full trace via preview().
///
/// ALG-DISCRETE (ConvexCachingPolicy) is the exception: it owns its page
/// table and serves each request through its own step(), which the
/// simulator calls instead of these hooks.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cost/cost_function.hpp"
#include "sim/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/types.hpp"

namespace ccc {

/// Everything a policy may consult, fixed for one simulation run.
struct PolicyContext {
  std::size_t capacity = 0;
  std::uint32_t num_tenants = 0;
  /// Per-tenant cost functions; may be null for cost-oblivious baselines.
  const std::vector<CostFunctionPtr>* costs = nullptr;
  /// Seed for randomized policies.
  std::uint64_t seed = 0;
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Called once before the run; policies must drop all per-run state.
  virtual void reset(const PolicyContext& ctx) = 0;

  /// Offline hook: the full trace, delivered before the first request.
  /// Online policies ignore it.
  virtual void preview(const Trace& trace) { (void)trace; }

  /// The requested page was resident.
  virtual void on_hit(const Request& request, TimeStep time) {
    (void)request;
    (void)time;
  }

  /// Cache full and `request.page` absent: return the resident page to
  /// evict. Must return a currently resident page.
  [[nodiscard]] virtual PageId choose_victim(const Request& request,
                                             TimeStep time) = 0;

  /// Miss with free space still available: policies that enforce hard
  /// internal limits (e.g. static per-tenant partitions) may still demand
  /// an eviction by returning a resident page; the default — every
  /// work-conserving policy — declines.
  [[nodiscard]] virtual std::optional<PageId> quota_victim(
      const Request& request, TimeStep time) {
    (void)request;
    (void)time;
    return std::nullopt;
  }

  /// The chosen victim has been removed from the cache.
  virtual void on_evict(PageId victim, TenantId owner, TimeStep time) {
    (void)victim;
    (void)owner;
    (void)time;
  }

  /// `request.page` has been inserted (after a miss).
  virtual void on_insert(const Request& request, TimeStep time) {
    (void)request;
    (void)time;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Builds fresh policy instances — one per pool (multipool) or per shard
/// (sharded frontend). Every instance must be independent: factories
/// capture configuration, never a policy object.
using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

}  // namespace ccc
