#pragma once
/// \file convex_caching.hpp
/// \brief ALG-DISCRETE (paper Fig. 3) — the paper's online algorithm.
///
/// Every resident page carries a budget `B(p)`. On a hit or insertion the
/// touched page's budget is refreshed to `f'_{i(p)}(m(i(p)) + 1)` — the
/// marginal cost of its tenant's *next* miss. When an eviction is needed
/// the minimum-budget page `p` goes; every other resident page is debited
/// `B(p)`, and the pages of the victim's tenant are additionally bumped by
/// `f'(m+2) − f'(m+1)` because that tenant's miss count just grew.
///
/// This is the discrete implementation of the primal–dual ALG-CONT
/// (Fig. 2): the dual variable `y_t` rises by exactly `B(p)` at each
/// eviction, and the budget of a page equals its Lagrangian residual. A
/// property test asserts the eviction sequences coincide.
///
/// This class is the production implementation. The "debit everyone" step
/// is folded into a global offset (it cannot change the argmin) and the
/// per-tenant bump into a per-tenant offset, so per-page keys are immutable
/// between touches. Every page of a tenant shares that tenant's bump, so
/// pages never change order *within* a tenant between touches, and the
/// victim is the cheapest page of the cheapest tenant:
///
///  - one binary min-heap per tenant over (frozen key, page id), addressed
///    through stable node handles, so a refreshed or evicted page is
///    re-sifted or removed in place — the index never holds a stale entry;
///  - a winner tree over tenants whose leaf i holds tenant i's best
///    `(key + tenant_bump_[i], page id)`. Floating-point addition is
///    monotone, so the pages whose `key + bump` rounds to the heap top's
///    score sit in a connected region at the heap root, and a pruned walk
///    from the root finds the lowest page id among them.
///
/// The tree root is therefore the argmin of (key + tenant bump, page id)
/// over all resident pages — Fig. 3's smallest budget with the paper's
/// lowest-page-id tie-break — and on integer-valued cost families the
/// victim sequence matches the literal Fig. 3 transcription
/// (NaiveConvexCachingPolicy) bit for bit. A refresh re-sifts one heap and
/// an eviction removes one heap entry; either replays at most one tree path
/// (O(log k_i + log n)). A refresh that leaves the key unchanged skips the
/// sift, and an update that leaves the tenant's best entry unchanged skips
/// the replay.
///
/// §2.5: with `DerivativeMode::kDiscreteMarginal` the analytic derivative
/// is replaced by `f(m+1) − f(m)`, which supports arbitrary — non-convex,
/// even discontinuous — cost functions (no guarantee, but a working
/// algorithm; experiment E5). A non-convex cost can *shrink* a tenant's
/// bump; that moves the tenant's leaf but never the order inside its heap.

#include <cstdint>
#include <vector>

#include "sim/policy.hpp"
#include "util/flat_map.hpp"

namespace ccc {

/// How the marginal cost of the next miss is evaluated.
enum class DerivativeMode {
  kAnalytic,          ///< f'(m+1), as written in Fig. 3
  kDiscreteMarginal,  ///< f(m+1) − f(m), the §2.5 generalization
};

/// Ablation switches for experiment E5. Production defaults: all on.
struct ConvexCachingOptions {
  DerivativeMode derivative = DerivativeMode::kAnalytic;
  /// Fig. 3 step "B(p') ← B(p') − B(p)". Off ⇒ budgets never decay and the
  /// policy degenerates toward evict-lowest-marginal-tenant.
  bool debit_survivors = true;
  /// Fig. 3 step bumping the victim tenant's pages. Off ⇒ stale marginals.
  bool bump_victim_tenant = true;
  /// When > 0, tenant miss counts reset every `window_length` requests and
  /// all budgets re-base — the per-window SLA deployment mode of the SQLVM
  /// companion paper [14], where f_i is charged on misses per accounting
  /// window rather than over the whole run. 0 = the paper's whole-run model.
  std::size_t window_length = 0;
};

/// Factory producing independent ConvexCachingPolicy instances with the
/// given configuration — the public per-shard/per-pool instantiation path
/// (the sharded frontend spawns one ALG-DISCRETE per shard through this,
/// with no access to policy internals).
[[nodiscard]] PolicyFactory make_convex_factory(
    ConvexCachingOptions options = {});

class ConvexCachingPolicy final : public ReplacementPolicy {
 public:
  explicit ConvexCachingPolicy(ConvexCachingOptions options = {});

  void reset(const PolicyContext& ctx) override;
  void on_hit(const Request& request, TimeStep time) override;
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override;
  void on_evict(PageId victim, TenantId owner, TimeStep time) override;
  void on_insert(const Request& request, TimeStep time) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] PerfCounters perf_counters() const override {
    return counters_;
  }

  /// Effective budget of a resident page (test/diagnostic hook).
  [[nodiscard]] double budget(PageId page) const;

  /// Evictions charged to each tenant so far — m(i,t) in the paper.
  [[nodiscard]] const std::vector<std::uint64_t>& tenant_evictions()
      const noexcept {
    return evictions_;
  }

  /// Cumulative dual mass Σ B(victim) attributed to each tenant (summed
  /// over that tenant's evictions). ALG-CONT raises y_t by exactly the
  /// victim's budget at each eviction, so this vector is the running dual
  /// objective of the Fig. 2 primal–dual pair, split by victim owner — the
  /// raw material of the obs::CostTracker online lower bound on OPT
  /// (DESIGN.md §13). Maintained unconditionally: one double add on the
  /// eviction path, nothing on hits.
  [[nodiscard]] const std::vector<double>& dual_mass_by_tenant()
      const noexcept {
    return dual_mass_;
  }

  /// True when the accumulated dual mass is a feasible-dual certificate:
  /// the paper's whole-run model (no accounting windows — rollovers re-base
  /// budgets and orphan earlier y-mass) with the analytic Fig. 3 marginals
  /// and both debit/bump steps enabled (the ablations break the
  /// budget-equals-residual correspondence).
  [[nodiscard]] bool dual_certificate_valid() const noexcept {
    return options_.window_length == 0 &&
           options_.derivative == DerivativeMode::kAnalytic &&
           options_.debit_survivors && options_.bump_victim_tenant;
  }

  /// Entries in the eviction index — one per resident page (diagnostic).
  [[nodiscard]] std::size_t index_size() const noexcept {
    return pages_.size();
  }

  /// The run configuration (audit layer + diagnostics).
  [[nodiscard]] const ConvexCachingOptions& options() const noexcept {
    return options_;
  }

  // -- per-tenant freshness signals (seqlock residency mirror) --------------
  //
  // ShardedCache's lock-free hit path serves a hit without the mutex only
  // when re-freezing the page's budget would store a bit-identical key
  // (seqlock_table.hpp). The two signals below report, for the most recent
  // on_evict, which freshness classes that eviction actually invalidated:

  /// The last eviction shifted the shared survivor-debit offset (victim
  /// budget ≠ 0 with debiting on) — every tenant's re-freeze value moved.
  [[nodiscard]] bool last_evict_moved_offset() const noexcept {
    return last_evict_moved_offset_;
  }
  /// The last eviction moved the victim tenant's next-marginal value
  /// (delta ≠ 0) — only that tenant's re-freeze values moved. Zero-budget,
  /// zero-delta evictions (generational steady state under linear costs)
  /// report false on both signals and stale nothing.
  [[nodiscard]] bool last_evict_refreshed_tenant() const noexcept {
    return last_evict_refreshed_tenant_;
  }

 private:
  /// The `src/audit` shadow-checker reads the index internals (heaps,
  /// handles, tree, offsets, bumps) to verify them against naive
  /// recomputation; the test peer additionally *corrupts* them to prove
  /// each audit fires.
  friend class ConvexCachingAuditor;
  friend struct AuditTestPeer;

  /// Stable index of a resident page's Node while the page stays resident.
  using Handle = std::uint32_t;

  /// A resident page: its frozen key, owner, and slot in the owner's heap.
  struct Node {
    double key;
    PageId page;
    TenantId tenant;
    std::uint32_t pos;
  };

  /// Tenant i's best entry: min (key + tenant_bump_[i], page id) over its
  /// resident pages; `kNoPage` at +inf when it has none.
  struct Leaf {
    double score;
    PageId page;
  };
  static constexpr PageId kNoPage = ~PageId{0};

  /// Effective budget from a stored key:
  ///   eff = key + tenant_bump_[i] − offset_
  /// where key was frozen as (B_set − tenant_bump_at_set + offset_at_set).
  [[nodiscard]] double effective(double key, TenantId tenant) const {
    return key + tenant_bump_[tenant] - offset_;
  }

  /// Caches f'_i(m_i + 1), the marginal cost of tenant i's next miss, and
  /// fails loudly when it is not finite (a budget built from it would be
  /// NaN or infinite and no longer order anything).
  void cache_marginal(TenantId tenant);

  /// Frozen key of a budget set now: the tenant's next marginal, shifted by
  /// the current offsets.
  [[nodiscard]] double fresh_key(TenantId tenant) const {
    return marginal_[tenant] - tenant_bump_[tenant] + offset_;
  }

  // -- per-tenant heaps, ordered by (key, page id) --------------------------

  [[nodiscard]] bool precedes(Handle a, Handle b) const {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.key < y.key || (x.key == y.key && x.page < y.page);
  }
  void sift_up(std::vector<Handle>& heap, std::uint32_t pos);
  void sift_down(std::vector<Handle>& heap, std::uint32_t pos);
  /// Restores heap order around `pos` after its key changed either way.
  void resift(std::vector<Handle>& heap, std::uint32_t pos);

  // -- winner tree over tenants ---------------------------------------------

  [[nodiscard]] bool leaf_before(TenantId a, TenantId b) const {
    const Leaf& x = leaves_[a];
    const Leaf& y = leaves_[b];
    return x.score < y.score || (x.score == y.score && x.page < y.page);
  }
  [[nodiscard]] TenantId winner_at(std::size_t node) const {
    return node >= leaves_.size() ? static_cast<TenantId>(node - leaves_.size())
                                  : tree_[node];
  }
  /// Tenant i's best entry recomputed from its heap (the tie walk).
  [[nodiscard]] Leaf best_of(TenantId tenant) const;
  /// Lowest page id in the subtree at `pos` whose key + bump == score.
  [[nodiscard]] PageId lowest_tie(const std::vector<Handle>& heap,
                                  std::size_t pos, double score,
                                  double bump) const;
  /// Recomputes tenant i's leaf; replays its tree path only if it moved.
  void refresh_tenant(TenantId tenant);
  /// Recomputes every leaf and internal node.
  void rebuild_tree();

  /// Windowed mode: on crossing a window boundary, resets miss counts and
  /// re-bases every resident budget (O(k), once per window).
  void maybe_roll_window(TimeStep time);

  ConvexCachingOptions options_;
  const std::vector<CostFunctionPtr>* costs_ = nullptr;

  double offset_ = 0.0;                  ///< cumulative global debit
  std::vector<double> tenant_bump_;      ///< cumulative per-tenant bumps
  std::vector<double> marginal_;         ///< f'_i(m_i + 1), cached
  std::vector<std::uint64_t> evictions_; ///< m(i, t)
  std::vector<double> dual_mass_;        ///< Σ B(victim) per victim owner
  util::FlatMap<Handle> pages_;          ///< resident page → node handle
  std::vector<Node> nodes_;              ///< handle → node
  std::vector<Handle> free_;             ///< recycled handles
  std::vector<std::vector<Handle>> heaps_;  ///< per-tenant min-heaps
  /// One leaf per tenant, padded with empty leaves to a power of two ≥ 2.
  std::vector<Leaf> leaves_;
  /// Winner tree: tree_[node] is the tenant winning the subtree at `node`
  /// (root 1; children 2n and 2n+1; node ≥ leaves_.size() is a leaf).
  std::vector<TenantId> tree_;
  bool last_evict_moved_offset_ = false;
  bool last_evict_refreshed_tenant_ = false;
  std::size_t current_window_ = 0;
  PerfCounters counters_;
};

}  // namespace ccc
