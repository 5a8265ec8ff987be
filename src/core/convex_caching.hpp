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
///
/// With `DerivativeMode::kFirstMarginal` every marginal is pinned at
/// f'(1), so every bump is zero and Fig. 3 is Young's Landlord / GreedyDual
/// with credit f'_i(1): weighted caching for linear costs, a static
/// linearization of convex ones (`make_policy("landlord")`).
///
/// Residency lives in one page table (seqlock_table.hpp) that the policy
/// alone writes and the sharded frontend's lock-free readers probe. Every
/// driver — SimulatorSession and each ShardedCache shard — serves a request
/// through step(); the policy overrides no hit, evict or insert hook.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/seqlock_table.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"

namespace ccc {

/// How the marginal cost of the next miss is evaluated.
enum class DerivativeMode {
  kAnalytic,          ///< f'(m+1), as written in Fig. 3
  kDiscreteMarginal,  ///< f(m+1) − f(m), the §2.5 generalization
  kFirstMarginal,     ///< f'(1) at every m: Landlord with credit f'(1)
};

/// Credit of a tenant whose f'(1) ≤ 0 under kFirstMarginal (an SLA below
/// its knee). Evicting a zero-credit page leaves the survivor debit where
/// it is, so such pages tie and go by page id; a tiny positive credit
/// advances the debit on each of their evictions, so they age by recency.
inline constexpr double kFirstMarginalFloor = 1e-12;

/// Marginal cost of the (m+1)-st miss of a tenant with cost f under `mode`
/// — the one definition the indexed policy, the naive transcription and
/// the auditor share. A NaN f'(1) passes the floor unchanged, so callers'
/// finiteness checks still see it.
[[nodiscard]] inline double next_miss_marginal(const CostFunction& f,
                                               std::uint64_t m,
                                               DerivativeMode mode) {
  const double x = static_cast<double>(m);
  if (mode == DerivativeMode::kAnalytic) return f.derivative(x + 1.0);
  if (mode == DerivativeMode::kDiscreteMarginal)
    return f.value(x + 1.0) - f.value(x);
  const double first = f.derivative(1.0);
  return first <= 0.0 ? kFirstMarginalFloor : first;
}

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
  /// reset(ctx) with the page table sized for `max_capacity` pages, the
  /// most a later resize() may set: the table stays put under lock-free
  /// readers. Nodes and heaps are reserved for ctx.capacity only, and
  /// resize() reserves more when it grows the capacity.
  void reset(const PolicyContext& ctx, std::size_t max_capacity);
  /// The index's argmin: the page the next evicting miss takes.
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override;
  [[nodiscard]] std::string name() const override;
  /// Index work since reset(): heap pops, stale skips, rebuilds and window
  /// rollovers. Drivers overlay requests, evictions and wall-clock time.
  [[nodiscard]] PerfCounters perf_counters() const { return counters_; }

  /// Resident page → heap-node handle. Any thread may call its
  /// `try_fresh_hit`; it stays put from one reset() to the next.
  using PageTable = SeqlockResidencyTable<StdAtomics>;
  [[nodiscard]] const PageTable& page_table() const noexcept {
    return *pages_;
  }

  /// One Fig. 3 request at `time`, the only request path: rolls the
  /// accounting window first (windowed mode), then refreshes a hit or
  /// inserts a miss, evicting the argmin when full. Fills `event`; returns
  /// true iff it was a hit whose stamp was already current, which leaves
  /// every table, heap and book as it was.
  bool step(const Request& request, TimeStep time, StepEvent& event);

  /// The page step(request, time, ·) will evict, after rolling the window
  /// to `time`; nullopt when the request hits or finds room. An audited
  /// session hands it to the auditor before the step.
  [[nodiscard]] std::optional<PageId> victim_for(const Request& request,
                                                 TimeStep time);

  /// Evicts a resident page and charges it as a Fig. 3 eviction: the
  /// survivors are debited its budget, and its owner's m_i and dual mass
  /// move. step() and resize() evict the argmin through it;
  /// SimulatorSession::invalidate evicts a named page. Returns the owner.
  TenantId evict(PageId page);

  /// The resident pages of `tenant`, in heap order.
  [[nodiscard]] std::vector<PageId> pages_of(TenantId tenant) const;

  /// Sets step()'s capacity, at most reset()'s `max_capacity`. A shrink
  /// evicts the argmin through the eviction path of a miss, charging
  /// `metrics`.
  void resize(std::size_t capacity, Metrics& metrics);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

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

  /// The run configuration (audit layer + diagnostics).
  [[nodiscard]] const ConvexCachingOptions& options() const noexcept {
    return options_;
  }

 private:
  /// The `src/audit` shadow-checker reads the index internals (heaps,
  /// handles, tree, offsets, bumps) to verify them against naive
  /// recomputation; the test peer additionally *corrupts* them to prove
  /// each audit fires.
  friend class ConvexCachingAuditor;
  friend struct AuditTestPeer;

  /// Stable index of a resident page's Node while the page stays resident.
  using Handle = PageTable::Handle;

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

  // -- Fig. 3 steps ----------------------------------------------------------

  /// Refreshes and restamps the page at `slot` unless its stamp is already
  /// fresh; true iff it was.
  bool hit(std::size_t slot);
  /// Inserts the requested page with a fresh budget.
  void insert(const Request& request);

  /// Room for `capacity` nodes, and for twice each tenant's fair share of
  /// it in every heap, so the steady state rarely (and after warm-up
  /// never) grows one.
  void reserve(std::size_t capacity);

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
  void roll_window(TimeStep time);

  ConvexCachingOptions options_;
  const std::vector<CostFunctionPtr>* costs_ = nullptr;

  double offset_ = 0.0;                  ///< cumulative global debit
  std::vector<double> tenant_bump_;      ///< cumulative per-tenant bumps
  std::vector<double> marginal_;         ///< f'_i(m_i + 1), cached
  std::vector<std::uint64_t> evictions_; ///< m(i, t)
  std::vector<double> dual_mass_;        ///< Σ B(victim) per victim owner
  std::optional<PageTable> pages_;       ///< emplaced by reset()
  std::size_t capacity_ = 0;             ///< step()'s fill limit
  std::vector<Node> nodes_;              ///< handle → node
  std::vector<Handle> free_;             ///< recycled handles
  std::vector<std::vector<Handle>> heaps_;  ///< per-tenant min-heaps
  /// One leaf per tenant, padded with empty leaves to a power of two ≥ 2.
  std::vector<Leaf> leaves_;
  /// Winner tree: tree_[node] is the tenant winning the subtree at `node`
  /// (root 1; children 2n and 2n+1; node ≥ leaves_.size() is a leaf).
  std::vector<TenantId> tree_;
  std::size_t current_window_ = 0;
  PerfCounters counters_;
};

}  // namespace ccc
