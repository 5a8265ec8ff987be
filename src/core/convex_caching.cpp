#include "core/convex_caching.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace ccc {

namespace {

/// Marginal cost of the (m+1)-st miss of a tenant with cost function f.
double marginal_at(const CostFunction& f, std::uint64_t m,
                   DerivativeMode mode) {
  const double x = static_cast<double>(m);
  if (mode == DerivativeMode::kAnalytic) return f.derivative(x + 1.0);
  return f.value(x + 1.0) - f.value(x);
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

PolicyFactory make_convex_factory(ConvexCachingOptions options) {
  return [options] { return std::make_unique<ConvexCachingPolicy>(options); };
}

ConvexCachingPolicy::ConvexCachingPolicy(ConvexCachingOptions options)
    : options_(options) {}

void ConvexCachingPolicy::reset(const PolicyContext& ctx) {
  CCC_REQUIRE(ctx.costs != nullptr,
              "ConvexCachingPolicy needs per-tenant cost functions");
  CCC_REQUIRE(ctx.costs->size() >= ctx.num_tenants,
              "need one cost function per tenant");
  costs_ = ctx.costs;
  offset_ = 0.0;
  tenant_bump_.assign(ctx.num_tenants, 0.0);
  evictions_.assign(ctx.num_tenants, 0);
  dual_mass_.assign(ctx.num_tenants, 0.0);
  marginal_.assign(ctx.num_tenants, 0.0);
  for (TenantId t = 0; t < ctx.num_tenants; ++t) cache_marginal(t);
  pages_.clear();
  pages_.reserve(ctx.capacity);
  nodes_.clear();
  nodes_.reserve(ctx.capacity);
  free_.clear();
  // Each heap starts with room for twice its fair share, so the steady
  // state rarely (and after warm-up never) grows one.
  heaps_.resize(ctx.num_tenants);
  const std::size_t share =
      2 * ctx.capacity / std::max<std::size_t>(1, ctx.num_tenants) + 1;
  for (std::vector<Handle>& heap : heaps_) {
    heap.clear();
    heap.reserve(share);
  }
  leaves_.assign(std::max<std::size_t>(2, std::bit_ceil(std::size_t{
                                              ctx.num_tenants})),
                 Leaf{kInfinity, kNoPage});
  tree_.assign(leaves_.size(), 0);
  rebuild_tree();
  last_evict_moved_offset_ = false;
  last_evict_refreshed_tenant_ = false;
  current_window_ = 0;
  counters_ = PerfCounters{};
}

void ConvexCachingPolicy::cache_marginal(TenantId tenant) {
  const double marginal = marginal_at(*(*costs_)[tenant], evictions_[tenant],
                                      options_.derivative);
  CCC_CHECK(std::isfinite(marginal),
            "ConvexCaching: the marginal cost of tenant " +
                std::to_string(tenant) + "'s next miss is " +
                std::to_string(marginal) + " after " +
                std::to_string(evictions_[tenant]) +
                " misses; budgets are no longer finite");
  marginal_[tenant] = marginal;
}

// -- per-tenant heaps ---------------------------------------------------------

void ConvexCachingPolicy::sift_up(std::vector<Handle>& heap,
                                  std::uint32_t pos) {
  const Handle h = heap[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!precedes(h, heap[parent])) break;
    heap[pos] = heap[parent];
    nodes_[heap[pos]].pos = pos;
    pos = parent;
  }
  heap[pos] = h;
  nodes_[h].pos = pos;
}

void ConvexCachingPolicy::sift_down(std::vector<Handle>& heap,
                                    std::uint32_t pos) {
  const Handle h = heap[pos];
  const auto size = static_cast<std::uint32_t>(heap.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && precedes(heap[child + 1], heap[child])) ++child;
    if (!precedes(heap[child], h)) break;
    heap[pos] = heap[child];
    nodes_[heap[pos]].pos = pos;
    pos = child;
  }
  heap[pos] = h;
  nodes_[h].pos = pos;
}

void ConvexCachingPolicy::resift(std::vector<Handle>& heap,
                                 std::uint32_t pos) {
  if (pos > 0 && precedes(heap[pos], heap[(pos - 1) / 2]))
    sift_up(heap, pos);
  else
    sift_down(heap, pos);
}

// -- winner tree over tenants -------------------------------------------------

PageId ConvexCachingPolicy::lowest_tie(const std::vector<Handle>& heap,
                                       std::size_t pos, double score,
                                       double bump) const {
  // Children never score below their parent (keys only grow downward and
  // rounding is monotone), so a child scoring above `score` prunes its
  // whole subtree.
  PageId best = nodes_[heap[pos]].page;
  const std::size_t end = std::min(2 * pos + 3, heap.size());
  for (std::size_t child = 2 * pos + 1; child < end; ++child)
    if (nodes_[heap[child]].key + bump == score)
      best = std::min(best, lowest_tie(heap, child, score, bump));
  return best;
}

ConvexCachingPolicy::Leaf ConvexCachingPolicy::best_of(TenantId tenant) const {
  const std::vector<Handle>& heap = heaps_[tenant];
  if (heap.empty()) return Leaf{kInfinity, kNoPage};
  // Two keys of one tenant may round to the same key + bump; the paper's
  // tie-break then wants the lower page id, which need not be the top's.
  const double bump = tenant_bump_[tenant];
  const double score = nodes_[heap[0]].key + bump;
  return Leaf{score, lowest_tie(heap, 0, score, bump)};
}

void ConvexCachingPolicy::refresh_tenant(TenantId tenant) {
  const Leaf leaf = best_of(tenant);
  Leaf& stored = leaves_[tenant];
  if (leaf.score == stored.score && leaf.page == stored.page) return;
  stored = leaf;
  for (std::size_t node = (leaves_.size() + tenant) / 2; node > 0;
       node /= 2) {
    const TenantId left = winner_at(2 * node);
    const TenantId right = winner_at(2 * node + 1);
    const TenantId winner = leaf_before(right, left) ? right : left;
    // A node this tenant neither won nor wins keeps its winner, and so
    // does everything above it.
    if (winner != tenant && tree_[node] != tenant) break;
    tree_[node] = winner;
  }
}

void ConvexCachingPolicy::rebuild_tree() {
  for (TenantId t = 0; t < heaps_.size(); ++t) leaves_[t] = best_of(t);
  for (std::size_t node = leaves_.size() - 1; node > 0; --node) {
    const TenantId left = winner_at(2 * node);
    const TenantId right = winner_at(2 * node + 1);
    tree_[node] = leaf_before(right, left) ? right : left;
  }
}

void ConvexCachingPolicy::maybe_roll_window(TimeStep time) {
  if (options_.window_length == 0) return;
  const std::size_t window = time / options_.window_length;
  if (window == current_window_) return;
  current_window_ = window;
  ++counters_.window_rollovers;
  ++counters_.index_rebuilds;
  // New accounting window: every tenant's miss count restarts at zero, so
  // every marginal — and therefore every budget — re-bases. All keys of a
  // tenant become equal, so each heap re-heapifies by page id.
  std::fill(evictions_.begin(), evictions_.end(), 0);
  std::fill(tenant_bump_.begin(), tenant_bump_.end(), 0.0);
  offset_ = 0.0;
  for (TenantId t = 0; t < heaps_.size(); ++t) {
    cache_marginal(t);
    std::vector<Handle>& heap = heaps_[t];
    for (const Handle h : heap) nodes_[h].key = marginal_[t];
    for (auto pos = static_cast<std::uint32_t>(heap.size() / 2); pos-- > 0;)
      sift_down(heap, pos);
  }
  rebuild_tree();
}

// -- Fig. 3 -------------------------------------------------------------------

void ConvexCachingPolicy::on_hit(const Request& request, TimeStep time) {
  maybe_roll_window(time);
  // Fig. 3, first bullet: refresh B(p_t) on every access. Between
  // evictions the refreshed key is bit-identical to the stored one.
  const auto it = pages_.find(request.page);
  CCC_CHECK(it != pages_.end(), "ConvexCaching hit on an untracked page");
  Node& node = nodes_[it->second];
  const double key = fresh_key(node.tenant);
  if (key == node.key) return;
  node.key = key;
  resift(heaps_[node.tenant], node.pos);
  refresh_tenant(node.tenant);
}

PageId ConvexCachingPolicy::choose_victim(const Request& /*request*/,
                                          TimeStep time) {
  maybe_roll_window(time);
  ++counters_.evictions;
  const PageId victim = leaves_[tree_[1]].page;
  CCC_CHECK(victim != kNoPage,
            "ConvexCaching asked for a victim with an empty cache");
  return victim;
}

void ConvexCachingPolicy::on_evict(PageId victim, TenantId owner,
                                   TimeStep /*time*/) {
  const std::optional<Handle> handle = pages_.take(victim);
  CCC_CHECK(handle.has_value(), "ConvexCaching evicting an untracked page");
  const Node& node = nodes_[*handle];
  CCC_CHECK(node.tenant == owner, "ConvexCaching evicting under a wrong owner");
  const double victim_budget = effective(node.key, owner);
  // The dual variable y_t of ALG-CONT rises by exactly B(victim) at this
  // eviction (DESIGN.md §13); bank it against the victim's owner so the
  // cost tracker can assemble its online lower bound without re-walking
  // any state. One add — hits never reach this path.
  dual_mass_[owner] += victim_budget;

  // Remove the victim's heap entry: the last entry fills its slot.
  std::vector<Handle>& heap = heaps_[owner];
  const std::uint32_t pos = node.pos;
  const Handle last = heap.back();
  heap.pop_back();
  if (last != *handle) {
    heap[pos] = last;
    nodes_[last].pos = pos;
    resift(heap, pos);
  }
  free_.push_back(*handle);
  ++counters_.heap_pops;

  // Fig. 3: debit every surviving page by B(p) — one offset update. A
  // zero victim budget leaves the offset bit-identical, so survivors'
  // keys still re-freeze to the same value: report it as a no-move so the
  // seqlock mirror keeps every other tenant's stamps fresh.
  last_evict_moved_offset_ = false;
  if (options_.debit_survivors) {
    offset_ += victim_budget;
    last_evict_moved_offset_ = victim_budget != 0.0;
  }

  // The victim's tenant just incurred a miss: m(owner) grows, and the
  // marginal of its *next* miss moves from f'(m+1) to f'(m+2).
  const double marginal_before = marginal_[owner];
  ++evictions_[owner];
  cache_marginal(owner);
  const double delta = marginal_[owner] - marginal_before;
  // The owner's re-freeze inputs moved iff its next-marginal value did:
  // with a zero delta both the marginal and the bump (when enabled) are
  // bit-identical to before, so the owner's keys still re-freeze exactly
  // (linear costs hit this on every eviction). With a nonzero delta the
  // algebraic cancellation (marginal+δ) − (bump+δ) is not FP-bit-exact,
  // so the owner's stamps must go stale.
  last_evict_refreshed_tenant_ = delta != 0.0;
  // The bump shifts all of the owner's pages together, so it moves only
  // the owner's leaf, never the order inside its heap.
  if (options_.bump_victim_tenant) tenant_bump_[owner] += delta;
  refresh_tenant(owner);
}

void ConvexCachingPolicy::on_insert(const Request& request, TimeStep time) {
  maybe_roll_window(time);
  // Fig. 3: B(p_t) ← f'(m+1). Inserted after the offset/bump updates of the
  // same step, so the new page is exempt from this step's debit — exactly
  // the "p' ∉ {p, p_t}" exclusion.
  const Handle handle =
      free_.empty() ? static_cast<Handle>(nodes_.size()) : free_.back();
  CCC_CHECK(pages_.try_emplace(request.page, handle),
            "ConvexCaching inserting an already tracked page");
  if (free_.empty())
    nodes_.emplace_back();
  else
    free_.pop_back();
  std::vector<Handle>& heap = heaps_[request.tenant];
  const auto pos = static_cast<std::uint32_t>(heap.size());
  nodes_[handle] = Node{fresh_key(request.tenant), request.page,
                        request.tenant, pos};
  heap.push_back(handle);
  sift_up(heap, pos);
  refresh_tenant(request.tenant);
}

double ConvexCachingPolicy::budget(PageId page) const {
  const auto it = pages_.find(page);
  CCC_REQUIRE(it != pages_.end(), "budget() of a non-resident page");
  const Node& node = nodes_[it->second];
  return effective(node.key, node.tenant);
}

std::string ConvexCachingPolicy::name() const {
  std::string n = "ConvexCaching";
  if (options_.derivative == DerivativeMode::kDiscreteMarginal)
    n += "[discrete]";
  if (!options_.debit_survivors) n += "[no-debit]";
  if (!options_.bump_victim_tenant) n += "[no-bump]";
  if (options_.window_length > 0)
    n += "[w=" + std::to_string(options_.window_length) + "]";
  return n;
}

}  // namespace ccc
