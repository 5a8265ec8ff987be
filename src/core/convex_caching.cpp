#include "core/convex_caching.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "util/check.hpp"

namespace ccc {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

PolicyFactory make_convex_factory(ConvexCachingOptions options) {
  return [options] { return std::make_unique<ConvexCachingPolicy>(options); };
}

ConvexCachingPolicy::ConvexCachingPolicy(ConvexCachingOptions options)
    : options_(options) {}

void ConvexCachingPolicy::reset(const PolicyContext& ctx) {
  reset(ctx, ctx.capacity);
}

void ConvexCachingPolicy::reset(const PolicyContext& ctx,
                                std::size_t max_capacity) {
  CCC_REQUIRE(ctx.capacity <= max_capacity, "capacity over max_capacity");
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
  // At most half full, so a probe ends within a few slots.
  std::size_t slots = 16;
  while (slots < 2 * max_capacity + 2) slots <<= 1;
  pages_.emplace();
  pages_->allocate(slots, std::max<std::uint32_t>(1, ctx.num_tenants));
  capacity_ = ctx.capacity;
  nodes_.clear();
  free_.clear();
  heaps_.resize(ctx.num_tenants);
  for (std::vector<Handle>& heap : heaps_) heap.clear();
  reserve(ctx.capacity);
  leaves_.assign(std::max<std::size_t>(2, std::bit_ceil(std::size_t{
                                              ctx.num_tenants})),
                 Leaf{kInfinity, kNoPage});
  tree_.assign(leaves_.size(), 0);
  rebuild_tree();
  current_window_ = 0;
  counters_ = PerfCounters{};
}

void ConvexCachingPolicy::reserve(std::size_t capacity) {
  nodes_.reserve(capacity);
  const std::size_t share =
      2 * capacity / std::max<std::size_t>(1, heaps_.size()) + 1;
  for (std::vector<Handle>& heap : heaps_) heap.reserve(share);
}

void ConvexCachingPolicy::cache_marginal(TenantId tenant) {
  const double marginal = next_miss_marginal(
      *(*costs_)[tenant], evictions_[tenant], options_.derivative);
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

void ConvexCachingPolicy::roll_window(TimeStep time) {
  const std::size_t window = time / options_.window_length;
  if (window == current_window_) return;
  current_window_ = window;
  ++counters_.window_rollovers;
  ++counters_.index_rebuilds;
  // New accounting window: every tenant's miss count restarts at zero, so
  // every marginal — and therefore every budget — re-bases. All keys of a
  // tenant become equal, so each heap re-heapifies by page id. Stamps and
  // epochs stay: with the offset and every bump back at 0, each re-based
  // key equals fresh_key() bit for bit (DESIGN.md §10), so a page whose
  // stamp was fresh still skips its refresh exactly.
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

bool ConvexCachingPolicy::hit(std::size_t slot) {
  Node& node = nodes_[pages_->handle(slot)];
  // A fresh stamp proves that neither the offset nor the owner's marginal
  // or bump moved since the key was frozen, so the refresh below would
  // store the key it finds (DESIGN.md §10).
  if (pages_->fresh(slot, node.tenant)) return true;
  // Fig. 3, first bullet: refresh B(p_t) on every access.
  const double key = fresh_key(node.tenant);
  if (key != node.key) {
    node.key = key;
    resift(heaps_[node.tenant], node.pos);
    refresh_tenant(node.tenant);
  }
  pages_->restamp(slot, node.tenant);
  return false;
}

TenantId ConvexCachingPolicy::evict(PageId victim) {
  const std::size_t slot = pages_->find(victim);
  CCC_REQUIRE(slot != PageTable::kNoSlot,
              "ConvexCaching evicting a page that is not resident");
  const Handle handle = pages_->handle(slot);
  const Node& node = nodes_[handle];
  const TenantId owner = node.tenant;
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
  if (last != handle) {
    heap[pos] = last;
    nodes_[last].pos = pos;
    resift(heap, pos);
  }
  free_.push_back(handle);
  ++counters_.heap_pops;

  // Fig. 3: debit every surviving page by B(p) — one offset update. A
  // zero victim budget leaves the offset bit-identical, so survivors'
  // keys still re-freeze to the same value and their stamps stay fresh.
  bool offset_moved = false;
  if (options_.debit_survivors) {
    offset_ += victim_budget;
    offset_moved = victim_budget != 0.0;
  }

  // The victim's tenant just incurred a miss: m(owner) grows, and the
  // marginal of its *next* miss moves from f'(m+1) to f'(m+2).
  const double marginal_before = marginal_[owner];
  ++evictions_[owner];
  cache_marginal(owner);
  const double delta = marginal_[owner] - marginal_before;
  // The bump shifts all of the owner's pages together, so it moves only
  // the owner's leaf, never the order inside its heap.
  if (options_.bump_victim_tenant) tenant_bump_[owner] += delta;
  refresh_tenant(owner);
  // The owner's re-freeze inputs moved iff its next-marginal value did:
  // with a zero delta both the marginal and the bump (when enabled) are
  // bit-identical to before, so the owner's keys still re-freeze exactly
  // (linear costs hit this on every eviction). With a nonzero delta the
  // algebraic cancellation (marginal+δ) − (bump+δ) is not FP-bit-exact,
  // so the owner's stamps must go stale.
  pages_->erase(slot, owner, offset_moved, delta != 0.0);
  return owner;
}

void ConvexCachingPolicy::insert(const Request& request) {
  // Fig. 3: B(p_t) ← f'(m+1). Inserted after the offset/bump updates of the
  // same step, so the new page is exempt from this step's debit — exactly
  // the "p' ∉ {p, p_t}" exclusion.
  const Handle handle =
      free_.empty() ? static_cast<Handle>(nodes_.size()) : free_.back();
  pages_->insert(request.page, request.tenant, handle);
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

PageId ConvexCachingPolicy::choose_victim(const Request& /*request*/,
                                          TimeStep /*time*/) {
  ++counters_.evictions;
  const PageId victim = leaves_[tree_[1]].page;
  CCC_CHECK(victim != kNoPage,
            "ConvexCaching asked for a victim with an empty cache");
  return victim;
}

bool ConvexCachingPolicy::step(const Request& request, TimeStep time,
                               StepEvent& event) {
  CCC_REQUIRE(request.tenant < heaps_.size(), "request tenant out of range");
  CCC_REQUIRE(request.page != PageTable::kEmptySlot,
              "the page table reserves this page id");
  if (options_.window_length != 0) [[unlikely]] roll_window(time);
  event = StepEvent{request, false, {}, {}};
  const std::size_t slot = pages_->find(request.page);
  event.hit = slot != PageTable::kNoSlot;
  if (event.hit) return hit(slot);
  if (pages_->size() >= capacity_) {
    event.victim = choose_victim(request, time);
    event.victim_owner = evict(*event.victim);
  }
  insert(request);
  return false;
}

std::optional<PageId> ConvexCachingPolicy::victim_for(const Request& request,
                                                      TimeStep time) {
  if (options_.window_length != 0) roll_window(time);
  if (pages_->size() < capacity_ ||
      pages_->find(request.page) != PageTable::kNoSlot)
    return std::nullopt;
  return leaves_[tree_[1]].page;
}

std::vector<PageId> ConvexCachingPolicy::pages_of(TenantId tenant) const {
  CCC_REQUIRE(tenant < heaps_.size(), "tenant out of range");
  std::vector<PageId> pages;
  pages.reserve(heaps_[tenant].size());
  for (const Handle handle : heaps_[tenant])
    pages.push_back(nodes_[handle].page);
  return pages;
}

void ConvexCachingPolicy::resize(std::size_t capacity, Metrics& metrics) {
  CCC_REQUIRE(2 * capacity + 2 <= pages_->mask() + 1, "over reset()'s size");
  if (capacity > capacity_) reserve(capacity);
  capacity_ = capacity;
  while (pages_->size() > capacity_)
    metrics.record_eviction(evict(choose_victim(Request{}, 0)));
}

double ConvexCachingPolicy::budget(PageId page) const {
  const std::size_t slot = pages_->find(page);
  CCC_REQUIRE(slot != PageTable::kNoSlot, "budget() of a non-resident page");
  const Node& node = nodes_[pages_->handle(slot)];
  return effective(node.key, node.tenant);
}

std::string ConvexCachingPolicy::name() const {
  std::string n = options_.derivative == DerivativeMode::kFirstMarginal
                      ? "Landlord"
                      : "ConvexCaching";
  if (options_.derivative == DerivativeMode::kDiscreteMarginal)
    n += "[discrete]";
  if (!options_.debit_survivors) n += "[no-debit]";
  if (!options_.bump_victim_tenant) n += "[no-bump]";
  if (options_.window_length > 0)
    n += "[w=" + std::to_string(options_.window_length) + "]";
  return n;
}

}  // namespace ccc
