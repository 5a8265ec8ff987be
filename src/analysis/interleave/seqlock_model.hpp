#pragma once
/// \file seqlock_model.hpp
/// \brief Exhaustive model checking of the seqlock residency protocol:
///        runs the *production template* (SeqlockResidencyTable) over
///        CheckedAtomics, records a writer script once, explores every
///        reads-from assignment a concurrent reader could observe, and
///        validates each successful optimistic hit against a ghost truth
///        timeline.
///
/// Correctness condition (serializability with a causal floor): a
/// lock-free hit on page p is sound iff it could have been produced by
/// some mutex-acquiring hit at *some* writer-history instant t — and
/// reading a store with global order position g forces t ≥ g (in any
/// justifying serial history the read store precedes the read). So the
/// checker demands
///     ∃ t ≥ read_floor  with  truth(t): p fresh-resident,
/// where read_floor is the max global position over all stores the
/// reader's loads observed, and truth() is the harness's ghost state,
/// updated atomically at the start of each writer op (a locked op is a
/// critical section, so real freshness changes atomically at op
/// granularity; timestamping changes at op *start* is conservative for
/// eviction — freshness is lost the moment the op begins — and harmless
/// for publication, whose stores all carry positions after the start).
/// Real-time ordering is deliberately NOT demanded: a seqlock reader that
/// observes an entirely-stale-but-consistent snapshot legitimately
/// serializes in the past; flagging that would reject the correct
/// protocol.
///
/// The writer ops are the policy's own table writes (insert, restamp,
/// erase with its epoch bumps; an erase alone is a capacity shrink), and
/// after each one the harness checks that every resident page's slot
/// still holds the node handle the page was published with.
///
/// The mutation suite (tests/test_seqlock_model.cpp) flips one
/// SeqlockConfig ingredient at a time and asserts the checker reports a
/// violation, while the shipped all-true config passes every script with
/// zero violations and a nonzero number of served hits.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/interleave/checked_atomics.hpp"
#include "core/seqlock_table.hpp"
#include "util/check.hpp"
#include "util/flat_map.hpp"  // util::splitmix64 (collision search)

namespace ccc::interleave {

/// One unsound optimistic hit found by the checker.
struct SeqlockViolation {
  std::uint64_t page = 0;
  std::uint64_t read_floor = 0;
  std::uint64_t execution = 0;  ///< DFS execution index (for replay)
};

/// Aggregate result of exploring one script under one config.
struct SeqlockCheckResult {
  std::uint64_t executions = 0;   ///< reader executions explored (all pages)
  std::uint64_t hits_served = 0;  ///< executions that returned a hit
  std::vector<SeqlockViolation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
};

/// Finds `count` distinct page ids that all hash to the same home slot of
/// a table with `mask` (so eviction's backward-shift erase actually moves
/// entries — the torn-read surface the mutations exploit).
[[nodiscard]] std::vector<std::uint64_t> colliding_pages(std::size_t count,
                                                         std::size_t mask);

/// Model-checking harness for one writer script. Drives the production
/// SeqlockResidencyTable template over CheckedAtomics.
template <SeqlockConfig Config>
class SeqlockModelHarness {
 public:
  explicit SeqlockModelHarness(std::size_t table_size = 16,
                               std::uint32_t num_tenants = 2) {
    table_.allocate(table_size, num_tenants);
    // Initial truth: empty cache, timestamped before every real store.
    truth_.push_back(Snapshot{0, {}});
  }

  // ---- writer script (record mode; ops mirror ConvexCachingPolicy's) -- //

  /// Miss into free space: publish the page with a fresh handle.
  /// `tenant` is recorded as the page's owner for the rest of the script
  /// (the production pairing contract: pages are tenant-owned).
  void fill(std::uint64_t page, std::uint32_t tenant = 0) {
    begin_op([&](Snapshot& s) { s.state[page] = PageTruth::kFresh; });
    owner_[page] = tenant;
    handle_[page] = next_handle_++;
    const ScopedModelContext scope(ctx_);
    table_.insert(page, tenant, handle_[page]);
    check_handles();
  }

  /// Locked hit (stamp refresh).
  void restamp(std::uint64_t page) {
    begin_op([&](Snapshot& s) {
      CCC_CHECK(s.state.count(page) == 1, "restamp of a non-resident page");
      s.state[page] = PageTruth::kFresh;
    });
    const ScopedModelContext scope(ctx_);
    table_.restamp(table_.find(page), owner_of(page));
  }

  /// Eviction without a fetch (a capacity shrink; the first half of an
  /// evicting miss). Ghost truth mirrors the per-tenant freshness
  /// criterion exactly: an offset move stales every survivor; else a
  /// re-base of the victim tenant stales only that tenant's survivors;
  /// else (zero-budget victim, flat marginal) nothing stales.
  void erase(std::uint64_t victim, bool offset_moved = true,
             bool victim_refreshed = true) {
    begin_op([&](Snapshot& s) {
      CCC_CHECK(s.state.erase(victim) == 1, "evicting a non-resident page");
      for (auto& [p, truth] : s.state) {
        if (offset_moved ||
            (victim_refreshed && owner_of(p) == owner_of(victim)))
          truth = PageTruth::kStale;
      }
    });
    handle_.erase(victim);
    const ScopedModelContext scope(ctx_);
    table_.erase(table_.find(victim), owner_of(victim), offset_moved,
                 victim_refreshed);
    check_handles();
  }

  /// Miss with eviction: the erase, then the fetched page's publish.
  void evict(std::uint64_t victim, std::uint64_t page,
             std::uint32_t page_tenant = 0, bool offset_moved = true,
             bool victim_refreshed = true) {
    erase(victim, offset_moved, victim_refreshed);
    fill(page, page_tenant);
  }

  // ---- exploration (after the script) ------------------------------- //

  /// Explores every reads-from assignment of `try_fresh_hit(page)` for
  /// each page in `probe_pages` and validates successful hits against the
  /// truth timeline.
  [[nodiscard]] SeqlockCheckResult check(
      const std::vector<std::uint64_t>& probe_pages) {
    SeqlockCheckResult result;
    const ScopedModelContext scope(ctx_);
    for (const std::uint64_t page : probe_pages) {
      // Each page gets a fresh DFS over the same recorded history (the
      // context keeps the store histories; only reader state resets).
      ctx_.begin_exploration();
      while (ctx_.next_execution()) {
        const bool hit = table_.try_fresh_hit(page, owner_of(page));
        ++result.executions;
        if (!hit) continue;
        ++result.hits_served;
        if (!serializable_hit(page, ctx_.read_floor())) {
          SeqlockViolation v;
          v.page = page;
          v.read_floor = ctx_.read_floor();
          v.execution = ctx_.executions();
          result.violations.push_back(v);
        }
      }
    }
    return result;
  }

 private:
  enum class PageTruth { kStale, kFresh };

  struct Snapshot {
    std::uint64_t from_global;  ///< first store position this covers
    std::map<std::uint64_t, PageTruth> state;
  };

  /// Records a truth snapshot at the current global store position, then
  /// lets the caller edit it (starting from the previous truth).
  template <typename Fn>
  void begin_op(Fn&& edit) {
    Snapshot next = truth_.back();
    next.from_global = ctx_.next_global();
    edit(next);
    truth_.push_back(std::move(next));
  }

  /// ∃ instant t ≥ read_floor with page fresh-resident? Snapshot i covers
  /// [from_global_i, from_global_{i+1}) (the last one is unbounded), so
  /// it intersects [read_floor, ∞) iff its end lies beyond read_floor.
  [[nodiscard]] bool serializable_hit(std::uint64_t page,
                                      std::uint64_t read_floor) const {
    for (std::size_t i = 0; i < truth_.size(); ++i) {
      const bool open_ended = i + 1 == truth_.size();
      if (!open_ended && truth_[i + 1].from_global <= read_floor) continue;
      const auto it = truth_[i].state.find(page);
      if (it != truth_[i].state.end() && it->second == PageTruth::kFresh)
        return true;
    }
    return false;
  }

  /// The page's recorded owner (production pairing contract: one tenant
  /// per page, forever). Pages a script never introduced default to 0.
  [[nodiscard]] std::uint32_t owner_of(std::uint64_t page) const {
    const auto it = owner_.find(page);
    return it == owner_.end() ? 0u : it->second;
  }

  /// Every resident page's slot holds its handle, and the table holds
  /// nothing else (writer-side reads: record mode returns latest values).
  void check_handles() const {
    std::size_t seen = 0;
    table_.for_each([&](std::uint64_t page, std::uint32_t handle) {
      const auto it = handle_.find(page);
      CCC_CHECK(it != handle_.end() && it->second == handle,
                "page table slot holds another page's handle");
      ++seen;
    });
    CCC_CHECK(seen == handle_.size(), "page table lost a resident page");
  }

  ModelContext ctx_;
  // Installed for the harness's whole lifetime and declared BEFORE the
  // table: the table's Atomic members register themselves with the
  // current context during *member construction*, and every later
  // script/check call needs the same context anyway (the harness is
  // single-threaded by design).
  ScopedModelContext scope_{ctx_};
  SeqlockResidencyTable<CheckedAtomics, Config> table_;
  std::vector<Snapshot> truth_;
  std::map<std::uint64_t, std::uint32_t> owner_;
  /// Resident page → the node handle it was published with.
  std::map<std::uint64_t, std::uint32_t> handle_;
  std::uint32_t next_handle_ = 0;
};

}  // namespace ccc::interleave
