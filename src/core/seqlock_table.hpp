#pragma once
/// \file seqlock_table.hpp
/// \brief ALG-DISCRETE's page table: resident page → heap-node handle, laid
///        out so that readers may probe it without the owner's lock. The
///        seqlock protocol is parameterized on an atomics policy so the
///        *identical* code runs (a) in production over `std::atomic` and (b)
///        inside the exhaustive interleaving checker (src/analysis/interleave)
///        over checked atomics that model acquire/release/relaxed visibility.
///
/// ConvexCachingPolicy owns one table and is its only writer; under
/// ShardedCache's `HitPath::kSeqlock` the same table is the shard's
/// lock-free hit path, so a shard keeps one residency record.
///
/// The protocol skeleton is Boehm's seqlock recipe (DESIGN.md §10): an
/// open-addressing table in atomic `(key, stamp)` arrays and a `seq` word
/// whose odd values mark structural writes in flight; a plain third column
/// holds each page's heap-node handle, which readers never touch.
/// Freshness is **per-tenant**: a page's stamp
/// records the sum `epoch + tenant_epoch[owner]` at its last budget
/// refresh, where
///
///  - `epoch` (global) advances only when an eviction actually moved the
///    shared survivor-debit `offset_` (victim budget ≠ 0) — the only event
///    that changes the re-freeze value of *every* tenant's pages at once,
///    and
///  - `tenant_epoch[t]` advances only when an eviction charged to tenant t
///    changed t's own re-freeze inputs (its next-marginal value or bump
///    moved, i.e. the marginal delta ≠ 0).
///
/// Both counters are monotone, so `stamp == epoch + tenant_epoch[owner]`
/// implies *neither* moved since the page's last refresh — re-freezing the
/// budget now recomputes `next_marginal − bump + offset` from bit-identical
/// operands and stores a bit-identical key, which is the exact criterion
/// under which the hit is a pure no-op in ALG-DISCRETE and may be served
/// without the shard mutex. The practical payoff is that zero-budget
/// evictions (the common generational case under linear costs) stale
/// *nothing*, and a positive-budget eviction in tenant t never stales
/// tenant u ≠ t unless the shared offset moved.
///
/// Callers must pass the same tenant id for a given page on every call
/// (pages are tenant-owned — trace/types.hpp packs the tenant into the
/// PageId, and every frontend validates the pairing before probing).
///
/// `SeqlockConfig` exists for the model checker's mutation suite only: each
/// flag disables one load-bearing ingredient of the protocol (the acquire
/// fence, the seq revalidation, the odd-window, the epoch bumps, ...), and
/// tests/test_seqlock_model.cpp proves the checker rejects every such
/// mutant while the shipped configuration passes an exhaustive exploration.
/// Production code always instantiates `kShippedSeqlock`; every deviation
/// point is an `if constexpr`, so the shipped instantiation compiles to the
/// exact intended instruction sequence.
///
/// Thread-safety contract: `try_fresh_hit` may be called by any number of
/// threads with no lock. Every other member is a writer-side operation and
/// must be called by the single writer (under the owning shard's mutex).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/check.hpp"
#include "util/flat_map.hpp"  // util::splitmix64

namespace ccc {

/// Production atomics policy: plain std::atomic plus the standalone fences.
struct StdAtomics {
  template <typename T>
  using Atomic = std::atomic<T>;
  static void fence_acquire() noexcept {
    // Strength chosen by the caller; this is just the raw fence.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  static void fence_release() noexcept {
    // Strength chosen by the caller; this is just the raw fence.
    std::atomic_thread_fence(std::memory_order_release);
  }
};

/// Protocol mutation switches for the model checker's seeded-bug suite.
/// All-true is the shipped protocol; each false removes one ingredient.
struct SeqlockConfig {
  // Reader side ------------------------------------------------------
  /// Bail out when the first seq load is odd (structural write open).
  bool check_odd_seq = true;
  /// Acquire fence between the probe loads and the seq revalidation.
  bool acquire_fence = true;
  /// Reload seq after the fence and require it unchanged.
  bool revalidate_seq = true;
  /// Probe keys with acquire loads (orders the stamp load after the
  /// writer's stamp store on the publish path).
  bool acquire_key_loads = true;
  // Writer side ------------------------------------------------------
  /// Wrap the eviction erase and its epoch bumps in an odd seq window +
  /// release fence.
  bool seq_window = true;
  /// Advance the global epoch when an eviction moved the shared offset —
  /// stales every tenant's stamps.
  bool bump_epoch = true;
  /// Advance the victim tenant's epoch when the eviction changed that
  /// tenant's re-freeze inputs — stales only the victim tenant's stamps.
  bool bump_tenant_epoch = true;
  /// Include the tenant epoch in stamps and the freshness test. False
  /// degrades freshness to the global epoch alone, so tenant-local bumps
  /// go unnoticed (a seeded bug the checker must catch).
  bool stamp_tenant_epoch = true;
  /// On the free-space publish path, store the stamp before the key and
  /// release the key store.
  bool stamp_before_key = true;
};

inline constexpr SeqlockConfig kShippedSeqlock{};

/// One page table + its seqlock words.
///
/// `Policy` supplies the atomic type and fences (StdAtomics in
/// production, interleave::CheckedAtomics under the model checker).
/// `Config` selects protocol mutations (checker only).
template <typename Policy, SeqlockConfig Config = kShippedSeqlock>
class SeqlockResidencyTable {
 public:
  using AtomicU64 = typename Policy::template Atomic<std::uint64_t>;
  /// A resident page's heap-node handle in its owner (writer-only column).
  using Handle = std::uint32_t;

  /// Empty marker for the key slots (never a valid PageId).
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  /// find()'s answer for a page that is not resident.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  SeqlockResidencyTable() = default;
  SeqlockResidencyTable(const SeqlockResidencyTable&) = delete;
  SeqlockResidencyTable& operator=(const SeqlockResidencyTable&) = delete;

  /// Allocates `table_size` (power of two) slots, all empty, plus one
  /// tenant-epoch word per tenant. Called once before any concurrent
  /// reader exists; reallocation is forbidden (it would pull the arrays
  /// out from under lock-free probes).
  void allocate(std::size_t table_size, std::uint32_t num_tenants) {
    CCC_REQUIRE(table_size >= 2 && (table_size & (table_size - 1)) == 0,
                "seqlock table size must be a power of two");
    CCC_REQUIRE(num_tenants >= 1, "seqlock table needs at least one tenant");
    CCC_CHECK(key_ == nullptr, "seqlock table may only be allocated once");
    mask_ = table_size - 1;
    num_tenants_ = num_tenants;
    key_ = std::make_unique<AtomicU64[]>(table_size);
    stamp_ = std::make_unique<AtomicU64[]>(table_size);
    handle_ = std::make_unique<Handle[]>(table_size);
    tenant_epoch_ = std::make_unique<AtomicU64[]>(num_tenants);
    for (std::size_t i = 0; i < table_size; ++i) {
      // Pre-publication init: no reader exists yet, so plain relaxed
      // stores suffice to establish the empty table.
      key_[i].store(kEmptySlot, std::memory_order_relaxed);
      stamp_[i].store(0, std::memory_order_relaxed);
    }
    for (std::uint32_t t = 0; t < num_tenants; ++t) {
      // Pre-publication init (same argument as the key/stamp loop above).
      tenant_epoch_[t].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] bool allocated() const noexcept { return key_ != nullptr; }
  [[nodiscard]] std::size_t mask() const noexcept { return mask_; }
  [[nodiscard]] std::uint32_t num_tenants() const noexcept {
    return num_tenants_;
  }

  // ---------------------------------------------------------------- //
  // Reader side (lock-free; any thread)                               //
  // ---------------------------------------------------------------- //

  /// Returns true iff `page` was observed resident with a current stamp
  /// under a validated seqlock read — i.e. the locked hit path would have
  /// been a pure no-op and the hit may be served without the mutex. Any
  /// torn, in-progress or ambiguous observation returns false (the caller
  /// falls back to the mutex, which is always correct). `tenant` must be
  /// the page's owner (see the file comment's pairing contract).
  [[nodiscard]] bool try_fresh_hit(std::uint64_t page,
                                   std::uint32_t tenant) const {
    // Boehm seqlock reader: acquire the seq word so the probe loads below
    // cannot be satisfied before it; odd means a structural write is in
    // flight.
    const std::uint64_t s1 = seq_.load(std::memory_order_acquire);
    if constexpr (Config.check_odd_seq) {
      if ((s1 & 1) != 0) return false;
    }
    // Relaxed is enough for both epoch words: the final seq revalidation
    // decides whether this snapshot was stable (epochs only move inside
    // odd windows, which the revalidation detects); a stale epoch can
    // only make the freshness test fail conservatively.
    std::uint64_t want = epoch_.load(std::memory_order_relaxed);
    if constexpr (Config.stamp_tenant_epoch) {
      // Relaxed: same window-stability argument as the global epoch load.
      want += tenant_epoch_[tenant].load(std::memory_order_relaxed);
    }
    std::size_t slot = home(page);
    bool fresh = false;
    for (std::size_t probes = 0; probes <= mask_; ++probes) {
      // Acquire on the key orders the stamp load after the writer's
      // stamp store, which precedes its key release-store on the
      // publish path (writer stores stamp, then key/release).
      const std::uint64_t key =
          key_[slot].load(Config.acquire_key_loads
                              ? std::memory_order_acquire   // see above
                              : std::memory_order_relaxed); // checker-verified
                                                            // benign mutation
      if (key == kEmptySlot) break;  // not resident (as of this snapshot)
      if (key == page) {
        // Fresh ⇔ neither the global nor the owner's epoch moved since
        // this page's last budget refresh ⇔ re-freezing the budget now
        // recomputes from bit-identical operands ⇔ the locked hit path
        // would be a no-op. Relaxed is safe: the acquire on `key`
        // already ordered this load (see above).
        fresh = stamp_[slot].load(std::memory_order_relaxed) == want;
        break;
      }
      slot = (slot + 1) & mask_;
    }
    if constexpr (Config.acquire_fence) {
      // Pairs with the writer's release fence at the top of each odd
      // window: if any probe above read a store made inside a window,
      // this fence makes that window's odd seq store visible to the
      // revalidation load below, forcing the fallback.
      Policy::fence_acquire();
    }
    if constexpr (Config.revalidate_seq) {
      // Relaxed suffices after the fence; any writer activity during the
      // probe moved seq and fails the comparison.
      if (seq_.load(std::memory_order_relaxed) != s1) return false;
    }
    return fresh;
  }

  // ---------------------------------------------------------------- //
  // Writer side (the owning policy; single writer). Its loads read    //
  // its own last stores, so relaxed suffices for all of them.         //
  // ---------------------------------------------------------------- //

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The slot holding `page`, or kNoSlot (also for kEmptySlot). One probe.
  [[nodiscard]] std::size_t find(std::uint64_t page) const {
    std::size_t slot = home(page);
    while (true) {
      // Relaxed: writer-private read (see the section comment).
      const std::uint64_t key = key_[slot].load(std::memory_order_relaxed);
      if (key == kEmptySlot) return kNoSlot;
      if (key == page) return slot;
      slot = (slot + 1) & mask_;
    }
  }

  [[nodiscard]] Handle handle(std::size_t slot) const { return handle_[slot]; }

  /// Calls `fn(page, handle)` for every resident page, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t slot = 0; slot <= mask_; ++slot) {
      // Relaxed: writer-private read (see the section comment).
      const std::uint64_t key = key_[slot].load(std::memory_order_relaxed);
      if (key != kEmptySlot) fn(key, handle_[slot]);
    }
  }

  /// Hints that `page`'s home slot will be probed soon (batch probe-ahead).
  void prefetch(std::uint64_t page) const {
    __builtin_prefetch(&key_[home(page)]);
  }

  /// The writer's no-op test for a hit on the page at `slot`, owned by
  /// `tenant`: true iff its stamp equals `tenant`'s current epoch sum, so
  /// re-freezing its budget now would store the key it holds.
  [[nodiscard]] bool fresh(std::size_t slot, std::uint32_t tenant) const {
    // Relaxed: writer-private read (see the section comment).
    return stamp_[slot].load(std::memory_order_relaxed) == stamp_for(tenant);
  }

  /// A locked hit re-froze the budget of the page at `slot`: stamp it with
  /// its owner's current epoch sum. A lone relaxed store: a racing reader
  /// sees the old stamp (conservative fallback) or the new one (the budget
  /// is already re-frozen), never an inconsistency.
  void restamp(std::size_t slot, std::uint32_t tenant) {
    // Relaxed: racing readers see old or new stamp, both self-consistent
    // (doc comment above).
    stamp_[slot].store(stamp_for(tenant), std::memory_order_relaxed);
  }

  /// A miss: publish stamp *then* key with a release store, so a reader
  /// that acquires the new key also observes its stamp. No seq window — a
  /// racing reader can only miss the new entry (conservative). Throws on
  /// the reserved key and on a resident page.
  void insert(std::uint64_t page, std::uint32_t tenant, Handle handle) {
    CCC_REQUIRE(page != kEmptySlot, "the seqlock table reserves this key");
    CCC_CHECK(size_ < mask_, "seqlock table is full");
    const std::uint64_t want = stamp_for(tenant);
    std::size_t slot = home(page);
    while (true) {
      // Relaxed: writer-private read (see the section comment).
      const std::uint64_t key = key_[slot].load(std::memory_order_relaxed);
      if (key == kEmptySlot) break;
      CCC_CHECK(key != page, "seqlock table inserting a resident page");
      slot = (slot + 1) & mask_;
    }
    handle_[slot] = handle;
    if constexpr (Config.stamp_before_key) {
      // Relaxed: the key release-store below carries it.
      stamp_[slot].store(want, std::memory_order_relaxed);
      // Release: the publish point — carries the stamp store above.
      key_[slot].store(page, std::memory_order_release);
    } else {
      // Mutation: key first, stamp later (checker-verified benign —
      // see tests/test_seqlock_model.cpp).
      key_[slot].store(page, std::memory_order_release);
      stamp_[slot].store(want, std::memory_order_relaxed);
    }
    ++size_;
  }

  /// Evicts the page at `slot`, owned by `tenant`: backward-shift erase
  /// plus the epoch bumps it earned, in one odd seq window (the shift moves
  /// *unrelated* entries and their handles mid-probe). `offset_moved`
  /// (nonzero victim budget) advances the global epoch, `tenant_refreshed`
  /// (marginal delta ≠ 0) only `tenant`'s; with neither, nothing stales.
  void erase(std::size_t slot, std::uint32_t tenant, bool offset_moved,
             bool tenant_refreshed) {
    open_window();
    erase_at(slot);
    if constexpr (Config.bump_epoch) {
      if (offset_moved) {
        // Relaxed load: writer-private read of a writer-owned counter.
        const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
        // Relaxed: the window close below releases this store.
        epoch_.store(epoch + 1, std::memory_order_relaxed);
      }
    }
    if constexpr (Config.bump_tenant_epoch) {
      if (tenant_refreshed) {
        // Relaxed load: writer-private read of a writer-owned counter.
        const std::uint64_t te =
            tenant_epoch_[tenant].load(std::memory_order_relaxed);
        // Relaxed: the window close below releases this store.
        tenant_epoch_[tenant].store(te + 1, std::memory_order_relaxed);
      }
    }
    close_window();
  }

 private:
  /// The current freshness sum for `tenant` (writer-side: we own every
  /// epoch store, so relaxed loads read our own last values).
  [[nodiscard]] std::uint64_t stamp_for(std::uint32_t tenant) const {
    // Relaxed: writer-private reads of writer-owned counters.
    std::uint64_t want = epoch_.load(std::memory_order_relaxed);
    if constexpr (Config.stamp_tenant_epoch) {
      // Relaxed: writer-private read (same argument as above).
      want += tenant_epoch_[tenant].load(std::memory_order_relaxed);
    }
    return want;
  }

  [[nodiscard]] std::size_t home(std::uint64_t page) const {
    return static_cast<std::size_t>(util::splitmix64(page)) & mask_;
  }

  /// Opens an odd seq window around a structural write.
  void open_window() {
    if constexpr (Config.seq_window) {
      const std::uint64_t s = seq_.load(std::memory_order_relaxed);
      // Relaxed store + release fence (not a release store): the fence
      // orders the odd seq before *every* subsequent window store, so a
      // reader that observed any of them learns the window was open.
      seq_.store(s + 1, std::memory_order_relaxed);
      Policy::fence_release();
    }
  }

  /// Closes the window opened by open_window().
  void close_window() {
    if constexpr (Config.seq_window) {
      const std::uint64_t s = seq_.load(std::memory_order_relaxed);
      // Release: publishes all window stores to readers that see s+1.
      seq_.store(s + 1, std::memory_order_release);
    }
  }

  /// Tombstone-free backward-shift erase (inside the caller's window).
  void erase_at(std::size_t hole) {
    std::size_t probe = hole;
    while (true) {
      probe = (probe + 1) & mask_;
      // Relaxed: writer-private probe under the open window.
      const std::uint64_t key =
          key_[probe].load(std::memory_order_relaxed);
      if (key == kEmptySlot) break;
      const std::size_t h = home(key);
      // Cyclic distance test — identical to util::FlatMap::erase_at.
      if (((probe - h) & mask_) >= ((probe - hole) & mask_)) {
        key_[hole].store(key, std::memory_order_relaxed);  // window
        // Relaxed move of the (key, stamp) pair: window-screened.
        stamp_[hole].store(stamp_[probe].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
        handle_[hole] = handle_[probe];
        hole = probe;
      }
    }
    key_[hole].store(kEmptySlot, std::memory_order_relaxed);  // window
    --size_;
  }

  /// Sequence word: odd ⇔ structural write in flight. Cache-line-aligned
  /// away from the policy state the writer keeps next to this table.
  alignas(64) AtomicU64 seq_{};
  /// Global epoch: offset-moving evictions so far. A page's stamp is
  /// fresh iff it equals `epoch_ + tenant_epoch_[owner]`.
  AtomicU64 epoch_{};
  std::unique_ptr<AtomicU64[]> key_;
  std::unique_ptr<AtomicU64[]> stamp_;
  /// Writer-only: the heap-node handle of the page in each slot.
  std::unique_ptr<Handle[]> handle_;
  /// Per-tenant epoch: re-freeze-changing evictions charged to each
  /// tenant (marginal delta ≠ 0). Indexed by tenant id.
  std::unique_ptr<AtomicU64[]> tenant_epoch_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t num_tenants_ = 0;
};

}  // namespace ccc
