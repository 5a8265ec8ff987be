// Exhaustive model checking of the seqlock residency protocol
// (src/analysis/interleave/seqlock_model.hpp), mirroring the audit
// layer's mutation-suite philosophy: the shipped protocol must pass every
// script with zero violations (and actually serve hits — a checker that
// never admits a hit proves nothing), and flipping any load-bearing
// SeqlockConfig ingredient must produce at least one violation.
//
// The scripts use hash-colliding page ids so eviction's backward-shift
// erase really moves entries between slots — that mid-window motion is
// the torn-read surface the mutations expose. The harness also checks,
// after every writer op, that each resident page's slot still holds the
// node handle it was published with.
//
// Two reorderings named in the protocol discussion — publishing the key
// before the stamp, and probing keys with relaxed instead of acquire
// loads — are checker-VERIFIED BENIGN rather than caught: epoch
// monotonicity (every slot reuse passes through an eviction that bumps
// the epoch) and stamp-value coincidence on the publish path make every
// hit they admit serializable. The checker proves that, and DESIGN.md §11
// records why the defense-in-depth is real rather than a checker blind
// spot.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analysis/interleave/seqlock_model.hpp"

namespace ccc::interleave {
namespace {

constexpr std::size_t kTableSize = 16;
constexpr std::size_t kMask = kTableSize - 1;

// One mutation per load-bearing ingredient (all others stay shipped).
constexpr SeqlockConfig kNoOddCheck{.check_odd_seq = false};
constexpr SeqlockConfig kNoAcquireFence{.acquire_fence = false};
constexpr SeqlockConfig kNoRevalidate{.revalidate_seq = false};
constexpr SeqlockConfig kNoSeqWindow{.seq_window = false};
constexpr SeqlockConfig kNoEpochBump{.bump_epoch = false};
constexpr SeqlockConfig kNoTenantEpochBump{.bump_tenant_epoch = false};
constexpr SeqlockConfig kNoTenantStamp{.stamp_tenant_epoch = false};
// Checker-verified-benign reorderings (see file comment).
constexpr SeqlockConfig kKeyBeforeStamp{.stamp_before_key = false};
constexpr SeqlockConfig kRelaxedKeyLoads{.acquire_key_loads = false};

// Script 1 — fill two colliding pages, then evict the first while
// fetching a third collider: the erase shifts page B across slots and the
// epoch bump re-defines freshness, all inside one odd window. The script
// ENDS in the dangerous state (no later restamp) so a bogus hit cannot be
// excused by later freshness.
template <SeqlockConfig Config>
SeqlockCheckResult run_fill_evict() {
  const std::vector<std::uint64_t> ids = colliding_pages(3, kMask);
  SeqlockModelHarness<Config> harness(kTableSize);
  harness.fill(ids[0]);
  harness.fill(ids[1]);
  harness.evict(/*victim=*/ids[0], /*page=*/ids[2]);
  return harness.check(ids);
}

// Script 2 — locked hits restamp between structural ops; ends after an
// eviction staled the restamped page again.
template <SeqlockConfig Config>
SeqlockCheckResult run_restamp_then_evict() {
  const std::vector<std::uint64_t> ids = colliding_pages(3, kMask);
  SeqlockModelHarness<Config> harness(kTableSize);
  harness.fill(ids[0]);
  harness.fill(ids[1]);
  harness.restamp(ids[0]);
  harness.evict(/*victim=*/ids[1], /*page=*/ids[2]);
  return harness.check(ids);
}

// Script 3 — capacity shrink: erase-only evictions with no fetched page,
// as a rebalance runs them. The first erase shifts both colliding
// survivors (and their handles) back a slot and re-bases only its own
// tenant, which has no survivor; the second moves the shared offset, so
// the last survivor — of the victim's tenant, whose own epoch does not
// move — ends resident and stale through the global epoch alone.
template <SeqlockConfig Config>
SeqlockCheckResult run_shrink() {
  const std::vector<std::uint64_t> ids = colliding_pages(3, kMask);
  SeqlockModelHarness<Config> harness(kTableSize);
  harness.fill(ids[0], /*tenant=*/0);
  harness.fill(ids[1], /*tenant=*/1);
  harness.fill(ids[2], /*tenant=*/1);
  harness.erase(ids[0], /*offset_moved=*/false, /*victim_refreshed=*/true);
  harness.erase(ids[1], /*offset_moved=*/true, /*victim_refreshed=*/false);
  return harness.check(ids);
}

// Script 4 — publish after an eviction epoch bump (exercises the
// stamp/key ordering against a nonzero epoch).
template <SeqlockConfig Config>
SeqlockCheckResult run_evict_then_fill() {
  const std::vector<std::uint64_t> ids = colliding_pages(4, kMask);
  SeqlockModelHarness<Config> harness(kTableSize);
  harness.fill(ids[0]);
  harness.fill(ids[1]);
  harness.evict(/*victim=*/ids[0], /*page=*/ids[2]);
  harness.fill(ids[3]);
  return harness.check(ids);
}

// Script 5 — tenant-local staleness: an eviction that did NOT move the
// shared offset (zero victim budget) but DID re-base the victim tenant's
// budgets (marginal delta ≠ 0). Tenant 0's survivor must go stale while
// tenant 1's survivor stays servable. Only the per-tenant epoch machinery
// distinguishes the two — the global epoch never moves in this script, so
// kNoTenantEpochBump / kNoTenantStamp admit a hit on the re-based
// survivor that no locked execution could produce.
template <SeqlockConfig Config>
SeqlockCheckResult run_tenant_refresh_only() {
  const std::vector<std::uint64_t> ids = colliding_pages(4, kMask);
  SeqlockModelHarness<Config> harness(kTableSize);
  harness.fill(ids[0], /*tenant=*/0);
  harness.fill(ids[1], /*tenant=*/0);
  harness.fill(ids[2], /*tenant=*/1);
  harness.evict(/*victim=*/ids[0], /*page=*/ids[3], /*page_tenant=*/0,
                /*offset_moved=*/false, /*victim_refreshed=*/true);
  return harness.check(ids);
}

// Script 6 — the over-staling fix itself: a zero-budget eviction with a
// flat marginal (the generational steady state under linear costs) stales
// NOTHING. Both survivors — including the victim's own tenant — must
// remain lock-free servable, and any admitted hit is genuinely fresh.
template <SeqlockConfig Config>
SeqlockCheckResult run_nothing_stales() {
  const std::vector<std::uint64_t> ids = colliding_pages(3, kMask);
  SeqlockModelHarness<Config> harness(kTableSize);
  harness.fill(ids[0], /*tenant=*/0);
  harness.fill(ids[1], /*tenant=*/1);
  harness.evict(/*victim=*/ids[0], /*page=*/ids[2], /*page_tenant=*/0,
                /*offset_moved=*/false, /*victim_refreshed=*/false);
  return harness.check(ids);
}

template <SeqlockConfig Config>
std::vector<SeqlockCheckResult> run_all_scripts() {
  return {run_fill_evict<Config>(),        run_restamp_then_evict<Config>(),
          run_shrink<Config>(),            run_evict_then_fill<Config>(),
          run_tenant_refresh_only<Config>(), run_nothing_stales<Config>()};
}

TEST(SeqlockModelSetup, CollidingPagesShareAHomeSlot) {
  const std::vector<std::uint64_t> ids = colliding_pages(4, kMask);
  ASSERT_EQ(ids.size(), 4u);
  const std::size_t home =
      static_cast<std::size_t>(util::splitmix64(ids[0])) & kMask;
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(static_cast<std::size_t>(util::splitmix64(id)) & kMask, home);
    EXPECT_NE(id, SeqlockResidencyTable<StdAtomics>::kEmptySlot);
  }
  // 2^17 colliders at 1/16 density needs ~2^21 candidate ids — past the
  // search bound, so the exhaustion guard must fire.
  EXPECT_THROW(colliding_pages(1u << 17, kMask), std::logic_error);
}

// --- The shipped protocol passes an exhaustive exploration. -----------

TEST(SeqlockModel, ShippedProtocolIsCleanOnEveryScript) {
  for (const SeqlockCheckResult& result :
       run_all_scripts<kShippedSeqlock>()) {
    EXPECT_TRUE(result.clean())
        << result.violations.size() << " violations, first on page "
        << (result.violations.empty() ? 0u : result.violations[0].page);
    // Exhaustiveness sanity: the reads-from space is non-trivial…
    EXPECT_GT(result.executions, 50u);
    // …and the protocol actually serves lock-free hits under it (e.g. a
    // reader that observed a consistent pre-eviction snapshot).
    EXPECT_GT(result.hits_served, 0u);
  }
}

// --- Every load-bearing ingredient, when removed, is caught. ----------

template <SeqlockConfig Config>
void expect_caught(const char* what) {
  std::uint64_t violations = 0;
  for (const SeqlockCheckResult& result : run_all_scripts<Config>())
    violations += result.violations.size();
  EXPECT_GT(violations, 0u)
      << "mutation not caught by any script: " << what;
}

TEST(SeqlockModelMutations, ReaderSkippingOddSeqCheckIsCaught) {
  // A reader that enters mid-window observes half-shifted slots; seq is
  // unchanged from its (odd) first load, so only the odd check stops it.
  expect_caught<kNoOddCheck>("reader ignores odd seq");
}

TEST(SeqlockModelMutations, ReaderDroppingAcquireFenceIsCaught) {
  // The stamp loads are relaxed: without the acquire fence, an in-window
  // stamp store can be observed while the final seq load still reads the
  // pre-window value — the release-fence/acquire-fence pair is what
  // forces the revalidation to see the odd seq.
  expect_caught<kNoAcquireFence>("reader drops the acquire fence");
}

TEST(SeqlockModelMutations, ReaderSkippingSeqRevalidationIsCaught) {
  expect_caught<kNoRevalidate>("reader never revalidates seq");
}

TEST(SeqlockModelMutations, WriterSkippingOddWindowIsCaught) {
  // Without the window, mid-erase motion is published with no poison for
  // the revalidation to detect: seq never moves, so every torn read
  // validates.
  expect_caught<kNoSeqWindow>("writer skips the odd seq window");
}

TEST(SeqlockModelMutations, WriterSkippingEpochBumpIsCaught) {
  // Survivors' stamps stay "fresh" across an eviction that debited their
  // budgets — even a fully-settled post-eviction reader then serves a
  // hit that no locked execution could produce.
  expect_caught<kNoEpochBump>("writer skips the epoch bump");
}

TEST(SeqlockModelMutations, WriterSkippingTenantEpochBumpIsCaught) {
  // A tenant-refresh-only eviction (offset unmoved, victim tenant
  // re-based) leaves the global epoch alone; if the victim tenant's epoch
  // doesn't advance either, its survivors' stamps still satisfy the
  // freshness sum and a settled reader serves a hit on a page whose
  // budget the locked path would have rewritten.
  expect_caught<kNoTenantEpochBump>("writer skips the tenant epoch bump");
}

TEST(SeqlockModelMutations, ReaderIgnoringTenantEpochIsCaught) {
  // Degrading stamps/freshness to the global epoch alone makes the
  // tenant-local bump invisible: the writer advances tenant_epoch[0] but
  // the reader's expected stamp never includes it, so tenant 0's re-based
  // survivor still validates as fresh.
  expect_caught<kNoTenantStamp>("stamps ignore the tenant epoch");
}

// --- Checker-verified benign reorderings (defense in depth). ----------

TEST(SeqlockModelBenign, KeyBeforeStampPublishIsSerializable) {
  // Publishing the key before the stamp lets a reader pair the new key
  // with the slot's prior stamp — but a leftover stamp can only equal the
  // current freshness sum when no staling event intervened since it was
  // written, in which case the newly published page is genuinely fresh
  // anyway (its own stamp would be the same value); and whenever an
  // eviction *did* re-base budgets, the matching epoch bump forces a
  // mismatch. Every admitted hit stays serializable; the checker
  // confirms exhaustively (including the per-tenant scripts, where
  // evictions may bump no epoch at all).
  for (const SeqlockCheckResult& result :
       run_all_scripts<kKeyBeforeStamp>()) {
    EXPECT_TRUE(result.clean());
    EXPECT_GT(result.hits_served, 0u);
  }
}

TEST(SeqlockModelBenign, RelaxedKeyProbesAreCoveredByTheFence) {
  // Relaxed key loads push their sync clocks into the pending set; the
  // reader's acquire fence joins them before the revalidation, so the
  // protocol stays sound without per-probe acquire (kept in production
  // for clarity and because it is free on x86).
  for (const SeqlockCheckResult& result :
       run_all_scripts<kRelaxedKeyLoads>()) {
    EXPECT_TRUE(result.clean());
    EXPECT_GT(result.hits_served, 0u);
  }
}

// --- Harness self-checks. ---------------------------------------------

TEST(SeqlockModelHarnessTest, ScriptMisuseIsRejected) {
  const std::vector<std::uint64_t> ids = colliding_pages(2, kMask);
  SeqlockModelHarness<kShippedSeqlock> harness(kTableSize);
  harness.fill(ids[0]);
  EXPECT_THROW(harness.restamp(ids[1]), std::logic_error);  // not resident
  EXPECT_THROW(harness.evict(ids[1], ids[0]), std::logic_error);
  EXPECT_THROW(harness.erase(ids[1]), std::logic_error);
}

}  // namespace
}  // namespace ccc::interleave
