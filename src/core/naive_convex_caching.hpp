#pragma once
/// \file naive_convex_caching.hpp
/// \brief Literal, line-by-line transcription of ALG-DISCRETE (Fig. 3),
///        O(k) per eviction. It exists as the oracle for property tests:
///        `ConvexCachingPolicy` (the O(log k) production version) must make
///        identical decisions on identical inputs. Keep this file boring —
///        its value is that it visibly matches the paper's pseudocode.

#include <vector>

#include "core/convex_caching.hpp"
#include "sim/policy.hpp"
#include "util/flat_map.hpp"

namespace ccc {

class NaiveConvexCachingPolicy final : public ReplacementPolicy {
 public:
  explicit NaiveConvexCachingPolicy(ConvexCachingOptions options = {});

  void reset(const PolicyContext& ctx) override;
  void on_hit(const Request& request, TimeStep time) override;
  [[nodiscard]] PageId choose_victim(const Request& request,
                                     TimeStep time) override;
  void on_evict(PageId victim, TenantId owner, TimeStep time) override;
  void on_insert(const Request& request, TimeStep time) override;
  [[nodiscard]] std::string name() const override {
    return "ConvexCaching[naive]";
  }

  [[nodiscard]] double budget(PageId page) const;

 private:
  /// Marginal cost of tenant's (m+1)-st miss; fails loudly when it is not
  /// finite.
  [[nodiscard]] double derivative_at(TenantId tenant, std::uint64_t m) const;

  ConvexCachingOptions options_;
  const std::vector<CostFunctionPtr>* costs_ = nullptr;
  /// Resident pages in SoA form: `slot_of_` maps a page to its dense slot,
  /// and the three parallel arrays hold the per-page fields. The Fig. 3
  /// debit ("B(p') ← B(p') − B(p)") and bump loops become branch-free
  /// linear sweeps over `slot_budget_` / `slot_tenant_` that the compiler
  /// can vectorize; element-wise arithmetic is unchanged, so decisions
  /// stay bit-identical to the node-map transcription.
  util::FlatMap<std::uint32_t> slot_of_;
  std::vector<PageId> slot_page_;
  std::vector<double> slot_budget_;      ///< B(p) for resident pages
  std::vector<TenantId> slot_tenant_;
  std::vector<std::uint64_t> evictions_; ///< m(i, t)
};

}  // namespace ccc
