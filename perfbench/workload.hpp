#pragma once
/// \file workload.hpp
/// \brief The benchmark's named workloads, the inputs they generate from a
///        seed, and the small statistics the report needs.
///
/// Every workload shares one load shape (16 tenants, Zipf page streams,
/// one pipelined connection into a 4-shard seqlock server); they differ in
/// how the working set compares with capacity, which decides which layer
/// does the work:
///   - serving:  64 pages/tenant, k = 80/tenant — everything fits, so after
///               warm-up every request is a lock-free hit and the server
///               loop, codec and socket flush dominate;
///   - churn:    64 pages/tenant, k = 8/tenant — 8x over capacity, so
///               ALG-DISCRETE's victim selection and the locked shard path
///               dominate and the lock-free path is bypassed;
///   - pressure: 64 pages/tenant, k = 62/tenant, Zipf 1.1, linear costs —
///               ~98.5% hits with ~1% evictions, so lock-free reads run
///               beside writes that stale their stamps.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_function.hpp"
#include "trace/trace.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  std::uint64_t pages_per_tenant = 0;
  std::uint64_t k_per_tenant = 0;
  double skew = 0.0;
  std::string_view costs;  ///< "mono2" (w·x²) or "linear" (w·x)
};

/// Tenants in every workload.
inline constexpr std::uint32_t kTenants = 16;
/// Requests in one pass over a workload's trace. Every timed unit of the
/// benchmark is a whole number of passes, so the books after pass p are a
/// function of the seed alone.
inline constexpr std::size_t kPassRequests = 1'000'000;

/// Looks up a workload by name; throws std::invalid_argument listing the
/// valid names otherwise.
[[nodiscard]] const Workload& find_workload(std::string_view name);

[[nodiscard]] std::size_t capacity_of(const Workload& workload) noexcept;

/// kPassRequests requests over kTenants equal-rate tenants, each drawing
/// Zipf(skew) pages from its own universe; a pure function of the seed.
[[nodiscard]] ccc::Trace make_trace(const Workload& workload,
                                    std::uint64_t seed);

/// One cost function per tenant, weights 1..4 cycling over tenants.
[[nodiscard]] std::vector<ccc::CostFunctionPtr> make_costs(
    const Workload& workload);

/// 64-bit FNV-1a over the (tenant, page) sequence: two runs that print the
/// same fingerprint served identical inputs.
[[nodiscard]] std::uint64_t fingerprint(const ccc::Trace& trace) noexcept;

/// Median of `values` (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty input. Reorders
/// `values` (no copy: callers pass per-pass sample buffers).
[[nodiscard]] double quantile(std::vector<double>& values, double q);

}  // namespace perfbench
