#include "workload.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "cost/monomial.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::array<Workload, 3> kWorkloads{{
    {"serving", 64, 80, 0.9, "mono2"},
    {"churn", 64, 8, 0.9, "mono2"},
    {"pressure", 64, 62, 1.1, "linear"},
}};

}  // namespace

const Workload& find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads)
    if (workload.name == name) return workload;
  std::string message = "unknown workload '" + std::string(name) + "'; valid:";
  for (const Workload& workload : kWorkloads) {
    message += ' ';
    message += workload.name;
  }
  throw std::invalid_argument(message);
}

std::size_t capacity_of(const Workload& workload) noexcept {
  return static_cast<std::size_t>(workload.k_per_tenant) * kTenants;
}

ccc::Trace make_trace(const Workload& workload, std::uint64_t seed) {
  std::vector<ccc::TenantWorkload> tenants;
  tenants.reserve(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t)
    tenants.push_back({std::make_unique<ccc::ZipfPages>(
                           workload.pages_per_tenant, workload.skew),
                       1.0});
  ccc::Rng rng(seed);
  return ccc::generate_trace(std::move(tenants), kPassRequests, rng);
}

std::vector<ccc::CostFunctionPtr> make_costs(const Workload& workload) {
  const double exponent = workload.costs == "mono2" ? 2.0 : 1.0;
  std::vector<ccc::CostFunctionPtr> costs;
  costs.reserve(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t)
    costs.push_back(std::make_unique<ccc::MonomialCost>(
        exponent, 1.0 + static_cast<double>(t % 4)));
  return costs;
}

std::uint64_t fingerprint(const ccc::Trace& trace) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const ccc::Request& request : trace) {
    mix(request.tenant);
    mix(request.page);
  }
  return hash;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

}  // namespace perfbench
