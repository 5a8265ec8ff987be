// Golden fingerprints of ALG-DISCRETE's decisions. Each case replays a
// fixed-seed trace through ConvexCachingPolicy and hashes (FNV-1a) the
// (hit, victim) sequence and the per-tenant hits/misses/evictions. The
// expected values were recorded from the earlier lazy cross-tenant heap
// index, so any index rewrite must reproduce its victim order bit for bit
// — including on non-integer cost families, where keys that round to the
// same `key + bump` are ordered by page id.
//
// Cases: every family of cost/spec.hpp × {whole-run, windowed, discrete
// marginal}, plus short versions of the benchmark's three workloads. The
// `_landlord` cases run the first-marginal mode (make_policy("landlord"))
// and were recorded from the separate std::map Landlord implementation it
// replaced, so the mode reproduces that policy's victims bit for bit.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/convex_caching.hpp"
#include "cost/spec.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"

namespace ccc {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buffer[19];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Six tenants cycling through Zipf, sequential-scan and shifting
/// working-set streams at unequal rates.
Trace mixed_trace(std::size_t length, std::uint64_t seed) {
  constexpr std::uint32_t kTenants = 6;
  constexpr std::uint64_t kPages = 24;
  std::vector<TenantWorkload> workloads;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    PageGeneratorPtr pages;
    switch (t % 3) {
      case 0:
        pages = std::make_unique<ZipfPages>(kPages, 0.8);
        break;
      case 1:
        pages = std::make_unique<ScanPages>(kPages);
        break;
      default:
        pages = std::make_unique<WorkingSetPages>(kPages, kPages / 2, 60, 0.8);
        break;
    }
    workloads.push_back({std::move(pages), 1.0 + 0.5 * (t % 4)});
  }
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

/// The benchmark's load shape: 16 equal-rate tenants, Zipf pages.
Trace zipf_trace(std::uint64_t pages, double skew, std::size_t length,
                 std::uint64_t seed) {
  std::vector<TenantWorkload> workloads;
  for (std::uint32_t t = 0; t < 16; ++t)
    workloads.push_back({std::make_unique<ZipfPages>(pages, skew), 1.0});
  Rng rng(seed);
  return generate_trace(std::move(workloads), length, rng);
}

/// Cost spec of tenant t.
using Spec = std::function<std::string(std::uint32_t)>;

struct GoldenCase {
  const char* name;
  Spec spec;
  DerivativeMode derivative;
  std::size_t window;
  std::function<Trace()> trace;
  std::size_t capacity;
  const char* decisions;  ///< FNV-1a of the (hit, victim) sequence
  const char* books;      ///< FNV-1a of per-tenant hits/misses/evictions

  friend std::ostream& operator<<(std::ostream& os, const GoldenCase& c) {
    return os << c.name;
  }
};

class GoldenVictimsTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenVictimsTest, MatchesRecordedFingerprints) {
  const GoldenCase& c = GetParam();
  const Trace trace = c.trace();
  std::vector<CostFunctionPtr> costs;
  for (std::uint32_t t = 0; t < trace.num_tenants(); ++t)
    costs.push_back(parse_cost_spec(c.spec(t)));
  ConvexCachingOptions options;
  options.derivative = c.derivative;
  options.window_length = c.window;
  ConvexCachingPolicy policy(options);
  SimOptions sim_options;
  sim_options.record_events = true;
  const SimResult result =
      run_trace(trace, c.capacity, policy, &costs, sim_options);

  Fnv1a decisions;
  for (const StepEvent& event : result.events) {
    decisions.add(event.hit ? 1 : 0);
    decisions.add(event.victim.value_or(~PageId{0}));
  }
  Fnv1a books;
  for (TenantId t = 0; t < trace.num_tenants(); ++t) {
    books.add(result.metrics.hits(t));
    books.add(result.metrics.misses(t));
    books.add(result.metrics.evictions(t));
  }
  EXPECT_EQ(decisions.hex(), c.decisions);
  EXPECT_EQ(books.hex(), c.books);
}

std::string num(double x) { return std::to_string(x); }

// Per-tenant parameters differ so tenants are not interchangeable; the
// non-integer ones make keys round.
const Spec kLinear = [](std::uint32_t t) {
  return "linear:" + num(1.0 + t % 4);
};
const Spec kMono = [](std::uint32_t t) {
  return "mono:" + num(1.5 + 0.5 * (t % 3)) + "," + num(1.0 + 0.3 * t);
};
const Spec kPoly = [](std::uint32_t t) {
  return "poly:" + num(0.5 + t) + ",0.25," + num(0.01 * (1 + t % 2));
};
const Spec kSla = [](std::uint32_t t) {
  return "sla:" + num(8.0 + 2 * t) + "," + num(1.0 + t % 3);
};
const Spec kPwl = [](std::uint32_t t) {
  const double w = 1.0 + 0.7 * t;
  return "pwl:4/" + num(w) + ",10/" + num(8 * w) + ",20/" + num(40 * w);
};
const Spec kExp = [](std::uint32_t t) {
  return "exp:" + num(1.0 + t) + "," + num(0.002 * (1 + t % 3));
};
const Spec kStep = [](std::uint32_t t) {
  return "step:" + num(3.0 + t) + ",8";
};
const Spec kSqrt = [](std::uint32_t t) {
  return "sqrt:" + num(1.0 + t);
};
const Spec kMono2 = [](std::uint32_t t) {
  return "mono:2," + num(1.0 + t % 4);
};

/// A cost-family case on the mixed six-tenant trace at k = 16.
GoldenCase family(const char* name, const Spec& spec, DerivativeMode mode,
                  std::size_t window, const char* decisions,
                  const char* books) {
  return {name, spec, mode, window, [] { return mixed_trace(6000, 2024); },
          16, decisions, books};
}

/// A short run of one benchmark workload: `k` pages per tenant.
GoldenCase workload(const char* name, const Spec& spec, std::size_t k,
                    double skew, const char* decisions, const char* books) {
  return {name,
          spec,
          DerivativeMode::kAnalytic,
          0,
          [skew] { return zipf_trace(64, skew, 40000, 1); },
          16 * k,
          decisions,
          books};
}

constexpr auto kWhole = DerivativeMode::kAnalytic;
constexpr auto kDiscrete = DerivativeMode::kDiscreteMarginal;
constexpr auto kLandlord = DerivativeMode::kFirstMarginal;
constexpr std::size_t kWindow = 257;

INSTANTIATE_TEST_SUITE_P(
    Recorded, GoldenVictimsTest,
    ::testing::Values(
        family("linear_whole", kLinear, kWhole, 0,
               "0xe3883eb41e460904", "0xe21f3d8e04323b31"),
        family("linear_window", kLinear, kWhole, kWindow,
               "0xb52c398e4dbb05a5", "0xbf4225489db3097e"),
        family("linear_discrete", kLinear, kDiscrete, 0,
               "0xe3883eb41e460904", "0xe21f3d8e04323b31"),
        family("mono_whole", kMono, kWhole, 0,
               "0x4c3ac70367509c9a", "0xf066ee5ddf7aa379"),
        family("mono_window", kMono, kWhole, kWindow,
               "0x44b5dcd9ec34337b", "0xcbe80886158107c1"),
        family("mono_discrete", kMono, kDiscrete, 0,
               "0x368210f2d901bf2f", "0x8f48be313c01c6eb"),
        family("poly_whole", kPoly, kWhole, 0,
               "0x13bdb43e6a1f92cd", "0xbb1b0e11544357e4"),
        family("poly_window", kPoly, kWhole, kWindow,
               "0x56b8e12f295f25a5", "0xe2bc3e99c6d9896b"),
        family("poly_discrete", kPoly, kDiscrete, 0,
               "0xf4478432c421547d", "0xbb1b0e11544357e4"),
        family("sla_whole", kSla, kWhole, 0,
               "0xc823a8eef70c245a", "0x1934d08c80633bc3"),
        family("sla_window", kSla, kWhole, kWindow,
               "0xc5d138a6fef6c7e2", "0x27d34a567e9f9bf5"),
        family("sla_discrete", kSla, kDiscrete, 0,
               "0x204552aa0d2643de", "0xb2e7d53dc0dc5404"),
        family("pwl_whole", kPwl, kWhole, 0,
               "0x4fd4481999feaac5", "0xd1e97d35dac8e71d"),
        family("pwl_window", kPwl, kWhole, kWindow,
               "0xed62fdedaf7b41e6", "0x5059de90b031b284"),
        family("pwl_discrete", kPwl, kDiscrete, 0,
               "0x0121cb724717b15e", "0xf6053239fea14181"),
        family("exp_whole", kExp, kWhole, 0,
               "0xc066f736b512e60f", "0x00cfa3dc211ab29f"),
        family("exp_window", kExp, kWhole, kWindow,
               "0x3474fea81513021c", "0xea471a2fa06187e0"),
        family("exp_discrete", kExp, kDiscrete, 0,
               "0xe825d0569d5fa1a6", "0x2dd6362c57f1b385"),
        family("step_whole", kStep, kWhole, 0,
               "0x3628a4ba52ec522a", "0x68086ab84d9c9aad"),
        family("step_window", kStep, kWhole, kWindow,
               "0xd628cbde68ac8036", "0x6e5a2b9c678e20a1"),
        family("step_discrete", kStep, kDiscrete, 0,
               "0xa4f97bb8acac2fa9", "0x79377f3a0cd5ed03"),
        family("sqrt_whole", kSqrt, kWhole, 0,
               "0x871139fb08a41d3f", "0x8db607c2c3a0108d"),
        family("sqrt_window", kSqrt, kWhole, kWindow,
               "0xddf68eddbea08951", "0x1a86f1f9e525018c"),
        family("sqrt_discrete", kSqrt, kDiscrete, 0,
               "0x16fd7427b7827a59", "0x936cc1309e857605"),
        family("linear_landlord", kLinear, kLandlord, 0,
               "0xe3883eb41e460904", "0xe21f3d8e04323b31"),
        family("mono_landlord", kMono, kLandlord, 0,
               "0xb8aaddee6db61a56", "0xf1aa50af396adc48"),
        family("poly_landlord", kPoly, kLandlord, 0,
               "0xc17f2b5c8a2cfc72", "0xebf80fe26a6ba8c6"),
        family("sla_landlord", kSla, kLandlord, 0,
               "0x5c125d9f2507560c", "0x3c5d4fab3c338ce6"),
        family("pwl_landlord", kPwl, kLandlord, 0,
               "0xfec706b9a6944115", "0x4eea477366e4dc1d"),
        family("exp_landlord", kExp, kLandlord, 0,
               "0x38deb05149b83ab3", "0x62021c2d31dc40f4"),
        family("step_landlord", kStep, kLandlord, 0,
               "0x5c125d9f2507560c", "0x3c5d4fab3c338ce6"),
        family("sqrt_landlord", kSqrt, kLandlord, 0,
               "0x6e4b1612a9a84655", "0x416654f0dfacf4b4"),
        family("mono2_landlord", kMono2, kLandlord, 0,
               "0xe3883eb41e460904", "0xe21f3d8e04323b31"),
        workload("serving", kMono2, 80, 0.9, "0x1cc2061a045a3e65",
                 "0x462b6c1ef7e51775"),
        workload("churn", kMono2, 8, 0.9, "0x3f9d64456e249ca2",
                 "0x5c5351760e311628"),
        workload("pressure", kLinear, 62, 1.1, "0xf1f9e7d7f000052b",
                 "0x463b9e618edf840b")),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace ccc
