/// \file e5_ablations.cpp
/// \brief Experiment E5 — design ablations and the §2.5 generality claim.
///
/// Three questions the paper's design raises:
///   1. Do the two non-obvious steps of Fig. 3 — the survivor debit and the
///      victim-tenant bump — actually matter? (Ablate each.)
///   2. Does the discrete-marginal variant (§2.5) behave like the analytic
///      one on convex costs? And what does tracking the marginal buy over
///      freezing it at f'(1) — Young's Landlord with credit f'_i(1)?
///   3. Does the algorithm stay sane on non-convex / discontinuous costs,
///      where the theorems are silent but §2.5 says it still applies?
/// All variants run on the same traces; the table reports total cost
/// against the exact optimum where tractable and against the heuristic OPT
/// bracket otherwise.

#include <iostream>

#include "core/convex_caching.hpp"
#include "cost/combinators.hpp"
#include "cost/monomial.hpp"
#include "offline/opt_bounds.hpp"
#include "sim/simulator.hpp"
#include "trace/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace ccc {
namespace {

struct Variant {
  std::string label;
  ConvexCachingOptions options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"full (Fig.3)", {}});
  ConvexCachingOptions no_debit;
  no_debit.debit_survivors = false;
  out.push_back({"no survivor debit", no_debit});
  ConvexCachingOptions no_bump;
  no_bump.bump_victim_tenant = false;
  out.push_back({"no tenant bump", no_bump});
  ConvexCachingOptions discrete;
  discrete.derivative = DerivativeMode::kDiscreteMarginal;
  out.push_back({"discrete marginal (2.5)", discrete});
  ConvexCachingOptions landlord;
  landlord.derivative = DerivativeMode::kFirstMarginal;
  out.push_back({"static linearization f'(1): Landlord", landlord});
  return out;
}

int run(int argc, const char* const* argv) {
  Cli cli("E5: Fig. 3 step ablations and §2.5 arbitrary-cost generality");
  cli.flag("beta", "2", "monomial exponent for the convex part")
      .flag("tenants", "3", "number of tenants")
      .flag("pages", "12", "pages per tenant")
      .flag("k", "12", "cache size")
      .flag("length", "20000", "requests per trace")
      .flag("trials", "5", "traces per variant")
      .flag("seed", "11", "base RNG seed")
      .flag("csv", "", "optional CSV output path");
  if (!cli.parse(argc, argv)) return 0;

  const double beta = cli.get_double("beta");
  const auto tenants = static_cast<std::uint32_t>(cli.get_u64("tenants"));
  const std::uint64_t pages = cli.get_u64("pages");
  const std::size_t k = cli.get_u64("k");
  const std::size_t length = cli.get_u64("length");
  const std::size_t trials = cli.get_u64("trials");

  // Part 1+2: convex monomial costs with asymmetric scales.
  Table table({"variant", "mean cost", "vs full", "mean cost/OPT_ub"});
  // Phase-shifting working sets: without the survivor debit, budgets never
  // decay, so pages of an abandoned hot set linger — the debit step is the
  // algorithm's recency mechanism and this workload exposes it.
  std::vector<Trace> traces;
  Rng rng(cli.get_u64("seed"));
  for (std::size_t i = 0; i < trials; ++i) {
    Rng trial_rng = rng.split();
    std::vector<TenantWorkload> workloads;
    for (std::uint32_t tenant = 0; tenant < tenants; ++tenant)
      workloads.push_back(
          {std::make_unique<WorkingSetPages>(pages * 4, pages / 2,
                                             1500 + 400 * tenant, 0.95),
           1.0});
    traces.push_back(generate_trace(std::move(workloads), length, trial_rng));
  }
  const auto make_costs = [&] {
    std::vector<CostFunctionPtr> costs;
    for (std::uint32_t i = 0; i < tenants; ++i)
      costs.push_back(
          std::make_unique<MonomialCost>(beta, 1.0 + 2.0 * i));
    return costs;
  };

  double full_mean = 0.0;
  for (const Variant& variant : variants()) {
    RunningStats cost_stats, ratio_stats;
    for (const Trace& trace : traces) {
      const auto costs = make_costs();
      ConvexCachingPolicy policy(variant.options);
      const SimResult run = run_trace(trace, k, policy, &costs);
      const double cost = total_cost(run.metrics.miss_vector(), costs);
      cost_stats.add(cost);
      const OptEstimate opt = estimate_opt(trace, k, costs, 0);
      if (opt.upper_cost > 0.0) ratio_stats.add(cost / opt.upper_cost);
    }
    if (variant.label == "full (Fig.3)") full_mean = cost_stats.mean();
    table.add(variant.label, cost_stats.mean(),
              full_mean > 0.0 ? cost_stats.mean() / full_mean : 1.0,
              ratio_stats.mean());
  }
  print_table(std::cout,
              "E5a — Fig. 3 ablations on convex costs (f=scale*x^" +
                  format_compact(beta) + ")",
              table);

  // Part 3: non-convex costs (§2.5) — the discrete variant must keep
  // functioning and stay in the same cost range as cost-blind baselines.
  Table nonconvex({"cost shape", "convex-discrete cost", "LRU-equivalent "
                   "cost (same trace, cost-blind)"});
  for (const std::string shape : {"step", "sqrt"}) {
    RunningStats ours, blind;
    for (const Trace& trace : traces) {
      std::vector<CostFunctionPtr> costs;
      for (std::uint32_t i = 0; i < tenants; ++i) {
        if (shape == "step")
          costs.push_back(std::make_unique<StepCost>(25.0, 10.0 + 5.0 * i));
        else
          costs.push_back(std::make_unique<SqrtCost>(1.0 + i));
      }
      ConvexCachingOptions discrete;
      discrete.derivative = DerivativeMode::kDiscreteMarginal;
      ConvexCachingPolicy policy(discrete);
      const SimResult a = run_trace(trace, k, policy, &costs);
      ours.add(total_cost(a.metrics.miss_vector(), costs));
      // Cost-blind reference: same algorithm with unit-linear costs.
      std::vector<CostFunctionPtr> unit;
      for (std::uint32_t i = 0; i < tenants; ++i)
        unit.push_back(std::make_unique<MonomialCost>(1.0));
      ConvexCachingPolicy blind_policy;
      const SimResult b = run_trace(trace, k, blind_policy, &unit);
      blind.add(total_cost(b.metrics.miss_vector(), costs));
    }
    nonconvex.add(shape, ours.mean(), blind.mean());
  }
  print_table(std::cout, "E5b — §2.5 generality: non-convex cost shapes",
              nonconvex);
  std::cout << "Reading: the survivor debit is the algorithm's recency\n"
               "mechanism — removing it is catastrophic on shifting working\n"
               "sets; the tenant bump is second-order on these workloads.\n"
               "The discrete-marginal variant tracks the analytic one on\n"
               "convex costs. On non-convex shapes (§2.5, no guarantee) it\n"
               "helps when marginals carry signal (sqrt) and can lose when\n"
               "they are almost everywhere zero (staircase plateaus).\n";
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));
  return 0;
}

}  // namespace
}  // namespace ccc

int main(int argc, char** argv) {
  try {
    return ccc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
