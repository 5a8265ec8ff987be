#pragma once
/// \file ccc.hpp
/// \brief Umbrella header for the convex-cost caching library.
///
/// Reproduction of "Online Caching with Convex Costs" (Menache & Singh,
/// SPAA 2015). Pull in everything a typical application needs:
///
///   #include "ccc.hpp"
///   using namespace ccc;
///
///   auto costs = uniform_costs(MonomialCost(2.0), /*tenants=*/2);
///   Rng rng(42);
///   Trace trace = random_uniform_trace(2, 64, 100'000, rng);
///   ConvexCachingPolicy policy;                  // the paper's algorithm
///   SimResult result = run_trace(trace, /*k=*/32, policy, &costs);
///   double cost = total_cost(result.metrics.miss_vector(), costs);
///
/// Individual headers remain includable piecemeal; this file is purely a
/// convenience for applications and examples.

// Cost model (per-tenant convex miss costs, §1.2).
#include "cost/combinators.hpp"
#include "cost/cost_function.hpp"
#include "cost/exponential.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "cost/polynomial.hpp"
#include "cost/spec.hpp"

// Workloads.
#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/transforms.hpp"
#include "trace/types.hpp"

// Simulation engine.
#include "sim/cache_state.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"

// The paper's contribution (Figs. 1–3) and its theory.
#include "core/convex_caching.hpp"
#include "core/convex_program.hpp"
#include "core/fractional.hpp"
#include "core/invariants.hpp"
#include "core/naive_convex_caching.hpp"
#include "core/primal_dual.hpp"
#include "core/theory.hpp"

// Baselines.
#include "policies/arc.hpp"
#include "policies/belady.hpp"
#include "policies/clock.hpp"
#include "policies/fifo.hpp"
#include "policies/lfu.hpp"
#include "policies/lru.hpp"
#include "policies/lru_k.hpp"
#include "policies/marking.hpp"
#include "policies/random_policy.hpp"
#include "policies/randomized_marking.hpp"
#include "policies/static_partition.hpp"
#include "policies/two_q.hpp"

// Offline optima and bounds.
#include "offline/batch_balance.hpp"
#include "offline/exact_opt.hpp"
#include "offline/opt_bounds.hpp"
#include "offline/weighted_belady.hpp"

// Analysis, substrates and experiment helpers.
#include "analysis/mrc.hpp"
#include "bufferpool/buffer_pool.hpp"
#include "exp/adversary.hpp"
#include "exp/policy_factory.hpp"
#include "exp/ratio.hpp"
#include "multipool/multi_pool.hpp"
