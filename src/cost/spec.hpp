#pragma once
/// \file spec.hpp
/// \brief String-spec factory for cost functions, used by the CLI of the
///        benchmark/example binaries (`--cost mono:2`, `--cost sla:100,5`).
///
/// Grammar (one function per spec):
///   linear:<w>                 f(x) = w·x
///   mono:<beta>[,<scale>]      f(x) = scale·x^beta
///   poly:<c1>,<c2>,...         f(x) = c1·x + c2·x² + ...   (degree = count)
///   sla:<tolerated>,<penalty>  flat until `tolerated`, then linear
///   pwl:<x1>/<y1>,<x2>/<y2>,...   knots after the implicit (0,0)
///   exp:<a>,<b>                f(x) = a·(e^{bx} − 1)
///   step:<width>,<jump>        staircase (non-convex, §2.5)
///   sqrt[:<scale>]             f(x) = scale·sqrt(x) (concave, §2.5)

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_function.hpp"

namespace ccc {

/// Parses a cost spec; throws std::invalid_argument with a helpful message
/// on malformed input.
[[nodiscard]] CostFunctionPtr parse_cost_spec(std::string_view spec);

/// One cost function per tenant from a named family — mono2 (w·x²), mono3
/// (w·x³), linear (w·x) or sla (flat to 8w, then slope w) — with weight
/// w = 1 + t mod 4 for tenant t, so tenants are not interchangeable
/// (otherwise ALG-DISCRETE degenerates to round-robin and its victim index
/// is never stressed). The benchmark harnesses and ccc-serverd share it.
/// Throws std::invalid_argument on an unknown family.
[[nodiscard]] std::vector<CostFunctionPtr> make_rotated_costs(
    std::string_view family, std::uint32_t tenants);

}  // namespace ccc
