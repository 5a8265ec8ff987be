#include "cost/spec.hpp"

#include <stdexcept>

#include "cost/combinators.hpp"
#include "cost/exponential.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "cost/polynomial.hpp"
#include "util/string_util.hpp"

namespace ccc {

namespace {

[[noreturn]] void fail(std::string_view spec, const std::string& why) {
  throw std::invalid_argument("bad cost spec '" + std::string(spec) +
                              "': " + why);
}

}  // namespace

CostFunctionPtr parse_cost_spec(std::string_view spec) {
  const std::string_view trimmed = trim(spec);
  const auto colon = trimmed.find(':');
  const std::string kind(colon == std::string_view::npos
                             ? trimmed
                             : trimmed.substr(0, colon));
  const std::string args(colon == std::string_view::npos
                             ? ""
                             : trimmed.substr(colon + 1));
  const auto pieces = args.empty() ? std::vector<std::string>{}
                                   : split(args, ',');

  if (kind == "linear") {
    if (pieces.size() != 1) fail(spec, "linear expects one weight");
    return std::make_unique<MonomialCost>(1.0, parse_double(pieces[0]));
  }
  if (kind == "mono") {
    if (pieces.empty() || pieces.size() > 2)
      fail(spec, "mono expects beta[,scale]");
    const double beta = parse_double(pieces[0]);
    const double scale = pieces.size() == 2 ? parse_double(pieces[1]) : 1.0;
    return std::make_unique<MonomialCost>(beta, scale);
  }
  if (kind == "poly") {
    if (pieces.empty()) fail(spec, "poly expects at least one coefficient");
    std::vector<double> coefficients{0.0};
    for (const auto& piece : pieces)
      coefficients.push_back(parse_double(piece));
    return std::make_unique<PolynomialCost>(std::move(coefficients));
  }
  if (kind == "sla") {
    if (pieces.size() != 2) fail(spec, "sla expects tolerated,penalty");
    return std::make_unique<PiecewiseLinearCost>(PiecewiseLinearCost::sla(
        parse_double(pieces[0]), parse_double(pieces[1])));
  }
  if (kind == "pwl") {
    std::vector<PiecewiseLinearCost::Knot> knots{{0.0, 0.0}};
    for (const auto& piece : pieces) {
      const auto parts = split(piece, '/');
      if (parts.size() != 2) fail(spec, "pwl knots are written x/y");
      knots.push_back({parse_double(parts[0]), parse_double(parts[1])});
    }
    return std::make_unique<PiecewiseLinearCost>(std::move(knots));
  }
  if (kind == "exp") {
    if (pieces.size() != 2) fail(spec, "exp expects a,b");
    return std::make_unique<ExponentialCost>(parse_double(pieces[0]),
                                             parse_double(pieces[1]));
  }
  if (kind == "step") {
    if (pieces.size() != 2) fail(spec, "step expects width,jump");
    return std::make_unique<StepCost>(parse_double(pieces[0]),
                                      parse_double(pieces[1]));
  }
  if (kind == "sqrt") {
    if (pieces.size() > 1) fail(spec, "sqrt expects at most a scale");
    return std::make_unique<SqrtCost>(
        pieces.empty() ? 1.0 : parse_double(pieces[0]));
  }
  fail(spec, "unknown kind '" + kind + "'");
}

std::vector<CostFunctionPtr> make_rotated_costs(std::string_view family,
                                                std::uint32_t tenants) {
  std::vector<CostFunctionPtr> costs;
  costs.reserve(tenants);
  for (std::uint32_t t = 0; t < tenants; ++t) {
    const double w = 1.0 + static_cast<double>(t % 4);
    if (family == "mono2") {
      costs.push_back(std::make_unique<MonomialCost>(2.0, w));
    } else if (family == "mono3") {
      costs.push_back(std::make_unique<MonomialCost>(3.0, w));
    } else if (family == "linear") {
      costs.push_back(std::make_unique<MonomialCost>(1.0, w));
    } else if (family == "sla") {
      costs.push_back(std::make_unique<PiecewiseLinearCost>(
          PiecewiseLinearCost::sla(8.0 * w, w)));
    } else {
      throw std::invalid_argument("unknown cost family '" +
                                  std::string(family) +
                                  "'; valid: mono2 mono3 linear sla");
    }
  }
  return costs;
}

}  // namespace ccc
