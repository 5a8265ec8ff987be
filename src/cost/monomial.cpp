#include "cost/monomial.hpp"

#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace ccc {

MonomialCost::MonomialCost(double exponent, double scale)
    : exponent_(exponent), scale_(scale) {
  CCC_REQUIRE(exponent >= 1.0,
              "MonomialCost requires exponent >= 1 for convexity");
  CCC_REQUIRE(scale > 0.0, "MonomialCost requires a positive scale");
}

double MonomialCost::value(double x) const {
  CCC_REQUIRE(x >= 0.0, "cost functions are defined on x >= 0");
  return scale_ * std::pow(x, exponent_);
}

double MonomialCost::derivative(double x) const {
  CCC_REQUIRE(x >= 0.0, "cost functions are defined on x >= 0");
  // β ∈ {1, 2} in closed form, bit-identical to the pow() line below
  // (pow(x, 0) == 1, pow(x, 1) == x) at a fraction of its cost.
  if (exponent_ == 1.0) return scale_;
  if (x == 0.0) return 0.0;
  if (exponent_ == 2.0) return scale_ * exponent_ * x;
  return scale_ * exponent_ * std::pow(x, exponent_ - 1.0);
}

double MonomialCost::alpha(double x_max) const {
  CCC_REQUIRE(x_max > 0.0, "alpha needs a positive range");
  return exponent_;
}

double MonomialCost::conjugate(double lambda) const {
  if (lambda <= 0.0) return 0.0;
  if (exponent_ == 1.0)
    return lambda <= scale_ ? 0.0
                            : std::numeric_limits<double>::infinity();
  // Supremum of λb − c·b^β at c·β·b^{β−1} = λ.
  const double b = std::pow(lambda / (scale_ * exponent_),
                            1.0 / (exponent_ - 1.0));
  return (exponent_ - 1.0) * scale_ * std::pow(b, exponent_);
}

std::string MonomialCost::describe() const {
  if (scale_ == 1.0) return "x^" + format_compact(exponent_);
  return format_compact(scale_) + "*x^" + format_compact(exponent_);
}

std::unique_ptr<CostFunction> MonomialCost::clone() const {
  return std::make_unique<MonomialCost>(*this);
}

}  // namespace ccc
