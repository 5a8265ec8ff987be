// Unit + property tests for the cost-function hierarchy (src/cost).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "cost/combinators.hpp"
#include "cost/cost_function.hpp"
#include "cost/exponential.hpp"
#include "cost/monomial.hpp"
#include "cost/piecewise_linear.hpp"
#include "cost/polynomial.hpp"

namespace ccc {
namespace {

TEST(MonomialCost, ValuesAndDerivatives) {
  const MonomialCost f(2.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(3.0), 9.0);
  EXPECT_DOUBLE_EQ(f.derivative(3.0), 6.0);
  EXPECT_DOUBLE_EQ(f.marginal(2), 9.0 - 4.0);
  EXPECT_TRUE(f.is_convex());
}

TEST(MonomialCost, ScaleApplies) {
  const MonomialCost f(1.0, 5.0);
  EXPECT_DOUBLE_EQ(f.value(4.0), 20.0);
  EXPECT_DOUBLE_EQ(f.derivative(100.0), 5.0);
}

TEST(MonomialCost, AlphaIsBeta) {
  for (const double beta : {1.0, 1.5, 2.0, 3.0, 4.0}) {
    const MonomialCost f(beta);
    EXPECT_DOUBLE_EQ(f.alpha(1000.0), beta);
    // Closed form must agree with the numeric estimator.
    EXPECT_NEAR(estimate_alpha(f, 1000.0), beta, 1e-3);
  }
}

TEST(MonomialCost, RejectsInvalidParameters) {
  EXPECT_THROW(MonomialCost(0.5), std::invalid_argument);
  EXPECT_THROW(MonomialCost(2.0, 0.0), std::invalid_argument);
  const MonomialCost f(2.0);
  EXPECT_THROW((void)f.value(-1.0), std::invalid_argument);
  EXPECT_THROW((void)f.derivative(-1.0), std::invalid_argument);
}

TEST(MonomialCost, DerivativeAtZero) {
  EXPECT_DOUBLE_EQ(MonomialCost(1.0, 3.0).derivative(0.0), 3.0);
  EXPECT_DOUBLE_EQ(MonomialCost(2.0).derivative(0.0), 0.0);
}

// MonomialCost::derivative evaluates β ∈ {1, 2} in closed form. Pin it
// bit for bit against the pow() form it replaced, c·β·pow(x, β − 1) (with
// the old x = 0 branch), on every integer up to 2·10⁷, every power of two
// and both its neighbours, ±0, and 2·10⁷ random finite non-negative
// doubles; β = 3 still runs the pow() form and is the control.
TEST(MonomialCost, ClosedFormDerivativeIsBitIdenticalToPow) {
  const double scale = 1.75;
  const MonomialCost fs[] = {MonomialCost(1.0, scale), MonomialCost(2.0, scale),
                             MonomialCost(3.0, scale)};
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  double first = 0.0;
  const auto check = [&](double x) {
    for (const MonomialCost& f : fs) {
      const double beta = f.exponent();
      const double pow_form =
          x == 0.0 ? (beta == 1.0 ? scale : 0.0)
                   : scale * beta * std::pow(x, beta - 1.0);
      if (std::bit_cast<std::uint64_t>(f.derivative(x)) !=
          std::bit_cast<std::uint64_t>(pow_form)) {
        if (mismatches++ == 0) first = x;
      }
    }
    ++checked;
  };

  for (std::uint32_t i = 0; i <= 20'000'000; ++i)
    check(static_cast<double>(i));
  check(-0.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double p = std::numeric_limits<double>::denorm_min(); p < kInf;
       p *= 2.0) {
    check(std::nextafter(p, 0.0));
    check(p);
    check(std::nextafter(p, kInf));
  }
  // Uniform over bit patterns with the sign cleared: every binade of the
  // finite range, subnormals included.
  std::mt19937_64 rng(2015);
  for (std::uint32_t n = 0; n < 20'000'000;) {
    const double x = std::bit_cast<double>(rng() >> 1);
    if (!std::isfinite(x)) continue;
    check(x);
    ++n;
  }
  EXPECT_EQ(checked, 40'000'001u + 1u + 3u * 2098u);
  EXPECT_EQ(mismatches, 0u) << "first at x = " << first;
}

TEST(PolynomialCost, HornerEvaluation) {
  // f(x) = 2x + 3x²
  const PolynomialCost f({0.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(2.0), 4.0 + 12.0);
  EXPECT_DOUBLE_EQ(f.derivative(2.0), 2.0 + 12.0);
  EXPECT_EQ(f.degree(), 2u);
}

TEST(PolynomialCost, AlphaIsDegree) {
  const PolynomialCost f({0.0, 1.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(f.alpha(100.0), 3.0);
}

TEST(PolynomialCost, Validation) {
  EXPECT_THROW(PolynomialCost({0.0}), std::invalid_argument);    // degree 0
  EXPECT_THROW(PolynomialCost({1.0, 1.0}), std::invalid_argument);  // f(0)≠0
  EXPECT_THROW(PolynomialCost({0.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(PolynomialCost({0.0, 0.0}), std::invalid_argument);  // zero
}

TEST(PiecewiseLinearCost, SlaShape) {
  const auto f = PiecewiseLinearCost::sla(100.0, 5.0);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(100.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value(120.0), 100.0);
  EXPECT_DOUBLE_EQ(f.derivative(50.0), 0.0);
  EXPECT_DOUBLE_EQ(f.derivative(150.0), 5.0);
}

TEST(PiecewiseLinearCost, FlatThenRisingAlphaIsInfinite) {
  const auto f = PiecewiseLinearCost::sla(100.0, 5.0);
  EXPECT_TRUE(std::isinf(f.alpha(1000.0)));
}

TEST(PiecewiseLinearCost, LinearFromOriginAlphaIsOne) {
  const PiecewiseLinearCost f({{0.0, 0.0}}, 2.0);
  EXPECT_DOUBLE_EQ(f.value(10.0), 20.0);
  EXPECT_NEAR(f.alpha(1000.0), 1.0, 1e-9);
}

TEST(PiecewiseLinearCost, MultiSegmentConvex) {
  const PiecewiseLinearCost f({{0.0, 0.0}, {10.0, 10.0}, {20.0, 30.0}}, 5.0);
  EXPECT_DOUBLE_EQ(f.value(5.0), 5.0);
  EXPECT_DOUBLE_EQ(f.value(15.0), 10.0 + 10.0);
  EXPECT_DOUBLE_EQ(f.value(25.0), 30.0 + 25.0);
  EXPECT_DOUBLE_EQ(f.derivative(12.0), 2.0);
  EXPECT_DOUBLE_EQ(f.derivative(999.0), 5.0);
}

TEST(PiecewiseLinearCost, RejectsNonConvex) {
  // Slopes 2 then 1: concave kink.
  EXPECT_THROW(
      PiecewiseLinearCost({{0.0, 0.0}, {10.0, 20.0}, {20.0, 30.0}}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(PiecewiseLinearCost({{1.0, 0.0}}), std::invalid_argument);
}

TEST(ExponentialCost, ValuesAndAlpha) {
  const ExponentialCost f(2.0, 0.5);
  EXPECT_DOUBLE_EQ(f.value(0.0), 0.0);
  EXPECT_NEAR(f.value(2.0), 2.0 * (std::exp(1.0) - 1.0), 1e-12);
  EXPECT_NEAR(f.derivative(2.0), 2.0 * 0.5 * std::exp(1.0), 1e-12);
  // alpha(x_max) ≈ b·x_max for large b·x_max.
  EXPECT_NEAR(f.alpha(100.0), 50.0, 0.1);
  EXPECT_NEAR(estimate_alpha(f, 100.0), f.alpha(100.0), 0.2);
}

TEST(StepCost, DiscreteMarginals) {
  const StepCost f(3.0, 10.0);  // jumps at 3, 6, 9, ...
  EXPECT_DOUBLE_EQ(f.value(2.9), 0.0);
  EXPECT_DOUBLE_EQ(f.value(3.0), 10.0);
  EXPECT_DOUBLE_EQ(f.value(7.0), 20.0);
  EXPECT_FALSE(f.is_convex());
  // derivative() is the discrete marginal (§2.5).
  EXPECT_DOUBLE_EQ(f.derivative(2.0), 10.0);  // f(3)-f(2)
  EXPECT_DOUBLE_EQ(f.derivative(3.0), 0.0);   // f(4)-f(3)
}

TEST(SqrtCost, ConcaveShape) {
  const SqrtCost f;
  EXPECT_DOUBLE_EQ(f.value(4.0), 2.0);
  EXPECT_DOUBLE_EQ(f.derivative(4.0), 0.25);
  EXPECT_DOUBLE_EQ(f.alpha(100.0), 0.5);
  EXPECT_FALSE(f.is_convex());
}

TEST(Combinators, ScaledCost) {
  const ScaledCost f(3.0, std::make_unique<MonomialCost>(2.0));
  EXPECT_DOUBLE_EQ(f.value(2.0), 12.0);
  EXPECT_DOUBLE_EQ(f.derivative(2.0), 12.0);
  EXPECT_DOUBLE_EQ(f.alpha(10.0), 2.0);  // scaling preserves alpha
  EXPECT_TRUE(f.is_convex());
}

TEST(Combinators, SumCost) {
  const SumCost f(std::make_unique<MonomialCost>(1.0, 2.0),
                  std::make_unique<MonomialCost>(2.0));
  EXPECT_DOUBLE_EQ(f.value(3.0), 6.0 + 9.0);
  EXPECT_DOUBLE_EQ(f.derivative(3.0), 2.0 + 6.0);
  EXPECT_TRUE(f.is_convex());
  // Numeric alpha of 2x + x² lies strictly between 1 and 2.
  const double a = f.alpha(1000.0);
  EXPECT_GT(a, 1.0);
  EXPECT_LE(a, 2.0);
}

TEST(CostFunction, CloneProducesIndependentCopy) {
  const MonomialCost f(2.0, 3.0);
  const auto g = f.clone();
  EXPECT_DOUBLE_EQ(g->value(2.0), f.value(2.0));
  EXPECT_EQ(g->describe(), f.describe());
}

TEST(CallableCost, WrapsFunctionPointers) {
  const CallableCost f([](double x) { return x * x * x; },
                       [](double x) { return 3.0 * x * x; }, true, "cubic");
  EXPECT_DOUBLE_EQ(f.value(2.0), 8.0);
  EXPECT_DOUBLE_EQ(f.derivative(2.0), 12.0);
  EXPECT_EQ(f.describe(), "cubic");
}

TEST(CallableCost, NumericDerivativeFallback) {
  const CallableCost f([](double x) { return x * x; }, nullptr, true, "sq");
  EXPECT_NEAR(f.derivative(3.0), 6.0, 1e-4);
}

// Property sweep: every convex family must have non-decreasing marginals
// and a derivative consistent with finite differences.
class ConvexFamilyTest : public ::testing::TestWithParam<int> {};

CostFunctionPtr family_member(int id) {
  switch (id) {
    case 0: return std::make_unique<MonomialCost>(1.0, 2.5);
    case 1: return std::make_unique<MonomialCost>(2.0);
    case 2: return std::make_unique<MonomialCost>(3.0, 0.5);
    case 3: return std::make_unique<PolynomialCost>(
                std::vector<double>{0.0, 1.0, 2.0});
    case 4: return std::make_unique<PiecewiseLinearCost>(
                PiecewiseLinearCost::sla(10.0, 4.0));
    case 5: return std::make_unique<ExponentialCost>(1.0, 0.1);
    default: return std::make_unique<MonomialCost>(1.5);
  }
}

TEST_P(ConvexFamilyTest, MarginalsAreNonDecreasing) {
  const auto f = family_member(GetParam());
  double prev = f->marginal(0);
  for (std::uint64_t m = 1; m < 200; ++m) {
    const double cur = f->marginal(m);
    EXPECT_GE(cur, prev - 1e-9) << f->describe() << " at m=" << m;
    prev = cur;
  }
}

TEST_P(ConvexFamilyTest, DerivativeMatchesFiniteDifference) {
  const auto f = family_member(GetParam());
  for (const double x : {0.5, 1.0, 5.0, 25.0, 80.0}) {
    const double h = 1e-6 * std::max(1.0, x);
    const double fd = (f->value(x + h) - f->value(x - h)) / (2.0 * h);
    // Piecewise-linear kinks make the FD check meaningless at knots; all
    // sampled points here are interior to segments.
    EXPECT_NEAR(f->derivative(x), fd, 1e-3 * std::max(1.0, std::fabs(fd)))
        << f->describe() << " at x=" << x;
  }
}

TEST_P(ConvexFamilyTest, ValueIsNonNegativeAndZeroAtOrigin) {
  const auto f = family_member(GetParam());
  EXPECT_NEAR(f->value(0.0), 0.0, 1e-12);
  for (const double x : {0.1, 1.0, 10.0, 1000.0})
    EXPECT_GE(f->value(x), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ConvexFamilyTest,
                         ::testing::Range(0, 7));

}  // namespace
}  // namespace ccc
