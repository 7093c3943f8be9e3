// Tests for the numeric substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "support/numeric.hpp"

namespace sdem {
namespace {

TEST(Golden, FindsParabolaMinimum) {
  const double x = golden_min(
      [](double v) { return (v - 0.3) * (v - 0.3) + 1.0; }, 0.0, 1.0);
  EXPECT_NEAR(x, 0.3, 1e-7);  // golden resolution ~ sqrt(eps)
}

TEST(Golden, HandlesBoundaryMinimum) {
  const double x = golden_min([](double v) { return v; }, 2.0, 5.0);
  EXPECT_NEAR(x, 2.0, 1e-6);
}

TEST(Golden, DegenerateInterval) {
  EXPECT_EQ(golden_min([](double v) { return v * v; }, 1.0, 1.0), 1.0);
}

TEST(Numeric, GoldenSearchReturnsOnABracketAt1e4) {
  // One ulp of 1e4 (1.8e-12) exceeds the 1e-12 tolerance: the bracket stops
  // shrinking an ulp short, and the search must return all the same.
  const double x = golden_min(
      [](double v) { return (v - 10000.004) * (v - 10000.004); }, 10000.0,
      10000.01, 1e-12);
  EXPECT_NEAR(x, 10000.004, 1e-9);
}

TEST(GridRefine, FindsGlobalMinOfBimodal) {
  // Two basins: grid must land in the deeper one.
  auto f = [](double x) {
    return std::min((x - 0.2) * (x - 0.2) + 0.5, (x - 0.8) * (x - 0.8));
  };
  const double x = grid_refine_min(f, 0.0, 1.0, 512);
  EXPECT_NEAR(x, 0.8, 1e-6);
}

TEST(GridRefine2, FindsQuadraticMinimum) {
  double a = 0.0, b = 0.0;
  const double v = grid_refine_min2(
      [](double x, double y) {
        return (x - 0.4) * (x - 0.4) + (y - 0.7) * (y - 0.7);
      },
      0.0, 1.0, 0.0, 1.0, a, b, 32);
  EXPECT_NEAR(a, 0.4, 1e-6);
  EXPECT_NEAR(b, 0.7, 1e-6);
  EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(GridRefine2, HandlesDiagonalConstraint) {
  // min x + y subject to y - x >= 1 (inf outside): optimum on the boundary.
  double a = 0.0, b = 0.0;
  const double v = grid_refine_min2(
      [](double x, double y) {
        if (y - x < 1.0) return std::numeric_limits<double>::infinity();
        return (x - 0.5) * (x - 0.5) + y;
      },
      0.0, 2.0, 0.0, 2.0, a, b, 64);
  EXPECT_NEAR(v, 1.25, 1e-4);  // x = 0, y = 1 on the constraint
}

TEST(StretchEnergy, Basics) {
  EXPECT_EQ(stretch_energy_term(0.0, 1.0, 3.0), 0.0);
  EXPECT_TRUE(std::isinf(stretch_energy_term(1.0, 0.0, 3.0)));
  // w^3 / len^2.
  EXPECT_NEAR(stretch_energy_term(2.0, 4.0, 3.0), 8.0 / 16.0, 1e-12);
}

}  // namespace
}  // namespace sdem
