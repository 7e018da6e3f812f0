#include "model/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace kncube::model {
namespace {

TEST(FixedPoint, SolvesContractionMapping) {
  // x = cos(x) has the Dottie fixed point ~0.739085.
  std::vector<double> state = {0.0};
  const auto res = solve_fixed_point(
      state,
      [](const std::vector<double>& in, std::vector<double>& out) {
        out[0] = std::cos(in[0]);
        return true;
      });
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.diverged);
  EXPECT_NEAR(state[0], 0.739085, 1e-5);
}

TEST(FixedPoint, SolvesCoupledSystem) {
  // x = (y+1)/2, y = x/2  =>  x = 2/3, y = 1/3.
  std::vector<double> state = {0.0, 0.0};
  const auto res = solve_fixed_point(
      state, [](const std::vector<double>& in, std::vector<double>& out) {
        out[0] = (in[1] + 1.0) / 2.0;
        out[1] = in[0] / 2.0;
        return true;
      });
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(state[0], 2.0 / 3.0, 1e-8);
  EXPECT_NEAR(state[1], 1.0 / 3.0, 1e-8);
}

TEST(FixedPoint, StepFailureReportsDivergence) {
  std::vector<double> state = {1.0};
  const auto res = solve_fixed_point(
      state, [](const std::vector<double>&, std::vector<double>&) { return false; });
  EXPECT_TRUE(res.diverged);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 1);
}

TEST(FixedPoint, DetectsRunawayGrowth) {
  std::vector<double> state = {1.0};
  FixedPointOptions opts;
  opts.divergence_cap = 1e6;
  const auto res = solve_fixed_point(
      state,
      [](const std::vector<double>& in, std::vector<double>& out) {
        out[0] = in[0] * 10.0;
        return true;
      },
      opts);
  EXPECT_TRUE(res.diverged);
}

TEST(FixedPoint, DampingStabilizesOscillation) {
  // x -> 2.8 x (1 - x), the logistic map: undamped it orbits, damped it
  // settles on the fixed point 1 - 1/2.8.
  auto logistic = [](const std::vector<double>& in, std::vector<double>& out) {
    out[0] = 2.8 * in[0] * (1.0 - in[0]);
    return true;
  };
  FixedPointOptions damped;
  damped.damping = 0.5;
  std::vector<double> state = {0.2};
  const auto res = solve_fixed_point(state, logistic, damped);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(state[0], 1.0 - 1.0 / 2.8, 1e-6);
}

TEST(FixedPoint, RespectsIterationBudget) {
  FixedPointOptions opts;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;  // unreachable
  std::vector<double> state = {0.5};
  const auto res = solve_fixed_point(
      state,
      [](const std::vector<double>& in, std::vector<double>& out) {
        out[0] = in[0];
        return true;
      },
      opts);
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(res.diverged);
  EXPECT_EQ(res.iterations, 5);
}

TEST(FixedPoint, ConvergesImmediatelyAtFixedPoint) {
  std::vector<double> state = {4.0};
  const auto res = solve_fixed_point(
      state, [](const std::vector<double>& in, std::vector<double>& out) {
        out[0] = in[0];
        return true;
      });
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_EQ(state[0], 4.0);
}

TEST(FixedPoint, ReproducingSweepIsNotPolishedAgain) {
  // A constant map run undamped: the second sweep returns its input bit for
  // bit, which is already the stationary point, so no polish sweep follows.
  FixedPointOptions undamped;
  undamped.damping = 1.0;
  int sweeps = 0;
  std::vector<double> state = {0.0};
  const auto res = solve_fixed_point(
      state,
      [&sweeps](const std::vector<double>&, std::vector<double>& out) {
        ++sweeps;
        out[0] = 3.0;
        return true;
      },
      undamped);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 2);
  EXPECT_EQ(sweeps, 2);
  EXPECT_EQ(state[0], 3.0);
}

TEST(FixedPoint, NonFiniteValuesAreDivergence) {
  std::vector<double> state = {1.0};
  const auto res = solve_fixed_point(
      state, [](const std::vector<double>&, std::vector<double>& out) {
        out[0] = std::numeric_limits<double>::quiet_NaN();
        return true;
      });
  EXPECT_TRUE(res.diverged);
}

}  // namespace
}  // namespace kncube::model
