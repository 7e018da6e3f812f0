#include "model/analytical_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "model/families.hpp"
#include "topology/torus.hpp"

namespace kncube::model {
namespace {

/// The hot-spot hypercube: N = 64, V=2, Lm=32, h=0.2.
ModelConfig base_config() {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kHypercube;
  cfg.k = 2;
  cfg.n = 6;  // N = 64
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.hot_fraction = 0.2;
  return cfg;
}

ModelResult solve(const ModelConfig& cfg, double lambda) {
  return AnalyticalModel(cfg).solve_at(lambda);
}

double saturation_estimate(const ModelConfig& cfg) {
  return AnalyticalModel(cfg).estimated_saturation_rate();
}

TEST(HypercubeModel, ZeroLoadMatchesBruteForceHops) {
  // Mean e-cube distance enumerated over every ordered pair of a k=2 cube.
  const int n = 5;
  const topo::KAryNCube net(2, n);
  double hops = 0.0;
  std::uint64_t pairs = 0;
  for (topo::NodeId s = 0; s < net.size(); ++s) {
    for (topo::NodeId d = 0; d < net.size(); ++d) {
      if (s == d) continue;
      hops += net.hops(s, d);
      ++pairs;
    }
  }
  ModelConfig cfg = base_config();
  cfg.n = n;
  const double expected = hops / static_cast<double>(pairs) + 32 - 1;
  EXPECT_NEAR(AnalyticalModel(cfg).zero_load_latency(), expected, 1e-9);
}

TEST(HypercubeModel, SolveApproachesZeroLoadAtTinyRates) {
  const AnalyticalModel model(base_config());
  const auto r = model.solve_at(1e-10);
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.latency, model.zero_load_latency(), 0.01);
}

TEST(HypercubeModel, FunnelRatesConserveHotFlux) {
  // sum_d rate_d * channels_d == lambda*h * total hot hop flux.
  const double lambda = 1e-4;
  const double h = 0.2;
  const int n = base_config().n;
  double flux = 0.0;
  for (int d = 0; d < n; ++d) {
    flux += hypercube_hot_funnel_rate(lambda, h, d) * std::ldexp(1.0, n - d - 1);
  }
  const double expected = lambda * h * n * std::ldexp(1.0, n - 1);
  EXPECT_NEAR(flux, expected, 1e-15);
}

TEST(HypercubeModel, FirstDimProbabilitiesSumToOne) {
  const int n = base_config().n;
  double sum = 0.0;
  for (int d = 0; d < n; ++d) sum += hypercube_first_dim_probability(n, d);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Lowest dimensions are corrected most often.
  EXPECT_GT(hypercube_first_dim_probability(n, 0),
            hypercube_first_dim_probability(n, 5));
}

TEST(HypercubeModel, LatencyIncreasesWithLoad) {
  double prev = 0.0;
  const double sat = saturation_estimate(base_config());
  for (double frac : {0.05, 0.2, 0.4, 0.6}) {
    const auto r = solve(base_config(), frac * sat);
    ASSERT_FALSE(r.saturated) << frac;
    EXPECT_GT(r.latency, prev);
    prev = r.latency;
  }
}

TEST(HypercubeModel, SaturatesUnderOverload) {
  const auto r = solve(base_config(), 10.0 * saturation_estimate(base_config()));
  EXPECT_TRUE(r.saturated);
}

TEST(HypercubeModel, HotLatencyExceedsRegularUnderLoad) {
  const auto r = solve(base_config(), 0.5 * saturation_estimate(base_config()));
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.hot_latency, r.regular_latency);
  EXPECT_NEAR(r.latency,
              0.8 * r.regular_latency + 0.2 * r.hot_latency, 1e-9);
}

TEST(HypercubeModel, BottleneckMultiplexingGrowsWithLoad) {
  // The funnel channel into the hot node reports as vc_mux_hot_y.
  const double sat = saturation_estimate(base_config());
  const auto rl = solve(base_config(), 0.1 * sat);
  const auto rh = solve(base_config(), 0.7 * sat);
  ASSERT_FALSE(rl.saturated);
  ASSERT_FALSE(rh.saturated);
  EXPECT_GT(rh.vc_mux_hot_y, rl.vc_mux_hot_y);
  EXPECT_LE(rh.vc_mux_hot_y, 2.0);
  // The hypercube has no x / non-hot-y split: those slots keep 1.0.
  EXPECT_EQ(rh.vc_mux_x, 1.0);
  EXPECT_EQ(rh.vc_mux_nonhot_y, 1.0);
}

TEST(HypercubeModel, HigherDimensionalityLowersHotCapacity) {
  // The last funnel channel carries lambda*h*2^{n-1}: capacity halves per
  // added dimension.
  ModelConfig small = base_config();
  ModelConfig large = base_config();
  small.n = 5;
  large.n = 7;
  const double s_sat = saturation_estimate(small);
  const double l_sat = saturation_estimate(large);
  EXPECT_NEAR(s_sat / l_sat, 4.0, 0.5);
}

TEST(HypercubeModel, ValidatesConfig) {
  ModelConfig cfg = base_config();
  cfg.n = 0;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.hot_fraction = -0.1;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.vcs = 0;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.k = 4;  // the hypercube is the k = 2 n-cube
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.blocking = BlockingVariant::kPureWait;  // no blocking-form variant
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace kncube::model
