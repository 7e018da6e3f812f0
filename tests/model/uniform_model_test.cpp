#include "model/analytical_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "model/families.hpp"

namespace kncube::model {
namespace {

/// The uniform-traffic torus baseline: k=16, V=2, Lm=32.
ModelConfig base_config() {
  ModelConfig cfg;
  cfg.k = 16;
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.hot_fraction = std::nullopt;
  return cfg;
}

ModelResult solve(const ModelConfig& cfg, double lambda) {
  return AnalyticalModel(cfg).solve_at(lambda);
}

TEST(UniformModel, ZeroLoadLimitMatchesClosedForm) {
  const AnalyticalModel model(base_config());
  const ModelResult r = model.solve_at(1e-9);
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.latency, model.zero_load_latency(), 0.01);
}

TEST(UniformModel, ZeroLoadClosedFormValue) {
  // k=16, Lm=32: (p_x + p_y)(k/2 + Lm - 1) + p_xy (k + Lm - 1).
  const double p_x = 15.0 / 255.0;
  const double p_xy = 225.0 / 255.0;
  const double expected = 2 * p_x * (8 + 31) + p_xy * (16 + 31);
  EXPECT_NEAR(AnalyticalModel(base_config()).zero_load_latency(), expected, 1e-12);
}

TEST(UniformModel, LatencyIncreasesWithLoad) {
  double prev = 0.0;
  for (double lam : {1e-5, 1e-4, 3e-4, 6e-4, 1e-3}) {
    const ModelResult r = solve(base_config(), lam);
    ASSERT_FALSE(r.saturated) << lam;
    EXPECT_GT(r.latency, prev);
    prev = r.latency;
  }
}

TEST(UniformModel, SaturatesAtHighLoad) {
  // Channel rate lambda*(k-1)/2 with tx service ~Lm+k/2-1: capacity ~3.4e-3.
  const ModelResult r = solve(base_config(), 5e-3);
  EXPECT_TRUE(r.saturated);
  EXPECT_TRUE(std::isinf(r.latency));
  // All traffic is regular: the regular latency is the (infinite) latency.
  EXPECT_TRUE(std::isinf(r.regular_latency));
}

TEST(UniformModel, SaturationBoundaryIsSharp) {
  // Bracket the boundary: stable slightly below, saturated slightly above.
  const AnalyticalModel model(base_config());
  double lo_rate = 1e-5;
  double hi_rate = 5e-3;
  for (int i = 0; i < 30; ++i) {
    const double mid = 0.5 * (lo_rate + hi_rate);
    (model.solve_at(mid).saturated ? hi_rate : lo_rate) = mid;
  }
  EXPECT_FALSE(model.solve_at(lo_rate).saturated);
  EXPECT_TRUE(model.solve_at(hi_rate).saturated);
  EXPECT_NEAR(hi_rate / lo_rate, 1.0, 1e-4);
  // The boundary sits below the naive single-channel bound 1/(lc_coeff*Lm).
  EXPECT_LT(lo_rate, 1.0 / (7.5 * 32.0));
}

TEST(UniformModel, LongerMessagesAreSlower) {
  ModelConfig short_cfg = base_config();
  ModelConfig long_cfg = base_config();
  short_cfg.message_length = 16;
  long_cfg.message_length = 64;
  const auto rs = solve(short_cfg, 1e-4);
  const auto rl = solve(long_cfg, 1e-4);
  ASSERT_FALSE(rs.saturated);
  ASSERT_FALSE(rl.saturated);
  EXPECT_GT(rl.latency, rs.latency + 40.0);
}

TEST(UniformModel, VcMuxWithinBounds) {
  const auto r = solve(base_config(), 1e-3);
  ASSERT_FALSE(r.saturated);
  EXPECT_GE(r.vc_mux_x, 1.0);
  EXPECT_LE(r.vc_mux_x, 2.0);
  EXPECT_GE(r.vc_mux_hot_y, 1.0);
  EXPECT_LE(r.vc_mux_hot_y, 2.0);
  EXPECT_EQ(r.vc_mux_nonhot_y, r.vc_mux_hot_y);  // one y class under uniform
}

TEST(UniformModel, ChannelRateFollowsEq3) {
  EXPECT_DOUBLE_EQ(uniform_torus_channel_rate(16, 4e-4), 4e-4 * 7.5);
}

TEST(UniformModel, NetworkLatencyExcludesSourceWait) {
  const auto r = solve(base_config(), 1e-3);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.source_wait_regular, 0.0);
  EXPECT_GT(r.latency, r.regular_network_latency);
}

TEST(UniformModel, ValidatesConfig) {
  ModelConfig cfg = base_config();
  cfg.k = 1;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  EXPECT_THROW(solve(base_config(), -1.0), std::invalid_argument);
  cfg = base_config();
  cfg.message_length = 0;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.vcs = 0;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  // The uniform torus has no ablation variants: a knob it cannot represent
  // throws instead of silently solving the default approximation.
  cfg = base_config();
  cfg.busy_basis = ServiceBasis::kInclusive;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace kncube::model
