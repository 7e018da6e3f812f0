#include "model/analytical_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>

namespace kncube::model {
namespace {

/// The paper's hot-spot torus: k=16, V=2, Lm=32, h=0.2.
ModelConfig base_config() {
  ModelConfig cfg;
  cfg.k = 16;
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.hot_fraction = 0.2;
  return cfg;
}

ModelResult solve(const ModelConfig& cfg, double lambda) {
  return AnalyticalModel(cfg).solve_at(lambda);
}

TEST(HotspotModel, ZeroLoadLimitMatchesClosedForm) {
  const AnalyticalModel model(base_config());
  const ModelResult r = model.solve_at(1e-10);
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.latency, model.zero_load_latency(), 0.01);
}

TEST(HotspotModel, ZeroLoadHotPathIsLongerThanRegular) {
  // A hot message averages ~k hops (x leg + hot-column leg) vs the regular
  // mix which includes short single-dimension paths.
  const ModelResult r = solve(base_config(), 1e-10);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.hot_latency, r.regular_latency);
}

TEST(HotspotModel, ReducesToUniformModelAtZeroHotFraction) {
  for (double lam : {5e-5, 2e-4, 8e-4, 1.5e-3}) {
    ModelConfig hc = base_config();
    hc.hot_fraction = 0.0;
    ModelConfig uc = base_config();
    uc.hot_fraction = std::nullopt;
    const ModelResult hr = solve(hc, lam);
    const ModelResult ur = solve(uc, lam);
    ASSERT_EQ(hr.saturated, ur.saturated) << lam;
    if (!hr.saturated) {
      EXPECT_NEAR(hr.latency, ur.latency, 1e-6 * ur.latency) << lam;
    }
  }
}

TEST(HotspotModel, LatencyIncreasesWithLoad) {
  double prev = 0.0;
  for (double lam : {2e-5, 1e-4, 2e-4, 3e-4, 4e-4}) {
    const ModelResult r = solve(base_config(), lam);
    ASSERT_FALSE(r.saturated) << lam;
    EXPECT_GT(r.latency, prev) << lam;
    prev = r.latency;
  }
}

TEST(HotspotModel, LatencyIncreasesWithHotFraction) {
  double prev = 0.0;
  for (double h : {0.0, 0.1, 0.3, 0.5}) {
    ModelConfig cfg = base_config();
    cfg.hot_fraction = h;
    const ModelResult r = solve(cfg, 8e-5);
    ASSERT_FALSE(r.saturated) << h;
    EXPECT_GE(r.latency, prev) << h;
    prev = r.latency;
  }
}

TEST(HotspotModel, SaturatesAtHighLoad) {
  const ModelResult r = solve(base_config(), 2e-3);
  EXPECT_TRUE(r.saturated);
  EXPECT_TRUE(std::isinf(r.latency));
}

TEST(HotspotModel, LatencyCompositionFollowsEq10) {
  const ModelConfig cfg = base_config();
  const ModelResult r = solve(cfg, 2e-4);
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.latency,
              (1.0 - *cfg.hot_fraction) * r.regular_latency +
                  *cfg.hot_fraction * r.hot_latency,
              1e-9);
}

TEST(HotspotModel, VcMuxDegreesWithinBounds) {
  const ModelConfig cfg = base_config();
  const ModelResult r = solve(cfg, 4e-4);
  ASSERT_FALSE(r.saturated);
  for (double v : {r.vc_mux_x, r.vc_mux_hot_y, r.vc_mux_nonhot_y}) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, static_cast<double>(cfg.vcs));
  }
  // Hot-column channels multiplex hardest.
  EXPECT_GT(r.vc_mux_hot_y, r.vc_mux_nonhot_y);
}

TEST(HotspotModel, HotColumnIsTheBottleneck) {
  const double lambda = 3e-4;
  const ModelResult r = solve(base_config(), lambda);
  ASSERT_FALSE(r.saturated);
  // Peak busy probability well above the uniform-traffic level lambda_r*S.
  EXPECT_GT(r.max_channel_utilization, 3.0 * lambda * 0.8 * 7.5 * 40.0);
}

TEST(HotspotModel, ConvergesQuicklyAtLowLoad) {
  const ModelResult r = solve(base_config(), 1e-5);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 200);
}

TEST(HotspotModel, EstimatedSaturationIsNearActualBoundary) {
  const AnalyticalModel model(base_config());
  const double est = model.estimated_saturation_rate();
  // The estimate should be stable on one side and within 3x of the real
  // boundary (it seeds the bisection, nothing more).
  EXPECT_FALSE(model.solve_at(est / 3.0).saturated);
  EXPECT_TRUE(model.solve_at(est * 3.0).saturated);
}

TEST(HotspotModel, MoreVirtualChannelsReduceSourceWaitPressure) {
  // With arrival lambda/V per injection VC, more VCs lower the source wait.
  ModelConfig four = base_config();
  four.vcs = 4;
  const ModelResult r2 = solve(base_config(), 4e-4);
  const ModelResult r4 = solve(four, 4e-4);
  ASSERT_FALSE(r2.saturated);
  ASSERT_FALSE(r4.saturated);
  EXPECT_LT(r4.source_wait_regular, r2.source_wait_regular);
}

TEST(HotspotModel, BlockingVariantsOrdering) {
  // kPureWait drops the Pb < 1 factor, so its blocking (and latency) is at
  // least as large as the paper's compound form.
  ModelConfig pure = base_config();
  pure.blocking = BlockingVariant::kPureWait;
  const ModelResult rp = solve(base_config(), 3e-4);
  const ModelResult rw = solve(pure, 3e-4);
  ASSERT_FALSE(rp.saturated);
  ASSERT_FALSE(rw.saturated);
  EXPECT_GE(rw.latency, rp.latency);
}

TEST(HotspotModel, InclusiveBusyBasisPredictsHigherLatency) {
  ModelConfig incl = base_config();
  incl.busy_basis = ServiceBasis::kInclusive;
  const ModelResult rt = solve(base_config(), 3e-4);
  const ModelResult ri = solve(incl, 3e-4);
  ASSERT_FALSE(rt.saturated);
  ASSERT_FALSE(ri.saturated);
  EXPECT_GE(ri.latency, rt.latency);
}

TEST(HotspotModel, ValidatesConfig) {
  ModelConfig cfg = base_config();
  cfg.hot_fraction = 1.5;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.k = 0;
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  EXPECT_THROW(solve(base_config(), 2.0), std::invalid_argument);
  EXPECT_THROW(solve(base_config(), std::nan("")), std::invalid_argument);
  // The torus families are 2-D: anything unsupported_reason names throws.
  cfg = base_config();
  cfg.n = 3;
  EXPECT_FALSE(unsupported_reason(cfg).empty());
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.mmpp = MmppArrivalShape{std::nan(""), 0.0005, 0.002};
  EXPECT_THROW(AnalyticalModel{cfg}, std::invalid_argument);
}

// Property sweep: the model must stay self-consistent over the whole design
// space the benches exercise.
class HotspotModelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(HotspotModelSweep, StableBelowEstimatedSaturation) {
  const auto [k, vcs, lm, h] = GetParam();
  ModelConfig cfg;
  cfg.k = k;
  cfg.vcs = vcs;
  cfg.message_length = lm;
  cfg.hot_fraction = h;
  const AnalyticalModel model(cfg);
  const ModelResult r = model.solve_at(0.25 * model.estimated_saturation_rate());
  ASSERT_FALSE(r.saturated);
  EXPECT_TRUE(r.converged);
  // Latency exceeds the zero-load bound but stays within an order of it.
  const double zero = model.zero_load_latency();
  EXPECT_GE(r.latency, zero - 1e-9);
  EXPECT_LT(r.latency, 10.0 * zero);
  EXPECT_GE(r.hot_latency, 0.0);
  EXPECT_GE(r.source_wait_regular, 0.0);
  EXPECT_LE(r.max_channel_utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, HotspotModelSweep,
    ::testing::Combine(::testing::Values(4, 8, 16),       // k
                       ::testing::Values(2, 4),           // V
                       ::testing::Values(8, 32, 100),     // Lm
                       ::testing::Values(0.05, 0.2, 0.7)  // h
                       ));

}  // namespace
}  // namespace kncube::model
