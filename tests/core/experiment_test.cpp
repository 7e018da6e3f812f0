#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/model_registry.hpp"
#include "core/sweep_engine.hpp"

namespace kncube::core {
namespace {

/// An 8x8 hot-spot torus, V=2, Lm=8, h=0.3, with reduced simulation effort.
ScenarioSpec small_scenario() {
  ScenarioSpec s;
  s.torus().k = 8;
  s.vcs = 2;
  s.message_length = 8;
  s.hotspot().fraction = 0.3;
  s.target_messages = 500;
  s.warmup_cycles = 2000;
  s.max_cycles = 300000;
  return s;
}

TEST(Experiment, ModelConfigMapping) {
  const ModelDispatch d = make_analytical_model(small_scenario());
  ASSERT_TRUE(d.has_model());
  const model::ModelConfig& mc = d.model->config();
  EXPECT_EQ(mc.topology, model::TopologyKind::kTorus);
  EXPECT_EQ(mc.k, 8);
  EXPECT_EQ(mc.n, 2);
  EXPECT_EQ(mc.vcs, 2);
  EXPECT_EQ(mc.message_length, 8);
  ASSERT_TRUE(mc.hot_fraction.has_value());
  EXPECT_DOUBLE_EQ(*mc.hot_fraction, 0.3);
  EXPECT_FALSE(mc.mmpp.has_value());
}

TEST(Experiment, SimConfigMapping) {
  const ScenarioSpec s = small_scenario();
  const sim::SimConfig sc = to_sim_config(s, 2e-4);
  EXPECT_EQ(sc.k, 8);
  EXPECT_EQ(sc.n, 2);
  EXPECT_FALSE(sc.bidirectional);
  EXPECT_EQ(sc.pattern, sim::Pattern::kHotspot);
  EXPECT_DOUBLE_EQ(sc.hot_fraction, 0.3);
  EXPECT_DOUBLE_EQ(sc.injection_rate, 2e-4);
  EXPECT_EQ(sc.target_messages, 500u);
  EXPECT_NO_THROW(sc.validate());
}

TEST(Experiment, ModelOnlySeriesPreservesOrder) {
  const ScenarioSpec s = small_scenario();
  const std::vector<double> lams = {1e-4, 5e-5, 2e-4};
  const auto pts = SweepEngine(s).run(lams, /*run_sim=*/false);
  ASSERT_EQ(pts.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(pts[i].lambda, lams[i]);
    EXPECT_FALSE(pts[i].has_sim);
  }
  // Monotone in load regardless of input order.
  EXPECT_LT(pts[1].model.latency, pts[0].model.latency);
  EXPECT_LT(pts[0].model.latency, pts[2].model.latency);
}

TEST(Experiment, SeriesWithSimProducesComparablePoints) {
  const ScenarioSpec s = small_scenario();
  const auto pts = SweepEngine(s).run({8e-4}, /*run_sim=*/true);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_TRUE(pts[0].has_sim);
  EXPECT_FALSE(pts[0].model.saturated);
  EXPECT_FALSE(pts[0].sim.saturated);
  const double rel = pts[0].relative_error();
  EXPECT_FALSE(std::isnan(rel));
  EXPECT_LT(rel, 0.6);
}

TEST(Experiment, SeriesIsReproducibleAcrossRuns) {
  const ScenarioSpec s = small_scenario();
  const auto a = SweepEngine(s).run({5e-4, 8e-4});
  const auto b = SweepEngine(s).run({5e-4, 8e-4});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sim.mean_latency, b[i].sim.mean_latency);
  }
}

TEST(Experiment, PointSeedsDifferAcrossIndices) {
  // Identical lambdas at different indices get decorrelated seeds.
  const ScenarioSpec s = small_scenario();
  const auto pts = SweepEngine(s).run({8e-4, 8e-4});
  EXPECT_NE(pts[0].sim.mean_latency, pts[1].sim.mean_latency);
}

TEST(Experiment, RelativeErrorNanCases) {
  PointResult p;
  EXPECT_TRUE(std::isnan(p.relative_error()));  // no model, no sim
  p.has_model = true;
  p.has_sim = true;
  p.sim.mean_latency = 0.0;
  EXPECT_TRUE(std::isnan(p.relative_error()));  // empty sim
  p.sim.mean_latency = 50.0;
  p.model.saturated = true;
  EXPECT_TRUE(std::isnan(p.relative_error()));  // saturated model
  p.model.saturated = false;
  p.model.latency = 60.0;
  EXPECT_NEAR(p.relative_error(), 0.2, 1e-12);
}

TEST(Experiment, LambdaSweepSpansRequestedRange) {
  const ScenarioSpec s = small_scenario();
  SweepEngine engine(s);
  const auto lams = engine.lambda_sweep(5, 0.2, 0.9);
  ASSERT_EQ(lams.size(), 5u);
  for (std::size_t i = 1; i < lams.size(); ++i) EXPECT_GT(lams[i], lams[i - 1]);
  EXPECT_NEAR(lams.back() / lams.front(), 0.9 / 0.2, 1e-9);
  // Every point below saturation must be stable for the model.
  const auto pts = engine.run(lams, /*run_sim=*/false);
  for (const auto& p : pts) EXPECT_FALSE(p.model.saturated);
}

}  // namespace
}  // namespace kncube::core
