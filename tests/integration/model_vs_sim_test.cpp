// End-to-end validation in miniature: the analytical model must track the
// flit-level simulator in the light/moderate-load region — the paper's
// central claim — on a configuration small enough for CI.
//
// Statistically gated: every agreement assertion compares the model
// prediction against a Student-t confidence interval over R independent
// replications (validate::ReplicationRunner) widened by a documented
// relative tolerance ε, instead of a single-seed point with a hand-tuned
// bound. The CI absorbs sampling noise (no more flakiness when a seed lands
// in a tail); ε carries the model's documented approximation error, which
// replication cannot shrink.
#include <gtest/gtest.h>

#include "core/kncube.hpp"

namespace kncube::core {
namespace {

constexpr int kReplications = 3;

ScenarioSpec ci_spec(double h) {
  ScenarioSpec s;
  s.torus().k = 8;
  s.vcs = 2;
  s.message_length = 16;
  s.hotspot().fraction = h;
  s.target_messages = 800;
  s.warmup_cycles = 4000;
  s.max_cycles = 800000;
  s.seed = 2025;
  return s;
}

TEST(ModelVsSim, PredictionWithinReplicationCiAtLightLoad) {
  const ScenarioSpec s = ci_spec(0.2);
  SweepEngine engine(s);
  const double sat = engine.saturation_rate().rate;
  const validate::ReplicationRunner runner(s, kReplications);
  const auto pts = runner.run({0.15 * sat, 0.3 * sat});
  for (const auto& pt : pts) {
    const auto mr = engine.model_point(pt.lambda);
    ASSERT_FALSE(mr.saturated);
    ASSERT_FALSE(pt.saturated());
    // Light load: the model must land within the CI ± 15% of the sim mean.
    EXPECT_TRUE(pt.latency.contains(mr.latency, 0.15 * pt.latency.mean))
        << "lambda=" << pt.lambda << " model=" << mr.latency
        << " sim=" << pt.latency.mean << "±" << pt.latency.half_width;
  }
}

TEST(ModelVsSim, PredictionWithinWidenedCiAtModerateLoad) {
  const ScenarioSpec s = ci_spec(0.3);
  SweepEngine engine(s);
  const double sat = engine.saturation_rate().rate;
  const validate::ReplicationRunner runner(s, kReplications);
  const auto pt = runner.run(0.5 * sat);
  const auto mr = engine.model_point(pt.lambda);
  ASSERT_FALSE(mr.saturated);
  ASSERT_FALSE(pt.saturated());
  // Moderate load: documented tolerance widens to 45%.
  EXPECT_TRUE(pt.latency.contains(mr.latency, 0.45 * pt.latency.mean))
      << "model=" << mr.latency << " sim=" << pt.latency.mean << "±"
      << pt.latency.half_width;
  // Known bias direction: the model over-predicts under contention, so its
  // prediction must not fall below the CI by more than the tolerance.
  EXPECT_GT(mr.latency, 0.8 * pt.latency.lo());
}

TEST(ModelVsSim, CurvesCoMove) {
  const ScenarioSpec s = ci_spec(0.4);
  SweepEngine engine(s);
  const auto lams = engine.lambda_sweep(4, 0.15, 0.7);
  const validate::ReplicationRunner runner(s, kReplications);
  const auto pts = runner.run(lams);
  std::vector<double> model_curve, sim_curve;
  for (const auto& pt : pts) {
    const auto mr = engine.model_point(pt.lambda);
    ASSERT_FALSE(mr.saturated) << pt.lambda;
    ASSERT_FALSE(pt.saturated()) << pt.lambda;
    model_curve.push_back(mr.latency);
    sim_curve.push_back(pt.latency.mean);
  }
  EXPECT_GT(util::pearson_correlation(model_curve, sim_curve), 0.9);
  EXPECT_LT(util::mean_relative_error(model_curve, sim_curve), 0.4);
}

TEST(ModelVsSim, BothSidesSaturateInTheSameRegion) {
  const ScenarioSpec s = ci_spec(0.5);
  const double model_sat = SweepEngine(s).saturation_rate().rate;
  // Well below: every replication stable. Well above: the majority vote
  // flags saturation.
  const validate::ReplicationRunner runner(s, kReplications);
  EXPECT_FALSE(runner.run(0.6 * model_sat).saturated());
  ScenarioSpec fast = s;
  fast.max_cycles = 150000;
  const validate::ReplicationRunner fast_runner(fast, kReplications);
  EXPECT_TRUE(fast_runner.run(2.5 * model_sat).saturated());
}

TEST(ModelVsSim, HotClassGapMatchesDirectionally) {
  // Both model and sim must agree that hot messages suffer more than
  // regular ones — on replication means, not one seed's class split.
  const ScenarioSpec s = ci_spec(0.3);
  SweepEngine engine(s);
  const double sat = engine.saturation_rate().rate;
  const validate::ReplicationRunner runner(s, kReplications);
  const auto pt = runner.run(0.5 * sat);
  const auto mr = engine.model_point(pt.lambda);
  EXPECT_GT(mr.hot_latency, mr.regular_latency);
  const double sim_hot =
      pt.mean_of([](const sim::SimResult& r) { return r.mean_latency_hot; });
  const double sim_regular =
      pt.mean_of([](const sim::SimResult& r) { return r.mean_latency_regular; });
  EXPECT_GT(sim_hot, sim_regular);
}

TEST(ModelVsSim, UniformLimitTracksAtLightLoad) {
  // With h = 0 the hot-spot machinery drops out. Agreement holds in the
  // light-load region; at mid load the simulator congests *earlier* than
  // the model under uniform traffic (chained wormhole blocking on every
  // channel at once), so the documented tolerance widens with load.
  const ScenarioSpec s = ci_spec(0.0);
  SweepEngine engine(s);
  const double sat = engine.saturation_rate().rate;
  const validate::ReplicationRunner runner(s, kReplications);
  const auto pts = runner.run({0.15 * sat, 0.35 * sat});
  const double eps[] = {0.2, 0.4};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto mr = engine.model_point(pts[i].lambda);
    EXPECT_TRUE(pts[i].latency.contains(mr.latency, eps[i] * pts[i].latency.mean))
        << "lambda=" << pts[i].lambda << " model=" << mr.latency
        << " sim=" << pts[i].latency.mean << "±" << pts[i].latency.half_width;
  }
}

}  // namespace
}  // namespace kncube::core
