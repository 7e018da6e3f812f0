#include "core/saturation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/model_registry.hpp"
#include "core/sweep_engine.hpp"

namespace kncube::core {
namespace {

ScenarioSpec scenario(int k, int lm, double h) {
  ScenarioSpec s;
  s.torus().k = k;
  s.message_length = lm;
  s.hotspot().fraction = h;
  s.target_messages = 500;
  s.warmup_cycles = 2000;
  s.max_cycles = 150000;
  return s;
}

TEST(ModelSaturation, BoundaryIsTight) {
  const ScenarioSpec s = scenario(16, 32, 0.2);
  const SaturationResult sat = SweepEngine(s).saturation_rate();
  EXPECT_GT(sat.rate, 0.0);
  // Just below: stable. Just above: saturated.
  const ModelDispatch d = make_analytical_model(s);
  EXPECT_FALSE(d.model->solve_at(sat.rate * 0.999).saturated);
  EXPECT_TRUE(d.model->solve_at(sat.rate * 1.01).saturated);
}

TEST(ModelSaturation, DecreasesWithHotFraction) {
  double prev = 1.0;
  for (double h : {0.1, 0.2, 0.4, 0.7}) {
    const double rate = SweepEngine(scenario(16, 32, h)).saturation_rate().rate;
    EXPECT_LT(rate, prev) << h;
    prev = rate;
  }
}

TEST(ModelSaturation, DecreasesWithMessageLength) {
  const double short_sat = SweepEngine(scenario(16, 32, 0.2)).saturation_rate().rate;
  const double long_sat = SweepEngine(scenario(16, 100, 0.2)).saturation_rate().rate;
  EXPECT_LT(long_sat, short_sat);
  // Roughly inverse in Lm (service scales with message length).
  EXPECT_NEAR(short_sat / long_sat, 100.0 / 32.0, 1.0);
}

TEST(ModelSaturation, DecreasesWithRadix) {
  // Larger k concentrates more hot traffic on the bottleneck column.
  const double k8 = SweepEngine(scenario(8, 32, 0.2)).saturation_rate().rate;
  const double k16 = SweepEngine(scenario(16, 32, 0.2)).saturation_rate().rate;
  EXPECT_GT(k8, k16);
}

TEST(ModelSaturation, MatchesPaperOperatingRanges) {
  // The paper's Figure 1/2 x-axes end near the saturation rate; our model
  // must place saturation in the same decade.
  const double f1_h20 = SweepEngine(scenario(16, 32, 0.2)).saturation_rate().rate;
  EXPECT_GT(f1_h20, 3e-4);
  EXPECT_LT(f1_h20, 9e-4);  // paper plots to 6e-4
  const double f1_h70 = SweepEngine(scenario(16, 32, 0.7)).saturation_rate().rate;
  EXPECT_GT(f1_h70, 1e-4);
  EXPECT_LT(f1_h70, 3e-4);  // paper plots to 2e-4
  const double f2_h20 = SweepEngine(scenario(16, 100, 0.2)).saturation_rate().rate;
  EXPECT_GT(f2_h20, 1e-4);
  EXPECT_LT(f2_h20, 3e-4);  // paper plots to 2e-4
}

TEST(BisectSaturation, DegenerateBracketReportsFailure) {
  // Always-unstable predicate: the shrink phase collapses the bracket to ~0
  // without ever observing a stable probe. The old code fabricated a
  // "converged" rate hi/2 that was never probed; the search must instead
  // report failure and a zero rate.
  int probes = 0;
  const SaturationResult res =
      bisect_saturation(1.0, 1e-3, [&](double) {
        ++probes;
        return false;
      });
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(res.rate, 0.0);
  EXPECT_EQ(res.probes, probes);
}

TEST(BisectSaturation, NonFiniteOrNonPositiveGuessReportsFailure) {
  // A NaN guess makes every bracket comparison false: the search used to
  // "converge" on rate=nan with failed=false without a meaningful probe.
  for (const double guess : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.0, -1.0}) {
    int probes = 0;
    const SaturationResult res = bisect_saturation(guess, 1e-3, [&](double r) {
      ++probes;
      return r < 0.5;
    });
    EXPECT_TRUE(res.failed) << guess;
    EXPECT_EQ(res.rate, 0.0) << guess;
    EXPECT_EQ(res.probes, 0) << guess;
    EXPECT_EQ(probes, 0) << guess;
  }
}

TEST(BisectSaturation, StablePathUnchangedAndNotFailed) {
  // Normal boundary at 0.5: bracketing + bisection converges and the result
  // is a probed, stable rate with the failure flag clear.
  const SaturationResult res =
      bisect_saturation(1.0, 1e-4, [](double r) { return r < 0.5; });
  EXPECT_FALSE(res.failed);
  EXPECT_NEAR(res.rate, 0.5, 0.5 * 1e-3);
  EXPECT_TRUE(res.rate < 0.5);  // lo side of the bracket: probed stable
}

TEST(SimSaturation, AgreesWithModelBoundary) {
  // Small network so each probe is fast. The sim boundary should land within
  // ~35% of the model's (the model is approximate, not exact).
  const ScenarioSpec s = scenario(8, 8, 0.3);
  const double model_rate = SweepEngine(s).saturation_rate().rate;
  const double sim_rate = sim_saturation_rate(s, 0.1).rate;
  EXPECT_GT(sim_rate, 0.65 * model_rate);
  EXPECT_LT(sim_rate, 1.6 * model_rate);
}

}  // namespace
}  // namespace kncube::core
