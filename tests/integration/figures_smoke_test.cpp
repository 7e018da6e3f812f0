// Miniature end-to-end run of the figure-reproduction pipeline: the exact
// code path the bench binaries use, on a CI-sized network, asserting the
// table structure and the qualitative shape the paper reports.
#include <gtest/gtest.h>

#include "core/kncube.hpp"

namespace kncube::core {
namespace {

TEST(FigureSmoke, PanelPipelineProducesPaperShapedSeries) {
  ScenarioSpec s;
  s.torus().k = 8;
  s.vcs = 2;
  s.message_length = 16;
  s.hotspot().fraction = 0.2;
  s.target_messages = 900;
  s.warmup_cycles = 3000;
  s.max_cycles = 400000;

  SweepEngine engine(s);
  const auto lams = engine.lambda_sweep(4, 0.15, 0.85);
  const auto pts = engine.run(lams);
  const util::Table table = figure_table("smoke h=20%", pts);
  EXPECT_EQ(table.rows(), 4u);

  // Shape: monotone-increasing latency on both curves, flat-then-knee.
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].model.latency, pts[i - 1].model.latency);
    EXPECT_GT(pts[i].sim.mean_latency, pts[i - 1].sim.mean_latency * 0.98);
  }
  const double rise_model = pts.back().model.latency / pts.front().model.latency;
  const double rise_sim = pts.back().sim.mean_latency / pts.front().sim.mean_latency;
  EXPECT_GT(rise_model, 1.3);  // the knee is visible
  EXPECT_GT(rise_sim, 1.1);

  const PanelSummary summary = summarize_panel(pts);
  EXPECT_EQ(summary.stable_points + summary.sim_saturated_points,
            static_cast<int>(pts.size()));
  const util::Table st = summary_table("summary", {{"h=20%", summary}});
  EXPECT_EQ(st.rows(), 1u);
}

TEST(FigureSmoke, HigherHotFractionSaturatesEarlier) {
  // Across panels (the h=20/40/70% structure of Figures 1-2), saturation
  // moves to lower rates as h grows — the headline qualitative result.
  ScenarioSpec s;
  s.torus().k = 8;
  s.vcs = 2;
  s.message_length = 16;
  double prev = 1.0;
  for (double h : {0.2, 0.4, 0.7}) {
    s.hotspot().fraction = h;
    const double sat = SweepEngine(s).saturation_rate().rate;
    EXPECT_LT(sat, prev) << "h=" << h;
    prev = sat;
  }
}

TEST(FigureSmoke, LongerMessagesShiftTheWholePanel) {
  // Figure 2 vs Figure 1: Lm=100 curves sit higher and saturate earlier
  // than Lm=32 at equal h.
  ScenarioSpec short_s;
  short_s.torus().k = 8;
  short_s.message_length = 8;
  ScenarioSpec long_s = short_s;
  long_s.message_length = 32;

  SweepEngine short_engine(short_s);
  SweepEngine long_engine(long_s);
  const double short_sat = short_engine.saturation_rate().rate;
  const double long_sat = long_engine.saturation_rate().rate;
  EXPECT_LT(long_sat, short_sat);

  const auto ps = short_engine.run({0.4 * short_sat}, /*run_sim=*/false);
  const auto pl = long_engine.run({0.4 * long_sat}, /*run_sim=*/false);
  EXPECT_GT(pl[0].model.latency, ps[0].model.latency);
}

}  // namespace
}  // namespace kncube::core
