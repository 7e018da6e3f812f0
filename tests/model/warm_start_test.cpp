// Warm-start (continuation) correctness: seeding a solve with the converged
// state of a nearby operating point must be a pure accelerator. Because the
// solver polishes every converged iterate to the map's exactly stationary
// point (model/solver.hpp), a warm-started solve that converges returns
// *bit-identical* results to the cold solve — and any warm failure falls
// back to the cold path, so the solve/no-solve classification can never
// drift. These tests pin both properties across lambda sweeps that include
// the saturation knee, where the fixed point is hardest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/model_registry.hpp"
#include "core/saturation.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_engine.hpp"
#include "model/analytical_model.hpp"

namespace kncube::model {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The saturation bisection over cold solve_at calls: no store, no warm
/// start — the reference a warm-started engine must reproduce.
core::SaturationResult cold_saturation(const AnalyticalModel& model, double rel_tol) {
  return core::bisect_saturation(
      model.estimated_saturation_rate(), rel_tol,
      [&model](double rate) { return !model.solve_at(rate).saturated; });
}

ModelConfig uniform_torus_config(int k) {
  ModelConfig cfg;
  cfg.k = k;
  cfg.hot_fraction = std::nullopt;
  return cfg;
}

ModelConfig hypercube_config(int dims) {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kHypercube;
  cfg.k = 2;
  cfg.n = dims;
  cfg.hot_fraction = 0.2;
  return cfg;
}

ModelConfig uniform_mesh_config(int k, int n) {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.k = k;
  cfg.n = n;
  cfg.hot_fraction = std::nullopt;
  return cfg;
}

TEST(WarmStart, HotspotChainIsBitIdenticalIncludingKnee) {
  for (int k : {8, 16}) {
    core::ScenarioSpec spec;  // V=2, Lm=32, h=0.2
    spec.torus().k = k;
    // The true model knee: the bisected saturation boundary, then fractions
    // hugging it from below plus one saturated point above.
    const double sat = core::model_saturation_rate(spec, 1e-4).rate;
    const AnalyticalModel model = *core::make_analytical_model(spec).model;

    std::vector<double> chain;  // converged state of the previous point
    for (double f : {0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 0.99, 0.999, 1.02}) {
      const ModelResult cold = model.solve_at(f * sat);
      std::vector<double> state;
      const ModelResult warm =
          model.solve_at(f * sat, chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.regular_latency), bits(warm.regular_latency))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.hot_latency), bits(warm.hot_latency))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(cold.saturated, state.empty()) << "k=" << k << " f=" << f;
      if (!state.empty()) chain = std::move(state);
    }
  }
}

TEST(WarmStart, MismatchedOrStaleSeedsFallBackToColdResults) {
  ModelConfig cfg;
  cfg.k = 8;
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.hot_fraction = 0.2;
  const AnalyticalModel model(cfg);
  const double lambda = 0.6 * model.estimated_saturation_rate();
  const ModelResult cold = model.solve_at(lambda);
  ASSERT_FALSE(cold.saturated);

  // Wrong layout size: ignored entirely.
  std::vector<double> wrong_size(3, 100.0);
  EXPECT_EQ(bits(model.solve_at(lambda, &wrong_size, nullptr).latency),
            bits(cold.latency));

  // Right size but absurd values (a "stale" seed): either the iteration
  // still converges — to the same stationary point — or the cold fallback
  // kicks in; both ways the result is bit-identical.
  std::vector<double> absurd(wrong_size);
  std::vector<double> layout_probe;
  (void)model.solve_at(lambda, nullptr, &layout_probe);
  absurd.assign(layout_probe.size(), 1e9);
  EXPECT_EQ(bits(model.solve_at(lambda, &absurd, nullptr).latency),
            bits(cold.latency));
}

TEST(WarmStart, UniformAndHypercubeChainsAreBitIdentical) {
  {
    const AnalyticalModel model(uniform_torus_config(16));
    std::vector<double> chain;
    for (double rate : {1e-4, 3e-4, 5e-4, 7e-4}) {
      const ModelResult cold = model.solve_at(rate);
      std::vector<double> state;
      const ModelResult warm =
          model.solve_at(rate, chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << rate;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << rate;
      if (!state.empty()) chain = std::move(state);
    }
  }
  {
    const AnalyticalModel model(hypercube_config(6));
    const double sat = model.estimated_saturation_rate();
    std::vector<double> chain;
    for (double f : {0.1, 0.4, 0.7, 0.9}) {
      const ModelResult cold = model.solve_at(f * sat);
      std::vector<double> state;
      const ModelResult warm =
          model.solve_at(f * sat, chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << f;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << f;
      if (!state.empty()) chain = std::move(state);
    }
  }
}

TEST(WarmStart, RegistryEnginePathsAreBitIdenticalToDirectModels) {
  // The engine's warm-started, memoized registry path (ScenarioSpec ->
  // AnalyticalModel -> SweepEngine) must agree bit-for-bit with cold solves
  // of a hand-built ModelConfig, for the uniform-torus and hypercube
  // families.
  {
    core::ScenarioSpec spec;
    spec.torus().k = 16;
    spec.traffic = core::UniformTraffic{};
    core::SweepEngine engine(spec);
    ASSERT_TRUE(engine.has_model());
    const auto lams = engine.lambda_sweep(6, 0.1, 0.95);
    const auto pts = engine.run(lams, /*run_sim=*/false);
    const AnalyticalModel model(uniform_torus_config(16));
    for (std::size_t i = 0; i < lams.size(); ++i) {
      const ModelResult direct = model.solve_at(lams[i]);
      ASSERT_EQ(pts[i].model.saturated, direct.saturated) << i;
      EXPECT_EQ(bits(pts[i].model.latency), bits(direct.latency)) << i;
    }
  }
  {
    core::ScenarioSpec spec;
    spec.topology = core::HypercubeTopology{6};
    spec.hotspot().fraction = 0.2;
    core::SweepEngine engine(spec);
    ASSERT_TRUE(engine.has_model());
    const auto lams = engine.lambda_sweep(6, 0.1, 0.95);
    const auto pts = engine.run(lams, /*run_sim=*/false);
    const AnalyticalModel model(hypercube_config(6));
    for (std::size_t i = 0; i < lams.size(); ++i) {
      const ModelResult direct = model.solve_at(lams[i]);
      ASSERT_EQ(pts[i].model.saturated, direct.saturated) << i;
      EXPECT_EQ(bits(pts[i].model.latency), bits(direct.latency)) << i;
    }
    // The engine's saturation bisection agrees with a cold one too.
    EXPECT_EQ(bits(engine.saturation_rate(1e-3).rate),
              bits(cold_saturation(model, 1e-3).rate));
  }
}

TEST(WarmStart, MeshChainIsBitIdenticalIncludingKnee) {
  // The mesh model's per-(dimension, position) classes run through the same
  // engine solve; continuation across an ascending sweep (including the
  // saturation knee and one saturated point) must be a pure accelerator.
  for (auto [k, n] : {std::pair{8, 2}, std::pair{4, 3}}) {
    ModelConfig cfg = uniform_mesh_config(k, n);
    cfg.message_length = 16;
    const AnalyticalModel model(cfg);
    const double sat_est = model.estimated_saturation_rate();

    std::vector<double> chain;  // converged state of the previous point
    for (double f : {0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.5}) {
      const ModelResult cold = model.solve_at(f * sat_est);
      std::vector<double> state;
      const ModelResult warm =
          model.solve_at(f * sat_est, chain.empty() ? nullptr : &chain, &state);
      ASSERT_EQ(cold.saturated, warm.saturated) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.latency), bits(warm.latency)) << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.regular_network_latency),
                bits(warm.regular_network_latency))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(bits(cold.max_channel_utilization), bits(warm.max_channel_utilization))
          << "k=" << k << " f=" << f;
      EXPECT_EQ(cold.saturated, state.empty()) << "k=" << k << " f=" << f;
      if (!state.empty()) chain = std::move(state);
    }
  }
}

TEST(WarmStart, MeshSweepEngineIsWarmStartedMemoizedAndBitIdenticalToCold) {
  // Mesh sweeps ride the same SweepEngine machinery as every other family:
  // repeated lambdas are memoized, each solve is warm-started from the
  // nearest stable point below, and none of that may change a single bit
  // relative to cold solves of a hand-built ModelConfig.
  core::ScenarioSpec spec;
  spec.topology = core::MeshTopology{8, 2};
  spec.traffic = core::UniformTraffic{};

  core::SweepEngine warm_engine(spec);
  ASSERT_TRUE(warm_engine.has_model());
  const AnalyticalModel model(uniform_mesh_config(8, 2));

  // The saturation bisection must agree bit-for-bit (every probe classifies
  // identically on both paths).
  EXPECT_EQ(bits(warm_engine.saturation_rate(1e-3).rate),
            bits(cold_saturation(model, 1e-3).rate));

  const auto lams = warm_engine.lambda_sweep(6, 0.1, 0.95);
  std::vector<double> descending(lams.rbegin(), lams.rend());
  // Populate the warm cache in descending order first so warm sources vary.
  (void)warm_engine.run(descending, /*run_sim=*/false);
  const std::uint64_t hits_before = warm_engine.cache_stats().model_hits;
  const auto warm_pts = warm_engine.run(lams, /*run_sim=*/false);
  // The second sweep re-visits the identical lambdas: all solves memoized.
  EXPECT_EQ(warm_engine.cache_stats().model_hits, hits_before + lams.size());

  for (std::size_t i = 0; i < lams.size(); ++i) {
    const ModelResult cold = model.solve_at(lams[i]);
    ASSERT_EQ(warm_pts[i].model.saturated, cold.saturated) << i;
    EXPECT_EQ(bits(warm_pts[i].model.latency), bits(cold.latency)) << i;
  }
}

TEST(WarmStart, SweepEngineResultsIndependentOfWarmStartAndOrder) {
  core::ScenarioSpec spec;  // V=2, Lm=32, h=0.2
  spec.torus().k = 8;

  core::SweepEngine warm_engine(spec);
  const AnalyticalModel& model = warm_engine.analytical_model();

  // The boundary itself must agree bit-for-bit (every bisection probe
  // classifies identically), and so must every sweep point — regardless of
  // the order the cache was populated in.
  const double sat_cold = cold_saturation(model, 1e-3).rate;
  const double sat_warm = warm_engine.saturation_rate(1e-3).rate;
  EXPECT_EQ(bits(sat_cold), bits(sat_warm));

  std::vector<double> lams = warm_engine.lambda_sweep(6, 0.1, 0.95);
  std::vector<double> descending(lams.rbegin(), lams.rend());
  // Warm engine sees the sweep in *descending* order first: predecessors are
  // often absent, so warm sources vary — results must not.
  (void)warm_engine.run(descending, /*run_sim=*/false);
  const auto warm_pts = warm_engine.run(lams, /*run_sim=*/false);
  for (std::size_t i = 0; i < lams.size(); ++i) {
    const ModelResult cold = model.solve_at(lams[i]);
    ASSERT_EQ(cold.saturated, warm_pts[i].model.saturated) << i;
    EXPECT_EQ(bits(cold.latency), bits(warm_pts[i].model.latency)) << i;
  }
}

}  // namespace
}  // namespace kncube::model
