// Randomized property tests over every registry-modeled spec family.
//
// Two invariants that must hold for *any* modeled ScenarioSpec, not just the
// hand-picked configurations of the other model tests:
//
//  1. Monotonicity: analytical mean latency is non-decreasing in the
//     injection rate below the saturation boundary — the queueing model has
//     no mechanism by which more load could mean less waiting.
//  2. Continuation purity: solve_at chained through warm starts returns
//     bit-identical results to cold solves on the same grid (the
//     generalisation of warm_start_test's fixed configurations to randomized
//     specs via the registry-dispatched AnalyticalModel).
//
// Specs are drawn from a fixed-seed PRNG so failures reproduce exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model_registry.hpp"
#include "core/scenario_spec.hpp"
#include "util/rng.hpp"

namespace kncube::model {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One random spec of the requested family. `family` indexes:
/// 0 hotspot-torus, 1 uniform-torus, 2 hotspot-hypercube, 3 uniform-hypercube.
core::ScenarioSpec random_spec(int family, util::Xoshiro256& rng) {
  core::ScenarioSpec spec;
  const int lm_choices[] = {8, 16, 32};
  spec.message_length = lm_choices[rng.uniform_below(3)];
  spec.vcs = 2 + static_cast<int>(rng.uniform_below(2));
  if (family <= 1) {
    const int k_choices[] = {4, 6, 8, 10};
    spec.torus().k = k_choices[rng.uniform_below(4)];
  } else {
    spec.topology = core::HypercubeTopology{4 + static_cast<int>(rng.uniform_below(3))};
  }
  if (family % 2 == 0) {
    spec.hotspot().fraction = 0.05 + 0.45 * rng.uniform();
  } else {
    spec.traffic = core::UniformTraffic{};
  }
  return spec;
}

const char* family_name(int family) {
  switch (family) {
    case 0: return "hotspot-torus";
    case 1: return "uniform-torus";
    case 2: return "hotspot-hypercube";
    default: return "uniform-hypercube";
  }
}

TEST(ModelProperty, LatencyMonotoneAndWarmEqualsColdOnRandomSpecs) {
  util::Xoshiro256 rng(0xACC0DE5EED);
  for (int family = 0; family < 4; ++family) {
    for (int trial = 0; trial < 3; ++trial) {
      const core::ScenarioSpec spec = random_spec(family, rng);
      const std::string label = std::string(family_name(family)) + " trial " +
                                std::to_string(trial) + "\n" +
                                core::format_scenario(spec);
      core::ModelDispatch dispatch = core::make_analytical_model(spec);
      ASSERT_TRUE(dispatch.has_model()) << label;

      const double est = dispatch.model->estimated_saturation_rate();
      ASSERT_GT(est, 0.0) << label;

      // Ascending grid below the saturation estimate. The estimate is a
      // coarse closed-form bound, so late points may already be saturated;
      // the invariants apply to the unsaturated prefix.
      std::vector<double> grid;
      for (double f : {0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}) {
        grid.push_back(f * est);
      }

      double prev_latency = dispatch.model->zero_load_latency();
      ASSERT_GT(prev_latency, 0.0) << label;
      std::vector<double> chain;  // converged state for warm chaining
      for (double lambda : grid) {
        const ModelResult cold = dispatch.model->solve_at(lambda);
        std::vector<double> state;
        const ModelResult warm = dispatch.model->solve_at(
            lambda, chain.empty() ? nullptr : &chain, &state);

        // Invariant 2: warm chain is a pure accelerator.
        ASSERT_EQ(cold.saturated, warm.saturated) << label << "lambda=" << lambda;
        EXPECT_EQ(bits(cold.latency), bits(warm.latency))
            << label << "lambda=" << lambda;
        EXPECT_EQ(bits(cold.regular_latency), bits(warm.regular_latency))
            << label << "lambda=" << lambda;
        EXPECT_EQ(bits(cold.max_channel_utilization),
                  bits(warm.max_channel_utilization))
            << label << "lambda=" << lambda;
        if (!state.empty()) chain = std::move(state);

        if (cold.saturated) continue;
        // Invariant 1: latency never decreases with load (tiny relative
        // slack for fixed-point arithmetic noise), and never undercuts the
        // zero-load limit.
        EXPECT_GE(cold.latency, prev_latency * (1.0 - 1e-9))
            << label << "lambda=" << lambda;
        prev_latency = cold.latency;
      }
    }
  }
}

}  // namespace
}  // namespace kncube::model
