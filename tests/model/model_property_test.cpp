// Randomized property tests over every registry-modeled spec family.
//
// Monotonicity must hold for *any* modeled ScenarioSpec, not just the
// hand-picked configurations of the other model tests: analytical mean
// latency is non-decreasing in the injection rate below the saturation
// boundary — the queueing model has no mechanism by which more load could
// mean less waiting.
//
// Specs are drawn from a fixed-seed PRNG so failures reproduce exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/model_registry.hpp"
#include "core/scenario_spec.hpp"
#include "util/rng.hpp"

namespace kncube::model {
namespace {

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

TEST(ModelProperty, LatencyMonotoneOnRandomSpecs) {
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
      // the invariant applies to the unsaturated prefix.
      std::vector<double> grid;
      for (double f : {0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}) {
        grid.push_back(f * est);
      }

      double prev_latency = dispatch.model->zero_load_latency();
      ASSERT_GT(prev_latency, 0.0) << label;
      for (double lambda : grid) {
        const ModelResult r = dispatch.model->solve_at(lambda);
        if (r.saturated) continue;
        // Latency never decreases with load (tiny relative slack for
        // fixed-point arithmetic noise), and never undercuts the zero-load
        // limit.
        EXPECT_GE(r.latency, prev_latency * (1.0 - 1e-9))
            << label << "lambda=" << lambda;
        prev_latency = r.latency;
      }
    }
  }
}

}  // namespace
}  // namespace kncube::model
