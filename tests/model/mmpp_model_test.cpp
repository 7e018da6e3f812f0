// Randomized property tests for the MMPP (bursty-arrival) torus families and
// the centre-hot-spot mesh — model_property_test's monotonicity check
// extended to the families this engine stage made modelable, plus a
// degeneration check of their own:
//
//  1. Monotonicity: analytical mean latency is non-decreasing in the
//     injection rate below the saturation boundary. The MMPP arrival IDC
//     grows with lambda (more contrast between burst and idle rates), so
//     this also exercises the coupling between the dispersion recomputation
//     and the underlying fixed point.
//  2. Bernoulli degeneration: burst_multiplier == 1 makes the modulated
//     chain emit the mean rate in both states — the arrival IDC is exactly
//     1.0 and every solve must be bit-identical to the Bernoulli model's.
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

/// A non-degenerate random MMPP shape: stationary burst fraction bounded
/// away from 0 and 1, burst rate achievable (mult * pi_b <= 0.9), mixing
/// rate sigma in [0.02, 0.3] per cycle.
core::MmppArrivals random_mmpp(util::Xoshiro256& rng) {
  core::MmppArrivals m;
  m.burst_multiplier = 1.5 + 2.5 * rng.uniform();
  const double pi_burst = 0.05 + (0.9 / m.burst_multiplier - 0.05) * rng.uniform();
  const double sigma = 0.02 + 0.28 * rng.uniform();
  m.p_enter_burst = sigma * pi_burst;
  m.p_leave_burst = sigma * (1.0 - pi_burst);
  return m;
}

/// One random modeled spec. `family` indexes: 0 mmpp-hotspot-torus,
/// 1 mmpp-uniform-torus, 2 hotspot-mesh.
core::ScenarioSpec random_spec(int family, util::Xoshiro256& rng) {
  core::ScenarioSpec spec;
  const int lm_choices[] = {8, 16, 32};
  spec.message_length = lm_choices[rng.uniform_below(3)];
  spec.vcs = 2 + static_cast<int>(rng.uniform_below(2));
  if (family <= 1) {
    const int k_choices[] = {4, 6, 8, 10};
    spec.torus().k = k_choices[rng.uniform_below(4)];
    spec.arrivals = random_mmpp(rng);
    if (family == 0) {
      spec.hotspot().fraction = 0.05 + 0.45 * rng.uniform();
    } else {
      spec.traffic = core::UniformTraffic{};
    }
  } else {
    const int k_choices[] = {4, 6, 8};
    const int k = k_choices[rng.uniform_below(3)];
    const int n = 2 + static_cast<int>(rng.uniform_below(2));
    spec.topology = core::MeshTopology{k, n};
    spec.hotspot().fraction = 0.05 + 0.45 * rng.uniform();
  }
  return spec;
}

const char* family_name(int family) {
  switch (family) {
    case 0: return "mmpp-hotspot-torus";
    case 1: return "mmpp-uniform-torus";
    default: return "hotspot-mesh";
  }
}

TEST(MmppModelProperty, LatencyMonotoneOnRandomSpecs) {
  util::Xoshiro256 rng(0xB005575EED);
  for (int family = 0; family < 3; ++family) {
    for (int trial = 0; trial < 3; ++trial) {
      const core::ScenarioSpec spec = random_spec(family, rng);
      const std::string label = std::string(family_name(family)) + " trial " +
                                std::to_string(trial) + "\n" +
                                core::format_scenario(spec);
      core::ModelDispatch dispatch = core::make_analytical_model(spec);
      ASSERT_TRUE(dispatch.has_model()) << label;
      EXPECT_STREQ(dispatch.model->name(), family_name(family)) << label;

      const double est = dispatch.model->estimated_saturation_rate();
      ASSERT_GT(est, 0.0) << label;

      std::vector<double> grid;
      for (double f : {0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9}) {
        grid.push_back(f * est);
      }

      double prev_latency = dispatch.model->zero_load_latency();
      ASSERT_GT(prev_latency, 0.0) << label;
      for (double lambda : grid) {
        const ModelResult r = dispatch.model->solve_at(lambda);
        if (r.saturated) continue;
        EXPECT_GE(r.latency, prev_latency * (1.0 - 1e-9))
            << label << "lambda=" << lambda;
        prev_latency = r.latency;
      }
    }
  }
}

TEST(MmppModelProperty, UnitBurstMultiplierIsBitwiseBernoulli) {
  util::Xoshiro256 rng(0xDE6E7E5EED);
  for (int family = 0; family < 2; ++family) {
    for (int trial = 0; trial < 3; ++trial) {
      core::ScenarioSpec mmpp_spec = random_spec(family, rng);
      // Degenerate the chain: both states emit the mean rate, so the model
      // must reproduce the Bernoulli model's numbers exactly.
      mmpp_spec.mmpp().burst_multiplier = 1.0;
      core::ScenarioSpec bernoulli_spec = mmpp_spec;
      bernoulli_spec.arrivals = core::BernoulliArrivals{};
      const std::string label = std::string(family_name(family)) + " trial " +
                                std::to_string(trial) + "\n" +
                                core::format_scenario(mmpp_spec);

      core::ModelDispatch md = core::make_analytical_model(mmpp_spec);
      core::ModelDispatch bd = core::make_analytical_model(bernoulli_spec);
      ASSERT_TRUE(md.has_model()) << label;
      ASSERT_TRUE(bd.has_model()) << label;

      EXPECT_EQ(bits(md.model->zero_load_latency()),
                bits(bd.model->zero_load_latency()))
          << label;
      EXPECT_EQ(bits(md.model->estimated_saturation_rate()),
                bits(bd.model->estimated_saturation_rate()))
          << label;

      const double est = bd.model->estimated_saturation_rate();
      for (double f : {0.1, 0.3, 0.5, 0.7}) {
        const ModelResult a = md.model->solve_at(f * est);
        const ModelResult b = bd.model->solve_at(f * est);
        ASSERT_EQ(a.saturated, b.saturated) << label << "f=" << f;
        EXPECT_EQ(bits(a.latency), bits(b.latency)) << label << "f=" << f;
        EXPECT_EQ(bits(a.regular_latency), bits(b.regular_latency))
            << label << "f=" << f;
        EXPECT_EQ(bits(a.hot_latency), bits(b.hot_latency))
            << label << "f=" << f;
        EXPECT_EQ(bits(a.max_channel_utilization),
                  bits(b.max_channel_utilization))
            << label << "f=" << f;
      }
    }
  }
}

}  // namespace
}  // namespace kncube::model
