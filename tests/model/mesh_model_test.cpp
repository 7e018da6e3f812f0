// Unit tests for the k-ary n-mesh uniform model (DESIGN.md §8): exact
// path-counting invariants, the zero-load limit against its closed form,
// qualitative load behaviour, and the registry dispatch rules for mesh
// specs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/model_registry.hpp"
#include "core/scenario_spec.hpp"
#include "model/analytical_model.hpp"
#include "topology/mesh_geometry.hpp"
#include "topology/torus.hpp"

namespace kncube::model {
namespace {

/// A uniform-traffic k-ary n-mesh with V=2, Lm=16.
ModelConfig mesh_config(int k, int n) {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.k = k;
  cfg.n = n;
  cfg.hot_fraction = std::nullopt;
  cfg.vcs = 2;
  cfg.message_length = 16;
  return cfg;
}

TEST(MeshGeometry, PairCountsMatchRouteEnumeration) {
  // The closed-form (i+1)(k-1-i) per-line pair count and the k^(n-1)/(k^n-1)
  // scaling must equal a brute-force enumeration of deterministic routes
  // over every (src, dst) pair, for every dimension and position.
  for (auto [k, n] : {std::pair{4, 2}, std::pair{3, 3}, std::pair{5, 1}}) {
    const topo::KAryNCube net(k, n, /*bidirectional=*/false, /*mesh=*/true);
    // crossings[d][i]: routes using a + link of dimension d at position i.
    std::vector<std::vector<int>> plus(static_cast<std::size_t>(n),
                                       std::vector<int>(static_cast<std::size_t>(k - 1), 0));
    auto minus = plus;
    for (topo::NodeId s = 0; s < net.size(); ++s) {
      for (topo::NodeId t = 0; t < net.size(); ++t) {
        if (s == t) continue;
        for (const topo::Hop& hop : net.route(s, t)) {
          EXPECT_FALSE(hop.wraps);
          const int c = net.coord(hop.from, hop.dim);
          auto& bucket = hop.dir == topo::Direction::kPlus ? plus : minus;
          const int pos = hop.dir == topo::Direction::kPlus ? c : c - 1;
          ++bucket[static_cast<std::size_t>(hop.dim)][static_cast<std::size_t>(pos)];
        }
      }
    }
    // Links of dimension d at position i: k^(n-1) lines each.
    const double lines = std::pow(static_cast<double>(k), n - 1);
    for (int d = 0; d < n; ++d) {
      for (int i = 0; i < k - 1; ++i) {
        // Each ordered (s, t) pair carries lambda/(N-1) messages/cycle, so
        // mesh_channel_rate(1, ...) * (N-1) is exactly the enumeration's
        // crossings-per-link count.
        const double want = topo::mesh_channel_rate(1.0, k, n, i) *
                            (static_cast<double>(net.size()) - 1.0);
        const double got_plus =
            static_cast<double>(plus[static_cast<std::size_t>(d)][static_cast<std::size_t>(i)]) /
            lines;
        const double got_minus =
            static_cast<double>(minus[static_cast<std::size_t>(d)]
                                     [static_cast<std::size_t>(k - 2 - i)]) /
            lines;
        EXPECT_NEAR(got_plus, want, 1e-9)
            << "k=" << k << " n=" << n << " d=" << d << " i=" << i;
        // Mirror symmetry: the - link at k-2-i carries the same load.
        EXPECT_EQ(got_plus, got_minus)
            << "k=" << k << " n=" << n << " d=" << d << " i=" << i;
      }
    }
  }
}

TEST(MeshGeometry, ClosedFormsAreConsistent) {
  for (int k : {2, 3, 4, 8, 16}) {
    // Entrance weights are a distribution over the k-1 positions.
    double total = 0.0;
    for (int i = 0; i < k - 1; ++i) total += topo::mesh_entrance_weight(k, i);
    EXPECT_NEAR(total, 1.0, 1e-12) << k;
    // The load profile is symmetric and peaks at the bisection.
    for (int i = 0; i < k - 1; ++i) {
      EXPECT_EQ(topo::mesh_link_pair_count(k, i),
                topo::mesh_link_pair_count(k, k - 2 - i));
      EXPECT_LE(topo::mesh_link_pair_count(k, i),
                topo::mesh_link_pair_count(k, (k - 2) / 2));
    }
    // Mean line hops: brute force E|a - b|.
    double acc = 0.0;
    for (int a = 0; a < k; ++a) {
      for (int b = 0; b < k; ++b) acc += std::abs(a - b);
    }
    EXPECT_NEAR(topo::mesh_mean_line_hops(k), acc / (k * k), 1e-12) << k;
  }
}

TEST(MeshModel, ZeroLoadMatchesClosedForm) {
  // As lambda -> 0 the solved latency must approach mean Manhattan distance
  // (conditioned on dst != src) + Lm - 1 — the class recursion's branching
  // probabilities are exact, so the agreement is to solver tolerance.
  for (auto [k, n] : {std::pair{8, 2}, std::pair{4, 3}, std::pair{2, 6}}) {
    const AnalyticalModel model(mesh_config(k, n));
    const ModelResult res = model.solve_at(1e-9);
    ASSERT_TRUE(res.converged);
    ASSERT_FALSE(res.saturated);
    EXPECT_NEAR(res.latency, model.zero_load_latency(), 1e-5)
        << "k=" << k << " n=" << n;
    EXPECT_NEAR(res.regular_network_latency,
                topo::mesh_mean_hops_uniform(k, n) + 15.0, 1e-5)
        << "k=" << k << " n=" << n;
  }
}

TEST(MeshModel, LatencyIncreasesWithLoadAndSaturates) {
  const AnalyticalModel model(mesh_config(8, 2));
  const double sat_est = model.estimated_saturation_rate();
  double prev = 0.0;
  for (double f : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    const ModelResult res = model.solve_at(f * sat_est);
    ASSERT_FALSE(res.saturated) << f;
    EXPECT_GT(res.latency, prev) << f;
    prev = res.latency;
  }
  // Far past the bandwidth pole there is no steady state.
  EXPECT_TRUE(model.solve_at(2.0 * sat_est).saturated);
}

TEST(MeshModel, UtilisationTracksTheBisectionLink) {
  const ModelConfig cfg = mesh_config(8, 2);
  const AnalyticalModel model(cfg);
  const double lambda = 0.4 * model.estimated_saturation_rate();
  const ModelResult res = model.solve_at(lambda);
  ASSERT_FALSE(res.saturated);
  // The centre link carries the peak rate; utilisation must be positive,
  // below 1, and at least the centre link's bandwidth share.
  const double centre_flits =
      topo::mesh_channel_rate(lambda, cfg.k, cfg.n, (cfg.k - 2) / 2) *
      cfg.message_length;
  EXPECT_GT(res.max_channel_utilization, centre_flits * 0.99);
  EXPECT_LT(res.max_channel_utilization, 1.0);
  // Dimension 0's entrance-weighted multiplexing degree reports as vc_mux_x.
  EXPECT_GT(res.vc_mux_x, 1.0);
  EXPECT_LE(res.vc_mux_x, static_cast<double>(cfg.vcs));
}

TEST(MeshModel, RegistryDispatchesUniformOnlyWithReasons) {
  core::ScenarioSpec spec;
  spec.topology = core::MeshTopology{8, 2};
  spec.traffic = core::UniformTraffic{};
  {
    const core::ModelDispatch d = core::make_analytical_model(spec);
    ASSERT_TRUE(d.has_model());
    EXPECT_STREQ(d.model->name(), "uniform-mesh");
  }
  {
    // Centre hot node: the hot-chain class reduction applies -> modeled.
    core::ScenarioSpec hot = spec;
    hot.traffic = core::HotspotTraffic{0.2, -1};
    const core::ModelDispatch d = core::make_analytical_model(hot);
    ASSERT_TRUE(d.has_model());
    EXPECT_STREQ(d.model->name(), "hotspot-mesh");
  }
  {
    // Off-centre hot node: per-channel load, no class reduction -> sim-only.
    core::ScenarioSpec hot = spec;
    hot.traffic = core::HotspotTraffic{0.2, 0};
    const core::ModelDispatch d = core::make_analytical_model(hot);
    EXPECT_FALSE(d.has_model());
    EXPECT_NE(d.sim_only_reason.find("centre hot node"), std::string::npos);
  }
  {
    // The mesh model supports the ablation knobs (they flow into the shared
    // engine), so a non-default basis still dispatches.
    core::ScenarioSpec ablated = spec;
    ablated.busy_basis = ServiceBasis::kInclusive;
    EXPECT_TRUE(core::make_analytical_model(ablated).has_model());
  }
  {
    // 3-D meshes dispatch too (the torus families are n == 2 only).
    core::ScenarioSpec cube = spec;
    cube.mesh() = core::MeshTopology{4, 3};
    EXPECT_TRUE(core::make_analytical_model(cube).has_model());
  }
}

}  // namespace
}  // namespace kncube::model
