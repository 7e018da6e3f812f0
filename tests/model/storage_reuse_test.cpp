// The per-thread model storage and the shared compiled model are invisible
// in the answers.
//
// ChannelClassSystem keeps each thread's arrays and solve workspace between
// solves (engine/channel_class.hpp), so a solve may start from storage that
// a larger, smaller or differently shaped system left behind. Whatever ran
// on the thread before, a solve must return exactly — every ModelResult
// field, `iterations` included — what the same solve returns on a fresh
// thread, and solves spread over the pool must return what serial ones do,
// also when every lane solves the same CompiledModel, and a compiled system
// declares exactly the size model_size counts.
// The VC-occupancy chain, evaluated in two passes without storing the
// distribution, must equal eq (35) over the stored distribution bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "model/analytical_model.hpp"
#include "model/engine/vcmux.hpp"
#include "util/thread_pool.hpp"

namespace kncube::model {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every ModelResult field, `iterations` included, doubles as raw bits.
std::vector<std::uint64_t> model_result_words(const ModelResult& m) {
  return {bits(m.latency), m.saturated, m.converged,
          static_cast<std::uint64_t>(m.iterations), bits(m.regular_latency),
          bits(m.hot_latency), bits(m.regular_network_latency),
          bits(m.source_wait_regular), bits(m.vc_mux_x), bits(m.vc_mux_hot_y),
          bits(m.vc_mux_nonhot_y), bits(m.max_channel_utilization)};
}

ModelConfig hotspot_torus(int k) {
  ModelConfig cfg;  // a 2-D torus, h = 0.2, V = 2, Lm = 32
  cfg.k = k;
  return cfg;
}
ModelConfig hotspot_mesh() {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.k = 9;
  return cfg;
}
/// The inclusive basis is the only one whose systems declare reads, and it
/// takes the damped iteration and its polish.
ModelConfig inclusive_hypercube() {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kHypercube;
  cfg.k = 2;
  cfg.n = 6;
  cfg.busy_basis = ServiceBasis::kInclusive;
  return cfg;
}

struct Solve {
  ModelConfig cfg;
  double lambda;
};

/// A large, a small and a differently shaped system in turn, then the large
/// one again; each at a light and a heavy load and past saturation, so both
/// the converging and the saturating paths run on reused storage.
std::vector<Solve> mixed_solves() {
  const ModelConfig models[] = {hotspot_torus(32), hotspot_torus(8), hotspot_mesh(),
                                inclusive_hypercube(), hotspot_torus(32)};
  std::vector<Solve> solves;
  for (const ModelConfig& cfg : models) {
    const double sat = AnalyticalModel(cfg).estimated_saturation_rate();
    for (const double f : {0.2, 0.7, 3.0}) solves.push_back({cfg, f * sat});
  }
  return solves;
}

ModelResult solve(const Solve& s) { return AnalyticalModel(s.cfg).solve_at(s.lambda); }

TEST(StorageReuse, MixedSolvesOnOneThreadMatchFreshThreads) {
  const std::vector<Solve> solves = mixed_solves();
  int saturated = 0;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    SCOPED_TRACE(i);
    const ModelResult reused = solve(solves[i]);  // this thread, storage kept
    ModelResult fresh;
    std::thread([&] { fresh = solve(solves[i]); }).join();
    EXPECT_EQ(model_result_words(reused), model_result_words(fresh));
    saturated += reused.saturated ? 1 : 0;
  }
  // The list exercises both outcomes.
  EXPECT_GT(saturated, 0);
  EXPECT_LT(saturated, static_cast<int>(solves.size()));
}

TEST(StorageReuse, ConcurrentSolvesMatchSerial) {
  std::vector<Solve> solves;
  for (int round = 0; round < 4; ++round) {
    for (const Solve& s : mixed_solves()) solves.push_back(s);
  }
  std::vector<ModelResult> serial;
  for (const Solve& s : solves) serial.push_back(solve(s));
  std::vector<ModelResult> parallel(solves.size());
  util::parallel_for(solves.size(), [&](std::size_t i) { parallel[i] = solve(solves[i]); });
  for (std::size_t i = 0; i < solves.size(); ++i) {
    EXPECT_EQ(model_result_words(parallel[i]), model_result_words(serial[i])) << i;
  }
}

/// Every family, the MMPP torus families and the damped (inclusive-basis)
/// path, each compiled once.
std::vector<ModelConfig> every_family() {
  ModelConfig uniform_torus = hotspot_torus(16);
  uniform_torus.hot_fraction = std::nullopt;
  ModelConfig mmpp_hotspot = hotspot_torus(8);
  mmpp_hotspot.mmpp = MmppArrivalShape{};
  ModelConfig mmpp_uniform = mmpp_hotspot;
  mmpp_uniform.hot_fraction = std::nullopt;
  ModelConfig uniform_mesh = hotspot_mesh();
  uniform_mesh.k = 6;
  uniform_mesh.n = 3;
  uniform_mesh.hot_fraction = std::nullopt;
  ModelConfig inclusive_torus = hotspot_torus(8);
  inclusive_torus.busy_basis = ServiceBasis::kInclusive;
  return {hotspot_torus(16), uniform_torus,  mmpp_hotspot,       mmpp_uniform,
          uniform_mesh,      hotspot_mesh(), inclusive_hypercube(), inclusive_torus};
}

TEST(CompiledModel, ConcurrentSolvesMatchSerialSolveAt) {
  // One compiled model per configuration, each solved at 16 rates from
  // light load to past saturation, all of them at once on the pool's lanes.
  struct Point {
    std::size_t model;
    double lambda;
  };
  const std::vector<ModelConfig> configs = every_family();
  std::vector<std::unique_ptr<const CompiledModel>> compiled;
  std::vector<Point> points;
  for (std::size_t m = 0; m < configs.size(); ++m) {
    const AnalyticalModel model(configs[m]);
    compiled.push_back(model.compile());
    for (int i = 1; i <= 16; ++i) {
      points.push_back({m, 0.1 * i * model.estimated_saturation_rate()});
    }
  }
  std::vector<ModelResult> concurrent(points.size());
  util::parallel_for(points.size(), [&](std::size_t i) {
    concurrent[i] = compiled[points[i].model]->solve(points[i].lambda);
  });
  int saturated = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ModelResult serial =
        AnalyticalModel(configs[points[i].model]).solve_at(points[i].lambda);
    EXPECT_EQ(model_result_words(concurrent[i]), model_result_words(serial))
        << "model " << points[i].model << " at " << points[i].lambda;
    saturated += serial.saturated ? 1 : 0;
  }
  EXPECT_GT(saturated, 0);
  EXPECT_LT(saturated, static_cast<int>(points.size()));
}

TEST(CompiledModel, DeclaresTheSizeUnsupportedReasonBounds) {
  // model_size counts without declaring; the compiled system is the count.
  std::vector<ModelConfig> configs = every_family();
  for (const int k : {2, 3, 4, 9, 32}) configs.push_back(hotspot_torus(k));
  for (const int k : {2, 3, 4, 7, 16}) {
    for (const int n : {1, 2, 3}) {
      ModelConfig mesh = hotspot_mesh();
      mesh.k = k;
      mesh.n = n;
      configs.push_back(mesh);
      mesh.hot_fraction = std::nullopt;
      configs.push_back(mesh);
    }
  }
  for (const int dims : {1, 2, 8}) {
    ModelConfig cube = inclusive_hypercube();
    cube.n = dims;
    configs.push_back(cube);
  }
  for (const ModelConfig& cfg : configs) {
    const AnalyticalModel model(cfg);
    SCOPED_TRACE(std::string(model.name()) + " k=" + std::to_string(cfg.k) +
                 " n=" + std::to_string(cfg.n));
    const std::unique_ptr<const CompiledModel> compiled = model.compile();
    const engine::ChannelClassSystem& sys = compiled->system();
    const ModelSize size = model_size(cfg);
    EXPECT_EQ(sys.class_count(), size.classes);
    EXPECT_EQ(sys.coefficient_count(), size.coefficients);
  }
}

/// Eq (35) over the stored distribution P_0..P_V.
double degree_from_distribution(double rate, double service, int vcs) {
  if (rate <= 0.0 || service <= 0.0) return 1.0;
  std::vector<double> p(static_cast<std::size_t>(vcs) + 1);
  vc_occupancy_distribution(rate, service, vcs, p.data());
  double num = 0.0;
  double den = 0.0;
  for (int v = 1; v <= vcs; ++v) {
    const double pv = p[static_cast<std::size_t>(v)];
    num += static_cast<double>(v) * static_cast<double>(v) * pv;
    den += static_cast<double>(v) * pv;
  }
  if (den <= 0.0) return 1.0;
  return num / den;
}

TEST(VcMuxChain, TwoPassDegreeEqualsTheStoredDistributionBitForBit) {
  // rho from 0 past 1: the grid, the neighbourhood of the 1 - 1e-9 clamp,
  // and rate * service well above 1.
  std::vector<double> rhos;
  for (int i = 0; i <= 1500; ++i) rhos.push_back(static_cast<double>(i) / 1000.0);
  const double clamp = 1.0 - 1e-9;
  for (const double rho : {clamp, std::nextafter(clamp, 0.0), std::nextafter(clamp, 2.0),
                           1.0 - 1e-12, 1.0, 2.0, 1e6}) {
    rhos.push_back(rho);
  }
  for (int vcs = 1; vcs <= 16; ++vcs) {
    for (const double service : {1.0, 3.0, 47.5}) {
      for (const double rho : rhos) {
        const double rate = rho / service;
        const double got = vc_multiplexing_degree(rate, service, vcs);
        const double want = degree_from_distribution(rate, service, vcs);
        ASSERT_EQ(bits(got), bits(want))
            << "V=" << vcs << " rate=" << rate << " service=" << service;
      }
    }
  }
}

}  // namespace
}  // namespace kncube::model
