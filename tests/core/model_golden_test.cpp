// Recorded bitwise golden for the analytical model answers, through the
// registry and SweepEngine.
//
// For every model family (hot-spot and uniform torus, uniform and hot-spot
// mesh, hypercube, MMPP torus), in the default configuration and in each
// ablation variant the family accepts (`model.busy_basis=inclusive`,
// `model.blocking=pure_wait`), each case pins
//   - the saturation search: rate bits, probe count and `failed`;
//   - one FNV-1a hash over every ModelResult field except `iterations`, for
//     an ascending series of SweepEngine::model_point calls made after the
//     engine's saturation search, and for direct solve_at calls, at 40
//     rates from 0.02 to 1.2 x saturation;
//   - that the engine's answer at each rate equals solve_at's, field by
//     field: a memoized answer depends only on (spec, rate), never on which
//     rates were solved before it.
// `iterations` is excluded on purpose: it describes how the solver got
// there (damping, fallbacks), not the answer. Every other bit is a property
// of the model and must survive any change to the solver.
//
// To regenerate after an *intentional* change to the model's equations:
//   KNCUBE_PRINT_GOLDEN=1 ./core_tests --gtest_filter='ModelGolden.*'
// and paste the printed table.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "core/sweep_engine.hpp"

namespace kncube::core {
namespace {

using model::BlockingVariant;
using model::ServiceBasis;

enum class Variant { kDefault, kInclusive, kPureWait };

struct GoldenCase {
  const char* family;
  int size;  ///< k (torus, mesh) or dims (hypercube)
  Variant variant;
  std::uint64_t saturation_bits;
  int probes;
  bool failed;
  std::uint64_t answers;  ///< FNV-1a over the engine's and solve_at's answers
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kDefault: return "Variant::kDefault";
    case Variant::kInclusive: return "Variant::kInclusive";
    case Variant::kPureWait: return "Variant::kPureWait";
  }
  return "?";
}

ScenarioSpec make_spec(const GoldenCase& c) {
  const std::string family = c.family;
  ScenarioSpec spec;
  spec.vcs = 2;
  spec.message_length = 32;
  if (family == "hotspot-torus" || family == "uniform-torus" ||
      family == "mmpp-hotspot-torus" || family == "mmpp-uniform-torus") {
    spec.topology = TorusTopology{c.size, 2, false};
  } else if (family == "uniform-mesh" || family == "hotspot-mesh") {
    spec.topology = MeshTopology{c.size, 2};
  } else if (family == "uniform-mesh-3d" || family == "hotspot-mesh-3d") {
    spec.topology = MeshTopology{c.size, 3};
  } else {
    spec.topology = HypercubeTopology{c.size};
  }
  if (family.find("uniform") != std::string::npos) {
    spec.traffic = UniformTraffic{};
  } else {
    spec.traffic = HotspotTraffic{0.2, -1};
  }
  if (family.rfind("mmpp", 0) == 0) spec.arrivals = MmppArrivals{};
  if (c.variant == Variant::kInclusive) spec.busy_basis = ServiceBasis::kInclusive;
  if (c.variant == Variant::kPureWait) spec.blocking = BlockingVariant::kPureWait;
  return spec;
}

struct Observed {
  SaturationResult saturation;
  std::uint64_t answers = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every ModelResult field but `iterations`, doubles as raw bits.
std::vector<std::uint64_t> answer_words(const model::ModelResult& m) {
  return {bits(m.latency), std::uint64_t{m.saturated}, std::uint64_t{m.converged},
          bits(m.regular_latency), bits(m.hot_latency),
          bits(m.regular_network_latency), bits(m.source_wait_regular),
          bits(m.vc_mux_x), bits(m.vc_mux_hot_y), bits(m.vc_mux_nonhot_y),
          bits(m.max_channel_utilization)};
}

Observed observe(const ScenarioSpec& spec) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_result = [&h](const model::ModelResult& m) {
    for (const std::uint64_t w : answer_words(m)) {
      h ^= w;
      h *= 0x100000001b3ULL;
    }
  };

  SweepEngine engine(spec);
  Observed out;
  out.saturation = engine.saturation_rate();
  constexpr int kRates = 40;
  std::vector<double> rates;
  for (int i = 0; i < kRates; ++i) {
    const double f = 0.02 + (1.2 - 0.02) * static_cast<double>(i) / (kRates - 1);
    rates.push_back(f * out.saturation.rate);
  }
  std::vector<model::ModelResult> memoized;
  for (const double rate : rates) {
    memoized.push_back(engine.model_point(rate));
    mix_result(memoized.back());
  }
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const model::ModelResult direct = engine.analytical_model().solve_at(rates[i]);
    mix_result(direct);
    EXPECT_EQ(answer_words(memoized[i]), answer_words(direct)) << "rate index " << i;
  }
  out.answers = h;
  return out;
}

// clang-format off
const GoldenCase kCases[] = {
    {"hotspot-torus", 4, Variant::kDefault, 0x3f81282828282827ULL, 12, false, 0x00038b8dd6fb0a8dULL},
    {"hotspot-torus", 4, Variant::kInclusive, 0x3f81176cc2176cc1ULL, 12, false, 0x96d22c83a24092c5ULL},
    {"hotspot-torus", 4, Variant::kPureWait, 0x3f810f0f0f0f0f0eULL, 12, false, 0xfd0ecb9fa2146e95ULL},
    {"hotspot-torus", 8, Variant::kDefault, 0x3f61db6db6db6db7ULL, 12, false, 0x953b6e17599a5c3dULL},
    {"hotspot-torus", 8, Variant::kInclusive, 0x3f61d75d75d75d76ULL, 12, false, 0x40384c659ba9dfa1ULL},
    {"hotspot-torus", 8, Variant::kPureWait, 0x3f61d75d75d75d76ULL, 12, false, 0x0f29b81853a17d05ULL},
    {"hotspot-torus", 16, Variant::kDefault, 0x3f427d27d27d27d2ULL, 12, false, 0x10e1f606e9819b45ULL},
    {"hotspot-torus", 16, Variant::kInclusive, 0x3f427d27d27d27d2ULL, 12, false, 0x13a22f52a0fe6d6dULL},
    {"hotspot-torus", 16, Variant::kPureWait, 0x3f427d27d27d27d2ULL, 12, false, 0x6bf877c32d45c415ULL},
    {"hotspot-torus", 32, Variant::kDefault, 0x3f22e64117cd7ae6ULL, 12, false, 0xb6fabdf6435d3585ULL},
    {"hotspot-torus", 32, Variant::kInclusive, 0x3f22e64117cd7ae6ULL, 12, false, 0xdb8dd8a52c9c0261ULL},
    {"hotspot-torus", 32, Variant::kPureWait, 0x3f22e64117cd7ae6ULL, 12, false, 0x232c9ba1f28cc705ULL},
    {"uniform-torus", 4, Variant::kDefault, 0x3f8d5f3a2027932aULL, 12, false, 0x72be0864fcda535dULL},
    {"uniform-torus", 16, Variant::kDefault, 0x3f62cc6ed7719822ULL, 12, false, 0x02b49b65ba4bb7adULL},
    {"uniform-torus", 32, Variant::kDefault, 0x3f4b2f80195e67feULL, 12, false, 0xf19e6bf9b8a80cd1ULL},
    {"uniform-mesh", 4, Variant::kDefault, 0x3f95caaaaaaaaaabULL, 12, false, 0x657dfb971a2ec055ULL},
    {"uniform-mesh", 4, Variant::kInclusive, 0x3f942e38e38e38e3ULL, 12, false, 0xfd18757e6cdc8b31ULL},
    {"uniform-mesh", 4, Variant::kPureWait, 0x3f940aaaaaaaaaabULL, 12, false, 0xa55121d0222e4a65ULL},
    {"uniform-mesh", 16, Variant::kDefault, 0x3f74de1d02be87a6ULL, 12, false, 0xaa72609438c1af55ULL},
    {"uniform-mesh", 16, Variant::kInclusive, 0x3f739616bcf632f7ULL, 12, false, 0x35f02327283fe155ULL},
    {"uniform-mesh", 16, Variant::kPureWait, 0x3f738677f6975381ULL, 12, false, 0x2460856fc238fff1ULL},
    {"uniform-mesh-3d", 4, Variant::kDefault, 0x3f94c53333333332ULL, 12, false, 0x47c0a6a6daa40645ULL},
    {"hotspot-mesh", 5, Variant::kDefault, 0x3f849aaaaaaaaaaaULL, 12, false, 0xe7ea1bbff8db4cd1ULL},
    {"hotspot-mesh", 5, Variant::kInclusive, 0x3f848aaaaaaaaaaaULL, 12, false, 0xf3e2662d1ea61ec5ULL},
    {"hotspot-mesh", 5, Variant::kPureWait, 0x3f84880000000000ULL, 12, false, 0xa66ee22c0dc5d571ULL},
    {"hotspot-mesh", 16, Variant::kDefault, 0x3f5186ef0d6139faULL, 11, false, 0x85a12e6a7b7988c1ULL},
    {"hotspot-mesh", 16, Variant::kInclusive, 0x3f5186ef0d6139faULL, 11, false, 0xcd49e2e996179215ULL},
    {"hotspot-mesh", 16, Variant::kPureWait, 0x3f5186ef0d6139faULL, 11, false, 0x61f0b0850d4c69adULL},
    {"hotspot-mesh-3d", 4, Variant::kDefault, 0x3f71a00ad1207362ULL, 11, false, 0xa2c7ac42cab6db19ULL},
    {"hotspot-hypercube", 4, Variant::kDefault, 0x3f8ee0f83e0f83e2ULL, 11, false, 0x368f84bf404b47b5ULL},
    {"hotspot-hypercube", 4, Variant::kInclusive, 0x3f8ed1745d1745d2ULL, 11, false, 0xaa4e3e69887a3ba5ULL},
    {"hotspot-hypercube", 8, Variant::kDefault, 0x3f53a7aed804c61eULL, 12, false, 0x0b60ef388ce80495ULL},
    {"hotspot-hypercube", 8, Variant::kInclusive, 0x3f53a7aed804c61eULL, 12, false, 0x82fde31baebd99e5ULL},
    {"uniform-hypercube", 6, Variant::kDefault, 0x3f9ff83e0f83e0f8ULL, 12, false, 0xc57ac863023e5969ULL},
    {"uniform-hypercube", 6, Variant::kInclusive, 0x3f9cb26c9b26c9b4ULL, 13, false, 0xe26f819dc273e999ULL},
    {"mmpp-hotspot-torus", 8, Variant::kDefault, 0x3f6165965965965aULL, 12, false, 0x2a51899477496945ULL},
    {"mmpp-hotspot-torus", 8, Variant::kInclusive, 0x3f6130c30c30c30bULL, 12, false, 0x6491ef4f6ba62279ULL},
    {"mmpp-hotspot-torus", 8, Variant::kPureWait, 0x3f61249249249248ULL, 12, false, 0x16ce89b013e8ebcdULL},
    {"mmpp-hotspot-torus", 16, Variant::kDefault, 0x3f42759203cae758ULL, 12, false, 0xb7fb03783f978935ULL},
    {"mmpp-uniform-torus", 16, Variant::kDefault, 0x3f5cf8d7cf8d7cfaULL, 12, false, 0x02f081cb105d8775ULL},
};
// clang-format on

TEST(ModelGolden, SaturationAndAnswersAreBitIdentical) {
  const bool print = std::getenv("KNCUBE_PRINT_GOLDEN") != nullptr;
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(std::string(c.family) + " " + std::to_string(c.size) + " " +
                 variant_name(c.variant));
    const Observed got = observe(make_spec(c));
    if (print) {
      std::printf("    {\"%s\", %d, %s, 0x%016llxULL, %d, %s, 0x%016llxULL},\n",
                  c.family, c.size, variant_name(c.variant),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(got.saturation.rate)),
                  got.saturation.probes, got.saturation.failed ? "true" : "false",
                  static_cast<unsigned long long>(got.answers));
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.saturation.rate), c.saturation_bits);
    EXPECT_EQ(got.saturation.probes, c.probes);
    EXPECT_EQ(got.saturation.failed, c.failed);
    EXPECT_EQ(got.answers, c.answers);
  }
}

}  // namespace
}  // namespace kncube::core
