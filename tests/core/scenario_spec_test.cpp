// ScenarioSpec v2: text round-trip (property test over randomized specs),
// canonical key() sanity, validation, --set semantics, to_sim_config
// forwarding, and registry dispatch across every (topology, traffic) pair
// including the sim-only ones.
#include "core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/model_registry.hpp"

namespace kncube::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A random valid spec exercising every variant alternative and irrational
/// doubles (so the round-trip test covers full-precision formatting).
ScenarioSpec random_spec(std::mt19937_64& rng) {
  ScenarioSpec s;
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  switch (rng() % 3) {
    case 0: {
      TorusTopology t;
      t.k = 2 + static_cast<int>(rng() % 30);
      t.n = 1 + static_cast<int>(rng() % 4);
      t.bidirectional = rng() % 2 == 0;
      s.topology = t;
      break;
    }
    case 1:
      s.topology = TorusTopology{16, 2, false};
      break;
    default:
      s.topology = HypercubeTopology{1 + static_cast<int>(rng() % 8)};
      break;
  }
  switch (rng() % 5) {
    case 0:
      s.traffic = HotspotTraffic{unit(rng), rng() % 2 == 0
                                                ? std::int64_t{-1}
                                                : static_cast<std::int64_t>(rng() % 4)};
      break;
    case 1:
      s.traffic = UniformTraffic{};
      break;
    case 2:
      s.traffic = TransposeTraffic{};
      break;
    case 3:
      s.traffic = BitComplementTraffic{};
      break;
    default:
      s.traffic = BitReversalTraffic{};
      break;
  }
  if (rng() % 2 == 0) {
    s.arrivals = MmppArrivals{1.0 + 9.0 * unit(rng), 1e-4 + unit(rng) * 0.9,
                              1e-4 + unit(rng) * 0.9};
  }
  s.vcs = 1 + static_cast<int>(rng() % 6);
  s.buffer_depth = 1 + static_cast<int>(rng() % 8);
  s.message_length = 1 + static_cast<int>(rng() % 200);
  s.seed = rng();
  s.warmup_cycles = rng() % 100000;
  s.target_messages = 1 + rng() % 10000;
  s.max_cycles = s.warmup_cycles + 1 + rng() % 1000000;
  s.blocking = rng() % 2 == 0 ? model::BlockingVariant::kPaper
                              : model::BlockingVariant::kPureWait;
  s.busy_basis = rng() % 2 == 0 ? model::ServiceBasis::kTransmission
                                : model::ServiceBasis::kInclusive;
  s.vcmux_basis = rng() % 2 == 0 ? model::ServiceBasis::kTransmission
                                 : model::ServiceBasis::kInclusive;
  s.sim_threads = static_cast<int>(rng() % 5);  // 0 = hardware concurrency
  return s;
}

void expect_specs_equal(const ScenarioSpec& a, const ScenarioSpec& b) {
  // The canonical text form covers every field with round-trip-exact double
  // formatting, so text equality is field-for-field equality; spot-check the
  // double fields bitwise on top.
  EXPECT_EQ(format_scenario(a), format_scenario(b));
  EXPECT_EQ(a.key(), b.key());
  if (a.is_hotspot() && b.is_hotspot()) {
    EXPECT_EQ(bits(a.hotspot().fraction), bits(b.hotspot().fraction));
    EXPECT_EQ(a.hotspot().hot_node, b.hotspot().hot_node);
  }
  if (a.is_mmpp() && b.is_mmpp()) {
    EXPECT_EQ(bits(a.mmpp().burst_multiplier), bits(b.mmpp().burst_multiplier));
    EXPECT_EQ(bits(a.mmpp().p_enter_burst), bits(b.mmpp().p_enter_burst));
    EXPECT_EQ(bits(a.mmpp().p_leave_burst), bits(b.mmpp().p_leave_burst));
  }
}

TEST(ScenarioSpec, ParseFormatRoundTripsRandomizedSpecs) {
  std::mt19937_64 rng(0xBEEF);
  for (int i = 0; i < 500; ++i) {
    const ScenarioSpec s = random_spec(rng);
    ScenarioSpec parsed;
    ASSERT_NO_THROW(parsed = parse_scenario(format_scenario(s))) << format_scenario(s);
    expect_specs_equal(s, parsed);
  }
}

TEST(ScenarioSpec, KeyIsStableAndCollisionFreeAcrossDistinctSpecs) {
  // key() must be deterministic and must separate every distinct spec in a
  // sizable randomized sample (the canonical text is injective; a collision
  // would be an FNV accident — vanishingly unlikely and worth failing on).
  std::mt19937_64 rng(0xF00D);
  std::set<std::string> texts;
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const ScenarioSpec s = random_spec(rng);
    EXPECT_EQ(s.key(), s.key());
    texts.insert(format_scenario(s));
    keys.insert(s.key());
  }
  EXPECT_EQ(texts.size(), keys.size());

  // A single-field flip must change the key.
  ScenarioSpec a;
  ScenarioSpec b;
  b.hotspot().fraction = 0.2000000001;
  EXPECT_NE(a.key(), b.key());
}

TEST(ScenarioSpec, KeyIgnoresExecutionKnobsButTextRoundTripsThem) {
  // sim.threads is an execution knob: results are bit-identical for every
  // value, so the cache/seed key must not move (replication seed streams and
  // SweepEngine memo entries stay valid when a user turns on sharding) —
  // while the canonical text still round-trips the field.
  std::mt19937_64 rng(0x7113EAD5);
  for (int i = 0; i < 50; ++i) {
    ScenarioSpec s = random_spec(rng);
    const std::uint64_t base_key = s.key();
    for (const int threads : {0, 1, 2, 8}) {
      s.sim_threads = threads;
      EXPECT_EQ(s.key(), base_key) << "sim_threads=" << threads;
      const ScenarioSpec parsed = parse_scenario(format_scenario(s));
      EXPECT_EQ(parsed.sim_threads, threads);
    }
  }

  // --set drives it like any other knob; negatives fail validation.
  ScenarioSpec s;
  apply_scenario_setting(s, "sim.threads", "6");
  EXPECT_EQ(s.sim_threads, 6);
  EXPECT_NO_THROW(s.validate());
  s.sim_threads = -1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_scenario("no equals sign"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("unknown.key=1"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("topology.kind=klein_bottle"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("topology.k=abc"), std::invalid_argument);
  // Out-of-int-range values fail instead of silently wrapping.
  EXPECT_THROW(parse_scenario("topology.k=4294967298"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("measure.seed=-3"), std::invalid_argument);
  // Parameters of an inactive variant alternative are rejected.
  EXPECT_THROW(parse_scenario("topology.kind=hypercube\ntopology.k=8"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("traffic.kind=uniform\ntraffic.hot_fraction=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("arrivals.p_enter_burst=0.1"), std::invalid_argument);
}

TEST(ScenarioSpec, ParseAcceptsCommentsAndBlankLines) {
  const ScenarioSpec s = parse_scenario(
      "# a comment\n\n  topology.kind = hypercube \n topology.dims=4\n");
  ASSERT_TRUE(s.is_hypercube());
  EXPECT_EQ(s.hypercube().dims, 4);
}

TEST(ScenarioSpec, ApplySettingSwitchesVariantsAndPreservesReselection) {
  ScenarioSpec s;
  apply_scenario_setting(s, "traffic.hot_fraction", "0.5");
  // Re-selecting the active kind keeps its parameters...
  apply_scenario_setting(s, "traffic.kind", "hotspot");
  EXPECT_DOUBLE_EQ(s.hotspot().fraction, 0.5);
  // ...switching away and back resets them to defaults.
  apply_scenario_setting(s, "traffic.kind", "uniform");
  apply_scenario_setting(s, "traffic.kind", "hotspot");
  EXPECT_DOUBLE_EQ(s.hotspot().fraction, 0.2);
}

TEST(ScenarioSpec, ValidateRejectsInconsistentCombinations) {
  {
    ScenarioSpec s;
    s.torus().k = 1;
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec s;
    s.vcs = 1;  // unidirectional torus with k > 2 can deadlock
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec s;
    s.topology = HypercubeTopology{4};
    s.traffic = TransposeTraffic{};  // transpose needs a 2-D torus
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec s;
    s.torus() = TorusTopology{3, 2, false};  // N = 9: odd and not a power of two
    s.traffic = BitComplementTraffic{};
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.traffic = BitReversalTraffic{};
    EXPECT_THROW(s.validate(), std::invalid_argument);
  }
  {
    ScenarioSpec s;
    s.hotspot().hot_node = 16 * 16;  // one past the last node
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.hotspot().hot_node = 16 * 16 - 1;
    EXPECT_NO_THROW(s.validate());
  }
  {
    ScenarioSpec s;
    s.arrivals = MmppArrivals{0.5, 0.001, 0.002};  // multiplier < 1
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.arrivals = MmppArrivals{4.0, 0.0, 0.002};  // p_enter out of (0,1]
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.arrivals = MmppArrivals{4.0, 0.001, 1.5};  // p_leave out of (0,1]
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.arrivals = MmppArrivals{4.0, 0.001, 0.002};  // mult*pi_burst = 4/3 > 1
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.arrivals = MmppArrivals{4.0, 0.001, 0.004};  // pi_burst = 0.2: achievable
    EXPECT_NO_THROW(s.validate());
  }
}

TEST(ScenarioSpec, ToSimConfigForwardsEveryField) {
  ScenarioSpec s;
  s.topology = TorusTopology{8, 3, true};
  s.traffic = HotspotTraffic{0.35, 17};
  s.arrivals = MmppArrivals{6.0, 0.001, 0.004};
  s.vcs = 3;
  s.buffer_depth = 4;
  s.message_length = 24;
  s.seed = 42;
  s.warmup_cycles = 111;
  s.target_messages = 222;
  s.max_cycles = 333333;
  s.sim_threads = 4;
  const sim::SimConfig cfg = to_sim_config(s, 2.5e-4);
  EXPECT_EQ(cfg.k, 8);
  EXPECT_EQ(cfg.n, 3);
  EXPECT_TRUE(cfg.bidirectional);
  EXPECT_EQ(cfg.pattern, sim::Pattern::kHotspot);
  EXPECT_DOUBLE_EQ(cfg.hot_fraction, 0.35);
  EXPECT_EQ(cfg.hot_node, 17);
  EXPECT_EQ(cfg.arrivals, sim::Arrivals::kMmpp);
  EXPECT_DOUBLE_EQ(cfg.mmpp.burst_rate_multiplier, 6.0);
  EXPECT_DOUBLE_EQ(cfg.mmpp.p_enter_burst, 0.001);
  EXPECT_DOUBLE_EQ(cfg.mmpp.p_leave_burst, 0.004);
  EXPECT_EQ(cfg.vcs, 3);
  EXPECT_EQ(cfg.buffer_depth, 4);
  EXPECT_EQ(cfg.message_length, 24);
  EXPECT_DOUBLE_EQ(cfg.injection_rate, 2.5e-4);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.warmup_cycles, 111u);
  EXPECT_EQ(cfg.target_messages, 222u);
  EXPECT_EQ(cfg.max_cycles, 333333u);
  EXPECT_EQ(cfg.sim_threads, 4);
  EXPECT_NO_THROW(cfg.validate());

  // Hypercube topology maps to the k = 2 n-cube simulator.
  ScenarioSpec cube;
  cube.topology = HypercubeTopology{5};
  const sim::SimConfig cube_cfg = to_sim_config(cube, 1e-4);
  EXPECT_EQ(cube_cfg.k, 2);
  EXPECT_EQ(cube_cfg.n, 5);
  EXPECT_FALSE(cube_cfg.bidirectional);
  EXPECT_NO_THROW(cube_cfg.validate());
}

// ---------------------------------------------------------------------------
// Registry dispatch: every (topology, traffic) pair.
// ---------------------------------------------------------------------------

struct DispatchCase {
  const char* name;
  ScenarioSpec spec;
  const char* model_name;  ///< nullptr = sim-only
  const char* reason;      ///< the exact sim-only reason (nullptr = modeled)
};

// The user-visible sim-only reasons, one cause each.
constexpr const char* kFaultReason =
    "fault-aware analytical model not yet implemented";
constexpr const char* kBidirectionalReason =
    "analytical models assume unidirectional links";
constexpr const char* kPatternReason =
    "no analytical counterpart for this traffic pattern";
constexpr const char* kOffCentreReason =
    "mesh hot-spot model covers the centre hot node only (off-centre load is "
    "per-channel with no class symmetry)";
constexpr const char* kTorusDimsReason = "analytical torus models are 2-D (n == 2)";
constexpr const char* kMmppReason =
    "bursty-arrival model covers the torus families only (mesh and hypercube "
    "models assume Bernoulli arrivals)";
constexpr const char* kUniformTorusKnobReason =
    "uniform-torus model has no blocking/basis ablation variants";
constexpr const char* kHypercubeKnobReason =
    "hypercube model has no blocking-form ablation variant";

std::vector<DispatchCase> dispatch_cases() {
  std::vector<DispatchCase> cases;
  auto torus = [](Traffic traffic) {
    ScenarioSpec s;
    s.traffic = std::move(traffic);
    return s;
  };
  auto cube = [](Traffic traffic) {
    ScenarioSpec s;
    s.topology = HypercubeTopology{5};
    s.traffic = std::move(traffic);
    return s;
  };
  auto mesh = [](Traffic traffic) {
    ScenarioSpec s;
    s.topology = MeshTopology{8, 2};
    s.traffic = std::move(traffic);
    return s;
  };
  auto with = [](ScenarioSpec s, auto&& edit) {
    edit(s);
    return s;
  };
  cases.push_back({"torus_hotspot", torus(HotspotTraffic{}), "hotspot-torus", nullptr});
  cases.push_back({"torus_uniform", torus(UniformTraffic{}), "uniform-torus", nullptr});
  cases.push_back(
      {"torus_transpose", torus(TransposeTraffic{}), nullptr, kPatternReason});
  cases.push_back(
      {"torus_bit_complement", torus(BitComplementTraffic{}), nullptr, kPatternReason});
  cases.push_back(
      {"torus_bit_reversal", torus(BitReversalTraffic{}), nullptr, kPatternReason});
  cases.push_back({"cube_hotspot", cube(HotspotTraffic{}), "hotspot-hypercube", nullptr});
  cases.push_back({"cube_uniform", cube(UniformTraffic{}), "hotspot-hypercube", nullptr});
  cases.push_back(
      {"cube_bit_complement", cube(BitComplementTraffic{}), nullptr, kPatternReason});
  cases.push_back(
      {"cube_bit_reversal", cube(BitReversalTraffic{}), nullptr, kPatternReason});
  cases.push_back({"mesh_transpose", mesh(TransposeTraffic{}), nullptr, kPatternReason});

  cases.push_back({"torus_bidirectional_hotspot",
                   with(torus(HotspotTraffic{}),
                        [](ScenarioSpec& s) { s.torus().bidirectional = true; }),
                   nullptr, kBidirectionalReason});
  cases.push_back({"torus_3d_hotspot",
                   with(torus(HotspotTraffic{}),
                        [](ScenarioSpec& s) { s.torus() = TorusTopology{8, 3, false}; }),
                   nullptr, kTorusDimsReason});
  cases.push_back({"torus_3d_uniform",
                   with(torus(UniformTraffic{}),
                        [](ScenarioSpec& s) { s.torus() = TorusTopology{4, 3, false}; }),
                   nullptr, kTorusDimsReason});
  cases.push_back({"torus_hotspot_faulty",
                   with(torus(HotspotTraffic{}),
                        [](ScenarioSpec& s) { s.failures.routers = {1}; }),
                   nullptr, kFaultReason});
  cases.push_back({"mesh_uniform_faulty",
                   with(mesh(UniformTraffic{}),
                        [](ScenarioSpec& s) { s.failures.random_rate = 0.05; }),
                   nullptr, kFaultReason});

  // MMPP arrivals: modeled on the torus families via the bursty service
  // stage, sim-only elsewhere (no arrival-IDC threading in those builders).
  const auto mmpp = [](ScenarioSpec& s) { s.arrivals = MmppArrivals{}; };
  cases.push_back({"torus_hotspot_mmpp", with(torus(HotspotTraffic{}), mmpp),
                   "mmpp-hotspot-torus", nullptr});
  cases.push_back({"torus_uniform_mmpp", with(torus(UniformTraffic{}), mmpp),
                   "mmpp-uniform-torus", nullptr});
  cases.push_back(
      {"cube_hotspot_mmpp", with(cube(HotspotTraffic{}), mmpp), nullptr, kMmppReason});
  cases.push_back(
      {"cube_uniform_mmpp", with(cube(UniformTraffic{}), mmpp), nullptr, kMmppReason});
  cases.push_back(
      {"mesh_uniform_mmpp", with(mesh(UniformTraffic{}), mmpp), nullptr, kMmppReason});
  cases.push_back({"mesh_hotspot_centre_mmpp",
                   with(mesh(HotspotTraffic{0.2, -1}), mmpp), nullptr, kMmppReason});

  // Mesh hot-spots: the centre (default) hot node is modeled; an off-centre
  // hot node breaks the class symmetry and stays sim-only.
  cases.push_back({"mesh_hotspot_centre", mesh(HotspotTraffic{0.2, -1}),
                   "hotspot-mesh", nullptr});
  // Node 36 = (4, 4) is the resolved centre of the 8x8 mesh; naming it
  // explicitly must dispatch identically to -1.
  cases.push_back({"mesh_hotspot_centre_explicit", mesh(HotspotTraffic{0.2, 36}),
                   "hotspot-mesh", nullptr});
  cases.push_back(
      {"mesh_hotspot_corner", mesh(HotspotTraffic{0.2, 0}), nullptr, kOffCentreReason});

  // Ablation knobs a family cannot represent dispatch sim-only rather than
  // silently running the default approximation; the hot-spot torus model
  // supports all of them.
  cases.push_back({"torus_uniform_inclusive_basis",
                   with(torus(UniformTraffic{}),
                        [](ScenarioSpec& s) {
                          s.busy_basis = model::ServiceBasis::kInclusive;
                        }),
                   nullptr, kUniformTorusKnobReason});
  cases.push_back({"torus_uniform_pure_wait",
                   with(torus(UniformTraffic{}),
                        [](ScenarioSpec& s) {
                          s.blocking = model::BlockingVariant::kPureWait;
                        }),
                   nullptr, kUniformTorusKnobReason});
  cases.push_back({"cube_hotspot_pure_wait",
                   with(cube(HotspotTraffic{}),
                        [](ScenarioSpec& s) {
                          s.blocking = model::BlockingVariant::kPureWait;
                        }),
                   nullptr, kHypercubeKnobReason});
  cases.push_back({"torus_hotspot_all_knobs",
                   with(torus(HotspotTraffic{}),
                        [](ScenarioSpec& s) {
                          s.blocking = model::BlockingVariant::kPureWait;
                          s.busy_basis = model::ServiceBasis::kInclusive;
                          s.vcmux_basis = model::ServiceBasis::kInclusive;
                        }),
                   "hotspot-torus", nullptr});
  return cases;
}

TEST(ModelRegistry, DispatchesEveryTopologyTrafficPair) {
  for (const auto& c : dispatch_cases()) {
    const ModelDispatch d = make_analytical_model(c.spec);
    if (c.model_name != nullptr) {
      ASSERT_TRUE(d.has_model()) << c.name << ": " << d.sim_only_reason;
      EXPECT_STREQ(d.model->name(), c.model_name) << c.name;
      EXPECT_TRUE(d.sim_only_reason.empty()) << c.name;
    } else {
      EXPECT_FALSE(d.has_model()) << c.name;
      EXPECT_EQ(d.sim_only_reason, c.reason) << c.name;
    }
  }
  // Invalid specs throw out of dispatch rather than mis-routing.
  ScenarioSpec invalid;
  invalid.topology = HypercubeTopology{4};
  invalid.traffic = TransposeTraffic{};
  EXPECT_THROW(make_analytical_model(invalid), std::invalid_argument);
}

TEST(ModelRegistry, HypercubeUniformIsTheZeroHotFractionModel) {
  ScenarioSpec uniform;
  uniform.topology = HypercubeTopology{6};
  uniform.traffic = UniformTraffic{};
  const ModelDispatch d = make_analytical_model(uniform);
  ASSERT_TRUE(d.has_model());

  ScenarioSpec zero_h = uniform;
  zero_h.traffic = HotspotTraffic{0.0, -1};
  const ModelDispatch hot = make_analytical_model(zero_h);
  ASSERT_TRUE(hot.has_model());
  for (double rate : {1e-4, 2e-3}) {
    EXPECT_EQ(bits(d.model->solve_at(rate).latency),
              bits(hot.model->solve_at(rate).latency))
        << rate;
  }
}

}  // namespace
}  // namespace kncube::core
