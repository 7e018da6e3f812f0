// Error-path coverage for the ScenarioSpec text language and validate():
// the round-trip property test (scenario_spec_test.cpp) pins the happy
// path; these pin that malformed keys, malformed and out-of-range values,
// inactive-variant parameters and inconsistent topology/traffic
// combinations all throw std::invalid_argument instead of slipping through
// to the simulator as silently-wrong configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/scenario_spec.hpp"

namespace kncube::core {
namespace {

void expect_throws(const std::string& key, const std::string& value,
                   ScenarioSpec spec = {}) {
  EXPECT_THROW(apply_scenario_setting(spec, key, value), std::invalid_argument)
      << key << "=" << value;
}

TEST(ScenarioErrors, UnknownAndMalformedKeys) {
  expect_throws("nonsense", "1");
  expect_throws("topology", "torus");        // missing the .kind leaf
  expect_throws("topology.radix", "8");      // no such parameter
  expect_throws("Topology.k", "8");          // keys are case-sensitive
  expect_throws("router.vcs ", "2");         // apply takes exact keys
  EXPECT_THROW(parse_scenario("topology.kind"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("just some text\n"), std::invalid_argument);
}

TEST(ScenarioErrors, MalformedValues) {
  expect_throws("topology.k", "eight");
  expect_throws("topology.k", "8x");         // trailing garbage
  expect_throws("topology.k", "");
  expect_throws("topology.bidirectional", "maybe");
  expect_throws("traffic.hot_fraction", "20%");
  expect_throws("measure.seed", "-1");       // seeds are unsigned
  expect_throws("measure.seed", "0x10");     // decimal only
  expect_throws("model.blocking", "both");
  expect_throws("model.busy_basis", "Transmission");
  expect_throws("topology.kind", "ring");
  expect_throws("traffic.kind", "bitreversal");
  expect_throws("arrivals.kind", "poisson");
}

TEST(ScenarioErrors, NonFiniteDoublesFailParseAndValidate) {
  // Range checks written as `x < lo || x > hi` are false for NaN: a NaN hot
  // fraction or burst multiplier used to pass validate() and abort the
  // process inside the model or simulator; a NaN fault rate simulated a
  // pristine network. Every double key rejects non-finite text with its
  // line number, and validate() rejects non-finite struct values.
  ScenarioSpec mmpp;
  mmpp.arrivals = MmppArrivals{};
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999"}) {
    expect_throws("traffic.hot_fraction", bad);
    expect_throws("arrivals.burst_multiplier", bad, mmpp);
    expect_throws("arrivals.p_enter_burst", bad, mmpp);
    expect_throws("arrivals.p_leave_burst", bad, mmpp);
    expect_throws("fault.rate", bad);
  }
  try {
    parse_scenario("topology.kind=torus\ntraffic.hot_fraction=nan\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    ScenarioSpec hot;
    hot.hotspot().fraction = bad;
    EXPECT_THROW(hot.validate(), std::invalid_argument) << bad;
    for (int field = 0; field < 3; ++field) {
      ScenarioSpec bursty = mmpp;
      (field == 0   ? bursty.mmpp().burst_multiplier
       : field == 1 ? bursty.mmpp().p_enter_burst
                    : bursty.mmpp().p_leave_burst) = bad;
      EXPECT_THROW(bursty.validate(), std::invalid_argument) << bad << " " << field;
    }
    ScenarioSpec faulty;
    faulty.failures.random_rate = bad;
    EXPECT_THROW(faulty.validate(), std::invalid_argument) << bad;
  }
}

TEST(ScenarioErrors, OutOfRangeIntegers) {
  // Values beyond int32 must fail the parse, not wrap silently.
  const std::string big = std::to_string(
      static_cast<long long>(std::numeric_limits<int>::max()) + 1);
  expect_throws("topology.k", big);
  expect_throws("router.vcs", big);
  expect_throws("workload.message_length",
                "999999999999999999999999999999");  // overflows long long too
}

TEST(ScenarioErrors, OverflowingNumbersFailInsteadOfClamping) {
  // strtoull saturates at 2^64 - 1 and strtod underflows to 0, both saying
  // so only through errno: a seed of 2^64 used to read as 2^64 - 1 and a
  // hot fraction of 1e-400 as 0 — made-up numbers in a valid-looking spec.
  ScenarioSpec mmpp;
  mmpp.arrivals = MmppArrivals{};
  const struct {
    const char* key;
    std::uint64_t (*read)(const ScenarioSpec&);
  } counters[] = {
      {"measure.seed", [](const ScenarioSpec& s) { return s.seed; }},
      {"measure.warmup_cycles", [](const ScenarioSpec& s) { return s.warmup_cycles; }},
      {"measure.target_messages", [](const ScenarioSpec& s) { return s.target_messages; }},
      {"measure.max_cycles", [](const ScenarioSpec& s) { return s.max_cycles; }},
      {"fault.seed", [](const ScenarioSpec& s) { return s.failures.random_seed; }},
  };
  for (const auto& c : counters) {
    expect_throws(c.key, "18446744073709551616");  // 2^64
    expect_throws(c.key, "99999999999999999999999");
    ScenarioSpec spec;
    apply_scenario_setting(spec, c.key, "18446744073709551615");  // 2^64 - 1 fits
    EXPECT_EQ(c.read(spec), std::numeric_limits<std::uint64_t>::max()) << c.key;
  }
  for (const char* tiny : {"1e-400", "-1e-400", "0x1p-1100"}) {
    expect_throws("traffic.hot_fraction", tiny);
    expect_throws("arrivals.burst_multiplier", tiny, mmpp);
    expect_throws("arrivals.p_enter_burst", tiny, mmpp);
    expect_throws("arrivals.p_leave_burst", tiny, mmpp);
    expect_throws("fault.rate", tiny);
  }
  // The text form reports the line, like every other value error.
  for (const char* text : {"topology.kind=torus\nmeasure.seed=18446744073709551616\n",
                           "topology.kind=torus\ntraffic.hot_fraction=1e-400\n"}) {
    try {
      parse_scenario(text);
      ADD_FAILURE() << "expected std::invalid_argument: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line 2: ScenarioSpec: ", 0), 0u) << e.what();
    }
  }
}

TEST(ScenarioErrors, NumberFormsThatKeepParsing) {
  // What strtod/strtoll accepted stays accepted: a leading '+', a bare
  // fraction, exponents, hex floats, subnormals, 2^64 - 1 and (through
  // --set, where values are not trimmed) leading whitespace.
  ScenarioSpec spec;
  apply_scenario_setting(spec, "router.vcs", "+5");
  EXPECT_EQ(spec.vcs, 5);
  apply_scenario_setting(spec, "topology.k", " \t8");
  EXPECT_EQ(spec.torus().k, 8);
  apply_scenario_setting(spec, "measure.seed", "+7");
  EXPECT_EQ(spec.seed, 7u);
  apply_scenario_setting(spec, "measure.seed", " 9");
  EXPECT_EQ(spec.seed, 9u);
  apply_scenario_setting(spec, "traffic.hot_fraction", ".5");
  EXPECT_EQ(spec.hotspot().fraction, 0.5);
  apply_scenario_setting(spec, "traffic.hot_fraction", "5e-1");
  EXPECT_EQ(spec.hotspot().fraction, 0.5);
  apply_scenario_setting(spec, "traffic.hot_fraction", "0x1p-2");
  EXPECT_EQ(spec.hotspot().fraction, 0.25);
  apply_scenario_setting(spec, "traffic.hot_fraction", " +0.125");
  EXPECT_EQ(spec.hotspot().fraction, 0.125);
  apply_scenario_setting(spec, "traffic.hot_fraction", "4.9406564584124654e-324");
  EXPECT_EQ(spec.hotspot().fraction, std::numeric_limits<double>::denorm_min());
  apply_scenario_setting(spec, "traffic.hot_fraction", "-0");
  EXPECT_TRUE(std::signbit(spec.hotspot().fraction));
  apply_scenario_setting(spec, "traffic.hot_node", "-9223372036854775808");
  EXPECT_EQ(spec.hotspot().hot_node, std::numeric_limits<std::int64_t>::min());
  apply_scenario_setting(spec, "measure.max_cycles", "18446744073709551615");
  EXPECT_EQ(spec.max_cycles, std::numeric_limits<std::uint64_t>::max());
  expect_throws("traffic.hot_node", "9223372036854775808");  // 2^63
}

TEST(ScenarioErrors, InactiveVariantParameters) {
  {
    ScenarioSpec spec;  // torus active
    EXPECT_THROW(apply_scenario_setting(spec, "topology.dims", "5"),
                 std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    apply_scenario_setting(spec, "topology.kind", "hypercube");
    EXPECT_THROW(apply_scenario_setting(spec, "topology.k", "8"),
                 std::invalid_argument);
    EXPECT_THROW(apply_scenario_setting(spec, "topology.bidirectional", "true"),
                 std::invalid_argument);
  }
  {
    // topology.k/n are shared by torus and mesh, but bidirectional is the
    // torus extension knob: a mesh must reject it rather than alias the
    // bidirectional torus.
    ScenarioSpec spec;
    apply_scenario_setting(spec, "topology.kind", "mesh");
    apply_scenario_setting(spec, "topology.k", "6");
    apply_scenario_setting(spec, "topology.n", "3");
    EXPECT_EQ(spec.mesh().k, 6);
    EXPECT_EQ(spec.mesh().n, 3);
    EXPECT_THROW(apply_scenario_setting(spec, "topology.bidirectional", "true"),
                 std::invalid_argument);
    EXPECT_THROW(apply_scenario_setting(spec, "topology.dims", "3"),
                 std::invalid_argument);
  }
  {
    ScenarioSpec spec;
    apply_scenario_setting(spec, "traffic.kind", "uniform");
    EXPECT_THROW(apply_scenario_setting(spec, "traffic.hot_fraction", "0.3"),
                 std::invalid_argument);
    EXPECT_THROW(apply_scenario_setting(spec, "traffic.hot_node", "5"),
                 std::invalid_argument);
  }
  {
    ScenarioSpec spec;  // bernoulli active
    EXPECT_THROW(apply_scenario_setting(spec, "arrivals.burst_multiplier", "2"),
                 std::invalid_argument);
  }
}

TEST(ScenarioErrors, ParseReportsLineNumbersForMalformedLines) {
  try {
    parse_scenario("topology.kind=torus\n\n# comment\nbroken line\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioErrors, ValidateRejectsInconsistentTopologyTrafficCombos) {
  {
    // Transpose needs a flat 2-D substrate: fine on a 2-D mesh...
    ScenarioSpec spec;
    spec.topology = MeshTopology{8, 2};
    spec.traffic = TransposeTraffic{};
    EXPECT_NO_THROW(spec.validate());
    // ...but must throw on a 3-D mesh, a 3-D torus and a hypercube.
    spec.topology = MeshTopology{4, 3};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.topology = TorusTopology{4, 3, false};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.topology = HypercubeTopology{6};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    // Bit-reversal needs a power-of-two node count: a 3x3 mesh is not one.
    ScenarioSpec spec;
    spec.topology = MeshTopology{3, 2};
    spec.traffic = BitReversalTraffic{};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.topology = MeshTopology{4, 2};
    EXPECT_NO_THROW(spec.validate());
  }
  {
    // The unidirectional torus deadlock guard does not apply to the mesh:
    // V = 1 is legal there (acyclic dimension-order routing)...
    ScenarioSpec spec;
    spec.topology = MeshTopology{8, 2};
    spec.traffic = UniformTraffic{};
    spec.vcs = 1;
    EXPECT_NO_THROW(spec.validate());
    // ...and still illegal on the unidirectional torus.
    spec.topology = TorusTopology{8, 2, false};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    // Shape bounds per family.
    ScenarioSpec spec;
    spec.topology = MeshTopology{1, 2};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.topology = MeshTopology{4, 9};  // > topo::kMaxDims
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  {
    // MMPP probabilities must be in (0, 1].
    ScenarioSpec spec;
    spec.arrivals = MmppArrivals{4.0, 0.0, 0.5};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.arrivals = MmppArrivals{0.5, 0.001, 0.002};  // multiplier < 1
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
}

TEST(ScenarioErrors, ValidateRejectsDegenerateMmppChains) {
  ScenarioSpec spec;
  // The default parameterisation (pi_burst = 0.2, mult*pi_burst = 0.8) is
  // valid.
  spec.arrivals = MmppArrivals{};
  EXPECT_NO_THROW(spec.validate());
  // Extreme p_enter/p_leave ratios round the stationary burst fraction to
  // 1.0 (or 0.0) in double precision: the chain effectively always (never)
  // bursts, so the burst multiplier distorts the realized mean.
  spec.arrivals = MmppArrivals{1.0, 1.0, 1e-18};  // pi_burst rounds to 1.0
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // mult * pi_burst > 1: the idle-rate solve clamps at 0 and the realized
  // mean exceeds the configured rate; model and sim would disagree on the
  // offered load itself.
  spec.arrivals = MmppArrivals{4.0, 0.5, 0.5};  // pi_burst = 0.5, 4*0.5 > 1
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.arrivals = MmppArrivals{2.0, 0.5, 0.5};  // 2*0.5 == 1: boundary is fine
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioErrors, ValidateBoundsHotNodeAgainstResolvedTopology) {
  // The resolved-topology hot-node check lives in validate() itself (not
  // only at sim-config time): -1 is the centre placeholder, other negatives
  // are rejected, and ids must fit the active alternative's node count —
  // across all three topology families.
  const auto with_hot_node = [](Topology topo, std::int64_t hot_node) {
    ScenarioSpec spec;
    spec.topology = topo;
    spec.hotspot().hot_node = hot_node;
    return spec;
  };
  const struct {
    Topology topo;
    std::uint64_t nodes;
  } families[] = {
      {TorusTopology{8, 2, false}, 64},
      {HypercubeTopology{5}, 32},
      {MeshTopology{4, 3}, 64},
  };
  for (const auto& fam : families) {
    EXPECT_NO_THROW(with_hot_node(fam.topo, -1).validate());
    EXPECT_NO_THROW(
        with_hot_node(fam.topo, static_cast<std::int64_t>(fam.nodes) - 1).validate());
    EXPECT_THROW(with_hot_node(fam.topo, -2).validate(), std::invalid_argument);
    EXPECT_THROW(
        with_hot_node(fam.topo, static_cast<std::int64_t>(fam.nodes)).validate(),
        std::invalid_argument);
  }
}

TEST(ScenarioErrors, ValidateRejectsNetworksPastTheAddressingBound) {
  // 20000^2 nodes exceed the 2^28 a network can address: validate() must
  // say so instead of letting the simulator's topology assert abort.
  ScenarioSpec spec;
  apply_scenario_setting(spec, "topology.k", "20000");
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.topology = MeshTopology{20000, 2};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioErrors, MalformedFailureSetValues) {
  // Syntax errors fire at apply/parse time...
  expect_throws("fault.links", "1:0");      // missing direction field
  expect_throws("fault.links", "1:0:x");    // direction must be + or -
  expect_throws("fault.links", "1:+");      // missing dimension
  expect_throws("fault.routers", "3,two");
  expect_throws("fault.rate", "lots");
  expect_throws("fault.seed", "-1");
  // ...and report line numbers like every other key.
  try {
    parse_scenario("topology.kind=torus\nfault.links=9:9\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioErrors, ValidateRejectsMalformedFailureSets) {
  const auto with = [](auto&& mutate) {
    ScenarioSpec spec;  // unidirectional 8x8 torus (64 nodes), hot-spot
    spec.topology = TorusTopology{8, 2, false};
    mutate(spec);
    return spec;
  };
  // Well-formed failure sets pass.
  EXPECT_NO_THROW(with([](ScenarioSpec& s) {
                    s.failures.routers = {0, 5};
                    s.failures.links = {{3, 0, topo::Direction::kPlus}};
                    s.failures.random_rate = 0.05;
                  }).validate());
  // Router id out of range (64 nodes) or negative.
  EXPECT_THROW(
      with([](ScenarioSpec& s) { s.failures.routers = {64}; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      with([](ScenarioSpec& s) { s.failures.routers = {-1}; }).validate(),
      std::invalid_argument);
  // Duplicates / non-ascending order.
  EXPECT_THROW(
      with([](ScenarioSpec& s) { s.failures.routers = {5, 5}; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      with([](ScenarioSpec& s) { s.failures.routers = {9, 5}; }).validate(),
      std::invalid_argument);
  // The hot-spot node is the sink of measurement traffic: failing it (here
  // the resolved centre of the default 8x8 torus) is rejected.
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.failures.routers = {36};  // centre (4, 4)
               }).validate(),
               std::invalid_argument);
  // ...but only under hot-spot traffic.
  EXPECT_NO_THROW(with([](ScenarioSpec& s) {
                    s.traffic = UniformTraffic{};
                    s.failures.routers = {36};
                  }).validate());
  // Link node / dimension out of range.
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.failures.links = {{64, 0, topo::Direction::kPlus}};
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.failures.links = {{0, 2, topo::Direction::kPlus}};
               }).validate(),
               std::invalid_argument);
  // Minus-direction links do not exist on the unidirectional torus...
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.failures.links = {{0, 0, topo::Direction::kMinus}};
               }).validate(),
               std::invalid_argument);
  // ...but do on the bidirectional torus and on the mesh (interior node).
  EXPECT_NO_THROW(with([](ScenarioSpec& s) {
                    s.topology = TorusTopology{8, 2, true};
                    s.failures.links = {{0, 0, topo::Direction::kMinus}};
                  }).validate());
  EXPECT_NO_THROW(with([](ScenarioSpec& s) {
                    s.topology = MeshTopology{8, 2};
                    s.traffic = UniformTraffic{};
                    s.failures.links = {{1, 0, topo::Direction::kMinus}};
                  }).validate());
  // A mesh edge position whose link would wrap does not exist: x = 0 going
  // minus, x = k-1 going plus.
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.topology = MeshTopology{8, 2};
                 s.traffic = UniformTraffic{};
                 s.failures.links = {{0, 0, topo::Direction::kMinus}};
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.topology = MeshTopology{8, 2};
                 s.traffic = UniformTraffic{};
                 s.failures.links = {{7, 0, topo::Direction::kPlus}};
               }).validate(),
               std::invalid_argument);
  // Links must be strictly ascending by (node, dim, dir).
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.failures.links = {{3, 0, topo::Direction::kPlus},
                                     {3, 0, topo::Direction::kPlus}};
               }).validate(),
               std::invalid_argument);
  // Failing every router leaves nothing to simulate.
  EXPECT_THROW(with([](ScenarioSpec& s) {
                 s.traffic = UniformTraffic{};
                 for (int i = 0; i < 64; ++i) s.failures.routers.push_back(i);
               }).validate(),
               std::invalid_argument);
  // Random rate is a probability below 1.
  EXPECT_THROW(
      with([](ScenarioSpec& s) { s.failures.random_rate = 1.0; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      with([](ScenarioSpec& s) { s.failures.random_rate = -0.1; }).validate(),
      std::invalid_argument);
}

TEST(ScenarioErrors, MeshRoundTripsThroughTextForm) {
  // The mesh variant participates in the canonical text form like any
  // other: format -> parse -> format is a fixed point and the key is stable.
  ScenarioSpec spec;
  spec.topology = MeshTopology{6, 3};
  spec.traffic = UniformTraffic{};
  spec.vcs = 1;
  const std::string text = format_scenario(spec);
  EXPECT_NE(text.find("topology.kind=mesh\n"), std::string::npos);
  const ScenarioSpec back = parse_scenario(text);
  ASSERT_TRUE(back.is_mesh());
  EXPECT_EQ(back.mesh().k, 6);
  EXPECT_EQ(back.mesh().n, 3);
  EXPECT_EQ(format_scenario(back), text);
  EXPECT_EQ(back.key(), spec.key());
}

}  // namespace
}  // namespace kncube::core
