#include "sim/config.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace kncube::sim {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

SimConfig valid_config() {
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.message_length = 16;
  cfg.injection_rate = 1e-3;
  return cfg;
}

TEST(SimConfig, DefaultIsValid) {
  EXPECT_NO_THROW(SimConfig{}.validate());
  EXPECT_NO_THROW(valid_config().validate());
}

struct BadCase {
  const char* name;
  std::function<void(SimConfig&)> mutate;
};

class SimConfigValidation : public ::testing::TestWithParam<BadCase> {};

TEST_P(SimConfigValidation, Rejects) {
  SimConfig cfg = valid_config();
  GetParam().mutate(cfg);
  EXPECT_THROW(cfg.validate(), std::invalid_argument) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, SimConfigValidation,
    ::testing::Values(
        BadCase{"radix_too_small", [](SimConfig& c) { c.k = 1; }},
        BadCase{"dims_zero", [](SimConfig& c) { c.n = 0; }},
        BadCase{"dims_too_many", [](SimConfig& c) { c.n = 99; }},
        BadCase{"no_vcs", [](SimConfig& c) { c.vcs = 0; }},
        BadCase{"single_vc_unidirectional",
                [](SimConfig& c) {
                  c.vcs = 1;  // deadlock-prone on rings with k > 2
                }},
        BadCase{"zero_buffer", [](SimConfig& c) { c.buffer_depth = 0; }},
        BadCase{"zero_length", [](SimConfig& c) { c.message_length = 0; }},
        BadCase{"negative_rate", [](SimConfig& c) { c.injection_rate = -0.1; }},
        BadCase{"rate_above_one", [](SimConfig& c) { c.injection_rate = 1.5; }},
        BadCase{"bad_hot_fraction",
                [](SimConfig& c) {
                  c.pattern = Pattern::kHotspot;
                  c.hot_fraction = 1.2;
                }},
        BadCase{"hot_node_outside", [](SimConfig& c) { c.hot_node = 1 << 20; }},
        BadCase{"transpose_needs_2d",
                [](SimConfig& c) {
                  c.pattern = Pattern::kTranspose;
                  c.n = 3;
                }},
        BadCase{"mmpp_zero_enter",
                [](SimConfig& c) {
                  c.arrivals = Arrivals::kMmpp;
                  c.mmpp.p_enter_burst = 0.0;
                }},
        BadCase{"mmpp_enter_above_one",
                [](SimConfig& c) {
                  c.arrivals = Arrivals::kMmpp;
                  c.mmpp.p_enter_burst = 1.5;
                }},
        BadCase{"mmpp_negative_leave",
                [](SimConfig& c) {
                  c.arrivals = Arrivals::kMmpp;
                  c.mmpp.p_leave_burst = -0.1;
                }},
        BadCase{"mmpp_multiplier_below_one",
                [](SimConfig& c) {
                  c.arrivals = Arrivals::kMmpp;
                  c.mmpp.burst_rate_multiplier = 0.5;
                }},
        BadCase{"hot_node_one_past_end",
                [](SimConfig& c) { c.hot_node = 8 * 8; }},
        BadCase{"warmup_swallows_budget",
                [](SimConfig& c) { c.max_cycles = c.warmup_cycles; }},
        // NaN fails every range check, and the spec-era rules live here too.
        BadCase{"nan_rate", [](SimConfig& c) { c.injection_rate = kNan; }},
        BadCase{"nan_hot_fraction",
                [](SimConfig& c) {
                  c.pattern = Pattern::kHotspot;
                  c.hot_fraction = kNan;
                }},
        BadCase{"nan_failure_rate", [](SimConfig& c) { c.failure_rate = kNan; }},
        BadCase{"mmpp_nan_enter",
                [](SimConfig& c) {
                  c.arrivals = Arrivals::kMmpp;
                  c.mmpp.p_enter_burst = kNan;
                }},
        BadCase{"hot_node_below_centre_placeholder",
                [](SimConfig& c) { c.hot_node = -2; }},
        BadCase{"zero_target_messages", [](SimConfig& c) { c.target_messages = 0; }},
        BadCase{"bit_reversal_on_36_nodes",
                [](SimConfig& c) {
                  c.pattern = Pattern::kBitReversal;
                  c.k = 6;
                }},
        BadCase{"bit_complement_on_9_nodes",
                [](SimConfig& c) {
                  c.pattern = Pattern::kBitComplement;
                  c.k = 3;
                }},
        BadCase{"more_nodes_than_addressable", [](SimConfig& c) { c.k = 20000; }}),
    [](const ::testing::TestParamInfo<BadCase>& param_info) {
      return param_info.param.name;
    });

TEST(SimConfig, SingleVcAllowedOnK2) {
  SimConfig cfg = valid_config();
  cfg.k = 2;
  cfg.vcs = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfig, AddressingBoundAdmitsExactly2To28Nodes) {
  SimConfig cfg = valid_config();
  cfg.k = 16384;  // 16384^2 == 2^28
  EXPECT_NO_THROW(cfg.validate());
  cfg.k = 16385;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimConfig, ResolvedHotNodeDefaultsToCentre) {
  SimConfig cfg = valid_config();  // k=8
  cfg.hot_node = -1;
  const topo::KAryNCube net(cfg.k, cfg.n);
  const topo::NodeId hot = cfg.resolved_hot_node();
  EXPECT_EQ(net.coord(hot, 0), 4);
  EXPECT_EQ(net.coord(hot, 1), 4);
}

TEST(SimConfig, ResolvedHotNodeMatchesTopologyAcrossShapes) {
  // The centre id is computed arithmetically (no KAryNCube construction);
  // it must agree with the topology's addressing for every shape, including
  // odd radices, k = 2 hypercube mode and higher dimensions.
  for (const auto& [k, n] : std::vector<std::pair<int, int>>{
           {2, 1}, {2, 6}, {3, 3}, {5, 2}, {8, 3}, {16, 2}, {4, 4}}) {
    SimConfig cfg;
    cfg.k = k;
    cfg.n = n;
    cfg.hot_node = -1;
    const topo::KAryNCube net(k, n);
    topo::Coords c{};
    for (int d = 0; d < n; ++d) c[static_cast<std::size_t>(d)] = k / 2;
    EXPECT_EQ(cfg.resolved_hot_node(), net.node_at(c)) << "k=" << k << " n=" << n;
  }
}

TEST(SimConfig, ResolvedHotNodeHonoursExplicitChoice) {
  SimConfig cfg = valid_config();
  cfg.hot_node = 11;
  EXPECT_EQ(cfg.resolved_hot_node(), 11u);
}

}  // namespace
}  // namespace kncube::sim
