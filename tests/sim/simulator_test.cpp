// Protocol-level simulator tests: measurement windows, steady state,
// saturation detection, reproducibility, and the statistics surfaced in
// SimResult.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "sim/simulator.hpp"

namespace kncube::sim {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.injection_rate = 4e-4;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.warmup_cycles = 4000;
  cfg.target_messages = 1200;
  cfg.max_cycles = 400000;
  cfg.seed = 7;
  return cfg;
}

TEST(Simulator, LowLoadRunIsSteadyAndUnsaturated) {
  const SimResult r = simulate(small_config());
  EXPECT_TRUE(r.steady);
  EXPECT_FALSE(r.saturated);
  EXPECT_GE(r.measured_messages, 1200u);
  EXPECT_GT(r.mean_latency, 0.0);
  EXPECT_GT(r.cycles, 4000u);
}

TEST(Simulator, LatencyNearZeroLoadBoundAtLightTraffic) {
  SimConfig cfg = small_config();
  cfg.injection_rate = 5e-5;
  const SimResult r = simulate(cfg);
  // Zero-load mean: ~ mean hops + Lm - 1; hops ~ 2*avg(ring) ~ 7.1 for k=8.
  EXPECT_GT(r.mean_latency, 15.0);
  EXPECT_LT(r.mean_latency, 30.0);
  EXPECT_LT(r.mean_source_wait, 1.0);
}

TEST(Simulator, AcceptedLoadTracksOfferedBelowSaturation) {
  const SimResult r = simulate(small_config());
  EXPECT_NEAR(r.generated_load, r.offered_load, 0.25 * r.offered_load);
  EXPECT_NEAR(r.accepted_load, r.generated_load, 0.15 * r.generated_load);
}

TEST(Simulator, SameSeedReproducesExactly) {
  const SimResult a = simulate(small_config());
  const SimResult b = simulate(small_config());
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.measured_messages, b.measured_messages);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Simulator, DifferentSeedsAgreeStatistically) {
  SimConfig cfg = small_config();
  const SimResult a = simulate(cfg);
  cfg.seed = 1234;
  const SimResult b = simulate(cfg);
  EXPECT_NE(a.mean_latency, b.mean_latency);
  EXPECT_NEAR(a.mean_latency, b.mean_latency,
              5.0 * (a.latency_ci95 + b.latency_ci95) + 1.0);
}

TEST(Simulator, OverloadIsFlaggedSaturated) {
  SimConfig cfg = small_config();
  cfg.injection_rate = 0.02;  // ~10x saturation
  cfg.max_cycles = 60000;
  const SimResult r = simulate(cfg);
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.accepted_load, r.offered_load);
}

TEST(Simulator, HotSpotSkewsChannelUtilization) {
  SimConfig cfg = small_config();
  cfg.hot_fraction = 0.5;
  const SimResult r = simulate(cfg);
  EXPECT_GT(r.hot_channel_utilization, 3.0 * r.mean_channel_utilization);
  EXPECT_GE(r.max_channel_utilization, r.hot_channel_utilization - 1e-9);
}

TEST(Simulator, HotChannelUtilizationMatchesTheory) {
  // Flit load on the hot-y channel next to the hot node:
  // lambda*(h*k*(k-1) + (1-h)*(k-1)/2) * Lm flits/cycle.
  SimConfig cfg = small_config();
  cfg.target_messages = 2500;
  const SimResult r = simulate(cfg);
  const double k = cfg.k;
  const double msg_rate = cfg.injection_rate *
                          (cfg.hot_fraction * k * (k - 1) +
                           (1 - cfg.hot_fraction) * (k - 1) / 2.0);
  const double expected = msg_rate * cfg.message_length;
  EXPECT_NEAR(r.hot_channel_utilization, expected, 0.25 * expected);
}

TEST(Simulator, HotMessagesAreSlowerThanRegular) {
  SimConfig cfg = small_config();
  cfg.hot_fraction = 0.4;
  const SimResult r = simulate(cfg);
  EXPECT_GT(r.mean_latency_hot, r.mean_latency_regular);
  // The overall mean is the traffic-share mix of the two classes.
  const double mix = cfg.hot_fraction * r.mean_latency_hot +
                     (1 - cfg.hot_fraction) * r.mean_latency_regular;
  EXPECT_NEAR(r.mean_latency, mix, 0.1 * r.mean_latency);
}

TEST(Simulator, QuantilesAreOrdered) {
  const SimResult r = simulate(small_config());
  EXPECT_LE(r.p50_latency, r.p95_latency);
  EXPECT_LE(r.p95_latency, r.p99_latency);
  EXPECT_GT(r.p50_latency, 0.0);
}

TEST(Simulator, NetworkLatencyPlusWaitApproximatesTotal) {
  const SimResult r = simulate(small_config());
  EXPECT_NEAR(r.mean_latency, r.mean_network_latency + r.mean_source_wait,
              0.05 * r.mean_latency);
}

TEST(Simulator, UniformPatternBalancesChannelLoad) {
  SimConfig cfg = small_config();
  cfg.pattern = Pattern::kUniform;
  const SimResult r = simulate(cfg);
  // Per eq (3): channel flit load = lambda*(k-1)/2*Lm, identical everywhere.
  const double expected = cfg.injection_rate * 3.5 * cfg.message_length;
  EXPECT_NEAR(r.mean_channel_utilization, expected, 0.2 * expected);
  EXPECT_LT(r.max_channel_utilization, 2.5 * r.mean_channel_utilization);
}

TEST(Simulator, MmppArrivalsRaiseLatencyAtEqualMeanLoad) {
  SimConfig cfg = small_config();
  cfg.target_messages = 2000;
  const SimResult poisson = simulate(cfg);
  cfg.arrivals = Arrivals::kMmpp;
  cfg.mmpp.burst_rate_multiplier = 8.0;
  cfg.mmpp.p_enter_burst = 0.0008;
  cfg.mmpp.p_leave_burst = 0.004;
  const SimResult bursty = simulate(cfg);
  EXPECT_GT(bursty.mean_latency, poisson.mean_latency);
}

TEST(Simulator, InvalidConfigThrowsBeforeTheNetworkIsBuilt) {
  // Network validates before it constructs its topology, whose asserts
  // would otherwise abort the process on these radices.
  for (const int k : {1, 20000}) {
    SimConfig cfg = small_config();
    cfg.k = k;
    EXPECT_THROW(simulate(cfg), std::invalid_argument) << "k=" << k;
  }
}

TEST(SimResultWords, EveryResultFieldChangesTheWords) {
  // The thread-invariance gate and the sharding and store tests compare the
  // words and nothing else, so every result field must reach them.
  using Edit = void (*)(SimResult&);
  const Edit edits[] = {
      [](SimResult& r) { r.mean_latency = 1; },
      [](SimResult& r) { r.latency_ci95 = 1; },
      [](SimResult& r) { r.p50_latency = 1; },
      [](SimResult& r) { r.p95_latency = 1; },
      [](SimResult& r) { r.p99_latency = 1; },
      [](SimResult& r) { r.mean_network_latency = 1; },
      [](SimResult& r) { r.mean_source_wait = 1; },
      [](SimResult& r) { r.mean_latency_hot = 1; },
      [](SimResult& r) { r.mean_latency_regular = 1; },
      [](SimResult& r) { r.measured_messages = 1; },
      [](SimResult& r) { r.cycles = 1; },
      [](SimResult& r) { r.measured_cycles = 1; },
      [](SimResult& r) { r.offered_load = 1; },
      [](SimResult& r) { r.generated_load = 1; },
      [](SimResult& r) { r.accepted_load = 1; },
      [](SimResult& r) { r.steady = true; },
      [](SimResult& r) { r.saturated = true; },
      [](SimResult& r) { r.unreachable_messages = 1; },
      [](SimResult& r) { r.unreachable_messages_total = 1; },
      [](SimResult& r) { r.unreachable_fraction = 1; },
      [](SimResult& r) { r.unreachable_pairs = 1; },
      [](SimResult& r) { r.reachable_pair_fraction = 0.5; },
      [](SimResult& r) { r.failed_routers = 1; },
      [](SimResult& r) { r.conservation_ok = false; },
      [](SimResult& r) { r.mean_channel_utilization = 1; },
      [](SimResult& r) { r.max_channel_utilization = 1; },
      [](SimResult& r) { r.mean_vc_multiplexing = 2; },
      [](SimResult& r) { r.hot_channel_utilization = 1; },
  };
  static_assert(std::extent_v<decltype(edits)> == std::tuple_size_v<SimResultWords>);
  const SimResultWords base = result_words(SimResult{});
  for (std::size_t i = 0; i < std::size(edits); ++i) {
    SimResult r;
    edits[i](r);
    EXPECT_NE(result_words(r), base) << "field " << i;
  }
  // How the run was sharded is not what it simulated.
  SimResult sharded;
  sharded.sim_shards = 4;
  sharded.sim_shards_requested = 4;
  EXPECT_EQ(result_words(sharded), base);
}

// Property sweep over the design space: conservation and sanity on every
// configuration the benches touch.
class SimulatorSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SimulatorSweep, ConservationAndSanity) {
  const auto [k, vcs, lm, h] = GetParam();
  SimConfig cfg;
  cfg.k = k;
  cfg.vcs = vcs;
  cfg.message_length = lm;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = h;
  // ~25% of the bottleneck capacity: well below saturation for every combo.
  const double coeff = h * k * (k - 1.0) + (1 - h) * (k - 1.0) / 2.0;
  cfg.injection_rate = 0.25 / (coeff * lm);
  cfg.warmup_cycles = 3000;
  cfg.target_messages = 600;
  cfg.max_cycles = 600000;
  const SimResult r = simulate(cfg);
  EXPECT_FALSE(r.saturated);
  EXPECT_GE(r.measured_messages, 600u);
  // Latency at least the zero-load floor (min hops = 1).
  EXPECT_GT(r.mean_latency, static_cast<double>(lm));
  EXPECT_LT(r.mean_latency, 20.0 * (lm + 2.0 * k));
  EXPECT_LE(r.max_channel_utilization, 1.0 + 1e-9);
  EXPECT_GE(r.mean_vc_multiplexing, 1.0);
  EXPECT_LE(r.mean_vc_multiplexing, static_cast<double>(vcs));
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SimulatorSweep,
    ::testing::Combine(::testing::Values(4, 8),        // k
                       ::testing::Values(2, 3),        // V
                       ::testing::Values(4, 16),       // Lm
                       ::testing::Values(0.0, 0.3, 0.8)  // h
                       ));

}  // namespace
}  // namespace kncube::sim
