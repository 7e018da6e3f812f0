// Bitwise view of a SimResult, shared by the tests that pin two runs as
// identical: one list of fields, so a field added to SimResult is added to
// every such comparison at once.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace kncube::test_support {

/// Every SimResult field but the shard counts (`sim_shards`,
/// `sim_shards_requested`: how the run was executed, not what it
/// simulated), doubles as raw bits, in declaration order.
inline std::vector<std::uint64_t> sim_result_words(const sim::SimResult& r) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {bits(r.mean_latency), bits(r.latency_ci95), bits(r.p50_latency),
          bits(r.p95_latency), bits(r.p99_latency), bits(r.mean_network_latency),
          bits(r.mean_source_wait), bits(r.mean_latency_hot),
          bits(r.mean_latency_regular), r.measured_messages, r.cycles,
          r.measured_cycles, bits(r.offered_load), bits(r.generated_load),
          bits(r.accepted_load), r.steady, r.saturated, r.unreachable_messages,
          r.unreachable_messages_total, bits(r.unreachable_fraction),
          r.unreachable_pairs, bits(r.reachable_pair_fraction), r.failed_routers,
          r.conservation_ok, bits(r.mean_channel_utilization),
          bits(r.max_channel_utilization), bits(r.mean_vc_multiplexing),
          bits(r.hot_channel_utilization)};
}

}  // namespace kncube::test_support
