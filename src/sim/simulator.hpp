// Simulation driver: traffic generation, warm-up, steady-state measurement
// and result extraction — the experimental protocol of the paper's §4.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/arrival_batch.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace kncube::sim {

struct SimResult {
  // Latency in cycles, measured generation -> tail ejection (includes source
  // queueing, like the model's Latency of eq (10)).
  double mean_latency = 0.0;
  double latency_ci95 = 0.0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  /// Head injection -> tail ejection (excludes source queueing).
  double mean_network_latency = 0.0;
  /// Generation -> head injection (the model's Ws term).
  double mean_source_wait = 0.0;
  /// Per-class means (hot-spot pattern only; 0 otherwise).
  double mean_latency_hot = 0.0;
  double mean_latency_regular = 0.0;

  std::uint64_t measured_messages = 0;
  std::uint64_t cycles = 0;
  std::uint64_t measured_cycles = 0;

  double offered_load = 0.0;    ///< configured lambda (messages/node/cycle)
  double generated_load = 0.0;  ///< measured generation rate
  double accepted_load = 0.0;   ///< measured delivery rate

  bool steady = false;     ///< batch-means criterion satisfied
  bool saturated = false;  ///< source backlog grew without bound

  // --- degraded operation (pristine networks: zeros / 1.0 / true) ---
  /// Measured messages whose deterministic path crossed a fault — counted as
  /// offered-but-undeliverable at injection, never enqueued.
  std::uint64_t unreachable_messages = 0;
  std::uint64_t unreachable_messages_total = 0;  ///< incl. warm-up
  /// Measured unreachable / measured generated (0 when nothing generated).
  double unreachable_fraction = 0.0;
  /// Static property of the fault set: ordered (src != dst, src alive)
  /// pairs whose deterministic route crosses a fault.
  std::uint64_t unreachable_pairs = 0;
  double reachable_pair_fraction = 1.0;
  std::uint64_t failed_routers = 0;
  /// Flit/message conservation cross-check over two independently maintained
  /// counter families: generated == unreachable + injected + source backlog,
  /// and injected * Lm == delivered flits + in-flight flits. Any false here
  /// means the accounting lost or invented traffic.
  bool conservation_ok = true;

  /// Router shards the stepping engine actually used (1 = serial), and what
  /// the sim_threads knob asked for (hardware concurrency when 0). Results
  /// are bit-identical either way; sim_shards < sim_shards_requested means
  /// the network was too small for the requested parallelism and the engine
  /// ran narrower than configured.
  std::uint64_t sim_shards = 1;
  std::uint64_t sim_shards_requested = 1;

  double mean_channel_utilization = 0.0;
  double max_channel_utilization = 0.0;
  double mean_vc_multiplexing = 1.0;
  /// Utilisation of the hot-y-ring channel entering the hot node (the
  /// system bottleneck under hot-spot traffic); 0 for other patterns.
  double hot_channel_utilization = 0.0;
};

/// Every SimResult field but the shard counts (`sim_shards`,
/// `sim_shards_requested`: how the run was executed, not what it
/// simulated), doubles as raw bits, in declaration order. The reliability
/// gate's thread-invariance check and the sharded-step and sweep-engine
/// tests call two runs identical exactly when their words are equal.
using SimResultWords = std::array<std::uint64_t, 28>;
SimResultWords result_words(const SimResult& r) noexcept;

class Simulator {
 public:
  explicit Simulator(const SimConfig& cfg);

  /// Runs the full measurement protocol and returns aggregate results.
  SimResult run();

  // --- fine-grained control for tests ---
  /// Advances exactly `cycles` cycles (with traffic generation).
  void step_cycles(std::uint64_t cycles);
  /// Steps the network *without* traffic generation until every buffered
  /// flit is delivered and every source queue is empty, or `max_cycles`
  /// elapse. Returns true when fully drained — at which point
  /// delivered == injected == generated - unreachable, the conservation
  /// identity the fault property tests pin.
  bool drain(std::uint64_t max_cycles);
  /// Enqueues one message immediately (bypasses the traffic pattern).
  MessageId inject_now(topo::NodeId src, topo::NodeId dest);
  std::uint64_t current_cycle() const noexcept { return cycle_; }
  /// Extracts aggregate results at the current cut point (run() calls this
  /// at protocol end; tests call it mid-stream to pin the conservation
  /// identities at arbitrary cuts).
  SimResult finalize(std::uint64_t backlog_at_measure_start) const;

  Network& network() noexcept { return net_; }
  const Network& network() const noexcept { return net_; }
  Metrics& metrics() noexcept { return metrics_; }
  const SimConfig& config() const noexcept { return cfg_; }

 private:
  void tick();

  SimConfig cfg_;
  Network net_;
  Metrics metrics_;
  std::unique_ptr<TrafficPattern> pattern_;
  /// Ticks drawn per ArrivalBatch::fill block: long enough that a node's
  /// state loads and stores vanish beside its draws, short enough that the
  /// draws a finished run never consumes cost nothing.
  static constexpr std::uint32_t kArrivalLookahead = 256;

  /// All per-node arrival streams, drawn kArrivalLookahead ticks ahead
  /// (bit-identical to the scalar ArrivalProcess classes — see
  /// sim/arrival_batch.hpp).
  ArrivalBatch arrivals_;
  std::uint32_t block_tick_ = kArrivalLookahead;  ///< next tick of the block
  std::uint64_t cycle_ = 0;
  MessageId next_msg_id_ = 1;
};

/// Convenience wrapper: configure, run, return results.
SimResult simulate(const SimConfig& cfg);

}  // namespace kncube::sim
