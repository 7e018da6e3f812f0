// Measurement bookkeeping for the simulator.
//
// A message is *measured* when it was generated at or after the measurement
// start cycle; statistics only ever aggregate measured messages, so warm-up
// transients never contaminate results (the paper's steady-state protocol).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/flit.hpp"
#include "util/stats.hpp"

namespace kncube::sim {

/// Per-shard buffer of one cycle's metric events and occupancy deltas.
///
/// The sharded Network::step cannot let router phases call Metrics directly:
/// the floating-point accumulators are order-sensitive, so concurrent calls
/// would make results depend on thread interleaving. Instead every shard
/// appends its events here in router-id order during the phases, and the
/// cycle boundary replays the buffers into Metrics shard-by-shard — ejection
/// events of all shards first, then injection events, exactly the call
/// sequence the serial loop produced. The integer fields are plain sums
/// (order-independent), merged by addition.
struct StepDelta {
  struct DeliveredEvent {
    MessageId msg = 0;
    std::uint64_t gen_cycle = 0;
    topo::NodeId dest = 0;
  };
  struct InjectedEvent {
    MessageId msg = 0;
    std::uint64_t gen_cycle = 0;
  };

  std::vector<DeliveredEvent> delivered;  ///< tail ejections, phase_eject order
  std::vector<InjectedEvent> injected;    ///< head injections, phase_switch order
  std::uint64_t flits_delivered = 0;      ///< every ejected flit (not just tails)
  std::uint64_t messages_refilled = 0;    ///< source-queue messages materialised

  void clear() noexcept {
    delivered.clear();
    injected.clear();
    flits_delivered = 0;
    messages_refilled = 0;
  }
};

class Metrics {
 public:
  /// The steady-state test (util::BatchMeans): batches of kSteadyBatch
  /// measured messages, steady once the cumulative mean moves by less than
  /// kSteadyRelTol — the paper's "does not change appreciably".
  static constexpr std::uint64_t kSteadyBatch = 500;
  static constexpr double kSteadyRelTol = 0.02;

  explicit Metrics(double latency_hist_max);

  /// Marks the start of the measurement window (end of warm-up).
  void begin_measurement(std::uint64_t cycle);
  bool measuring() const noexcept { return measure_start_ != kNever; }
  std::uint64_t measure_start() const noexcept { return measure_start_; }

  /// Enables per-class statistics: deliveries to `hot` count as hot-spot
  /// messages, everything else as regular.
  void set_hot_node(topo::NodeId hot) noexcept {
    hot_node_ = static_cast<std::int64_t>(hot);
  }

  // --- hooks called by the network ---
  void on_generated(std::uint64_t gen_cycle);
  /// Generated message whose deterministic path crosses a fault: counted as
  /// offered-but-undeliverable at injection time (after on_generated), never
  /// enqueued. Pristine networks never call this.
  void on_unreachable(std::uint64_t gen_cycle);
  /// Head flit left its source queue (acquired the first network channel).
  void on_injected(MessageId msg, std::uint64_t gen_cycle, std::uint64_t cycle);
  /// Tail flit consumed at the destination PE.
  void on_delivered(MessageId msg, std::uint64_t gen_cycle, std::uint64_t cycle,
                    topo::NodeId dest);
  void on_flit_delivered() noexcept { ++flits_delivered_; }

  // --- deterministic replay of sharded-step buffers (Network::step) ---
  /// Applies one shard's ejection-side events: flit count plus on_delivered
  /// for each tail, in recorded order. Call for every shard in shard order
  /// before any apply_injects of the same cycle.
  void apply_ejects(const StepDelta& delta, std::uint64_t cycle);
  /// Applies one shard's injection-side events (on_injected in order).
  void apply_injects(const StepDelta& delta, std::uint64_t cycle);

  // --- counters ---
  std::uint64_t generated_total() const noexcept { return generated_total_; }
  std::uint64_t injected_total() const noexcept { return injected_total_; }
  std::uint64_t delivered_total() const noexcept { return delivered_total_; }
  std::uint64_t generated_measured() const noexcept { return generated_measured_; }
  std::uint64_t delivered_measured() const noexcept { return delivered_measured_; }
  std::uint64_t flits_delivered() const noexcept { return flits_delivered_; }
  std::uint64_t unreachable_total() const noexcept { return unreachable_total_; }
  std::uint64_t unreachable_measured() const noexcept {
    return unreachable_measured_;
  }
  /// Messages generated but whose head has not yet entered the network
  /// (unreachable messages never will: they are not backlog).
  std::uint64_t source_backlog() const noexcept {
    return generated_total_ - injected_total_ - unreachable_total_;
  }

  // --- statistics over measured messages ---
  const util::RunningStats& latency() const noexcept { return latency_; }
  const util::RunningStats& latency_hot() const noexcept { return latency_hot_; }
  const util::RunningStats& latency_regular() const noexcept { return latency_regular_; }
  const util::RunningStats& network_latency() const noexcept { return net_latency_; }
  const util::RunningStats& source_wait() const noexcept { return source_wait_; }
  const util::Histogram& latency_histogram() const noexcept { return latency_hist_; }
  const util::BatchMeans& batch_means() const noexcept { return batches_; }
  bool steady() const noexcept { return batches_.converged(); }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  std::uint64_t measure_start_ = kNever;
  std::uint64_t generated_total_ = 0;
  std::uint64_t injected_total_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t generated_measured_ = 0;
  std::uint64_t delivered_measured_ = 0;
  std::uint64_t flits_delivered_ = 0;
  std::uint64_t unreachable_total_ = 0;
  std::uint64_t unreachable_measured_ = 0;

  std::int64_t hot_node_ = -1;
  util::RunningStats latency_;
  util::RunningStats latency_hot_;
  util::RunningStats latency_regular_;
  util::RunningStats net_latency_;
  util::RunningStats source_wait_;
  util::Histogram latency_hist_;
  util::BatchMeans batches_;
  /// head-injection cycle of measured in-flight messages, for network latency
  std::unordered_map<MessageId, std::uint64_t> inject_cycle_;
};

}  // namespace kncube::sim
