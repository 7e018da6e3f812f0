#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

#include "topology/hotspot_geometry.hpp"
#include "util/assert.hpp"

namespace kncube::sim {

namespace {

double latency_histogram_ceiling(const SimConfig& cfg) {
  // Generous: a few hundred times the zero-load scale, so quantiles stay
  // meaningful deep into the congested region.
  return 200.0 * static_cast<double>(cfg.message_length + cfg.k * cfg.n);
}

}  // namespace

Simulator::Simulator(const SimConfig& cfg)
    : cfg_(cfg),
      net_(cfg),
      metrics_(latency_histogram_ceiling(cfg)),
      pattern_(make_pattern(cfg, net_.topology())),
      arrivals_(cfg_, net_.faults(), net_.size()) {
  if (cfg.pattern == Pattern::kHotspot) {
    metrics_.set_hot_node(cfg.resolved_hot_node());
  }
}

void Simulator::tick() {
  // Traffic generation at the cycle boundary. The arrival streams are drawn
  // a block of ticks ahead (ArrivalBatch::fill: dead nodes frozen, every
  // destination drawn straight after its fire), and the block is indexed by
  // tick, not by cycle — drain() steps cycles without ticking, exactly as
  // it never advanced the per-cycle streams. This tick's fires come in
  // ascending node order, the scalar loop's visit order, so message ids and
  // metric events are those of one generate() per tick.
  if (block_tick_ == kArrivalLookahead) {
    arrivals_.fill(*pattern_, kArrivalLookahead);
    block_tick_ = 0;
  }
  for (const ArrivalBatch::Fire& fire : arrivals_.fires(block_tick_++)) {
    QueuedMessage msg;
    msg.id = next_msg_id_++;
    msg.src = fire.node;
    msg.dest = fire.dest;
    msg.gen_cycle = cycle_;
    if (!net_.pair_reachable(msg.src, msg.dest)) {
      // The deterministic path crosses a fault: the message counts as
      // offered but undeliverable, classified here at injection time —
      // nothing is ever dropped mid-network (DESIGN.md §10).
      metrics_.on_generated(msg.gen_cycle);
      metrics_.on_unreachable(msg.gen_cycle);
      continue;
    }
    net_.enqueue_message(msg);
    metrics_.on_generated(msg.gen_cycle);
  }
  net_.step(cycle_, metrics_);
  ++cycle_;
}

bool Simulator::drain(std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (net_.inflight_flits() == 0 && net_.source_backlog() == 0) return true;
    net_.step(cycle_, metrics_);
    ++cycle_;
  }
  return net_.inflight_flits() == 0 && net_.source_backlog() == 0;
}

void Simulator::step_cycles(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) tick();
}

MessageId Simulator::inject_now(topo::NodeId src, topo::NodeId dest) {
  QueuedMessage msg;
  msg.id = next_msg_id_++;
  msg.src = src;
  msg.dest = dest;
  msg.gen_cycle = cycle_;
  net_.enqueue_message(msg);
  metrics_.on_generated(msg.gen_cycle);
  return msg.id;
}

SimResult Simulator::run() {
  std::uint64_t backlog_at_measure_start = 0;
  // Stop polling is amortised: checking counters every cycle is wasteful.
  // Polls are anchored to the measurement start, not the absolute cycle:
  // anchoring to cycle 0 aliased the poll grid with warmup_cycles, deferring
  // the break by up to kPollPeriod-1 cycles *past* the first poll opportunity
  // after target_messages whenever warmup was not a multiple of the period.
  constexpr std::uint64_t kPollPeriod = 512;

  while (cycle_ < cfg_.max_cycles) {
    if (cycle_ == cfg_.warmup_cycles) {
      metrics_.begin_measurement(cycle_);
      net_.reset_channel_stats();
      backlog_at_measure_start = metrics_.source_backlog();
    }
    tick();
    if (metrics_.measuring() &&
        (cycle_ - metrics_.measure_start()) % kPollPeriod == 0) {
      const std::uint64_t delivered = metrics_.delivered_measured();
      if (delivered >= cfg_.target_messages &&
          (metrics_.steady() || delivered >= 4 * cfg_.target_messages)) {
        break;
      }
    }
  }
  if (!metrics_.measuring()) {
    // max_cycles <= warmup is rejected by validate(); still, guard the
    // arithmetic below.
    metrics_.begin_measurement(cycle_);
  }
  return finalize(backlog_at_measure_start);
}

SimResult Simulator::finalize(std::uint64_t backlog_at_measure_start) const {
  SimResult res;
  res.cycles = cycle_;
  res.measured_cycles = cycle_ - metrics_.measure_start();
  res.measured_messages = metrics_.delivered_measured();
  res.offered_load = cfg_.injection_rate;

  const auto& lat = metrics_.latency();
  res.mean_latency = lat.mean();
  res.latency_ci95 = lat.ci95_half_width();
  res.mean_network_latency = metrics_.network_latency().mean();
  res.mean_source_wait = metrics_.source_wait().mean();
  res.mean_latency_hot = metrics_.latency_hot().mean();
  res.mean_latency_regular = metrics_.latency_regular().mean();
  const auto& hist = metrics_.latency_histogram();
  res.p50_latency = hist.quantile(0.50);
  res.p95_latency = hist.quantile(0.95);
  res.p99_latency = hist.quantile(0.99);

  const double nodes = static_cast<double>(net_.size());
  const double mc = static_cast<double>(std::max<std::uint64_t>(res.measured_cycles, 1));
  res.generated_load = static_cast<double>(metrics_.generated_measured()) / (nodes * mc);
  res.accepted_load = static_cast<double>(res.measured_messages) / (nodes * mc);

  res.steady = metrics_.steady();

  res.unreachable_messages = metrics_.unreachable_measured();
  res.unreachable_messages_total = metrics_.unreachable_total();
  if (metrics_.generated_measured() > 0) {
    res.unreachable_fraction =
        static_cast<double>(res.unreachable_messages) /
        static_cast<double>(metrics_.generated_measured());
  }
  res.unreachable_pairs = net_.faults().unreachable_pairs();
  res.reachable_pair_fraction = net_.faults().reachable_pair_fraction();
  res.failed_routers = net_.faults().failed_router_count();
  // Conservation over two independently maintained counter families:
  // Metrics counts events, Network maintains incremental occupancy. The
  // boundaries differ — Network occupancy moves when a message *refills*
  // (materialises Lm flits from the source queue) while Metrics::injected
  // fires when its head later acquires the first channel — so the identities
  // are phrased at the refill boundary: every enqueued message is either
  // still backlog or has exactly Lm flits split between delivered and
  // in-flight.
  const std::uint64_t lm = static_cast<std::uint64_t>(cfg_.message_length);
  const std::uint64_t enqueued =
      metrics_.generated_total() - metrics_.unreachable_total();
  const bool backlog_sane = enqueued >= net_.source_backlog();
  const std::uint64_t refilled =
      backlog_sane ? enqueued - net_.source_backlog() : 0;
  res.conservation_ok =
      backlog_sane &&
      refilled * lm == metrics_.flits_delivered() + net_.inflight_flits() &&
      metrics_.delivered_total() <= metrics_.injected_total() &&
      metrics_.injected_total() <= refilled;
  // Saturation: the aggregate source backlog grew steadily through the
  // measurement window. A stable network keeps queues near-empty (rho < 1),
  // so sustained growth beyond noise marks the saturated regime.
  const std::uint64_t backlog_end = metrics_.source_backlog();
  const std::uint64_t growth =
      backlog_end > backlog_at_measure_start ? backlog_end - backlog_at_measure_start : 0;
  const std::uint64_t generated = metrics_.generated_measured();
  res.saturated = growth > std::max<std::uint64_t>(64, generated / 5);

  res.sim_shards = net_.shard_count();
  res.sim_shards_requested = net_.requested_shard_count();

  const auto chan = net_.channel_summary();
  res.mean_channel_utilization = chan.mean_utilization;
  res.max_channel_utilization = chan.max_utilization;
  res.mean_vc_multiplexing = chan.mean_vc_multiplexing;

  if (cfg_.pattern == Pattern::kHotspot && cfg_.n == 2 && !cfg_.bidirectional) {
    // The bottleneck channel: hot-y-ring channel one hop from the hot node,
    // i.e. the outgoing y channel of the hot column node directly upstream.
    const auto& topo = net_.topology();
    const topo::NodeId hot = cfg_.resolved_hot_node();
    const topo::NodeId upstream = topo.neighbor(hot, 1, topo::Direction::kMinus);
    res.hot_channel_utilization =
        net_.channel_utilization(upstream, 1, topo::Direction::kPlus);
  }

  return res;
}

// A field added to SimResult changes its size; add it to the words below.
static_assert(sizeof(SimResult) == 232, "SimResult changed: update result_words");

SimResultWords result_words(const SimResult& r) noexcept {
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

SimResult simulate(const SimConfig& cfg) {
  Simulator sim(cfg);
  return sim.run();
}

}  // namespace kncube::sim
