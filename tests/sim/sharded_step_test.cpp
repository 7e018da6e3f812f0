// Property tests for the sharded cycle engine (DESIGN.md §9).
//
// The contract under test: for ANY simulator configuration, running
// Network::step with sim_threads = N is bit-identical to the serial
// schedule — same counters, same channel statistics, same latency
// accumulator bits, same incremental occupancy. The determinism goldens pin
// a handful of curated configs against recorded values; this file instead
// draws random configurations and compares sharded runs against a serial
// run of the same config, so partition-boundary effects that a curated shape
// misses (odd router counts, shard edges through the hot column, ...) still
// get coverage. Also exercises ThreadTeam / SpinBarrier directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace kncube::sim {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the integer channel statistics of every (router, port).
std::uint64_t channel_stats_checksum(const Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (topo::NodeId id = 0; id < net.size(); ++id) {
    const Router& r = net.router(id);
    for (int p = 0; p < r.network_ports(); ++p) {
      const auto& op = r.output_port(p);
      mix(op.flits_sent);
      mix(op.busy_vc_cycles);
      mix(op.busy_vc_sq_cycles);
      mix(op.busy_cycles);
      mix(op.stat_cycles);
    }
  }
  return h;
}

/// Everything a run observably produces, with doubles captured as raw bits.
struct Observation {
  std::uint64_t generated, delivered, flits, injected;
  std::uint64_t inflight, backlog, checksum;
  std::uint64_t latency_bits, net_latency_bits, source_wait_bits;
};

Observation snapshot(const Network& net, const Metrics& metrics) {
  Observation o;
  o.generated = metrics.generated_total();
  o.delivered = metrics.delivered_total();
  o.flits = metrics.flits_delivered();
  o.injected = metrics.injected_total();
  o.inflight = net.inflight_flits();
  o.backlog = net.source_backlog();
  o.checksum = channel_stats_checksum(net);
  o.latency_bits = bits(metrics.latency().mean());
  o.net_latency_bits = bits(metrics.network_latency().mean());
  o.source_wait_bits = bits(metrics.source_wait().mean());
  return o;
}

Observation observe(const SimConfig& cfg, int sim_threads, std::uint64_t cycles) {
  SimConfig tcfg = cfg;
  tcfg.sim_threads = sim_threads;
  Simulator sim(tcfg);
  sim.metrics().begin_measurement(0);
  sim.step_cycles(cycles);
  return snapshot(sim.network(), sim.metrics());
}

void expect_identical(const Observation& a, const Observation& b, int threads,
                      const std::string& what) {
  EXPECT_EQ(a.generated, b.generated) << what << " T=" << threads;
  EXPECT_EQ(a.delivered, b.delivered) << what << " T=" << threads;
  EXPECT_EQ(a.flits, b.flits) << what << " T=" << threads;
  EXPECT_EQ(a.injected, b.injected) << what << " T=" << threads;
  EXPECT_EQ(a.inflight, b.inflight) << what << " T=" << threads;
  EXPECT_EQ(a.backlog, b.backlog) << what << " T=" << threads;
  EXPECT_EQ(a.checksum, b.checksum) << what << " T=" << threads;
  EXPECT_EQ(a.latency_bits, b.latency_bits) << what << " T=" << threads;
  EXPECT_EQ(a.net_latency_bits, b.net_latency_bits) << what << " T=" << threads;
  EXPECT_EQ(a.source_wait_bits, b.source_wait_bits) << what << " T=" << threads;
}

TEST(ShardedStep, RandomConfigsBitIdenticalAcrossThreadCounts) {
  // Fixed-seed random draw over the config space the simulator supports.
  // T = 3 deliberately does not divide most router counts, so shard
  // boundaries land at uneven offsets.
  std::mt19937_64 rng(0x5EED5EEDULL);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (int trial = 0; trial < 8; ++trial) {
    SimConfig cfg;
    const bool mesh = pick(0, 1) == 1;
    cfg.mesh = mesh;
    cfg.bidirectional = mesh ? false : pick(0, 1) == 1;
    cfg.n = pick(1, 3);
    cfg.k = cfg.n == 3 ? pick(3, 5) : pick(4, 9);
    cfg.vcs = (mesh || cfg.bidirectional || cfg.k == 2) ? pick(1, 4) : pick(2, 4);
    cfg.buffer_depth = pick(1, 4);
    cfg.message_length = pick(1, 24);
    const int pat = pick(0, 2);
    if (pat == 0) {
      cfg.pattern = Pattern::kHotspot;
      cfg.hot_fraction = 0.05 * pick(1, 6);
    } else {
      cfg.pattern = Pattern::kUniform;
    }
    if (pick(0, 3) == 0) cfg.arrivals = Arrivals::kMmpp;
    cfg.injection_rate = 1e-3 * pick(1, 6) / cfg.message_length * 4.0;
    cfg.seed = rng();
    const std::uint64_t cycles = 1500;

    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" + std::to_string(cfg.k) +
                 " n=" + std::to_string(cfg.n) + " mesh=" + std::to_string(mesh));
    const Observation serial = observe(cfg, 1, cycles);
    for (const int threads : {2, 3}) {
      expect_identical(serial, observe(cfg, threads, cycles),
                       threads, "trial " + std::to_string(trial));
    }
  }
}

TEST(ShardedStep, FullRunProtocolBitIdenticalSharded) {
  // run() (warm-up + steady-state measurement + anchored stop polling) on a
  // k = 16 torus: the thread count must not shift a single stop decision.
  SimConfig cfg;
  cfg.k = 16;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 16;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.15;
  cfg.injection_rate = 8e-4;
  cfg.seed = 0x7EA4;
  cfg.warmup_cycles = 1500;
  cfg.target_messages = 600;
  cfg.max_cycles = 200000;

  SimResult serial;
  {
    Simulator sim(cfg);
    serial = sim.run();
  }
  for (const int threads : {2, 4}) {
    SimConfig tcfg = cfg;
    tcfg.sim_threads = threads;
    Simulator sim(tcfg);
    const SimResult res = sim.run();
    EXPECT_EQ(res.cycles, serial.cycles) << "T=" << threads;
    EXPECT_EQ(res.measured_messages, serial.measured_messages) << "T=" << threads;
    EXPECT_EQ(bits(res.mean_latency), bits(serial.mean_latency)) << "T=" << threads;
    EXPECT_EQ(bits(res.p95_latency), bits(serial.p95_latency)) << "T=" << threads;
    EXPECT_EQ(bits(res.accepted_load), bits(serial.accepted_load)) << "T=" << threads;
    EXPECT_EQ(bits(res.hot_channel_utilization),
              bits(serial.hot_channel_utilization))
        << "T=" << threads;
  }
}

TEST(ShardedStep, ShardCountResolution) {
  // sim_threads resolves against network size: every shard keeps >= 16
  // routers, tiny networks stay serial, and 0 maps to hardware concurrency
  // (>= 1 shard whatever the box reports).
  const auto shards_for = [](int k, int n, int threads) {
    SimConfig cfg;
    cfg.k = k;
    cfg.n = n;
    cfg.vcs = 2;
    cfg.sim_threads = threads;
    return Network(cfg).shard_count();
  };
  EXPECT_EQ(shards_for(4, 2, 4), 1u);   // 16 routers: serial
  EXPECT_EQ(shards_for(8, 2, 4), 4u);   // 64 routers: 4 x 16
  EXPECT_EQ(shards_for(8, 2, 8), 4u);   // capped at size/16
  EXPECT_EQ(shards_for(32, 2, 4), 4u);  // 1024 routers: plenty of room
  EXPECT_EQ(shards_for(8, 2, 1), 1u);
  EXPECT_GE(shards_for(32, 2, 0), 1u);  // hardware concurrency, clamped
}

TEST(ShardedStep, ClampIsSurfacedNotSilent) {
  // The size/16 clamp must be visible: the network reports both sides of the
  // resolution, and a full run carries them into SimResult. Probe exactly at
  // the clamp edge — 64 routers cap at 4 shards, so threads=4 is honoured
  // verbatim while threads=5 is the first clamped request.
  const auto resolution = [](int k, int threads) {
    SimConfig cfg;
    cfg.k = k;
    cfg.n = 2;
    cfg.vcs = 2;
    cfg.sim_threads = threads;
    const Network net(cfg);
    return std::make_pair(net.shard_count(), net.requested_shard_count());
  };
  const auto at_edge = resolution(8, 4);
  EXPECT_EQ(at_edge.first, 4u);   // honoured verbatim
  EXPECT_EQ(at_edge.second, 4u);
  const auto past_edge = resolution(8, 5);
  EXPECT_EQ(past_edge.first, 4u);  // first clamped request
  EXPECT_EQ(past_edge.second, 5u);
  const auto tiny = resolution(4, 4);
  EXPECT_EQ(tiny.first, 1u);  // 16 routers: serial
  EXPECT_EQ(tiny.second, 4u);

  SimConfig cfg;
  cfg.k = 4;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 8;
  cfg.injection_rate = 1e-3;
  cfg.sim_threads = 4;  // 16 routers: clamps to a serial run
  cfg.warmup_cycles = 50;
  cfg.target_messages = 5;
  cfg.max_cycles = 5000;
  Simulator sim(cfg);
  const SimResult res = sim.run();
  EXPECT_EQ(res.sim_shards, 1u);
  EXPECT_EQ(res.sim_shards_requested, 4u);
}

TEST(ShardedStep, IncrementalOccupancyMatchesScan) {
  // inflight_flits()/source_backlog() are O(1) counters; check them against
  // a manual per-router scan at several points of a sharded run (debug
  // builds also self-check via KNC_DEBUG_ASSERT on every call).
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 8;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 4e-3;
  cfg.seed = 0x0CC;
  cfg.sim_threads = 4;

  Simulator sim(cfg);
  for (int chunk = 0; chunk < 5; ++chunk) {
    sim.step_cycles(400);
    const Network& net = sim.network();
    std::uint64_t scan_inflight = 0;
    std::uint64_t scan_backlog = 0;
    for (topo::NodeId id = 0; id < net.size(); ++id) {
      scan_inflight += net.router(id).buffered_flits();
      scan_backlog += net.router(id).source_queue_length();
    }
    EXPECT_EQ(net.inflight_flits(), scan_inflight) << "chunk " << chunk;
    EXPECT_EQ(net.source_backlog(), scan_backlog) << "chunk " << chunk;
  }
}

/// The pre-lookahead traffic loop, built from public parts: one
/// ArrivalBatch::generate() per tick, fired nodes drained in ascending order
/// with pick_dest on the node's stream, then one Network::step. drain() and
/// inject_now() mirror Simulator's.
class ReferenceTicker {
 public:
  explicit ReferenceTicker(const SimConfig& cfg)
      : net_(cfg),
        metrics_(200.0 * static_cast<double>(cfg.message_length + cfg.k * cfg.n)),
        pattern_(make_pattern(cfg, net_.topology())),
        arrivals_(cfg, net_.faults(), net_.size()) {
    if (cfg.pattern == Pattern::kHotspot) metrics_.set_hot_node(cfg.resolved_hot_node());
    metrics_.begin_measurement(0);
  }

  void step_cycles(std::uint64_t ticks) {
    for (std::uint64_t t = 0; t < ticks; ++t) {
      arrivals_.generate();
      for (topo::NodeId id = 0; id < net_.size(); ++id) {
        if (!arrivals_.fired(id)) continue;
        util::Xoshiro256 rng = arrivals_.extract_rng(id);
        const topo::NodeId dest = pattern_->pick_dest(id, rng);
        arrivals_.store_rng(id, rng);
        enqueue(id, dest);
      }
      step();
    }
  }
  bool drain(std::uint64_t max_cycles) {
    for (std::uint64_t i = 0; i < max_cycles; ++i) {
      if (net_.inflight_flits() == 0 && net_.source_backlog() == 0) return true;
      step();
    }
    return net_.inflight_flits() == 0 && net_.source_backlog() == 0;
  }
  void inject_now(topo::NodeId src, topo::NodeId dest) { enqueue(src, dest); }

  const Network& network() const { return net_; }
  const Metrics& metrics() const { return metrics_; }
  std::uint64_t current_cycle() const { return cycle_; }

 private:
  void enqueue(topo::NodeId src, topo::NodeId dest) {
    QueuedMessage msg;
    msg.id = next_id_++;
    msg.src = src;
    msg.dest = dest;
    msg.gen_cycle = cycle_;
    net_.enqueue_message(msg);
    metrics_.on_generated(msg.gen_cycle);
  }
  void step() { net_.step(cycle_++, metrics_); }

  Network net_;
  Metrics metrics_;
  std::unique_ptr<TrafficPattern> pattern_;
  ArrivalBatch arrivals_;
  std::uint64_t cycle_ = 0;
  MessageId next_id_ = 1;
};

TEST(ShardedStep, LookaheadAndLiveSetInvisibleAtAnyCut) {
  // Arrivals are drawn in 256-tick blocks and only live routers step, yet no
  // cut may show it: step_cycles in chunks that straddle the blocks, a full
  // drain() (cycles that draw no arrivals) after every chunk, then messages
  // injected into the drained, idle network whose paths enter idle routers
  // of other shards in both id directions: 23 -> 55 climbs through 31 -> 39
  // (the T = 2 edge at 32) and 47 -> 55 (the T = 4 edge at 48); 55 -> 7
  // wraps from 63 into shard 0. 64 routers at T = 4 put every shard inside
  // one live/pending bitset word.
  SimConfig cfg;
  cfg.k = 8;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = 8;
  cfg.pattern = Pattern::kHotspot;
  cfg.hot_fraction = 0.2;
  cfg.injection_rate = 2e-3;
  cfg.seed = 0x1005EED;

  for (const std::uint64_t chunk : {1u, 7u, 256u, 1000u}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    const std::uint64_t chunks = std::max<std::uint64_t>(4, 1200 / chunk);
    const auto schedule = [&](auto& sim) {
      for (std::uint64_t c = 0; c < chunks; ++c) {
        sim.step_cycles(chunk);
        ASSERT_TRUE(sim.drain(100000));
        sim.inject_now(23, 55);
        sim.inject_now(55, 7);
      }
    };
    ReferenceTicker ref(cfg);
    schedule(ref);
    const Observation expected = snapshot(ref.network(), ref.metrics());
    ASSERT_GT(expected.generated, 2 * chunks);  // traffic beyond the probes

    SimResultWords serial_result{};
    for (const int threads : {1, 2, 4}) {
      SimConfig tcfg = cfg;
      tcfg.sim_threads = threads;
      Simulator sim(tcfg);
      sim.metrics().begin_measurement(0);
      schedule(sim);
      ASSERT_EQ(sim.network().shard_count(), static_cast<std::size_t>(threads));
      EXPECT_EQ(sim.current_cycle(), ref.current_cycle()) << "T=" << threads;
      expect_identical(expected, snapshot(sim.network(), sim.metrics()), threads,
                       "vs per-tick reference");
      const SimResultWords result = result_words(sim.finalize(0));
      if (threads == 1) {
        serial_result = result;
      } else {
        EXPECT_EQ(result, serial_result) << "finalize() at T=" << threads;
      }
    }
  }
}

TEST(ShardedStep, ThreadTeamRunsEveryMemberEachRound) {
  util::ThreadTeam team(4);
  ASSERT_EQ(team.members(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 200; ++round) {
    team.run([&hits](std::size_t m) {
      hits[m].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(hits[m].load(), 200) << "member " << m;
  }
}

TEST(ShardedStep, SpinBarrierSynchronisesPhases) {
  // Each member bumps a per-phase counter and then waits; after the barrier
  // every member must observe the full count of the phase it just left.
  constexpr std::size_t kMembers = 3;
  constexpr int kPhases = 50;
  util::ThreadTeam team(kMembers);
  util::SpinBarrier barrier(kMembers);
  std::vector<std::atomic<int>> phase_counts(kPhases);
  std::atomic<int> violations{0};
  team.run([&](std::size_t) {
    for (int ph = 0; ph < kPhases; ++ph) {
      phase_counts[ph].fetch_add(1, std::memory_order_relaxed);
      barrier.arrive_and_wait();
      if (phase_counts[ph].load(std::memory_order_relaxed) !=
          static_cast<int>(kMembers)) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace kncube::sim
