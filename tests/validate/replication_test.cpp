// ReplicationRunner: seed-stream derivation, aggregation correctness, and
// the central determinism contract — results are bit-identical regardless
// of how many worker threads execute the replication grid.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "sim/simulator.hpp"
#include "validate/replication.hpp"

namespace kncube::validate {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

core::ScenarioSpec small_spec() {
  core::ScenarioSpec spec;
  spec.torus().k = 4;
  spec.hotspot().fraction = 0.2;
  spec.message_length = 8;
  spec.target_messages = 300;
  spec.warmup_cycles = 1000;
  spec.max_cycles = 120000;
  return spec;
}

TEST(ReplicationSeed, DeterministicAndDecorrelated) {
  const core::ScenarioSpec spec = small_spec();
  const std::uint64_t key = spec.key();

  // Stable across calls.
  EXPECT_EQ(sim::replication_seed(key, spec.seed, 0),
            sim::replication_seed(key, spec.seed, 0));

  // Distinct across replications, scenarios and base seeds.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t r = 0; r < 32; ++r) {
    seeds.insert(sim::replication_seed(key, spec.seed, r));
  }
  EXPECT_EQ(seeds.size(), 32u);
  EXPECT_NE(sim::replication_seed(key, spec.seed, 0),
            sim::replication_seed(key ^ 1, spec.seed, 0));
  EXPECT_NE(sim::replication_seed(key, spec.seed, 0),
            sim::replication_seed(key, spec.seed + 1, 0));
}

TEST(ReplicationRunner, SeedsDeriveFromSpecKey) {
  const core::ScenarioSpec spec = small_spec();
  const ReplicationRunner runner(spec, 3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(runner.replication_seed(r),
              sim::replication_seed(spec.key(), spec.seed, static_cast<std::uint64_t>(r)));
  }
}

TEST(ReplicationRunner, AggregatesMatchDirectSimulations) {
  const core::ScenarioSpec spec = small_spec();
  const double lambda = 0.002;
  const int R = 3;
  const ReplicationRunner runner(spec, R);
  const ReplicationPoint pt = runner.run(lambda);

  ASSERT_EQ(pt.replications, R);
  ASSERT_EQ(pt.results.size(), static_cast<std::size_t>(R));
  EXPECT_EQ(pt.lambda, lambda);

  // Each replication slot must hold exactly the simulate() result for its
  // derived seed, and the CI must be the Student-t interval over the slots.
  std::vector<double> latencies;
  for (int r = 0; r < R; ++r) {
    sim::SimConfig cfg = core::to_sim_config(spec, lambda);
    cfg.seed = runner.replication_seed(r);
    const sim::SimResult direct = sim::simulate(cfg);
    EXPECT_EQ(bits(pt.results[r].mean_latency), bits(direct.mean_latency)) << r;
    EXPECT_EQ(pt.results[r].measured_messages, direct.measured_messages) << r;
    latencies.push_back(direct.mean_latency);
  }
  const util::ConfidenceInterval expect = util::student_t_ci(latencies, 0.95);
  EXPECT_EQ(bits(pt.latency.mean), bits(expect.mean));
  EXPECT_EQ(bits(pt.latency.half_width), bits(expect.half_width));
  EXPECT_EQ(pt.saturated_replications, 0);
  EXPECT_FALSE(pt.saturated());
}

TEST(ReplicationRunner, BitIdenticalAcrossThreadCounts) {
  // The acceptance-criteria pin: one worker vs several workers, same bits
  // everywhere — seeds are schedule-independent and aggregation is a
  // sequential fold in replication order.
  const core::ScenarioSpec spec = small_spec();
  const std::vector<double> lambdas = {0.001, 0.004};

  util::ThreadPool one(1);
  util::ThreadPool many(4);
  const ReplicationRunner serial(spec, 4, &one);
  const ReplicationRunner parallel(spec, 4, &many);

  const auto a = serial.run(lambdas);
  const auto b = parallel.run(lambdas);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(bits(a[p].latency.mean), bits(b[p].latency.mean)) << p;
    EXPECT_EQ(bits(a[p].latency.half_width), bits(b[p].latency.half_width)) << p;
    EXPECT_EQ(bits(a[p].network_latency.mean), bits(b[p].network_latency.mean)) << p;
    EXPECT_EQ(bits(a[p].throughput.mean), bits(b[p].throughput.mean)) << p;
    EXPECT_EQ(a[p].saturated_replications, b[p].saturated_replications) << p;
    EXPECT_EQ(a[p].steady_replications, b[p].steady_replications) << p;
    ASSERT_EQ(a[p].results.size(), b[p].results.size()) << p;
    for (std::size_t r = 0; r < a[p].results.size(); ++r) {
      EXPECT_EQ(bits(a[p].results[r].mean_latency), bits(b[p].results[r].mean_latency))
          << p << "," << r;
      EXPECT_EQ(a[p].results[r].cycles, b[p].results[r].cycles) << p << "," << r;
    }
  }
}

TEST(ReplicationRunner, OuterWorkersComposeWithInnerSimThreads) {
  // Replication-level parallelism (worker pool) nests with intra-simulation
  // sharding (sim.threads): since sim.threads is excluded from the spec
  // key(), per-replication seeds are unchanged, and sharded stepping is
  // bit-identical, every (outer x inner) combination must reproduce the
  // serial ReplicationPoint exactly. k = 8 so the inner knob gets real
  // shards (64 routers -> 4 x 16).
  core::ScenarioSpec spec = small_spec();
  spec.torus().k = 8;
  spec.target_messages = 200;
  ASSERT_EQ(spec.key(), [&] {
    core::ScenarioSpec t = spec;
    t.sim_threads = 4;
    return t.key();
  }());

  util::ThreadPool one(1);
  util::ThreadPool many(3);
  const ReplicationRunner serial(spec, 3, &one);
  core::ScenarioSpec sharded_spec = spec;
  sharded_spec.sim_threads = 4;
  const ReplicationRunner sharded_serial_pool(sharded_spec, 3, &one);
  const ReplicationRunner sharded_parallel_pool(sharded_spec, 3, &many);

  const double lambda = 0.002;
  const ReplicationPoint a = serial.run(lambda);
  for (const ReplicationRunner* runner :
       {&sharded_serial_pool, &sharded_parallel_pool}) {
    const ReplicationPoint b = runner->run(lambda);
    EXPECT_EQ(bits(a.latency.mean), bits(b.latency.mean));
    EXPECT_EQ(bits(a.latency.half_width), bits(b.latency.half_width));
    EXPECT_EQ(bits(a.network_latency.mean), bits(b.network_latency.mean));
    EXPECT_EQ(bits(a.throughput.mean), bits(b.throughput.mean));
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t r = 0; r < a.results.size(); ++r) {
      EXPECT_EQ(bits(a.results[r].mean_latency), bits(b.results[r].mean_latency))
          << "replication " << r;
      EXPECT_EQ(a.results[r].cycles, b.results[r].cycles) << "replication " << r;
    }
  }
}

TEST(ReplicationRunner, SingleReplicationHasInfiniteHalfWidth) {
  // R = 1 degenerates to a point estimate: the CI must say so (infinite
  // half-width), not fake certainty.
  const ReplicationRunner runner(small_spec(), 1);
  const ReplicationPoint pt = runner.run(0.002);
  EXPECT_EQ(pt.latency.count, 1u);
  EXPECT_TRUE(std::isinf(pt.latency.half_width));
  EXPECT_GT(pt.latency.mean, 0.0);
}

TEST(ReplicationRunner, RejectsBadConfig) {
  EXPECT_THROW(ReplicationRunner(small_spec(), 0), std::invalid_argument);
  core::ScenarioSpec bad = small_spec();
  bad.torus().k = 1;
  EXPECT_THROW(ReplicationRunner(bad, 3), std::invalid_argument);
}

}  // namespace
}  // namespace kncube::validate
