// Equivalence tests for the batched traffic-generation kernel (DESIGN.md
// §12): the SoA ArrivalBatch must reproduce, bit for bit, the fire sequence
// of the scalar reference processes (BernoulliArrivals / MmppArrivals) run
// one-node-at-a-time — for random rates, threshold boundary rates, and
// fault-masked node sets, however the compiler vectorized the kernel for
// this build (portable or KNCUBE_NATIVE_ARCH). The lookahead
// fill() is held to the same reference with the destination draws
// included: per cycle, fire(), then pick_dest() on the same generator.
#include "sim/arrival_batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/traffic.hpp"
#include "topology/fault_set.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace kncube::sim {
namespace {

// The predicate the scalar path evaluates: uniform() < rate with
// uniform() = (double)(x >> 11) * 2^-53.
bool scalar_fires(std::uint64_t x, double rate) {
  return static_cast<double>(x >> 11) * 0x1p-53 < rate;
}

TEST(ArrivalBatch, FireThresholdMatchesScalarPredicateEverywhere) {
  // For each rate, the integer threshold must classify every mantissa value
  // exactly as the floating-point comparison does. Check the rate's own
  // neighbourhood (the only place a one-off threshold could hide) plus
  // random probes across the full [0, 2^53) range.
  std::mt19937_64 gen(0xA881);
  std::vector<double> rates = {0.0,    1.0,    0.5,   0.3,  1e-4,
                               2.5e-4, 0x1p-53, 0x1.8p-53, 1.0 - 0x1p-53};
  for (int i = 0; i < 40; ++i) {
    rates.push_back(std::uniform_real_distribution<double>(0.0, 1.0)(gen));
    // Exactly representable m * 2^-53 rates sit on the boundary itself.
    rates.push_back(static_cast<double>(gen() >> 11) * 0x1p-53);
  }
  for (const double rate : rates) {
    const std::uint64_t t = bernoulli_fire_threshold(rate);
    // Neighbourhood of the threshold: m in [t - 4, t + 4].
    for (std::int64_t d = -4; d <= 4; ++d) {
      const std::int64_t m = static_cast<std::int64_t>(t) + d;
      if (m < 0 || m >= (std::int64_t{1} << 53)) continue;
      const std::uint64_t x = static_cast<std::uint64_t>(m) << 11;
      EXPECT_EQ(scalar_fires(x, rate),
                static_cast<std::uint64_t>(m) < t)
          << "rate=" << rate << " m=" << m;
    }
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t x = gen();
      EXPECT_EQ(scalar_fires(x, rate), (x >> 11) < t)
          << "rate=" << rate << " x=" << x;
    }
  }
}

SimConfig base_config(int k) {
  SimConfig cfg;
  cfg.k = k;
  cfg.n = 2;
  cfg.vcs = 2;
  cfg.seed = 0xD15EA5E;
  return cfg;
}

/// Runs `cycles` of the batch kernel against a per-node scalar reference
/// (own generator, own process instance — exactly the pre-batch simulator
/// loop) and asserts bitwise-equal fire sequences and generator states.
void check_equivalence(const SimConfig& cfg, std::uint64_t cycles) {
  const topo::KAryNCube topo(cfg.k, cfg.n, cfg.bidirectional, cfg.mesh);
  const topo::FaultSet faults = build_fault_set(cfg, topo);
  ArrivalBatch batch(cfg, faults, topo.size());

  std::vector<util::Xoshiro256> rngs;
  std::vector<std::unique_ptr<ArrivalProcess>> refs;
  rngs.reserve(topo.size());
  for (topo::NodeId id = 0; id < topo.size(); ++id) {
    rngs.push_back(util::Xoshiro256(cfg.seed).split(id));
    refs.push_back(make_arrivals(cfg));
  }

  for (std::uint64_t c = 0; c < cycles; ++c) {
    batch.generate();
    for (topo::NodeId id = 0; id < topo.size(); ++id) {
      if (faults.router_failed(id)) {
        // Dead nodes never fire and their streams stay frozen.
        EXPECT_FALSE(batch.fired(id)) << "cycle " << c << " node " << id;
        continue;
      }
      const bool ref_fired = refs[id]->fire(rngs[id]);
      ASSERT_EQ(batch.fired(id), ref_fired)
          << "cycle " << c << " node " << id;
      // The batch stream must sit at exactly the reference stream's state:
      // the next draws (destination choice) consume the same bits.
      std::uint64_t ref_state[4];
      std::uint64_t batch_state[4];
      rngs[id].save_state(ref_state);
      batch.extract_rng(id).save_state(batch_state);
      for (int w = 0; w < 4; ++w) {
        ASSERT_EQ(batch_state[w], ref_state[w])
            << "cycle " << c << " node " << id << " word " << w;
      }
    }
  }
}

TEST(ArrivalBatch, BernoulliBitIdenticalToReference) {
  for (const double rate : {1e-4, 2.5e-4, 0.37, 0.0, 1.0}) {
    SimConfig cfg = base_config(8);
    cfg.injection_rate = rate;
    check_equivalence(cfg, 200);
  }
}

TEST(ArrivalBatch, MmppBitIdenticalToReference) {
  SimConfig cfg = base_config(8);
  cfg.arrivals = Arrivals::kMmpp;
  cfg.injection_rate = 5e-3;  // transitions and both emission rates exercised
  cfg.mmpp.p_enter_burst = 0.05;
  cfg.mmpp.p_leave_burst = 0.1;
  check_equivalence(cfg, 600);
}

TEST(ArrivalBatch, FaultMaskedNodesStayFrozen) {
  SimConfig cfg = base_config(8);
  cfg.injection_rate = 0.3;  // dense fires make divergence loud
  cfg.failed_routers = {0, 3, 17, 62, 63};  // word edges and interior
  check_equivalence(cfg, 200);

  SimConfig mmpp = cfg;
  mmpp.arrivals = Arrivals::kMmpp;
  mmpp.mmpp.p_enter_burst = 0.05;
  mmpp.mmpp.p_leave_burst = 0.1;
  check_equivalence(mmpp, 300);
}

TEST(ArrivalBatch, NonMultipleOfEightNodeCountMatchesReference) {
  // 5x5 torus: 25 nodes, a multiple of no vector width, so the vectorized
  // loop's scalar remainder runs too.
  SimConfig cfg = base_config(5);
  cfg.injection_rate = 0.4;
  check_equivalence(cfg, 200);
}

TEST(ArrivalBatch, RandomizedConfigsBitIdenticalToReference) {
  // Draw random (rate, seed, fault set, process) combinations; every one
  // must match the scalar reference bit for bit.
  std::mt19937_64 gen(0xBADC0DE);
  for (int trial = 0; trial < 8; ++trial) {
    SimConfig cfg = base_config((trial % 2) ? 8 : 5);
    cfg.seed = gen();
    cfg.injection_rate =
        std::uniform_real_distribution<double>(1e-5, 0.5)(gen);
    if (trial % 3 == 0) {
      cfg.arrivals = Arrivals::kMmpp;
      cfg.mmpp.p_enter_burst =
          std::uniform_real_distribution<double>(0.01, 0.2)(gen);
      cfg.mmpp.p_leave_burst =
          std::uniform_real_distribution<double>(0.01, 0.2)(gen);
    }
    if (trial % 2 == 0) {
      cfg.failure_rate = 0.1;
      cfg.failure_seed = gen() | 1;
    }
    check_equivalence(cfg, 150);
  }
}

/// Runs `cycles` cycles of fill() blocks of length `block` against the
/// per-node scalar reference of the pre-lookahead simulator — per cycle,
/// fire() on the node's own generator and, when it fires, pick_dest() on
/// that same generator — and asserts every cycle's fire list (ascending
/// nodes, same destinations) and every node's final generator state.
void check_fill(const SimConfig& cfg, std::uint32_t block, std::uint64_t cycles) {
  const topo::KAryNCube topo(cfg.k, cfg.n, cfg.bidirectional, cfg.mesh);
  const topo::FaultSet faults = build_fault_set(cfg, topo);
  ArrivalBatch batch(cfg, faults, topo.size());
  const auto pattern = make_pattern(cfg, topo);
  const auto ref_pattern = make_pattern(cfg, topo);

  std::vector<util::Xoshiro256> rngs;
  std::vector<std::unique_ptr<ArrivalProcess>> refs;
  for (topo::NodeId id = 0; id < topo.size(); ++id) {
    rngs.push_back(util::Xoshiro256(cfg.seed).split(id));
    refs.push_back(make_arrivals(cfg));
  }

  std::uint64_t total_fires = 0;
  for (std::uint64_t start = 0; start < cycles; start += block) {
    batch.fill(*pattern, block);
    for (std::uint32_t c = 0; c < block; ++c) {
      std::vector<ArrivalBatch::Fire> expected;
      for (topo::NodeId id = 0; id < topo.size(); ++id) {
        if (faults.router_failed(id)) continue;  // frozen: never drawn
        if (!refs[id]->fire(rngs[id])) continue;
        expected.push_back({id, ref_pattern->pick_dest(id, rngs[id])});
      }
      const auto got = batch.fires(c);
      const std::string where =
          "block " + std::to_string(block) + " cycle " + std::to_string(start + c);
      ASSERT_EQ(got.size(), expected.size()) << where;
      for (std::size_t f = 0; f < got.size(); ++f) {
        EXPECT_EQ(got[f].node, expected[f].node) << where << " fire " << f;
        EXPECT_EQ(got[f].dest, expected[f].dest) << where << " fire " << f;
        if (f > 0) {
          EXPECT_LT(got[f - 1].node, got[f].node) << where;
        }
      }
      total_fires += got.size();
    }
  }
  EXPECT_GT(total_fires, 0u) << "rate too low to exercise the destination draws";
  // Dead nodes' generators were never advanced on either side.
  for (topo::NodeId id = 0; id < topo.size(); ++id) {
    std::uint64_t ref_state[4];
    std::uint64_t batch_state[4];
    rngs[id].save_state(ref_state);
    batch.extract_rng(id).save_state(batch_state);
    for (int w = 0; w < 4; ++w) {
      ASSERT_EQ(batch_state[w], ref_state[w]) << "node " << id << " word " << w;
    }
  }
}

TEST(ArrivalBatch, FillBitIdenticalToReferenceStreams) {
  for (const std::uint32_t block : {1u, 7u, 256u}) {
    for (const Pattern pattern : {Pattern::kUniform, Pattern::kHotspot}) {
      for (const Arrivals arrivals : {Arrivals::kBernoulli, Arrivals::kMmpp}) {
        SCOPED_TRACE("block " + std::to_string(block) + " pattern " +
                     std::to_string(static_cast<int>(pattern)) + " arrivals " +
                     std::to_string(static_cast<int>(arrivals)));
        SimConfig cfg = base_config(8);
        cfg.pattern = pattern;
        cfg.hot_fraction = 0.3;
        cfg.arrivals = arrivals;
        cfg.injection_rate = 0.02;
        cfg.mmpp.p_enter_burst = 0.05;
        cfg.mmpp.p_leave_burst = 0.1;
        check_fill(cfg, block, 600);
      }
    }
  }
}

TEST(ArrivalBatch, FillKeepsFaultMaskedStreamsFrozen) {
  for (const std::uint32_t block : {1u, 7u, 256u}) {
    for (const Arrivals arrivals : {Arrivals::kBernoulli, Arrivals::kMmpp}) {
      SCOPED_TRACE("block " + std::to_string(block) + " arrivals " +
                   std::to_string(static_cast<int>(arrivals)));
      SimConfig cfg = base_config(8);
      cfg.arrivals = arrivals;
      cfg.injection_rate = 0.2;  // dense fires make divergence loud
      cfg.mmpp.p_enter_burst = 0.05;
      cfg.mmpp.p_leave_burst = 0.1;
      cfg.failed_routers = {0, 3, 17, 62, 63};  // word edges and interior
      check_fill(cfg, block, 600);
    }
  }
}

TEST(ArrivalBatch, FillOnOddNodeCountAndRandomFaults) {
  // 5x5 torus (25 nodes, not a multiple of 8 or 64) with seed-drawn random
  // router failures on the hot-spot pattern.
  SimConfig cfg = base_config(5);
  cfg.injection_rate = 0.1;
  cfg.failure_rate = 0.2;
  cfg.failure_seed = 0xF00D;
  check_fill(cfg, 7, 400);
}

}  // namespace
}  // namespace kncube::sim
