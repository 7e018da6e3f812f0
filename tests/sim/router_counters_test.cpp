// The owner-kept phase counts (Router::PhaseCounts, router.hpp) against a
// scan of the lanes at every cycle boundary.
//
// A live router's phase returns at once when its count is 0, so a count that
// drifts from the state it summarises would skip real work, or scan for work
// that is not there, and a golden would notice only if a scenario happened
// to reach the drift. Debug builds recount every live router's counts
// before every step; this test recounts every router's in every build, cycle
// by cycle, serial and sharded, over scenarios that reach every counter site:
// destined heads and bodies arriving, refills, routing, VC grants under
// contention near the hot spot, bidirectional and mesh ports, unwired
// (faulty) links and bursty arrivals. buffered_flits(), which reads the
// staged arrival slots, is checked against the rings' own counts too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace kncube::sim {
namespace {

std::string describe(const Router::PhaseCounts& c) {
  return "{queued " + std::to_string(c.queued) + ", destined " +
         std::to_string(c.destined) + ", unrouted " + std::to_string(c.unrouted) +
         ", unallocated " + std::to_string(c.unallocated) + ", busy_out " +
         std::to_string(c.busy_out) + "}";
}

struct Case {
  std::string name;
  SimConfig cfg;
  std::uint64_t cycles = 0;
};

/// A 64-router network, so that T = 4 runs four shards of 16.
SimConfig base(int k, int n, int message_length, double rate) {
  SimConfig cfg;
  cfg.k = k;
  cfg.n = n;
  cfg.vcs = 2;
  cfg.buffer_depth = 2;
  cfg.message_length = message_length;
  cfg.injection_rate = rate;
  cfg.seed = 0xC0DE5;
  return cfg;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  // The hot-y channel into the hot node reaches rho = 1 near 0.0043 here.
  SimConfig knee = base(8, 2, 16, 0.004);
  knee.pattern = Pattern::kHotspot;
  knee.hot_fraction = 0.2;
  out.push_back({"hot-spot torus near the knee", knee, 2500});

  SimConfig bidir = base(8, 2, 16, 0.025);
  bidir.bidirectional = true;
  bidir.pattern = Pattern::kUniform;
  out.push_back({"bidirectional uniform torus", bidir, 1500});

  SimConfig mesh = base(4, 3, 8, 0.01);
  mesh.mesh = true;
  mesh.pattern = Pattern::kHotspot;
  mesh.hot_fraction = 0.2;
  out.push_back({"3-D hot-spot mesh", mesh, 1500});

  SimConfig faulty = base(8, 2, 16, 0.006);
  faulty.pattern = Pattern::kHotspot;
  faulty.hot_fraction = 0.1;
  faulty.failed_routers = {9, 45};
  faulty.failed_links = {{20, 0, topo::Direction::kPlus}, {50, 1, topo::Direction::kPlus}};
  out.push_back({"faulty torus", faulty, 1500});

  SimConfig mmpp = base(8, 2, 16, 0.003);
  mmpp.pattern = Pattern::kHotspot;
  mmpp.hot_fraction = 0.2;
  mmpp.arrivals = Arrivals::kMmpp;
  mmpp.mmpp.p_enter_burst = 0.01;
  mmpp.mmpp.p_leave_burst = 0.02;
  out.push_back({"MMPP arrivals", mmpp, 1500});
  return out;
}

TEST(RouterCounters, MatchAScanAtEveryCycleBoundary) {
  for (const Case& c : cases()) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(c.name + " T=" + std::to_string(threads));
      SimConfig cfg = c.cfg;
      cfg.sim_threads = threads;
      Simulator sim(cfg);
      const Network& net = sim.network();
      ASSERT_EQ(net.shard_count(), static_cast<std::size_t>(threads));
      // At how many (cycle, router) boundaries each count was non-zero:
      // every count must be exercised, or its comparison proves nothing.
      Router::PhaseCounts seen;
      for (std::uint64_t cycle = 1; cycle <= c.cycles; ++cycle) {
        sim.step_cycles(1);
        std::uint64_t inflight = 0;
        for (topo::NodeId id = 0; id < net.size(); ++id) {
          const Router& r = net.router(id);
          const Router::PhaseCounts kept = r.phase_counts();
          const Router::PhaseCounts scan = r.scan_phase_counts();
          ASSERT_TRUE(kept == scan) << "cycle " << cycle << " router " << id
                                    << ": kept " << describe(kept) << ", scan "
                                    << describe(scan);
          std::uint64_t ringed = 0;
          for (int p = 0; p <= r.network_ports(); ++p) {
            for (int v = 0; v < r.vcs(); ++v) ringed += r.input_vc(p, v).count;
          }
          ASSERT_EQ(r.buffered_flits(), ringed) << "cycle " << cycle << " router " << id;
          inflight += ringed;
          seen.destined += kept.destined != 0;
          seen.unrouted += kept.unrouted != 0;
          seen.unallocated += kept.unallocated != 0;
          seen.busy_out += kept.busy_out != 0;
          seen.queued += kept.queued != 0;
        }
        ASSERT_EQ(net.inflight_flits(), inflight) << "cycle " << cycle;
      }
      EXPECT_GT(seen.queued, 0u) << describe(seen);
      EXPECT_GT(seen.destined, 0u) << describe(seen);
      EXPECT_GT(seen.unrouted, 0u) << describe(seen);
      EXPECT_GT(seen.unallocated, 0u) << describe(seen);
      EXPECT_GT(seen.busy_out, 0u) << describe(seen);
    }
  }
}

}  // namespace
}  // namespace kncube::sim
