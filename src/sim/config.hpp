// Simulator configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/fault_set.hpp"
#include "topology/torus.hpp"

namespace kncube::sim {

/// Destination pattern. Hotspot is the paper's traffic model (assumption ii):
/// probability `hot_fraction` to the hot node, else uniform over the other
/// nodes; the hot node itself only generates uniform traffic.
enum class Pattern : int {
  kUniform = 0,
  kHotspot = 1,
  kTranspose = 2,     ///< (x, y) -> (y, x); diagonal nodes fall back to uniform
  kBitComplement = 3, ///< dest id = N-1 - src id
  kBitReversal = 4,   ///< reverse the bits of the node index (N power of two)
};

/// Arrival process per node. Bernoulli(rate) per cycle is the discrete-time
/// Poisson approximation used throughout the paper's operating range
/// (rate << 1). MMPP is the bursty extension flagged as future work in §5:
/// a two-state modulated Bernoulli with a burst state and an idle state.
enum class Arrivals : int { kBernoulli = 0, kMmpp = 1 };

struct MmppParams {
  double burst_rate_multiplier = 4.0;  ///< rate in burst state = mult * mean rate
  double p_enter_burst = 0.0005;       ///< idle -> burst transition prob per cycle
  double p_leave_burst = 0.002;        ///< burst -> idle transition prob per cycle
};

struct SimConfig {
  // --- network ---
  int k = 16;                 ///< radix
  int n = 2;                  ///< dimensions
  bool bidirectional = false; ///< paper analyses the unidirectional torus
  /// k-ary n-mesh: no wrap-around links, lines instead of rings. Mesh links
  /// are inherently bidirectional, so `bidirectional` must stay false (it is
  /// the torus extension flag); dimension-order routing is acyclic on a
  /// mesh, so no dateline VC classes and no V >= 2 deadlock requirement.
  bool mesh = false;
  int vcs = 2;                ///< V, virtual channels per physical channel (>= 2)
  int buffer_depth = 2;       ///< flit buffer per VC; >= 2 streams 1 flit/cycle

  // --- workload ---
  int message_length = 32;       ///< Lm flits
  double injection_rate = 1e-4;  ///< lambda, messages/node/cycle
  Pattern pattern = Pattern::kHotspot;
  double hot_fraction = 0.2;  ///< h
  /// Hot node id; -1 picks the centre node (k/2, k/2, ...). Position is
  /// immaterial on a torus (full symmetry); configurable for tests.
  std::int64_t hot_node = -1;
  Arrivals arrivals = Arrivals::kBernoulli;
  MmppParams mmpp{};

  // --- faults (degraded-operation scenarios; all empty = pristine) ---
  /// Explicitly failed router ids (strictly ascending). A failed router
  /// injects nothing, ejects nothing, and every link touching it is down.
  std::vector<std::int64_t> failed_routers;
  /// Explicitly failed directed links (strictly ascending by
  /// (node, dim, dir)); both endpoint routers stay alive.
  std::vector<topo::FailedLink> failed_links;
  /// Random failure mode: fail round(rate * N) additional routers, drawn
  /// from failure_seed (deterministic; the hot node is protected under
  /// hot-spot traffic). 0 disables the mode. Must stay in [0, 1).
  double failure_rate = 0.0;
  std::uint64_t failure_seed = 1;

  bool has_failures() const noexcept {
    return !failed_routers.empty() || !failed_links.empty() ||
           failure_rate != 0.0;
  }

  // --- execution (cannot change any result bit) ---
  /// Worker threads sharding the router set inside Network::step. 1 runs the
  /// classic serial loop; 0 uses hardware_concurrency; N > 1 partitions the
  /// router-id range over N team members, with one barrier per cycle.
  /// Results are bit-identical for every value (pinned by the determinism
  /// goldens at T ∈ {1,2,4}), so this is a pure wall-clock knob; the shard
  /// count is additionally capped so tiny networks never over-partition.
  int sim_threads = 1;

  // --- measurement ---
  std::uint64_t seed = 0xC0FFEE;
  std::uint64_t warmup_cycles = 20000;
  std::uint64_t target_messages = 2500;   ///< measured deliveries wanted
  std::uint64_t max_cycles = 3'000'000;

  topo::NodeId resolved_hot_node() const {
    return hot_node >= 0 ? static_cast<topo::NodeId>(hot_node)
                         : topo::centre_node(k, n);
  }

  /// Throws std::invalid_argument on any setting the simulator cannot run:
  /// the one check of every rule a SimConfig can express. Network calls it
  /// before building anything.
  void validate() const;
};

/// Simulator seed for replication `replication` of the scenario whose
/// canonical key (core::ScenarioSpec::key()) is `scenario_key` and whose
/// configured base seed is `base_seed`.
///
/// The stream is a two-stage SplitMix64 derivation: (scenario_key, base_seed)
/// select a per-scenario stream, and the replication index selects the member
/// seed within it. Constant time, deterministic across processes and thread
/// schedules, and decorrelated both across replications and from
/// core::SweepEngine's per-point golden-ratio seeds (which XOR the base seed
/// directly, without the SplitMix64 mixing stage).
std::uint64_t replication_seed(std::uint64_t scenario_key, std::uint64_t base_seed,
                               std::uint64_t replication);

/// Resolves `cfg`'s failure description against `net` into the concrete
/// fault overlay (explicit lists + seeded random draw, hot node protected
/// under hot-spot traffic). The single resolution path shared by Network
/// wiring, the reliability layer and the tests — so they can never disagree
/// on which elements failed. Returns the empty overlay when cfg has no
/// failures.
topo::FaultSet build_fault_set(const SimConfig& cfg, const topo::KAryNCube& net);

}  // namespace kncube::sim
