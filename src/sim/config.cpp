#include "sim/config.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace kncube::sim {

std::uint64_t replication_seed(std::uint64_t scenario_key, std::uint64_t base_seed,
                               std::uint64_t replication) {
  // Stage 1: a per-scenario stream id. The multiplier keeps distinct base
  // seeds from colliding after the XOR even when scenario keys differ in few
  // bits; +1 keeps base_seed == 0 from zeroing the product.
  util::SplitMix64 scenario_stream(scenario_key ^
                                   (0xd1342543de82ef95ULL * (base_seed + 1)));
  const std::uint64_t stream_id = scenario_stream.next();
  // Stage 2: the replication member, golden-ratio strided within the stream.
  util::SplitMix64 member(stream_id ^ (0x9e3779b97f4a7c15ULL * (replication + 1)));
  return member.next();
}

topo::FaultSet build_fault_set(const SimConfig& cfg, const topo::KAryNCube& net) {
  if (!cfg.has_failures()) return {};
  std::vector<topo::NodeId> routers;
  routers.reserve(cfg.failed_routers.size());
  for (const std::int64_t r : cfg.failed_routers) {
    routers.push_back(static_cast<topo::NodeId>(r));
  }
  const std::int64_t protect =
      cfg.pattern == Pattern::kHotspot
          ? static_cast<std::int64_t>(cfg.resolved_hot_node())
          : -1;
  return topo::FaultSet::resolve(net, routers, cfg.failed_links,
                                 cfg.failure_rate, cfg.failure_seed, protect);
}

void SimConfig::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("SimConfig: " + msg); };
  // Range checks are written !(lo <= x && x <= hi) so that NaN fails them.
  if (k < 2) fail("radix k must be >= 2");
  if (n < 1 || n > topo::kMaxDims) fail("dimension count out of range");
  std::uint64_t nodes = 1;
  for (int d = 0; d < n; ++d) {
    nodes *= static_cast<std::uint64_t>(k);
    if (nodes > topo::kMaxNodes) {
      fail("k^n exceeds the " + std::to_string(topo::kMaxNodes) +
           " nodes a network can address");
    }
  }
  if (mesh && bidirectional) {
    // Mesh links are inherently bidirectional; the flag is the torus
    // extension knob and combining them would silently alias two topologies.
    fail("the bidirectional flag applies to the torus; a mesh is always "
         "bidirectional");
  }
  const topo::KAryNCube net(k, n, bidirectional, mesh);
  const std::uint64_t size = net.size();
  if (vcs < 1) fail("need at least one virtual channel");
  if (!net.bidirectional() && k > 2 && vcs < 2) {
    // A unidirectional ring with a single VC can deadlock (paper assumption
    // vi requires V >= 2); k == 2 rings have no cycle of length > 1. A mesh
    // is acyclic under dimension-order routing and needs no second VC.
    fail("unidirectional torus requires V >= 2 for deadlock freedom");
  }
  if (buffer_depth < 1) fail("buffer depth must be >= 1");
  if (message_length < 1) fail("message length must be >= 1 flit");
  if (!(0.0 <= injection_rate && injection_rate <= 1.0)) {
    fail("injection rate must be a per-cycle probability");
  }
  if (pattern == Pattern::kHotspot && !(0.0 <= hot_fraction && hot_fraction <= 1.0)) {
    fail("hot fraction must be in [0,1]");
  }
  // -1 is the only placeholder (the centre node); any other negative would
  // silently alias it in resolved_hot_node.
  if (hot_node < -1) fail("hot node must be -1 (centre) or a node id");
  if (hot_node >= 0 && static_cast<std::uint64_t>(hot_node) >= size) {
    fail("hot node " + std::to_string(hot_node) + " outside the network");
  }
  if (pattern == Pattern::kTranspose && n != 2) fail("transpose traffic needs n == 2");
  if (pattern == Pattern::kBitComplement && size % 2 != 0) {
    fail("bit-complement needs an even node count");
  }
  if (pattern == Pattern::kBitReversal && !std::has_single_bit(size)) {
    fail("bit-reversal needs a power-of-two node count");
  }
  if (arrivals == Arrivals::kMmpp) {
    // Reject out-of-range MMPP parameters here, before they reach the
    // arrival-process constructor's asserts mid-simulation.
    if (!(0.0 < mmpp.p_enter_burst && mmpp.p_enter_burst <= 1.0) ||
        !(0.0 < mmpp.p_leave_burst && mmpp.p_leave_burst <= 1.0)) {
      fail("MMPP transition probabilities must be in (0,1]");
    }
    const double mult = mmpp.burst_rate_multiplier;
    if (!(1.0 <= mult && std::isfinite(mult))) {
      fail("MMPP burst multiplier must be finite and >= 1");
    }
  }

  // Fault description: bounds and canonical strict ordering (which also
  // rules out duplicates), and the hot node must survive so hot-spot
  // measurement traffic keeps its sink.
  const std::int64_t hot = pattern == Pattern::kHotspot
                               ? static_cast<std::int64_t>(resolved_hot_node())
                               : -1;
  std::int64_t last_router = -1;
  for (const std::int64_t r : failed_routers) {
    if (r < 0 || static_cast<std::uint64_t>(r) >= size) {
      fail("failed router " + std::to_string(r) + " outside the network");
    }
    if (r <= last_router) {
      fail("failed routers must be strictly ascending (no duplicates)");
    }
    if (r == hot) {
      fail("cannot fail the hot-spot node (the sink of measurement traffic)");
    }
    last_router = r;
  }
  if (failed_routers.size() >= size) fail("cannot fail every router");
  std::int64_t last_link = -1;
  for (const topo::FailedLink& l : failed_links) {
    if (l.node < 0 || static_cast<std::uint64_t>(l.node) >= size) {
      fail("failed link node " + std::to_string(l.node) + " outside the network");
    }
    if (l.dim < 0 || l.dim >= n) {
      fail("failed link dimension " + std::to_string(l.dim) + " out of range");
    }
    if (l.dir == topo::Direction::kMinus && !net.bidirectional()) {
      fail("minus-direction links do not exist on a unidirectional torus");
    }
    if (!net.link_exists(static_cast<topo::NodeId>(l.node), l.dim, l.dir)) {
      fail("failed link does not exist (mesh edge would wrap)");
    }
    const std::int64_t key = (l.node << 5) | (std::int64_t{l.dim} << 1) |
                             (l.dir == topo::Direction::kMinus ? 1 : 0);
    if (key <= last_link) {
      fail("failed links must be strictly ascending by (node, dim, dir) "
           "(no duplicates)");
    }
    last_link = key;
  }
  if (!(0.0 <= failure_rate && failure_rate < 1.0)) fail("failure rate must be in [0,1)");

  if (sim_threads < 0) fail("sim threads must be >= 0 (0 = hardware concurrency)");
  if (target_messages == 0) fail("target messages must be positive");
  if (max_cycles <= warmup_cycles) fail("max cycles must exceed warmup");
}

}  // namespace kncube::sim
