// Flit and message units moved by the wormhole simulator.
//
// A message of Lm flits is a HEAD flit (carries routing state), Lm-2 BODY
// flits and a TAIL flit (Lm == 1 yields a combined HEAD|TAIL flit). Flits
// are self-describing — message id, source, destination and generation
// timestamp ride in every flit — so the hot loop needs no side-table
// lookups; per-message bookkeeping (network-latency stamps) lives in Metrics
// instead. A flit carries no index within its message: a VC holds one
// message at a time and its flits stay in order, so the head and tail flags
// are all the router needs, and a flit fits in 32 bytes.
#pragma once

#include <cstdint>

#include "topology/torus.hpp"

namespace kncube::sim {

using MessageId = std::uint64_t;

struct Flit {
  MessageId msg = 0;
  topo::NodeId src = 0;
  topo::NodeId dest = 0;
  std::uint64_t gen_cycle = 0;  ///< cycle the message was generated at the PE
  bool head = false;
  bool tail = false;
};
static_assert(sizeof(Flit) <= 32, "two flits per cache line");

/// A generated message waiting in a source queue; flits are materialised
/// lazily when the message reaches the head of its injection VC, keeping
/// memory bounded even when source queues grow long near saturation.
struct QueuedMessage {
  MessageId id = 0;
  topo::NodeId src = 0;
  topo::NodeId dest = 0;
  std::uint64_t gen_cycle = 0;
};

}  // namespace kncube::sim
