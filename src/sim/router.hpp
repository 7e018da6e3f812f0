// A wormhole router with virtual-channel flow control (paper §2).
//
// Microarchitecture (single-stage, one hop per cycle at zero load):
//   * one network input port per incoming channel, each with V virtual
//     channels backed by a `buffer_depth`-flit FIFO and credit-based
//     backpressure;
//   * one injection input port (V VCs fed from per-VC infinite source
//     queues; a queued message's flits materialise lazily);
//   * per-cycle phases: eject -> route -> VC allocation -> switch allocation
//     -> transfer; transfers, credits and VC releases become visible at the
//     next cycle boundary (commit), keeping the network synchronous;
//   * the crossbar is non-blocking on inputs ("can simultaneously connect
//     multiple incoming to multiple outgoing channels", §2); the only
//     bandwidth limit is one flit per output physical channel per cycle,
//     time-multiplexed across its VCs exactly as in Dally's VC model;
//   * ejection consumes destined flits with unlimited bandwidth (assumption
//     iv: "messages are transferred to the local PE as soon as they arrive");
//   * deadlock freedom: dimension-order routing plus Dally–Seitz dateline VC
//     classes inside each ring — class 0 until the message crosses the
//     ring's wrap-around link, class 1 after; the V VCs split into
//     ceil(V/2) class-0 and floor(V/2) class-1 channels.
//
// An output VC is held by a message from header allocation until the tail
// flit leaves the *downstream* buffer (conservative release; the release and
// the final credit travel back together with a one-cycle lag).
//
// Hot-loop layout (DESIGN.md §6, §12): ALL mutable router state lives in a
// network-wide structure-of-arrays arena (RouterSoA). Each field is one
// contiguous array over (router, lane) with a uniform per-router stride, so
// every phase is a batch loop over a router's contiguous lane range — no
// pointer chasing, no per-port heap vectors — and the compiler can
// auto-vectorise the predicate scans (the batched arrival kernel uses the
// same layout, see sim/arrival_batch.hpp). A Router object is a
// *view*: id, wiring, cached pointers to its slice of the arena, and the
// source queues. The `InputVc` / `OutputVc` / `OutputPort` structs remain as
// materialised snapshots for tests and statistics readers; their field
// values are bit-identical to the pre-SoA representation. A slab slot is a
// 32-byte Flit (flit.hpp): message id, source, destination, generation
// cycle and the head/tail flags, with no index within its message.
//
// Scheduling state is one arena word per router (DESIGN.md §12): `work`,
// the owner-written sum of buffered flits, queued source messages and busy
// output VCs. Neighbours write a router only through its staged slots (one
// arrival per input port, credits and releases per output VC), each with a
// single writer, and only its commit reads them. quiescent() is "work is 0
// and no slot is staged". Beside the word the arena keeps two network-wide
// bitsets that Network::step walks instead of scanning every router: `live`
// (work != 0 at the cycle boundary — exactly the non-quiescent routers,
// since every staged slot is empty there) and `pending` (a router that was
// not live received a staged arrival this cycle); they are the only state
// several threads write. Per-port stat_cycles is not stored at all: every
// router advances it exactly once per cycle (commit when active, idle
// accounting otherwise), so the value is a single network-global
// cycles-since-reset counter (RouterSoA::stat_cycles) that snapshots report
// per port.
//
// A live router's step pays only for the work it has. The owner keeps a
// count for each phase (PhaseCounts), so a phase with nothing to do costs
// one compare: refill tests the queued messages, eject the buffered flits
// destined here, route the lanes whose front is an unrouted head, VC
// allocation the routed lanes without an output VC, and commit's credit and
// busy-VC statistics loops the busy output VCs. A lane's (port, vc) comes
// from a shared table and the round-robin cursors wrap with a compare, so
// the step divides nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/flit.hpp"
#include "sim/metrics.hpp"
#include "topology/torus.hpp"
#include "util/assert.hpp"

namespace kncube::sim {

class Router;

/// The network-wide SoA arena backing every router's mutable state. One
/// instance per Network; routers hold cached pointers to their slices.
/// Lane indexing (uniform across routers, so slices are pure strides):
///   input lanes:  r * in_lanes  + port * vcs + v   (injection port last)
///   output lanes: r * out_lanes + port * vcs + v   (network ports only)
///   ports:        r * ports + p
struct RouterSoA {
  // --- geometry (shared by every router) ---
  int ports = 0;      ///< network ports per router
  int vcs = 0;        ///< V
  int in_lanes = 0;   ///< (ports + 1) * vcs
  int out_lanes = 0;  ///< ports * vcs
  std::uint32_t slab_stride = 0;  ///< flit slots per router

  // --- per input lane (ring FIFO + routing state) ---
  std::vector<std::uint32_t> vc_head;   ///< free-running front index
  std::vector<std::uint32_t> vc_count;  ///< buffered flits
  std::vector<std::int32_t> vc_route;   ///< chosen output port, -1 none
  std::vector<std::int32_t> vc_outvc;   ///< allocated downstream VC, -1 none
  std::vector<std::uint8_t> vc_active;  ///< message resident (head..tail)

  /// Ring geometry per *local* lane (identical for every router): base
  /// offset inside the router's slab block and pow2 capacity mask, and the
  /// lane's input port and VC.
  std::vector<std::uint32_t> lane_base;
  std::vector<std::uint32_t> lane_mask;
  std::vector<std::int32_t> lane_port;
  std::vector<std::int32_t> lane_vc;

  std::vector<Flit> slab;  ///< all rings of all routers, one array

  // --- per output lane (VC state + staged upstream signals) ---
  std::vector<std::uint8_t> out_busy;
  std::vector<std::int32_t> out_credits;
  std::vector<std::uint16_t> staged_credits;  ///< written by downstream
  std::vector<std::uint8_t> staged_release;   ///< written by downstream

  // --- per (router, output port) ---
  std::vector<std::uint32_t> rr_vc;  ///< VC-allocation round-robin cursor
  std::vector<std::uint32_t> rr_sw;  ///< switch-allocation round-robin cursor
  std::vector<std::int32_t> busy_now;
  std::vector<std::uint64_t> flits_sent;
  std::vector<std::uint64_t> busy_vc_cycles;
  std::vector<std::uint64_t> busy_vc_sq_cycles;
  std::vector<std::uint64_t> busy_cycles;
  /// Sorted requester lists, flattened: segment of capacity `in_lanes` per
  /// (router, port) at (r * ports + p) * in_lanes, length in req_count.
  std::vector<std::int32_t> req;
  std::vector<std::int32_t> req_count;

  // --- per (router, input port): <=1 staged arrival per cycle ---
  std::vector<Flit> staged_flit;        ///< written by upstream
  std::vector<std::int32_t> staged_vc;  ///< vc < 0 means empty

  // --- per router: scheduling word (see header comment) ---
  std::vector<std::uint64_t> work;

  // --- per router, one bit each, 64 routers per word (see header comment) ---
  // Atomic words because shard ranges need not be 64-aligned: two shards may
  // own bits of one word. Every access is relaxed; the ordering comes from
  // the pre-commit barrier and the per-cycle team fork/join.
  std::size_t bit_words = 0;
  /// Bit r: router r has work at the cycle boundary. Changes only at commit
  /// and at enqueue (between cycles), so it is stable during the phase pass.
  std::unique_ptr<std::atomic<std::uint64_t>[]> live;
  /// Bit r: router r was not live and received a staged arrival this cycle;
  /// set by upstream phase_switch, consumed by r's commit.
  std::unique_ptr<std::atomic<std::uint64_t>[]> pending;

  static constexpr std::uint64_t bit(topo::NodeId r) noexcept {
    return std::uint64_t{1} << (r & 63u);
  }
  bool is_live(topo::NodeId r) const noexcept {
    return (live[r >> 6].load(std::memory_order_relaxed) & bit(r)) != 0;
  }
  void set_live(topo::NodeId r) noexcept {
    live[r >> 6].fetch_or(bit(r), std::memory_order_relaxed);
  }
  void mark_pending(topo::NodeId r) noexcept {
    std::atomic<std::uint64_t>& w = pending[r >> 6];
    // Several upstreams may stage into one idle router in a cycle; the load
    // skips the locked RMW for all but the first.
    if ((w.load(std::memory_order_relaxed) & bit(r)) == 0) {
      w.fetch_or(bit(r), std::memory_order_relaxed);
    }
  }

  /// Cycles since the last reset_channel_stats — the per-port stat_cycles
  /// denominator, provably uniform across all ports of all routers.
  std::uint64_t stat_cycles = 0;

  /// Sizes every array for `routers` routers and computes the shared lane
  /// geometry (ring capacities are the pow2 ceilings of `buffer_depth` for
  /// network lanes and `message_length` for injection lanes).
  void init(topo::NodeId routers, int ports_, int vcs_, int buffer_depth,
            std::uint32_t message_length);
};

class Router {
 public:
  /// Snapshot of one input VC's state (tests / statistics). A VC is owned by
  /// at most one message at a time: `active` spans head arrival to tail
  /// departure, so buffers never interleave flits of different messages.
  struct InputVc {
    std::uint32_t base = 0;   ///< first slab slot of this VC's ring
    std::uint32_t mask = 0;   ///< ring capacity - 1 (capacity is a power of 2)
    std::uint32_t head = 0;   ///< free-running index of the front flit
    std::uint32_t count = 0;  ///< buffered flits
    int route_out = -1;  ///< chosen output port for the resident message
    int out_vc = -1;     ///< allocated VC at the downstream input port
    bool active = false;

    bool empty() const noexcept { return count == 0; }
    std::uint32_t size() const noexcept { return count; }
  };

  struct OutputVc {
    bool busy = false;  ///< allocated to an in-flight message
    int credits = 0;    ///< free flit slots in the downstream buffer
  };

  /// Snapshot of one output port (tests / statistics): same fields and
  /// derived quantities as the pre-SoA live struct.
  struct OutputPort {
    std::vector<OutputVc> vcs;
    Router* down = nullptr;
    int down_port = -1;
    std::uint32_t rr_vc = 0;  ///< round-robin cursor, VC allocation
    std::uint32_t rr_sw = 0;  ///< round-robin cursor, switch allocation
    std::int32_t busy_now = 0;  ///< busy VCs, maintained incrementally
    /// Input VCs currently routed to this port (sorted by input-VC index).
    std::vector<std::int32_t> requesters;
    // Channel statistics (since the last reset_channel_stats).
    std::uint64_t flits_sent = 0;
    std::uint64_t busy_vc_cycles = 0;     ///< sum over cycles of busy-VC count
    std::uint64_t busy_vc_sq_cycles = 0;  ///< sum of squared busy-VC count
    std::uint64_t busy_cycles = 0;        ///< cycles with >= 1 busy VC
    std::uint64_t stat_cycles = 0;

    double utilization() const noexcept {
      return stat_cycles ? static_cast<double>(flits_sent) /
                               static_cast<double>(stat_cycles)
                         : 0.0;
    }
    /// Dally's multiplexing degree estimate E[v^2]/E[v] over busy cycles.
    double vc_multiplexing() const noexcept {
      return busy_vc_cycles ? static_cast<double>(busy_vc_sq_cycles) /
                                  static_cast<double>(busy_vc_cycles)
                            : 1.0;
    }
  };

  Router(const topo::KAryNCube& net, topo::NodeId id, int vcs, int buffer_depth,
         std::uint32_t message_length, RouterSoA* soa);

  topo::NodeId id() const noexcept { return id_; }
  int network_ports() const noexcept { return net_ports_; }
  int injection_port() const noexcept { return net_ports_; }
  int vcs() const noexcept { return vcs_; }

  /// Output port index used by a message travelling dimension `dim` in
  /// direction `dir`.
  int out_port_for(int dim, topo::Direction dir) const noexcept;
  int port_dim(int port) const noexcept;
  topo::Direction port_dir(int port) const noexcept;

  // --- wiring (performed once by Network) ---
  void connect(int out_port, Router* down, int down_port);
  void connect_upstream(int in_port, Router* up, int up_port);
  Router* downstream(int out_port) const noexcept {
    return down_[static_cast<std::size_t>(out_port)];
  }

  // --- per-cycle phases (Network runs all five for one live router, then
  // the next, in router-id order) ---
  // Metric events and occupancy deltas accumulate into the caller's StepDelta
  // (the shard's buffer) instead of hitting Metrics directly; Network::step
  // replays the buffers in router-id order at the cycle boundary, so the
  // sharded and serial schedules produce the same Metrics call sequence.
  // Thread-safety contract under sharding: a phase writes remote routers only
  // through single-writer staged slots (arrivals, credits, releases — one
  // upstream/downstream owner per slot) plus the relaxed atomic pending
  // bits, and reads no remote state but the downstream router's live bit,
  // which nothing changes before the pre-commit barrier; staged data is
  // consumed only by the owner's commit, after that barrier.
  // Each phase returns at once when its count in PhaseCounts is 0.
  void refill_injection(StepDelta& delta);
  void phase_eject(StepDelta& delta);
  void phase_route();
  void phase_vc_alloc();
  void phase_switch(StepDelta& delta);
  void commit();
  /// Commit restricted to staged arrivals: run for pending routers, which
  /// were quiescent at the cycle start but received a flit during
  /// phase_switch (a quiescent router can have no staged credits or
  /// releases). The router has work afterwards, so it becomes live.
  void commit_arrivals();

  // --- idle scheduling (Network::step) ---
  /// True when every phase of this router's cycle would be a no-op: nothing
  /// buffered or staged, empty source queues, no busy output VCs and no
  /// staged credit/release signals. At a cycle boundary this is exactly
  /// "live bit clear"; debug builds check the two against each other. Reads
  /// the staged slots, so it is for cycle boundaries only.
  bool quiescent() const noexcept;

  /// The owner-kept counts that let a phase with no work return at once.
  struct PhaseCounts {
    std::uint64_t queued = 0;       ///< source-queue messages (refill)
    std::uint64_t destined = 0;     ///< buffered network flits destined here (eject)
    std::uint64_t unrouted = 0;     ///< lanes whose front is an unrouted head (route)
    std::uint64_t unallocated = 0;  ///< routed lanes holding no output VC (VC allocation)
    std::uint64_t busy_out = 0;     ///< busy output VCs (commit's credit and statistics loops)
    bool operator==(const PhaseCounts&) const = default;
  };
  PhaseCounts phase_counts() const noexcept {
    return {source_total_, destined_, unrouted_, unallocated_, busy_out_};
  }
  /// The same counts recomputed from the source queues, lanes and output
  /// VCs. At a cycle boundary it equals phase_counts() (debug builds check
  /// this for every live router before every step).
  PhaseCounts scan_phase_counts() const;

  // --- source side ---
  /// Enqueues a generated message; messages are spread round-robin across the
  /// V injection VCs (the model's per-VC lambda/V source queues). Sets the
  /// router's live bit.
  void enqueue_message(const QueuedMessage& msg, std::uint32_t lm);
  std::uint64_t source_queue_length() const noexcept { return source_total_; }

  // --- introspection (tests, statistics): materialised snapshots ---
  InputVc input_vc(int port, int vc) const;
  OutputPort output_port(int port) const;
  /// Flits in this router's rings and staged arrival slots. Reads the
  /// staged slots, so it is for cycle boundaries only.
  std::uint64_t buffered_flits() const noexcept;

 private:
  friend class Network;

  int in_lane(int port, int vc) const noexcept { return port * vcs_ + vc; }

  Flit& ring_front(int lane) noexcept {
    return slab_[lane_base_[lane] + (head_[lane] & lane_mask_[lane])];
  }
  const Flit& ring_front(int lane) const noexcept {
    return slab_[lane_base_[lane] + (head_[lane] & lane_mask_[lane])];
  }
  void ring_push(int lane, const Flit& f) noexcept {
    slab_[lane_base_[lane] + ((head_[lane] + count_[lane]) & lane_mask_[lane])] = f;
    ++count_[lane];
    ++buffered_;
    ++*work_;
  }
  Flit ring_pop(int lane) noexcept {
    const Flit f = slab_[lane_base_[lane] + (head_[lane] & lane_mask_[lane])];
    ++head_[lane];
    --count_[lane];
    --buffered_;
    --*work_;
    return f;
  }
  void requesters_insert(int port, std::int32_t index);
  void requesters_erase(int port, std::int32_t index);

  /// Dateline class of the next hop for a head flit at this router.
  int vc_class_for(const Flit& head, int dim, topo::Direction dir) const noexcept;
  int class_vc_begin(int cls) const noexcept;
  int class_vc_end(int cls) const noexcept;
  /// Pops the front flit of input lane `lane` returning credit (and, on
  /// tail, release) to the upstream output VC.
  Flit pop_and_credit(int lane);
  /// Applies the staged arrival slots.
  void apply_staged_arrivals();
  std::uint64_t staged_arrivals() const noexcept;
  bool staged_signals() const noexcept;

  const topo::KAryNCube& net_;
  RouterSoA* soa_;
  topo::NodeId id_;
  int vcs_;
  int buffer_depth_;
  int net_ports_;
  int in_lanes_;
  std::uint32_t message_length_;  ///< Lm of the messages being enqueued

  // Cached pointers to this router's arena slices (see RouterSoA).
  std::uint32_t* head_ = nullptr;
  std::uint32_t* count_ = nullptr;
  std::int32_t* route_ = nullptr;
  std::int32_t* outvc_ = nullptr;
  std::uint8_t* active_ = nullptr;
  const std::uint32_t* lane_base_ = nullptr;  ///< shared, local-lane indexed
  const std::uint32_t* lane_mask_ = nullptr;  ///< shared, local-lane indexed
  const std::int32_t* lane_port_ = nullptr;   ///< shared, local-lane indexed
  const std::int32_t* lane_vc_ = nullptr;     ///< shared, local-lane indexed
  Flit* slab_ = nullptr;                      ///< this router's slab block
  std::uint8_t* out_busy_ = nullptr;
  std::int32_t* out_credits_ = nullptr;
  std::uint16_t* staged_credits_ = nullptr;
  std::uint8_t* staged_release_ = nullptr;
  std::uint32_t* rr_vc_ = nullptr;
  std::uint32_t* rr_sw_ = nullptr;
  std::int32_t* busy_now_ = nullptr;
  std::uint64_t* flits_sent_ = nullptr;
  std::uint64_t* busy_vc_cycles_ = nullptr;
  std::uint64_t* busy_vc_sq_cycles_ = nullptr;
  std::uint64_t* busy_cycles_ = nullptr;
  std::int32_t* req_ = nullptr;        ///< ports segments of in_lanes_ each
  std::int32_t* req_count_ = nullptr;  ///< per port
  Flit* staged_flit_ = nullptr;        ///< per input port
  std::int32_t* staged_vc_ = nullptr;  ///< per input port
  std::uint64_t* work_ = nullptr;

  std::vector<Router*> down_;      ///< per network output port
  std::vector<int> down_port_;
  std::vector<Router*> up_router_; ///< per network input port
  std::vector<int> up_port_;

  std::vector<std::deque<QueuedMessage>> source_q_;  ///< one per injection VC
  std::uint32_t next_inject_vc_ = 0;

  // Owner-written counters. work_ is the arena sum of buffered_,
  // source_total_ and busy_out_; see PhaseCounts for the guards.
  std::uint64_t buffered_ = 0;      ///< flits resident in any ring
  std::uint64_t source_total_ = 0;  ///< messages waiting in source queues
  std::uint32_t busy_out_ = 0;      ///< busy output VCs across all ports
  std::uint32_t destined_ = 0;      ///< buffered network flits destined here
  std::uint32_t unrouted_ = 0;      ///< lanes whose front is an unrouted head
  std::uint32_t unallocated_ = 0;   ///< routed lanes holding no output VC
};

}  // namespace kncube::sim
