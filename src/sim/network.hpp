// The assembled network: a k-ary n-cube of routers plus the synchronous
// cycle engine. Phases run across *all* routers before the next phase starts,
// so every router observes the same globally-consistent start-of-cycle state;
// transfers and credit returns staged during a cycle become visible at the
// next one (Router::commit).
//
// Scheduling: step() walks the arena's live bitset (RouterSoA::live — see
// router.hpp), so a cycle costs O(active routers), not O(N): a quiescent
// router (nothing buffered or staged, empty source queues, no busy output
// VCs, no staged credit signals) provably performs no work in any phase, so
// skipping it is bit-identical to running it. Each live router runs its five
// phases back to back. Per-port stat_cycles is a single network-global
// counter advanced once per step (it is uniform across ports by
// construction). Routers that receive a flit while idle are flagged in the
// pending bitset and commit their staged arrivals at the cycle boundary.
//
// Sharding (DESIGN.md §9): with SimConfig::sim_threads > 1 the router-id
// range splits into contiguous shards, one ThreadTeam member each; the phase
// pass runs shard-parallel and one SpinBarrier separates it from the commit
// pass. Cross-shard writes land only in single-writer staged slots (read by
// the owner at commit, after the barrier) and the relaxed atomic pending
// bits, and per-shard metric/occupancy deltas replay into Metrics in shard
// (router-id) order at the cycle boundary — so every result is bit-identical
// to the serial schedule, for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "sim/router.hpp"
#include "topology/fault_set.hpp"
#include "topology/torus.hpp"
#include "util/thread_pool.hpp"

namespace kncube::sim {

class Network {
 public:
  explicit Network(const SimConfig& cfg);

  const topo::KAryNCube& topology() const noexcept { return topo_; }
  /// The resolved fault overlay (empty when the config has no failures).
  const topo::FaultSet& faults() const noexcept { return faults_; }
  /// False for failed routers: they inject nothing and eject nothing.
  bool node_alive(topo::NodeId id) const noexcept {
    return !faults_.router_failed(id);
  }
  /// True when the deterministic route src -> dst crosses no failed element
  /// (always true on a pristine network). O(1).
  bool pair_reachable(topo::NodeId src, topo::NodeId dst) const noexcept {
    return faults_.reachable(src, dst);
  }
  Router& router(topo::NodeId id) { return routers_[id]; }
  const Router& router(topo::NodeId id) const { return routers_[id]; }
  topo::NodeId size() const noexcept { return topo_.size(); }

  /// Router shards actually stepping in parallel (1 = serial loop): the
  /// configured sim_threads resolved against hardware and network size.
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Shards the sim_threads knob asked for (hardware concurrency when 0),
  /// *before* the network-size clamp. shard_count() < requested_shard_count()
  /// means the network was too small to honour the request.
  std::size_t requested_shard_count() const noexcept {
    return requested_shards_;
  }

  /// Advances the whole network by one cycle.
  void step(std::uint64_t cycle, Metrics& metrics);

  void enqueue_message(const QueuedMessage& msg);

  /// Flits resident in any router buffer or in-flight staging slot
  /// (excludes messages still waiting, unmaterialised, in source queues).
  /// O(1): maintained incrementally at the cycle boundary from the shard
  /// deltas; debug builds assert it against the full router scan.
  std::uint64_t inflight_flits() const;
  /// Messages waiting in source queues across all nodes (unmaterialised).
  /// O(1), incrementally maintained like inflight_flits().
  std::uint64_t source_backlog() const;

  void reset_channel_stats();

  struct ChannelSummary {
    double mean_utilization = 0.0;
    double max_utilization = 0.0;
    /// Flit-weighted mean VC multiplexing degree over busy channels.
    double mean_vc_multiplexing = 1.0;
  };
  ChannelSummary channel_summary() const;

  /// Utilisation of a specific output channel (node, dim, dir).
  double channel_utilization(topo::NodeId node, int dim, topo::Direction dir) const;

 private:
  /// One contiguous router-id range stepped by one team member.
  struct Shard {
    topo::NodeId begin = 0;
    topo::NodeId end = 0;
    StepDelta delta;  ///< per-cycle metric/occupancy buffer
  };

  /// Runs one full cycle for shard `s`: the five phases of each live router,
  /// the pre-commit barrier (when sharded), then the commit pass over the
  /// shard's live and pending routers.
  void step_shard(std::size_t s);
  void phase_barrier() noexcept {
    if (barrier_) barrier_->arrive_and_wait();
  }

  std::uint64_t scan_inflight_flits() const;
  std::uint64_t scan_source_backlog() const;
  /// Debug check at a cycle boundary: the live bitset is exactly the set of
  /// non-quiescent routers, every live router's owner-kept phase counts
  /// match a scan of its lanes (an idle router's are 0), and no pending bit
  /// is left over.
  bool live_set_matches_scan() const;

  topo::KAryNCube topo_;
  topo::FaultSet faults_;
  RouterSoA soa_;  ///< the arena every router's mutable state lives in
  std::vector<Router> routers_;  ///< contiguous; reserved up front, never reallocated
  std::vector<Shard> shards_;
  std::unique_ptr<util::ThreadTeam> team_;      ///< only when shard_count() > 1
  std::unique_ptr<util::SpinBarrier> barrier_;  ///< ditto
  std::uint32_t message_length_;
  // Incremental occupancy (satisfies the O(routers)-scan-per-poll problem):
  // enqueue_message bumps backlog_; each step folds the shard deltas —
  // a refilled message moves 1 off the backlog and Lm flits into flight, an
  // ejected flit leaves flight; switch transfers are flight-neutral.
  std::uint64_t inflight_ = 0;
  std::uint64_t backlog_ = 0;
  std::size_t requested_shards_ = 1;  ///< pre-clamp sim_threads resolution
};

}  // namespace kncube::sim
