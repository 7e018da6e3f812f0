#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <thread>

#include "util/assert.hpp"

namespace kncube::sim {

namespace {

/// Shards actually used for `size` routers: the configured knob (0 = one per
/// hardware thread) capped so every shard keeps enough routers to amortise
/// its per-cycle synchronisation (the team fork/join and the one pre-commit
/// barrier) — tiny networks run serial no matter the knob. Pure
/// function of (knob, hardware, size): never of timing, so the partition is
/// process-deterministic; and results are partition-independent anyway.
/// `requested` receives the pre-clamp count (the knob resolved against
/// hardware) so callers can surface the clamp instead of silently running
/// narrower than asked.
std::size_t resolve_shards(int sim_threads, topo::NodeId size,
                           std::size_t* requested) {
  std::size_t want = sim_threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : static_cast<std::size_t>(sim_threads);
  *requested = want;
  constexpr topo::NodeId kMinRoutersPerShard = 16;
  const std::size_t cap =
      std::max<std::size_t>(1, static_cast<std::size_t>(size / kMinRoutersPerShard));
  return std::min(want, cap);
}

/// Calls fn(w, mask) for each bitset word w overlapping the router range
/// [begin, end), in ascending order; `mask` selects the word's bits that lie
/// inside the range (shard edges need not be 64-aligned).
template <typename Fn>
void for_each_word(topo::NodeId begin, topo::NodeId end, Fn&& fn) {
  for (topo::NodeId w = begin >> 6; w <= (end - 1) >> 6; ++w) {
    const topo::NodeId lo = std::max(begin, w << 6);
    const topo::NodeId hi = std::min(end, (w + 1) << 6);
    std::uint64_t mask = ~std::uint64_t{0} << (lo & 63u);
    if (hi < ((w + 1) << 6)) mask &= (std::uint64_t{1} << (hi & 63u)) - 1;
    fn(w, mask);
  }
}

/// The topology of a validated `cfg`: validation runs before anything is
/// built, so a bad config throws instead of tripping KAryNCube's asserts.
topo::KAryNCube validated_topology(const SimConfig& cfg) {
  cfg.validate();
  return topo::KAryNCube(cfg.k, cfg.n, cfg.bidirectional, cfg.mesh);
}

}  // namespace

Network::Network(const SimConfig& cfg)
    : topo_(validated_topology(cfg)),
      message_length_(static_cast<std::uint32_t>(cfg.message_length)) {
  faults_ = build_fault_set(cfg, topo_);
  soa_.init(topo_.size(), topo_.channels_per_node(), cfg.vcs, cfg.buffer_depth,
            message_length_);
  // Routers live contiguously (reserve guarantees stable addresses for the
  // down/up wiring pointers taken below).
  routers_.reserve(topo_.size());
  for (topo::NodeId id = 0; id < topo_.size(); ++id) {
    routers_.emplace_back(topo_, id, cfg.vcs, cfg.buffer_depth,
                          message_length_, &soa_);
  }
  // Wire links: output port p of node r feeds input port p of the neighbour
  // in that port's (dim, dir); the input port keeps a reference back to the
  // upstream output port for credit/release return. Mesh edge ports whose
  // link would wrap stay unconnected — dimension-order routing on a mesh
  // never selects a direction that runs off the line, so they are never
  // routed to (channel statistics skip them too). The fault overlay extends
  // the same mechanism: failed links and every link touching a failed router
  // stay unwired, and the simulator only injects pairs whose deterministic
  // path is fully usable (pair_reachable), so unwired ports are never routed
  // to here either — faulty routers stay quiescent and hold no credits.
  for (topo::NodeId id = 0; id < topo_.size(); ++id) {
    Router& r = routers_[id];
    for (int p = 0; p < r.network_ports(); ++p) {
      const int dim = r.port_dim(p);
      const topo::Direction dir = r.port_dir(p);
      if (!faults_.link_usable(topo_, id, dim, dir)) continue;
      const topo::NodeId down_id = topo_.neighbor(id, dim, dir);
      Router& down = routers_[down_id];
      r.connect(p, &down, p);
      down.connect_upstream(p, &r, p);
    }
  }

  // Contiguous equal-ish shards over the router-id range. Contiguity keeps
  // the concatenation of per-shard orders equal to global router-id order,
  // which the metric replay and commit pass rely on.
  const std::size_t shard_count =
      resolve_shards(cfg.sim_threads, topo_.size(), &requested_shards_);
  shards_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& sh = shards_[s];
    sh.begin = static_cast<topo::NodeId>(topo_.size() * s / shard_count);
    sh.end = static_cast<topo::NodeId>(topo_.size() * (s + 1) / shard_count);
  }
  if (shard_count > 1) {
    barrier_ = std::make_unique<util::SpinBarrier>(shard_count);
    team_ = std::make_unique<util::ThreadTeam>(shard_count);
  }
}

void Network::step_shard(std::size_t s) {
  // Only live routers run, in router-id order, each through all five phases
  // in one go: no phase reads remote state (router.hpp), so the per-router
  // order of the seed's phase-at-a-time schedule is all that matters, and
  // the metric buffers collect eject and inject events in separate lists, so
  // their replay order is unchanged too (DESIGN.md §9.2).
  Shard& sh = shards_[s];
  std::atomic<std::uint64_t>* live = soa_.live.get();
  std::atomic<std::uint64_t>* pending = soa_.pending.get();
  for_each_word(sh.begin, sh.end, [&](topo::NodeId w, std::uint64_t mask) {
    for (std::uint64_t bits = live[w].load(std::memory_order_relaxed) & mask;
         bits != 0; bits &= bits - 1) {
      Router& r = routers_[(w << 6) + static_cast<topo::NodeId>(std::countr_zero(bits))];
      r.refill_injection(sh.delta);
      r.phase_eject(sh.delta);
      r.phase_route();
      r.phase_vc_alloc();
      r.phase_switch(sh.delta);
    }
  });
  // Commit consumes the staged slots every shard wrote during the pass; it
  // must not start anywhere before the pass ends everywhere.
  phase_barrier();
  // Live routers commit in full and leave the live set once they have no
  // work; pending routers (idle at the cycle start, staged into during the
  // pass) commit their arrivals and join it. Commit touches only the owning
  // router, and the live/pending bits of this shard change by whole-word
  // atomic RMWs because a word may be shared with a neighbouring shard.
  const std::uint64_t* work = soa_.work.data();
  for_each_word(sh.begin, sh.end, [&](topo::NodeId w, std::uint64_t mask) {
    const std::uint64_t live_bits = live[w].load(std::memory_order_relaxed) & mask;
    const std::uint64_t pending_bits =
        pending[w].load(std::memory_order_relaxed) & mask;
    std::uint64_t flips = pending_bits;  // pending -> live
    for (std::uint64_t bits = live_bits | pending_bits; bits != 0; bits &= bits - 1) {
      const topo::NodeId id =
          (w << 6) + static_cast<topo::NodeId>(std::countr_zero(bits));
      const std::uint64_t bit = RouterSoA::bit(id);
      if (live_bits & bit) {
        routers_[id].commit();
        if (work[id] == 0) flips |= bit;  // live -> idle
      } else {
        routers_[id].commit_arrivals();
      }
    }
    if (flips != 0) live[w].fetch_xor(flips, std::memory_order_relaxed);
    if (pending_bits != 0) {
      pending[w].fetch_and(~pending_bits, std::memory_order_relaxed);
    }
  });
}

void Network::step(std::uint64_t cycle, Metrics& metrics) {
  // Checked here, before any shard runs: inside step_shard another shard's
  // phase_switch may be staging into a slot while the scan reads it.
  KNC_DEBUG_ASSERT(live_set_matches_scan());
  if (team_) {
    team_->run([this](std::size_t member) { step_shard(member); });
  } else {
    step_shard(0);
  }
  // Deterministic merge, identical to the serial call sequence: ejection
  // events of every shard replay in shard (== router-id) order, then the
  // injection events — floating-point accumulation order is preserved
  // bit-for-bit. Integer deltas are sums and merge by addition.
  std::uint64_t flits_out = 0;
  std::uint64_t refilled = 0;
  for (Shard& sh : shards_) {
    metrics.apply_ejects(sh.delta, cycle);
    flits_out += sh.delta.flits_delivered;
  }
  for (Shard& sh : shards_) {
    metrics.apply_injects(sh.delta, cycle);
    refilled += sh.delta.messages_refilled;
  }
  inflight_ += refilled * message_length_;
  inflight_ -= flits_out;
  backlog_ -= refilled;
  for (Shard& sh : shards_) sh.delta.clear();
  // Every router's per-port stat_cycles advances exactly once per cycle
  // whether it was active or idle — it is one global counter (router.hpp).
  ++soa_.stat_cycles;
}

void Network::enqueue_message(const QueuedMessage& msg) {
  KNC_ASSERT(msg.src < topo_.size() && msg.dest < topo_.size());
  // Unreachable pairs must be classified (and counted) at generation time —
  // a message past this point is guaranteed deliverable, so nothing is ever
  // dropped mid-network.
  KNC_ASSERT(pair_reachable(msg.src, msg.dest));
  routers_[msg.src].enqueue_message(msg, message_length_);
  ++backlog_;
}

std::uint64_t Network::scan_inflight_flits() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r.buffered_flits();
  return total;
}

std::uint64_t Network::scan_source_backlog() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r.source_queue_length();
  return total;
}

bool Network::live_set_matches_scan() const {
  for (topo::NodeId id = 0; id < topo_.size(); ++id) {
    const Router& r = routers_[id];
    const bool live = soa_.is_live(id);
    if (live == r.quiescent()) return false;
    // An idle router holds nothing, so every count must be 0; a live one is
    // recounted from its lanes.
    if (r.phase_counts() != (live ? r.scan_phase_counts() : Router::PhaseCounts{})) {
      return false;
    }
  }
  for (std::size_t w = 0; w < soa_.bit_words; ++w) {
    if (soa_.pending[w].load(std::memory_order_relaxed) != 0) return false;
  }
  return true;
}

std::uint64_t Network::inflight_flits() const {
  KNC_DEBUG_ASSERT(inflight_ == scan_inflight_flits());
  return inflight_;
}

std::uint64_t Network::source_backlog() const {
  KNC_DEBUG_ASSERT(backlog_ == scan_source_backlog());
  return backlog_;
}

void Network::reset_channel_stats() {
  std::fill(soa_.flits_sent.begin(), soa_.flits_sent.end(), 0);
  std::fill(soa_.busy_vc_cycles.begin(), soa_.busy_vc_cycles.end(), 0);
  std::fill(soa_.busy_vc_sq_cycles.begin(), soa_.busy_vc_sq_cycles.end(), 0);
  std::fill(soa_.busy_cycles.begin(), soa_.busy_cycles.end(), 0);
  soa_.stat_cycles = 0;
}

Network::ChannelSummary Network::channel_summary() const {
  ChannelSummary s;
  double util_sum = 0.0;
  std::uint64_t channels = 0;
  double vm_weighted = 0.0;
  double vm_weight = 0.0;
  for (const auto& r : routers_) {
    for (int p = 0; p < r.network_ports(); ++p) {
      const auto& op = r.output_port(p);
      // Unconnected mesh edge ports are not physical channels; counting
      // their permanent zeros would dilute the mean utilisation.
      if (op.down == nullptr) continue;
      const double u = op.utilization();
      util_sum += u;
      s.max_utilization = std::max(s.max_utilization, u);
      ++channels;
      if (op.busy_cycles > 0) {
        const auto w = static_cast<double>(op.flits_sent);
        vm_weighted += op.vc_multiplexing() * w;
        vm_weight += w;
      }
    }
  }
  if (channels) s.mean_utilization = util_sum / static_cast<double>(channels);
  if (vm_weight > 0.0) s.mean_vc_multiplexing = vm_weighted / vm_weight;
  return s;
}

double Network::channel_utilization(topo::NodeId node, int dim,
                                    topo::Direction dir) const {
  const Router& r = routers_[node];
  const auto& op = r.output_port(r.out_port_for(dim, dir));
  // A mesh edge port or a faulted-out link is not a physical channel.
  if (op.down == nullptr) return 0.0;
  return op.utilization();
}

}  // namespace kncube::sim
