#include "sim/router.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace kncube::sim {

namespace {

std::uint32_t pow2_ceil(std::uint32_t v) {
  return std::bit_ceil(std::max<std::uint32_t>(v, 1));
}

/// x mod n for x in [0, 2n): every round-robin cursor step stays below 2n.
int wrap(int x, int n) noexcept { return x >= n ? x - n : x; }

}  // namespace

void RouterSoA::init(topo::NodeId routers, int ports_, int vcs_,
                     int buffer_depth, std::uint32_t message_length) {
  KNC_ASSERT(vcs_ >= 1 && buffer_depth >= 1 && message_length >= 1);
  ports = ports_;
  vcs = vcs_;
  in_lanes = (ports + 1) * vcs;
  out_lanes = ports * vcs;

  // Ring capacities: network VCs hold at most buffer_depth flits (credit
  // flow control); injection VCs hold one fully-materialised message. The
  // lane geometry is identical for every router, so one base/mask table
  // serves them all.
  const std::uint32_t cap_net =
      pow2_ceil(static_cast<std::uint32_t>(buffer_depth));
  const std::uint32_t cap_inj = pow2_ceil(message_length);
  lane_base.resize(static_cast<std::size_t>(in_lanes));
  lane_mask.resize(static_cast<std::size_t>(in_lanes));
  lane_port.resize(static_cast<std::size_t>(in_lanes));
  lane_vc.resize(static_cast<std::size_t>(in_lanes));
  std::uint32_t base = 0;
  for (int p = 0; p <= ports; ++p) {
    const std::uint32_t cap = p == ports ? cap_inj : cap_net;
    for (int v = 0; v < vcs; ++v) {
      const auto lane = static_cast<std::size_t>(p * vcs + v);
      lane_base[lane] = base;
      lane_mask[lane] = cap - 1;
      lane_port[lane] = p;
      lane_vc[lane] = v;
      base += cap;
    }
  }
  slab_stride = base;

  const auto n = static_cast<std::size_t>(routers);
  const std::size_t n_in = n * static_cast<std::size_t>(in_lanes);
  const std::size_t n_out = n * static_cast<std::size_t>(out_lanes);
  const std::size_t n_ports = n * static_cast<std::size_t>(ports);

  vc_head.assign(n_in, 0);
  vc_count.assign(n_in, 0);
  vc_route.assign(n_in, -1);
  vc_outvc.assign(n_in, -1);
  vc_active.assign(n_in, 0);
  slab.assign(n * slab_stride, Flit{});

  out_busy.assign(n_out, 0);
  out_credits.assign(n_out, static_cast<std::int32_t>(buffer_depth));
  staged_credits.assign(n_out, 0);
  staged_release.assign(n_out, 0);

  rr_vc.assign(n_ports, 0);
  rr_sw.assign(n_ports, 0);
  busy_now.assign(n_ports, 0);
  flits_sent.assign(n_ports, 0);
  busy_vc_cycles.assign(n_ports, 0);
  busy_vc_sq_cycles.assign(n_ports, 0);
  busy_cycles.assign(n_ports, 0);
  req.assign(n_ports * static_cast<std::size_t>(in_lanes), 0);
  req_count.assign(n_ports, 0);

  staged_flit.assign(n_ports, Flit{});
  staged_vc.assign(n_ports, -1);

  work.assign(n, 0);
  bit_words = (n + 63) / 64;
  live = std::make_unique<std::atomic<std::uint64_t>[]>(bit_words);
  pending = std::make_unique<std::atomic<std::uint64_t>[]>(bit_words);
  stat_cycles = 0;
}

Router::Router(const topo::KAryNCube& net, topo::NodeId id, int vcs,
               int buffer_depth, std::uint32_t message_length, RouterSoA* soa)
    : net_(net),
      soa_(soa),
      id_(id),
      vcs_(vcs),
      buffer_depth_(buffer_depth),
      net_ports_(net.channels_per_node()),
      in_lanes_((net.channels_per_node() + 1) * vcs),
      message_length_(message_length) {
  KNC_ASSERT(soa_ != nullptr && soa_->vcs == vcs_ &&
             soa_->ports == net_ports_ && soa_->in_lanes == in_lanes_);
  const auto r = static_cast<std::size_t>(id_);
  const std::size_t in0 = r * static_cast<std::size_t>(soa_->in_lanes);
  const std::size_t out0 = r * static_cast<std::size_t>(soa_->out_lanes);
  const std::size_t p0 = r * static_cast<std::size_t>(soa_->ports);

  head_ = soa_->vc_head.data() + in0;
  count_ = soa_->vc_count.data() + in0;
  route_ = soa_->vc_route.data() + in0;
  outvc_ = soa_->vc_outvc.data() + in0;
  active_ = soa_->vc_active.data() + in0;
  lane_base_ = soa_->lane_base.data();
  lane_mask_ = soa_->lane_mask.data();
  lane_port_ = soa_->lane_port.data();
  lane_vc_ = soa_->lane_vc.data();
  slab_ = soa_->slab.data() + r * soa_->slab_stride;
  out_busy_ = soa_->out_busy.data() + out0;
  out_credits_ = soa_->out_credits.data() + out0;
  staged_credits_ = soa_->staged_credits.data() + out0;
  staged_release_ = soa_->staged_release.data() + out0;
  rr_vc_ = soa_->rr_vc.data() + p0;
  rr_sw_ = soa_->rr_sw.data() + p0;
  busy_now_ = soa_->busy_now.data() + p0;
  flits_sent_ = soa_->flits_sent.data() + p0;
  busy_vc_cycles_ = soa_->busy_vc_cycles.data() + p0;
  busy_vc_sq_cycles_ = soa_->busy_vc_sq_cycles.data() + p0;
  busy_cycles_ = soa_->busy_cycles.data() + p0;
  req_ = soa_->req.data() + p0 * static_cast<std::size_t>(in_lanes_);
  req_count_ = soa_->req_count.data() + p0;
  staged_flit_ = soa_->staged_flit.data() + p0;
  staged_vc_ = soa_->staged_vc.data() + p0;
  work_ = soa_->work.data() + r;

  down_.assign(static_cast<std::size_t>(net_ports_), nullptr);
  down_port_.assign(static_cast<std::size_t>(net_ports_), -1);
  up_router_.assign(static_cast<std::size_t>(net_ports_), nullptr);
  up_port_.assign(static_cast<std::size_t>(net_ports_), -1);
  source_q_.resize(static_cast<std::size_t>(vcs_));
}

int Router::out_port_for(int dim, topo::Direction dir) const noexcept {
  return net_.bidirectional() ? 2 * dim + static_cast<int>(dir) : dim;
}

int Router::port_dim(int port) const noexcept {
  return net_.bidirectional() ? port / 2 : port;
}

topo::Direction Router::port_dir(int port) const noexcept {
  return net_.bidirectional() ? static_cast<topo::Direction>(port % 2)
                              : topo::Direction::kPlus;
}

void Router::connect(int out_port, Router* down, int down_port) {
  down_[static_cast<std::size_t>(out_port)] = down;
  down_port_[static_cast<std::size_t>(out_port)] = down_port;
}

void Router::connect_upstream(int in_port, Router* up, int up_port) {
  up_router_[static_cast<std::size_t>(in_port)] = up;
  up_port_[static_cast<std::size_t>(in_port)] = up_port;
}

void Router::requesters_insert(int port, std::int32_t index) {
  std::int32_t* seg = req_ + static_cast<std::size_t>(port) * in_lanes_;
  std::int32_t& n = req_count_[port];
  std::int32_t* it = std::lower_bound(seg, seg + n, index);
  KNC_DEBUG_ASSERT(it == seg + n || *it != index);
  std::copy_backward(it, seg + n, seg + n + 1);
  *it = index;
  ++n;
}

void Router::requesters_erase(int port, std::int32_t index) {
  std::int32_t* seg = req_ + static_cast<std::size_t>(port) * in_lanes_;
  std::int32_t& n = req_count_[port];
  std::int32_t* it = std::lower_bound(seg, seg + n, index);
  KNC_DEBUG_ASSERT(it != seg + n && *it == index);
  std::copy(it + 1, seg + n, it);
  --n;
}

int Router::class_vc_begin(int cls) const noexcept {
  // A mesh has no wrap-around link, so dimension-order routing is acyclic
  // and needs no dateline split: class 0 spans every VC (class 1 is never
  // requested — vc_class_for cannot return 1 without a crossed wrap).
  if (net_.mesh()) return 0;
  return cls == 0 ? 0 : (vcs_ + 1) / 2;
}

int Router::class_vc_end(int cls) const noexcept {
  if (net_.mesh()) return vcs_;
  return cls == 0 ? (vcs_ + 1) / 2 : vcs_;
}

int Router::vc_class_for(const Flit& head, int dim, topo::Direction dir) const noexcept {
  // The message entered this ring at its source coordinate (earlier
  // dimensions were fully corrected before dimension `dim`, later ones are
  // untouched), so whether the wrap-around link has been crossed is derivable
  // from the source coordinate alone: travelling (+) from s, positions before
  // the wrap satisfy c >= s and after it c < s (and symmetrically for (-)).
  // On a mesh a (+) message never sits below its source coordinate (nor a
  // (-) message above it), so this naturally evaluates to class 0 there.
  const int s = net_.coord(head.src, dim);
  const int c = net_.coord(id_, dim);
  if (dir == topo::Direction::kPlus) return c < s ? 1 : 0;
  return c > s ? 1 : 0;
}

Flit Router::pop_and_credit(int lane) {
  KNC_DEBUG_ASSERT(count_[lane] != 0);
  const Flit f = ring_pop(lane);
  const int port = lane_port_[lane];
  if (port < net_ports_) {
    Router* up = up_router_[static_cast<std::size_t>(port)];
    KNC_DEBUG_ASSERT(up != nullptr);
    const int up_lane = up_port_[static_cast<std::size_t>(port)] * vcs_ + lane_vc_[lane];
    ++up->staged_credits_[up_lane];
    if (f.tail) {
      KNC_DEBUG_ASSERT(count_[lane] == 0);  // tail is the last flit
      up->staged_release_[up_lane] = 1;
      active_[lane] = 0;
    }
  }
  return f;
}

void Router::refill_injection(StepDelta& delta) {
  if (source_total_ == 0) return;
  const int lane0 = injection_port() * vcs_;
  for (int v = 0; v < vcs_; ++v) {
    const int lane = lane0 + v;
    auto& q = source_q_[static_cast<std::size_t>(v)];
    if (count_[lane] != 0 || route_[lane] != -1 || q.empty()) continue;
    const QueuedMessage msg = q.front();
    q.pop_front();
    --source_total_;
    --*work_;
    ++delta.messages_refilled;
    for (std::uint32_t seq = 0; seq < message_length_; ++seq) {
      Flit f;
      f.msg = msg.id;
      f.src = msg.src;
      f.dest = msg.dest;
      f.gen_cycle = msg.gen_cycle;
      f.head = seq == 0;
      f.tail = seq + 1 == message_length_;
      ring_push(lane, f);
    }
    ++unrouted_;
  }
}

void Router::phase_eject(StepDelta& delta) {
  // Unlimited ejection bandwidth (assumption iv): drain every destined flit
  // at a buffer head this cycle. Flits of one message arrive in order on a
  // single VC, so draining per-VC preserves message ordering. A VC holds one
  // message at a time, so every destined flit is at the front of its lane
  // or behind destined flits, and the walk ends once the count is 0.
  const int net_lanes = net_ports_ * vcs_;
  for (int lane = 0; destined_ != 0 && lane < net_lanes; ++lane) {
    while (count_[lane] != 0 && ring_front(lane).dest == id_) {
      const Flit f = pop_and_credit(lane);
      --destined_;
      ++delta.flits_delivered;
      if (f.tail) delta.delivered.push_back({f.msg, f.gen_cycle, f.dest});
    }
  }
  KNC_DEBUG_ASSERT(destined_ == 0);
}

void Router::phase_route() {
  // Candidate scan over the contiguous lane arrays; the routing computation
  // itself runs per candidate in ascending lane order, which is exactly the
  // original visit order. Destined flits were ejected already, so every
  // unrouted lane with a flit holds a head at its front, and the scan ends
  // once all of them are routed.
  if (unrouted_ == 0) return;
  for (int lane = 0; lane < in_lanes_; ++lane) {
    if (route_[lane] != -1 || count_[lane] == 0) continue;
    const Flit& f = ring_front(lane);
    KNC_DEBUG_ASSERT(f.head && f.dest != id_);
    const int dim = net_.next_route_dim(id_, f.dest);
    KNC_DEBUG_ASSERT(dim >= 0);
    const topo::Direction dir =
        net_.ring_direction(net_.coord(id_, dim), net_.coord(f.dest, dim));
    route_[lane] = out_port_for(dim, dir);
    requesters_insert(route_[lane], static_cast<std::int32_t>(lane));
    ++unallocated_;
    if (--unrouted_ == 0) return;
  }
}

void Router::phase_vc_alloc() {
  // Round-robin over the input VCs requesting each output port, with the
  // seed semantics preserved exactly: the original loop visited
  // i = (rr_vc + off) % total_vcs for off = 0..total_vcs-1, re-reading rr_vc
  // each iteration while grants mutate it (a grant at (i, off) moves the
  // next visit to i + off + 2). Non-requesters can never be granted, so the
  // walk below jumps between requesters (sorted by index) while replaying
  // the identical (i, off) sequence. Only a grant moves a cursor, and only a
  // routed lane without an output VC can be granted, so the walk stops when
  // none is left.
  if (unallocated_ == 0) return;
  const int total_vcs = in_lanes_;
  for (int op_idx = 0; op_idx < net_ports_; ++op_idx) {
    const std::int32_t* seg = req_ + static_cast<std::size_t>(op_idx) * in_lanes_;
    const std::int32_t n = req_count_[op_idx];
    if (n == 0) continue;
    const std::uint8_t* busy = out_busy_ + op_idx * vcs_;
    int i = static_cast<int>(rr_vc_[op_idx]);
    int off = 0;
    while (off < total_vcs) {
      // Next requester at or cyclically after i.
      const std::int32_t* it = std::lower_bound(seg, seg + n, i);
      const int j = it == seg + n ? seg[0] : *it;
      off += wrap(j - i + total_vcs, total_vcs);
      if (off >= total_vcs) break;
      i = j;
      KNC_DEBUG_ASSERT(route_[i] == op_idx);
      int granted = -1;
      if (outvc_[i] == -1 && count_[i] != 0) {
        const Flit& head = ring_front(i);
        KNC_DEBUG_ASSERT(head.head);
        const int cls = vc_class_for(head, port_dim(op_idx), port_dir(op_idx));
        for (int v = class_vc_begin(cls); v < class_vc_end(cls); ++v) {
          if (!busy[v]) {
            granted = v;
            break;
          }
        }
      }
      if (granted >= 0) {
        outvc_[i] = granted;
        out_busy_[op_idx * vcs_ + granted] = 1;
        ++busy_now_[op_idx];
        ++busy_out_;
        ++*work_;
        rr_vc_[op_idx] = static_cast<std::uint32_t>(wrap(i + 1, total_vcs));
        if (--unallocated_ == 0) return;
        // i + off + 2 < 2 * total_vcs whenever the walk goes on (off + 1 <
        // total_vcs), so one wrap gives the seed's modulus.
        i = wrap(i + off + 2, total_vcs);
      } else {
        i = wrap(i + 1, total_vcs);
      }
      ++off;
    }
  }
}

void Router::phase_switch(StepDelta& delta) {
  const int total_vcs = in_lanes_;
  const int net_lanes = net_ports_ * vcs_;
  for (int op_idx = 0; op_idx < net_ports_; ++op_idx) {
    const std::int32_t* seg = req_ + static_cast<std::size_t>(op_idx) * in_lanes_;
    const std::int32_t n = req_count_[op_idx];
    if (n == 0) continue;
    // One flit per output physical channel per cycle: the first requester in
    // cyclic order from rr_sw that holds an allocation, has a flit and
    // downstream credit (the seed scanned every input VC in the same order;
    // only requesters can pass the eligibility test).
    const std::int32_t* start =
        std::lower_bound(seg, seg + n, static_cast<int>(rr_sw_[op_idx]));
    const std::int32_t first = static_cast<std::int32_t>(start - seg);
    for (std::int32_t step = 0; step < n; ++step) {
      std::int32_t pos = first + step;
      if (pos >= n) pos -= n;
      const int i = seg[pos];
      KNC_DEBUG_ASSERT(route_[i] == op_idx);
      if (outvc_[i] == -1 || count_[i] == 0) continue;
      const int out_vc = outvc_[i];
      if (out_credits_[op_idx * vcs_ + out_vc] <= 0) continue;

      const Flit f = pop_and_credit(i);
      --out_credits_[op_idx * vcs_ + out_vc];
      ++flits_sent_[op_idx];
      Router* down = down_[static_cast<std::size_t>(op_idx)];
      KNC_DEBUG_ASSERT(down != nullptr);
      const int down_port = down_port_[static_cast<std::size_t>(op_idx)];
      KNC_DEBUG_ASSERT(down->staged_vc_[down_port] < 0);
      down->staged_flit_[down_port] = f;
      down->staged_vc_[down_port] = out_vc;
      // A live downstream commits its arrivals in its full commit; an idle
      // one must be flagged for the commit pass. The live bit is the one
      // remote read of the phase pass — it changes only at commit.
      if (!soa_->is_live(down->id_)) soa_->mark_pending(down->id_);

      if (i >= net_lanes && f.head) {  // the injection lanes come last
        delta.injected.push_back({f.msg, f.gen_cycle});
      }
      if (f.tail) {
        // The message releases *this* input VC; the downstream (output) VC
        // stays busy until the tail leaves the downstream buffer.
        route_[i] = -1;
        outvc_[i] = -1;
        requesters_erase(op_idx, i);
      }
      rr_sw_[op_idx] = static_cast<std::uint32_t>(wrap(i + 1, total_vcs));
      break;  // physical channel bandwidth: one flit per cycle
    }
  }
}

void Router::apply_staged_arrivals() {
  for (int p = 0; p < net_ports_; ++p) {
    const int vc = staged_vc_[p];
    if (vc < 0) continue;
    const Flit& f = staged_flit_[p];
    const int lane = in_lane(p, vc);
    if (f.head) {
      KNC_ASSERT_MSG(count_[lane] == 0 && !active_[lane] && route_[lane] == -1,
                     "head flit arrived at an occupied VC");
      active_[lane] = 1;
    } else {
      KNC_DEBUG_ASSERT(active_[lane]);
    }
    if (f.dest == id_) {
      ++destined_;
    } else if (f.head) {
      ++unrouted_;
    }
    ring_push(lane, f);
    KNC_ASSERT_MSG(static_cast<int>(count_[lane]) <= buffer_depth_,
                   "buffer overflow: credit accounting broken");
    staged_vc_[p] = -1;
  }
}

std::uint64_t Router::staged_arrivals() const noexcept {
  std::uint64_t staged = 0;
  for (int p = 0; p < net_ports_; ++p) staged += staged_vc_[p] >= 0 ? 1 : 0;
  return staged;
}

bool Router::staged_signals() const noexcept {
  const int out_lanes = net_ports_ * vcs_;
  for (int l = 0; l < out_lanes; ++l) {
    if (staged_credits_[l] != 0 || staged_release_[l] != 0) return true;
  }
  return false;
}

void Router::commit_arrivals() {
  // A router quiescent at the cycle start had no busy output VCs, so no
  // downstream neighbour can have staged credits or releases at it.
  KNC_DEBUG_ASSERT(busy_out_ == 0 && !staged_signals());
  apply_staged_arrivals();
}

void Router::commit() {
  // 1. Arrivals become visible.
  apply_staged_arrivals();
  // Credits and releases are staged only for busy output VCs, and a router
  // with none adds nothing to the busy-VC statistics.
  if (busy_out_ == 0) {
    KNC_DEBUG_ASSERT(!staged_signals());
    return;
  }
  // 2. Credits and VC releases from downstream become visible. One batch
  //    pass over the router's contiguous output-lane arrays; a release
  //    always comes with the tail's credit.
  const int out_lanes = net_ports_ * vcs_;
  for (int l = 0; l < out_lanes; ++l) {
    if (staged_credits_[l] == 0) continue;
    out_credits_[l] += staged_credits_[l];
    staged_credits_[l] = 0;
    KNC_ASSERT_MSG(out_credits_[l] <= buffer_depth_, "credit overflow");
    if (staged_release_[l]) {
      KNC_ASSERT_MSG(out_busy_[l], "release of a free VC");
      KNC_ASSERT_MSG(out_credits_[l] == buffer_depth_,
                     "VC released while flits remain downstream");
      out_busy_[l] = 0;
      --busy_now_[lane_port_[l]];  // output lane l has input lane l's port
      --busy_out_;
      --*work_;
      staged_release_[l] = 0;
    }
  }
  KNC_DEBUG_ASSERT(!staged_signals());
  // 3. Channel occupancy statistics (stat_cycles is network-global; a
  //    quiescent router provably has busy_now == 0 on every port, so
  //    skipping commit entirely for it changes nothing here).
  for (int p = 0; p < net_ports_; ++p) {
    KNC_DEBUG_ASSERT(busy_now_[p] >= 0);
    const auto busy = static_cast<std::uint64_t>(busy_now_[p]);
    if (busy) {
      busy_vc_cycles_[p] += busy;
      busy_vc_sq_cycles_[p] += busy * busy;
      ++busy_cycles_[p];
    }
  }
}

void Router::enqueue_message(const QueuedMessage& msg, std::uint32_t lm) {
  KNC_ASSERT_MSG(msg.dest != id_, "self-addressed message");
  KNC_ASSERT_MSG(message_length_ == lm,
                 "mixed message lengths are not modelled");
  source_q_[next_inject_vc_].push_back(msg);
  ++source_total_;
  ++*work_;
  if (!soa_->is_live(id_)) soa_->set_live(id_);
  next_inject_vc_ = static_cast<std::uint32_t>(
      wrap(static_cast<int>(next_inject_vc_) + 1, vcs_));
}

bool Router::quiescent() const noexcept {
  return *work_ == 0 && staged_arrivals() == 0 && !staged_signals();
}

std::uint64_t Router::buffered_flits() const noexcept {
  return buffered_ + staged_arrivals();
}

Router::PhaseCounts Router::scan_phase_counts() const {
  PhaseCounts c;
  for (const auto& q : source_q_) c.queued += q.size();
  for (int lane = 0; lane < in_lanes_; ++lane) {
    const std::uint32_t n = count_[lane];
    // Injection lanes hold no destined flit: enqueue_message rejects a
    // self-addressed message.
    if (lane_port_[lane] < net_ports_) {
      for (std::uint32_t k = 0; k < n; ++k) {
        const Flit& f = slab_[lane_base_[lane] + ((head_[lane] + k) & lane_mask_[lane])];
        if (f.dest == id_) ++c.destined;
      }
    }
    if (n != 0 && route_[lane] == -1 && ring_front(lane).head &&
        ring_front(lane).dest != id_) {
      ++c.unrouted;
    }
    if (route_[lane] != -1 && outvc_[lane] == -1) ++c.unallocated;
  }
  for (int l = 0; l < net_ports_ * vcs_; ++l) c.busy_out += out_busy_[l];
  return c;
}

Router::InputVc Router::input_vc(int port, int vc) const {
  const int lane = port * vcs_ + vc;
  InputVc in;
  in.base = lane_base_[lane];
  in.mask = lane_mask_[lane];
  in.head = head_[lane];
  in.count = count_[lane];
  in.route_out = route_[lane];
  in.out_vc = outvc_[lane];
  in.active = active_[lane] != 0;
  return in;
}

Router::OutputPort Router::output_port(int port) const {
  OutputPort op;
  op.vcs.resize(static_cast<std::size_t>(vcs_));
  for (int v = 0; v < vcs_; ++v) {
    op.vcs[static_cast<std::size_t>(v)] = {out_busy_[port * vcs_ + v] != 0,
                                           out_credits_[port * vcs_ + v]};
  }
  op.down = down_[static_cast<std::size_t>(port)];
  op.down_port = down_port_[static_cast<std::size_t>(port)];
  op.rr_vc = rr_vc_[port];
  op.rr_sw = rr_sw_[port];
  op.busy_now = busy_now_[port];
  const std::int32_t* seg = req_ + static_cast<std::size_t>(port) * in_lanes_;
  op.requesters.assign(seg, seg + req_count_[port]);
  op.flits_sent = flits_sent_[port];
  op.busy_vc_cycles = busy_vc_cycles_[port];
  op.busy_vc_sq_cycles = busy_vc_sq_cycles_[port];
  op.busy_cycles = busy_cycles_[port];
  op.stat_cycles = soa_->stat_cycles;
  return op;
}

}  // namespace kncube::sim
