// Batched traffic-generation kernel (DESIGN.md §12).
//
// The per-cycle arrival decision is the simulator's last O(nodes) scalar
// loop: one or two virtual calls plus RNG draws per node per cycle. This
// kernel keeps the four xoshiro256** state words of every node in parallel
// arrays (structure-of-arrays) and advances *all* alive nodes' streams in
// one branch-free batch pass per cycle, producing a fired bitmap. The rare
// data-dependent follow-up draws (destination choice, with its rejection
// loop) reconstitute a scalar generator from the state words and write it
// back, so the per-node bit stream is exactly the one the scalar
// `ArrivalProcess` classes consume — `BernoulliArrivals` / `MmppArrivals`
// in sim/traffic.hpp remain the reference implementations the property
// tests compare against.
//
// Bit-identity under batching rests on one exact-arithmetic fact: the
// scalar path fires iff uniform() < rate, i.e. (double)(x >> 11) * 2^-53 <
// rate. Both the int→double conversion (the operand is < 2^53) and the
// scaling by a power of two are exact, and the map m ↦ (double)m * 2^-53 is
// strictly monotone, so {m : fires} is exactly [0, T) for an integer
// threshold T computed once per rate. The kernel compares (x >> 11) < T in
// pure integer arithmetic — the same predicate, no floating point in the
// loop, identical whatever lane width the compiler vectorizes to.
//
// Dead nodes (fault overlay) never advance their stream — their lanes are
// masked out with a blend, matching the scalar loop's `continue` — so
// faulty-network goldens are preserved too.
//
// The simulator does not call generate() once per cycle: fill() looks ahead
// a block of cycles, advancing each alive node's stream through the whole
// block in registers and drawing each fire's destination straight after its
// fire draw — the exact per-node stream of one generate() per cycle followed
// by pick_dest — so a cycle's arrivals cost O(fires) to consume instead of
// an O(nodes) bitmap scan. generate() stays as the per-cycle reference and
// the per-layer arrival metric; both share the step and threshold helpers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "sim/traffic.hpp"
#include "topology/fault_set.hpp"
#include "topology/torus.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace kncube::sim {

/// Integer fire threshold T with (x >> 11) < T  ⟺  (double)(x >> 11) * 2^-53
/// < rate, for every possible draw x. Exposed for the equivalence tests.
std::uint64_t bernoulli_fire_threshold(double rate) noexcept;

class ArrivalBatch {
 public:
  /// Seeds one stream per node exactly as the scalar path did
  /// (Xoshiro256(cfg.seed).split(id)) and derives the integer thresholds
  /// from the configured arrival process.
  ArrivalBatch(const SimConfig& cfg, const topo::FaultSet& faults,
               topo::NodeId nodes);

  /// Advances every alive node's stream by this cycle's fixed draw count
  /// (Bernoulli: one; MMPP: transition + emission) and records which nodes
  /// fired. Dead nodes' streams and burst states are untouched.
  void generate();

  /// One arrival drawn by fill(): the firing node and its destination.
  struct Fire {
    topo::NodeId node = 0;
    topo::NodeId dest = 0;
  };

  /// Looks ahead `cycles` cycles: advances every alive node's stream as
  /// `cycles` generate() calls would, and when the node fires in a cycle
  /// draws its destination from `pattern` on the same stream before the
  /// next cycle's draws. Dead nodes stay frozen. Replaces the previous
  /// block; does not touch the fired bitmap of generate().
  void fill(TrafficPattern& pattern, std::uint32_t cycles);
  /// Fires of cycle `c` of the last fill() block (c < its length), in
  /// ascending node order.
  std::span<const Fire> fires(std::uint32_t c) const noexcept {
    KNC_DEBUG_ASSERT(c < fires_.size());
    return fires_[c];
  }

  /// Whether node `id` fired in the last generate().
  bool fired(topo::NodeId id) const noexcept { return fired_[id] != 0; }

  /// Scalar-generator round-trip for the data-dependent draws that follow a
  /// fire (destination choice). The returned generator continues the node's
  /// stream exactly where the batch pass left it; store_rng writes the
  /// advanced state back.
  util::Xoshiro256 extract_rng(topo::NodeId id) const noexcept {
    const std::uint64_t s[4] = {s0_[id], s1_[id], s2_[id], s3_[id]};
    return util::Xoshiro256::from_state(s);
  }
  void store_rng(topo::NodeId id, const util::Xoshiro256& rng) noexcept {
    std::uint64_t s[4];
    rng.save_state(s);
    s0_[id] = s[0];
    s1_[id] = s[1];
    s2_[id] = s[2];
    s3_[id] = s[3];
  }

 private:
  void generate_bernoulli();
  void generate_mmpp();

  std::size_t n_ = 0;  ///< node count
  Arrivals kind_ = Arrivals::kBernoulli;

  // xoshiro256** state, one word-array per state slot (index = node id).
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
  /// All-ones for alive nodes, zero for failed ones (blend mask).
  std::vector<std::uint64_t> alive_;
  /// MMPP burst state as a full-width mask (all-ones = in burst).
  std::vector<std::uint64_t> burst_;
  std::vector<std::uint8_t> fired_;  ///< 1 per fired node

  /// fill() output: one fire list per cycle of the block.
  std::vector<std::vector<Fire>> fires_;

  // Integer fire thresholds (see bernoulli_fire_threshold).
  std::uint64_t t_fire_ = 0;   ///< Bernoulli rate
  std::uint64_t t_enter_ = 0;  ///< MMPP idle→burst transition
  std::uint64_t t_leave_ = 0;  ///< MMPP burst→idle transition
  std::uint64_t t_burst_ = 0;  ///< MMPP emission while in burst
  std::uint64_t t_idle_ = 0;   ///< MMPP emission while idle
};

}  // namespace kncube::sim
