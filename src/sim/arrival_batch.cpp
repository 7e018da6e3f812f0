#include "sim/arrival_batch.hpp"

#include <cmath>
#include <type_traits>

#include "util/assert.hpp"

namespace kncube::sim {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

/// One xoshiro256** step on a node's four state words (the scalar
/// util::Xoshiro256::operator()): returns the output, advances the state.
inline std::uint64_t xs_step(std::uint64_t& s0, std::uint64_t& s1,
                             std::uint64_t& s2, std::uint64_t& s3) noexcept {
  const std::uint64_t x = rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return x;
}

/// The integer fire predicate for threshold t (bernoulli_fire_threshold).
constexpr bool fires_below(std::uint64_t x, std::uint64_t t) noexcept {
  return (x >> 11) < t;
}

/// All-ones when `b`, else zero (branch-free blend masks).
constexpr std::uint64_t mask_if(bool b) noexcept {
  return std::uint64_t{0} - static_cast<std::uint64_t>(b);
}

}  // namespace

std::uint64_t bernoulli_fire_threshold(double rate) noexcept {
  constexpr std::uint64_t kOne = 1ull << 53;  // draws are in [0, 2^53)
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return kOne;
  // First guess, then nudge to the exact boundary of the downward-closed set
  // {m : (double)m * 2^-53 < rate}. Both conversions below are exact (m <
  // 2^53 and the scale is a power of two), so the two loops terminate after
  // at most a step or two and leave T with: fires ⟺ m < T.
  auto t = static_cast<std::uint64_t>(std::ceil(rate * 0x1p53));
  while (t > 0 && static_cast<double>(t - 1) * 0x1p-53 >= rate) --t;
  while (t < kOne && static_cast<double>(t) * 0x1p-53 < rate) ++t;
  return t;
}

ArrivalBatch::ArrivalBatch(const SimConfig& cfg, const topo::FaultSet& faults,
                           topo::NodeId nodes)
    : n_(nodes), kind_(cfg.arrivals) {
  s0_.resize(n_);
  s1_.resize(n_);
  s2_.resize(n_);
  s3_.resize(n_);
  alive_.resize(n_);
  fired_.assign(n_, 0);

  util::Xoshiro256 root(cfg.seed);
  for (topo::NodeId id = 0; id < nodes; ++id) {
    std::uint64_t s[4];
    root.split(id).save_state(s);
    s0_[id] = s[0];
    s1_[id] = s[1];
    s2_[id] = s[2];
    s3_[id] = s[3];
    alive_[id] = faults.router_failed(id) ? 0 : ~std::uint64_t{0};
  }

  switch (kind_) {
    case Arrivals::kBernoulli:
      t_fire_ = bernoulli_fire_threshold(cfg.injection_rate);
      break;
    case Arrivals::kMmpp: {
      // Reuse the reference implementation's rate derivation so the two
      // paths cannot drift; every node starts idle, as the scalar class did.
      const MmppArrivals ref(cfg.injection_rate, cfg.mmpp);
      t_enter_ = bernoulli_fire_threshold(cfg.mmpp.p_enter_burst);
      t_leave_ = bernoulli_fire_threshold(cfg.mmpp.p_leave_burst);
      t_burst_ = bernoulli_fire_threshold(ref.burst_rate());
      t_idle_ = bernoulli_fire_threshold(ref.idle_rate());
      burst_.assign(n_, 0);
      break;
    }
  }
}

void ArrivalBatch::generate() {
  if (kind_ == Arrivals::kBernoulli) {
    generate_bernoulli();
  } else {
    generate_mmpp();
  }
}

void ArrivalBatch::fill(TrafficPattern& pattern, std::uint32_t cycles) {
  KNC_ASSERT(cycles >= 1);
  fires_.resize(cycles);
  for (std::vector<Fire>& list : fires_) list.clear();
  // Node-major: one node's whole block in registers, then the next. Nodes'
  // streams are independent, so only each node's own draw order matters —
  // per cycle its fixed draws, then (on a fire) its destination draws —
  // and appending in node order leaves every cycle's list ascending.
  const auto run = [&](auto mmpp) {
    for (std::size_t i = 0; i < n_; ++i) {
      if (alive_[i] == 0) continue;  // dead nodes' streams stay frozen
      std::uint64_t a0 = s0_[i], a1 = s1_[i], a2 = s2_[i], a3 = s3_[i];
      bool burst = false;
      if constexpr (decltype(mmpp)::value) burst = burst_[i] != 0;
      const auto node = static_cast<topo::NodeId>(i);
      for (std::uint32_t c = 0; c < cycles; ++c) {
        bool fire;
        if constexpr (decltype(mmpp)::value) {
          // Transition first, then emit at the new state's rate.
          const std::uint64_t x1 = xs_step(a0, a1, a2, a3);
          burst = burst ? !fires_below(x1, t_leave_) : fires_below(x1, t_enter_);
          fire = fires_below(xs_step(a0, a1, a2, a3), burst ? t_burst_ : t_idle_);
        } else {
          fire = fires_below(xs_step(a0, a1, a2, a3), t_fire_);
        }
        if (!fire) continue;
        std::uint64_t st[4] = {a0, a1, a2, a3};
        util::Xoshiro256 rng = util::Xoshiro256::from_state(st);
        fires_[c].push_back({node, pattern.pick_dest(node, rng)});
        rng.save_state(st);
        a0 = st[0];
        a1 = st[1];
        a2 = st[2];
        a3 = st[3];
      }
      s0_[i] = a0;
      s1_[i] = a1;
      s2_[i] = a2;
      s3_[i] = a3;
      if constexpr (decltype(mmpp)::value) burst_[i] = mask_if(burst);
    }
  };
  if (kind_ == Arrivals::kMmpp) {
    run(std::true_type{});
  } else {
    run(std::false_type{});
  }
}

// The per-cycle kernels, written branch-free so the compiler can vectorize.

void ArrivalBatch::generate_bernoulli() {
  std::uint64_t* s0 = s0_.data();
  std::uint64_t* s1 = s1_.data();
  std::uint64_t* s2 = s2_.data();
  std::uint64_t* s3 = s3_.data();
  const std::uint64_t* alive = alive_.data();
  std::uint8_t* fired = fired_.data();
  const std::uint64_t tf = t_fire_;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t m = alive[i];
    std::uint64_t n0 = s0[i], n1 = s1[i], n2 = s2[i], n3 = s3[i];
    const std::uint64_t x = xs_step(n0, n1, n2, n3);
    // Blend: dead lanes keep their old state (stream must not advance).
    s0[i] ^= (n0 ^ s0[i]) & m;
    s1[i] ^= (n1 ^ s1[i]) & m;
    s2[i] ^= (n2 ^ s2[i]) & m;
    s3[i] ^= (n3 ^ s3[i]) & m;
    fired[i] = static_cast<std::uint8_t>(fires_below(x, tf) & m);
  }
}

void ArrivalBatch::generate_mmpp() {
  std::uint64_t* s0 = s0_.data();
  std::uint64_t* s1 = s1_.data();
  std::uint64_t* s2 = s2_.data();
  std::uint64_t* s3 = s3_.data();
  std::uint64_t* burst = burst_.data();
  const std::uint64_t* alive = alive_.data();
  std::uint8_t* fired = fired_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::uint64_t m = alive[i];
    std::uint64_t n0 = s0[i], n1 = s1[i], n2 = s2[i], n3 = s3[i];
    // Draw 1: state transition (leave when bursting, enter when idle).
    const std::uint64_t x1 = xs_step(n0, n1, n2, n3);
    const std::uint64_t b = burst[i];
    const std::uint64_t leave = mask_if(fires_below(x1, t_leave_));
    const std::uint64_t enter = mask_if(fires_below(x1, t_enter_));
    const std::uint64_t nb = (b & ~leave) | (~b & enter);
    // Draw 2: emission at the new state's rate.
    const std::uint64_t x2 = xs_step(n0, n1, n2, n3);
    const std::uint64_t temit = (nb & t_burst_) | (~nb & t_idle_);
    fired[i] = static_cast<std::uint8_t>(fires_below(x2, temit) & m);
    burst[i] ^= (nb ^ b) & m;
    s0[i] ^= (n0 ^ s0[i]) & m;
    s1[i] ^= (n1 ^ s1[i]) & m;
    s2[i] ^= (n2 ^ s2[i]) & m;
    s3[i] ^= (n3 ^ s3[i]) & m;
  }
}

}  // namespace kncube::sim
