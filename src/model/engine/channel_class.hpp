// Shared channel-class engine for the analytical models.
//
// Every model in this repository (uniform and hot-spot torus, uniform and
// hot-spot mesh, hot-spot hypercube) has the same mathematical shape,
// inherited from the paper's eqs (16)-(30): a vector of per-channel-class
// mean service times S_c coupled through
//
//   S_c = B_c + 1 + continuation_c                                    (16-25)
//
// where B_c is a (possibly averaged) blocking delay computed from the
// traffic streams crossing the class's channels (eqs 26-30) and the
// continuation is the downstream service time — the previous hop of the same
// class, the entrance of another class, or the Lm-1 drain at the destination.
// The coupled system is closed by fixed-point iteration (src/model/solver):
// undamped and exact in 2-3 sweeps when the blocking is a constant of the
// system (the default transmission basis, the pure-wait ablation), damped
// when it reads the iterated state (the inclusive basis).
//
// This header turns that shape into data held in a few flat arrays. A
// builder declares
//   - *terms*: one blocking_delay of a regular and a hot stream each, every
//     stream rate named by its slot in the per-λ rate table;
//   - *mixtures*: a weighted term list plus a divisor (the eq 17-20 averages,
//     the hypercube and mesh line-type mixtures, or a single shared term);
//   - *reads*: the inclusive service times the streams carry, each a mean of
//     consecutive slots, declared once and evaluated once per sweep;
//   - one channel class per state slot, whose blocking is a mixture and whose
//     continuations are linear in the state.
// A class whose blocking is one channel of an average shares that average's
// term instead of declaring it a second time. Nothing a builder declares
// depends on λ: the system is declared once per configuration and solved at
// any number of rates, each solve reading its stream rates and arrival IDC
// from its Workspace (DESIGN.md §4).
// The five model builders are thin layers over this engine (DESIGN.md §4);
// the h = 0 agreement between the uniform and hot-spot torus models is
// structural, because both declare the same terms with the same streams.
#pragma once

#include <array>
#include <initializer_list>
#include <span>
#include <vector>

#include "model/solver.hpp"

namespace kncube::model {

/// Blocking-delay variant, for the approximation ablation (bench A3):
/// the paper multiplies the busy probability into the M/G/1 wait (eq 26);
/// kPureWait uses the merged-stream wait alone.
enum class BlockingVariant : int { kPaper = 0, kPureWait = 1 };

/// Which service-time scale feeds a rho-like quantity (busy probability,
/// VC-occupancy chain). kInclusive uses the iterated blocking-inclusive
/// downstream latencies (the paper's letter); kTransmission uses the
/// contention-free holding times (bounded, bandwidth-oriented). See
/// DESIGN.md R8 and the ablation bench for the empirical comparison.
enum class ServiceBasis : int { kInclusive = 0, kTransmission = 1 };

namespace engine {

/// One stream of a term: the slot of the per-λ rate table holding the
/// messages/cycle crossing the channel (-1: no stream, rate 0), their
/// contention-free holding time (>= Lm), and the declared read of their
/// blocking-inclusive service time (-1 reads nothing: 0).
struct TermStream {
  int rate = -1;
  double tx = 0.0;
  int read = -1;
};

/// One entry of a mixture: `weight` times the value of term `term`.
struct Weighted {
  int term = -1;
  double weight = 1.0;
};

/// One coefficient of a linear continuation: `weight` * s[slot].
struct Coef {
  int slot = -1;
  double weight = 1.0;
};

/// A linear continuation over the state,
///   constant + (sum of weight * s[slot] over its coefficients) / divisor,
/// whose coefficients are the range [begin, end) of its system's coefficient
/// array. `Linear{c}` is the constant c; ChannelClassSystem::slot, mean and
/// linear declare the others. The divisor (rather than pre-scaled weights)
/// keeps entrance averages bit-identical to an accumulate-then-divide loop.
struct Linear {
  double constant = 0.0;
  double divisor = 1.0;
  int begin = 0;
  int end = 0;
};

/// One channel class = one state slot, updated each sweep as
///   out[slot] = B + 1 + input(in) + output(out),
/// B being the value of mixture `blocking` (0 when -1). `output` implements
/// the Gauss-Seidel recursions within a sweep (eqs 16-25 chain along the
/// path): slots are evaluated in index order, so it may read only slots
/// below its own.
struct ChannelClass {
  int blocking = -1;
  double initial = 0.0;  ///< zero-load starting value for the iteration
  Linear input;
  Linear output;
};

/// The most channel classes (state slots) and continuation coefficients one
/// system may declare. A system's arrays and its solve's workspace grow with
/// both, and each thread keeps its storage between solves (ChannelClassSystem,
/// Workspace), so model::unsupported_reason turns larger models away before
/// they are built.
inline constexpr int kMaxClasses = 1 << 16;
inline constexpr int kMaxCoefficients = 1 << 22;

/// Queueing-policy knobs shared by every blocking evaluation in a system.
struct EngineOptions {
  double service_floor = 1.0;  ///< Lm, the contention-free variance floor
  BlockingVariant blocking = BlockingVariant::kPaper;
  /// Service scale entering the busy probability Pb (eq 27).
  ServiceBasis busy_basis = ServiceBasis::kTransmission;
};

/// Everything one solve writes: the per-λ rate table and the state, which
/// the model family fills and reads, scratch vectors for the family's
/// assembly, and the engine's own per-sweep values. A ThreadWorkspace lends
/// the calling thread's, so a thread that has solved a model of a given size
/// solves the next one no larger without allocating.
struct Workspace {
  /// The stream rates of this solve, indexed by TermStream::rate; as many
  /// as the system declared.
  std::vector<double> rates;
  /// The iterate; the converged state once ChannelClassSystem::solve
  /// returns converged.
  std::vector<double> state;
  /// Free for the family's assembly (the hot-spot torus keeps its
  /// per-position source waits and multiplexing degrees here).
  std::array<std::vector<double>, 4> scratch;

 private:
  friend class ChannelClassSystem;
  friend class ThreadWorkspace;
  /// The values of the reads, terms and mixtures, and the fixed-point
  /// iteration's sweep buffers.
  std::vector<double> reads;
  std::vector<double> terms;
  std::vector<double> mixtures;
  FixedPointBuffers sweep;
  /// The arrival index of dispersion fed to every waiting-time evaluation
  /// (engine/bursty.hpp): 1 = Bernoulli arrivals, bitwise the pre-bursty
  /// engine.
  double arrival_idc = 1.0;
  /// Constant blocking reads nothing from the state — Pb and the
  /// merged-stream wait depend only on rates and contention-free holding
  /// times — so it is computed on the first sweep and reused bit-for-bit
  /// afterwards. The inclusive basis stays per-sweep.
  bool blocking_cached = false;
};

/// The calling thread's spare Workspace, lent for this object's lifetime and
/// handed back, capacity kept, when it is destroyed (unless it outgrew the
/// 16 MiB a thread keeps). A second ThreadWorkspace alive on the same thread
/// starts empty. Results never depend on what the storage held before: every
/// value a solve reads, it first writes.
class ThreadWorkspace {
 public:
  ThreadWorkspace();
  ~ThreadWorkspace();
  ThreadWorkspace(const ThreadWorkspace&) = delete;
  ThreadWorkspace& operator=(const ThreadWorkspace&) = delete;

  Workspace& operator*() noexcept { return ws_; }
  Workspace* operator->() noexcept { return &ws_; }

 private:
  Workspace ws_;
};

/// A declarative channel-class system. Slots and the size of the rate table
/// are fixed at construction so builders can lay out and cross-reference
/// indices before declaring the classes; slot order is the within-sweep
/// evaluation order. A declared system is read-only: solve() is const and
/// writes only the caller's Workspace, so one system may be solved from many
/// threads at once.
///
/// A system takes its flat arrays from the constructing thread's spare
/// storage and hands them back, capacity kept, when it is destroyed (DESIGN.md
/// §4): once a thread has declared a system of a given size, declaring one no
/// larger allocates nothing, unless that storage outgrew the 16 MiB a thread
/// keeps.
class ChannelClassSystem {
 public:
  ChannelClassSystem(int slots, int rates, EngineOptions options);
  ~ChannelClassSystem();
  /// Movable, so builders can return a system; a moved-from system holds no
  /// storage and hands nothing back. Copying would duplicate the arrays.
  ChannelClassSystem(ChannelClassSystem&& other) noexcept = default;
  ChannelClassSystem(const ChannelClassSystem&) = delete;
  ChannelClassSystem& operator=(const ChannelClassSystem&) = delete;
  ChannelClassSystem& operator=(ChannelClassSystem&&) = delete;

  /// Declares a read of the mean of `count` consecutive slots from `first`,
  /// evaluated on the sweep's input. Returns its index for TermStream::read,
  /// or -1 when the blocking is constant: only the inclusive-basis Pb reads
  /// a stream's inclusive service time, so nothing is stored then.
  int add_read(int first, int count);
  /// Declares one blocking_delay of a regular and a hot stream; returns its
  /// index for Weighted::term. Terms are numbered in declaration order.
  /// Aborts unless each stream's rate slot is -1 or one of the system's.
  int add_term(const TermStream& regular, const TermStream& hot = {});
  /// Declares the mixture (sum of weight * term) / divisor; returns its
  /// index for ChannelClass::blocking.
  int add_mixture(std::initializer_list<Weighted> items, double divisor = 1.0);
  /// The mixture averaging `count` consecutive terms from `first` (eqs 17-20).
  int add_term_mean(int first, int count);

  /// Continuations: s[index]; the mean of `count` consecutive slots from
  /// `first`; constant + the weighted slots of `coefs`.
  Linear slot(int index);
  Linear mean(int first, int count);
  Linear linear(double constant, std::span<const Coef> coefs);

  /// Declares the class of `slot`. Aborts unless every slot `cls.output`
  /// reads lies below `slot` — a later one would read the previous sweep's
  /// raw scratch and converge to a silently wrong fixed point.
  void set_class(int slot, const ChannelClass& cls);

  /// The declared state slots and continuation coefficients: what
  /// model::unsupported_reason bounds before anything is declared.
  int class_count() const noexcept { return static_cast<int>(a_.classes.size()); }
  int coefficient_count() const noexcept { return static_cast<int>(a_.coefs.size()); }

  /// Fixed-point solve from the zero-load state at the stream rates in
  /// `ws.rates` (as many as the constructor's `rates`) and arrival index of
  /// dispersion `arrival_idc`. `ws.state` holds the converged iterate on
  /// success.
  ///
  /// With state-independent blocking (transmission basis or pure wait) the
  /// solve first runs undamped sweeps. Every builder in this repository then
  /// yields an affine sweep whose cross-sweep reads form an acyclic chain at
  /// most two deep, so the sweeps reach the exact fixed point in 2-3
  /// iterations. If they do not converge within a small budget — and always
  /// with state-dependent (inclusive-basis) blocking — the damped iteration
  /// runs, then the stubborn-point retry (DESIGN.md R7). Every path starts
  /// from the zero-load state, so the result (iteration count included)
  /// depends only on the system, the rates and the IDC.
  FixedPointResult solve(Workspace& ws, double arrival_idc = 1.0) const;

 private:
  struct Read {
    int first = 0;
    int count = 0;
  };
  struct Term {
    TermStream regular;
    TermStream hot;
  };
  struct Mixture {
    int begin = 0;  ///< range of Arrays::items
    int end = 0;
    double divisor = 1.0;
  };
  /// Everything a builder declares, in declaration order.
  struct Arrays {
    std::vector<ChannelClass> classes;
    std::vector<Read> reads;
    std::vector<Term> terms;
    std::vector<Weighted> items;
    std::vector<Mixture> mixtures;
    std::vector<Coef> coefs;
  };
  /// The calling thread's spare arrays (possibly empty).
  static Arrays& spare_arrays();

  double eval(const Linear& lin, const std::vector<double>& s) const;
  bool term_value(const Term& term, const Workspace& ws, double& out) const;
  bool step(const std::vector<double>& in, std::vector<double>& out,
            Workspace& ws) const;

  EngineOptions options_;
  int rate_count_;
  bool blocking_state_dependent_;
  Arrays a_;
};

}  // namespace engine
}  // namespace kncube::model
