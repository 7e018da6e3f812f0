// Damped fixed-point iteration for the model's interdependent equations.
//
// The paper notes that "a closed-form solution to these interdependencies is
// very difficult to determine" and computes the variables "using iterative
// techniques". We iterate x_{t+1} = (1-alpha) x_t + alpha F(x_t) (Jacobi
// sweep with under-relaxation); alpha < 1 stabilises the strongly coupled
// near-saturation region where undamped iteration oscillates. Maps known to
// settle undamped — the channel-class engine's constant-blocking systems,
// which reach their exact fixed point in 2-3 sweeps — run with alpha = 1
// (engine/channel_class.hpp).
#pragma once

#include <functional>
#include <vector>

namespace kncube::model {

struct FixedPointOptions {
  double tolerance = 1e-10;  ///< max relative change per component
  int max_iterations = 50000;
  double damping = 0.5;             ///< alpha; 1 = undamped
  double divergence_cap = 1e12;     ///< any component beyond this => diverged
  /// After the tolerance test passes, refine the iterate until it reproduces
  /// itself bit-for-bit (see solve_fixed_point); 0 disables. The polish
  /// budget bounds the damped phase; the undamped phase is a few sweeps.
  int polish_iterations = 128;
};

struct FixedPointResult {
  bool converged = false;
  /// The step callback reported an unserviceable state (utilisation >= 1) or
  /// a component exceeded the divergence cap: the operating point has no
  /// steady state (saturation).
  bool diverged = false;
  int iterations = 0;
};

/// One sweep: fills `next` from `current`; false signals saturation.
using FixedPointStep =
    std::function<bool(const std::vector<double>&, std::vector<double>&)>;

/// `step(current, next)` must fill `next` (same size) and return false to
/// signal saturation. `state` holds the initial guess on entry and the final
/// iterate on exit.
///
/// When `options.polish_iterations > 0`, a converged iterate is additionally
/// *polished*: the solver keeps iterating (undamped while that contracts,
/// damped otherwise) until the state is exactly stationary in floating
/// point, i.e. one more sweep reproduces every component bit-for-bit. A
/// bitwise-stationary iterate is not unique — two starts can settle on
/// neighbouring ones a last ulp apart — so the answer bits are those of the
/// polished trajectory from the caller's start; the models always start
/// from the zero-load state. Polish never changes the converged / diverged
/// classification nor the reported iteration count, and it is skipped when
/// the converging sweep already reproduced its input.
FixedPointResult solve_fixed_point(std::vector<double>& state,
                                   const FixedPointStep& step,
                                   const FixedPointOptions& options = {});

/// The sweep buffers solve_fixed_point iterates in. A caller that solves
/// many systems passes the same buffers every time, so after the first solve
/// of a given size they are reused rather than allocated.
struct FixedPointBuffers {
  std::vector<double> next;  ///< the sweep's output
  std::vector<double> prev;  ///< the polish's previous iterate
};

/// The same iteration in the caller's `buffers`. `next` starts each call
/// zero-filled, as in the overload above, so the answers are identical; the
/// polish may exchange `state`'s storage with `buffers.next`.
FixedPointResult solve_fixed_point(std::vector<double>& state,
                                   const FixedPointStep& step,
                                   const FixedPointOptions& options,
                                   FixedPointBuffers& buffers);

}  // namespace kncube::model
