// Saturation-rate search for both the analytical models and the simulator.
//
// The models have a sharp feasibility boundary (the fixed point stops
// existing); we locate it by exponential bracketing plus bisection. The
// simulator's boundary is statistical (backlog growth), so the sim search
// uses the same bisection with a coarser tolerance and reduced measurement
// effort per probe. The model search is SweepEngine::saturation_rate
// (core/sweep_engine.hpp), which memoizes its probes; the sim search here
// accepts any valid ScenarioSpec, sim-only specs included.
#pragma once

#include <functional>
#include <vector>

#include "core/experiment.hpp"

namespace kncube::core {

struct SaturationResult {
  double rate = 0.0;    ///< highest stable injection rate found
  int probes = 0;       ///< model solves / simulations performed
  /// True when no stable rate was ever observed: the initial guess was not a
  /// positive finite rate, or the shrink phase collapsed the bracket to ~0
  /// without a single stable probe. `rate` is 0 in that case — callers must
  /// not treat it as a converged saturation boundary.
  bool failed = false;
};

/// Relative width of SweepEngine::saturation_rate's bisection: every model
/// saturation rate the library reports, stores or anchors a sweep on.
inline constexpr double kModelSaturationRelTol = 1e-3;

/// Generic bracketing + bisection on a stable(rate) predicate: grows/shrinks
/// from `initial_guess` until the boundary is bracketed, then bisects to
/// relative width `rel_tol`. A non-finite or non-positive guess reports
/// `failed` without probing. Exposed so callers with memoized probes (e.g.
/// core::SweepEngine) can reuse the search.
SaturationResult bisect_saturation(double initial_guess, double rel_tol,
                                   const std::function<bool(double)>& stable);

/// `points` evenly spaced rates from `lo_frac` to `hi_frac` of `anchor.rate`:
/// the grid of SweepEngine::lambda_sweep, for a caller that already holds
/// the saturation result (or anchors a sim-only sweep at a rate cap). Throws
/// std::runtime_error when `anchor` is a failed search.
std::vector<double> sweep_rates(const SaturationResult& anchor, int points,
                                double lo_frac, double hi_frac);

/// Bisects the simulator's saturation boundary. `rel_tol` is coarser by
/// default because every probe is a full simulation.
SaturationResult sim_saturation_rate(const ScenarioSpec& spec, double rel_tol = 0.05);

}  // namespace kncube::core
