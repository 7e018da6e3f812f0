#include "model/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace kncube::model {

namespace {

bool all_finite(const std::vector<double>& v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double max_rel_change(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max(std::abs(b[i]), 1.0);
    m = std::max(m, std::abs(b[i] - a[i]) / denom);
  }
  return m;
}

/// Refines a tolerance-converged iterate to the map's exactly stationary
/// point (see the header). Phase 1 iterates undamped — near the fixed point
/// the raw map is usually a strong contraction and snaps to stationarity in
/// a handful of sweeps; if a sweep fails, goes non-finite, or stops
/// contracting (the oscillatory regime damping exists for), phase 2 falls
/// back to the damped blend. Exact two-cycles — the terminal behaviour of a
/// rounding-level oscillation — are canonicalised to the componentwise
/// minimum so every trajectory that lands on the cycle reports the same
/// state. Best-effort: on budget exhaustion the current iterate stands.
void polish_to_stationary(std::vector<double>& state, std::vector<double>& next,
                          std::vector<double>& prev, const FixedPointStep& step,
                          const FixedPointOptions& options) {
  const std::size_t size = state.size();
  prev.clear();
  double last_rel = std::numeric_limits<double>::infinity();
  constexpr int kUndampedBudget = 48;
  for (int it = 0; it < kUndampedBudget; ++it) {
    if (!step(state, next) || !all_finite(next)) return;
    if (next == state) return;  // exactly stationary
    if (!prev.empty() && next == prev) {  // exact 2-cycle: canonicalise
      for (std::size_t i = 0; i < size; ++i) state[i] = std::min(state[i], next[i]);
      return;
    }
    const double rel = max_rel_change(state, next);
    if (rel > last_rel || rel >= 1e-6) break;  // hand over to the damped phase
    prev = state;
    state.swap(next);
    last_rel = rel;
  }
  const double alpha = options.damping;
  prev.clear();
  for (int it = 0; it < options.polish_iterations; ++it) {
    if (!step(state, next) || !all_finite(next)) return;
    bool stationary = true;
    for (std::size_t i = 0; i < size; ++i) {
      next[i] = (1.0 - alpha) * state[i] + alpha * next[i];
      stationary = stationary && next[i] == state[i];
    }
    if (stationary) return;
    if (!prev.empty() && next == prev) {
      for (std::size_t i = 0; i < size; ++i) state[i] = std::min(state[i], next[i]);
      return;
    }
    prev = state;
    state.swap(next);
  }
}

}  // namespace

FixedPointResult solve_fixed_point(std::vector<double>& state,
                                   const FixedPointStep& step,
                                   const FixedPointOptions& options) {
  FixedPointBuffers buffers;
  return solve_fixed_point(state, step, options, buffers);
}

FixedPointResult solve_fixed_point(std::vector<double>& state,
                                   const FixedPointStep& step,
                                   const FixedPointOptions& options,
                                   FixedPointBuffers& buffers) {
  FixedPointResult result;
  std::vector<double>& next = buffers.next;
  next.assign(state.size(), 0.0);
  const double alpha = options.damping;
  KNC_ASSERT_MSG(alpha > 0.0 && alpha <= 1.0, "damping must be in (0, 1]");

  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it + 1;
    if (!step(state, next)) {
      result.diverged = true;
      return result;
    }
    KNC_ASSERT_MSG(next.size() == state.size(), "step changed the state size");

    double max_rel = 0.0;
    bool over_cap = false;
    bool reproduced = true;  // the sweep returned its input bit-for-bit
    for (std::size_t i = 0; i < state.size(); ++i) {
      const double blended = (1.0 - alpha) * state[i] + alpha * next[i];
      const double denom = std::max(std::abs(blended), 1.0);
      max_rel = std::max(max_rel, std::abs(blended - state[i]) / denom);
      reproduced = reproduced && next[i] == state[i] && blended == state[i];
      state[i] = blended;
      if (!std::isfinite(blended) || std::abs(blended) > options.divergence_cap) {
        over_cap = true;
      }
    }
    if (over_cap) {
      result.diverged = true;
      return result;
    }
    if (max_rel < options.tolerance) {
      result.converged = true;
      // A reproduced state is already exactly stationary: polishing it would
      // only repeat this sweep.
      if (options.polish_iterations > 0 && !reproduced) {
        polish_to_stationary(state, next, buffers.prev, step, options);
      }
      return result;
    }
  }
  return result;  // neither converged nor provably diverged: caller decides
}

}  // namespace kncube::model
