#include "core/saturation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/model_registry.hpp"
#include "util/assert.hpp"

namespace kncube::core {

SaturationResult bisect_saturation(double initial_guess, double rel_tol,
                                   const std::function<bool(double)>& stable) {
  SaturationResult res;
  if (!(std::isfinite(initial_guess) && initial_guess > 0.0)) {
    // A NaN guess would make every bracket comparison false and "converge"
    // on a rate that was never probed.
    res.failed = true;
    return res;
  }
  double lo = 0.0;
  double hi = initial_guess;

  // Bracket: grow hi until unstable, shrinking the guess if even it is
  // unstable from the start.
  auto probe = [&](double rate) {
    ++res.probes;
    return stable(rate);
  };
  if (probe(hi)) {
    lo = hi;
    while (probe(hi * 2.0)) {
      lo = hi * 2.0;
      hi *= 2.0;
      KNC_ASSERT_MSG(res.probes < 200, "saturation bracket failed to close");
    }
    hi *= 2.0;
  } else {
    while (hi > 1e-12 && !probe(hi / 2.0)) {
      hi /= 2.0;
      KNC_ASSERT_MSG(res.probes < 200, "saturation bracket failed to close");
    }
    if (hi <= 1e-12) {
      // The shrink loop ran the bracket down to nothing without observing a
      // single stable probe. Historically this returned hi/2 as a "converged"
      // rate that was never probed; report the failure instead.
      res.failed = true;
      res.rate = 0.0;
      return res;
    }
    // The loop exited because probe(hi/2) was stable, so this lo is probed.
    lo = hi / 2.0;
  }

  while ((hi - lo) > rel_tol * hi) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  res.rate = lo;
  return res;
}

std::vector<double> sweep_rates(const SaturationResult& anchor, int points,
                                double lo_frac, double hi_frac) {
  KNC_ASSERT(points >= 2 && lo_frac > 0.0 && hi_frac > lo_frac);
  if (anchor.failed) {
    throw std::runtime_error(
        "saturation search failed: no stable rate observed for this spec");
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double f = lo_frac + (hi_frac - lo_frac) * static_cast<double>(i) /
                                   static_cast<double>(points - 1);
    out.push_back(f * anchor.rate);
  }
  return out;
}

SaturationResult sim_saturation_rate(const ScenarioSpec& spec, double rel_tol) {
  // Each probe is a full simulation: cap the per-probe effort. A saturated
  // probe reveals itself quickly (backlog growth), a stable one converges.
  ScenarioSpec probe_spec = spec;
  probe_spec.target_messages = std::max<std::uint64_t>(spec.target_messages / 2, 800);

  // Seed the bracketing from the model's bottleneck estimate when the spec
  // has an analytical model; otherwise from the streaming bound 1/Lm (the
  // bracket phase then grows/shrinks to wherever the boundary actually is).
  const ModelDispatch dispatch = make_analytical_model(spec);
  const double guess = dispatch.has_model()
                           ? dispatch.model->estimated_saturation_rate()
                           : 1.0 / static_cast<double>(spec.message_length);
  return bisect_saturation(guess, rel_tol, [&](double rate) {
    const sim::SimResult r = sim::simulate(to_sim_config(probe_spec, rate));
    return !r.saturated;
  });
}

}  // namespace kncube::core
