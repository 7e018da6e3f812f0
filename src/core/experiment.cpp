#include "core/experiment.hpp"

#include <cmath>
#include <limits>

#include "core/saturation.hpp"
#include "core/sweep_engine.hpp"
#include "util/assert.hpp"

namespace kncube::core {

double PointResult::relative_error() const {
  // NaN — never inf or a garbage ratio — whenever either side has no usable
  // finite latency: missing sim, saturated model, a non-finite model latency
  // that slipped past the saturation flag, or an empty/saturated sim whose
  // mean is zero or non-finite.
  if (!has_model || !has_sim || model.saturated || !std::isfinite(model.latency) ||
      !std::isfinite(sim.mean_latency) || sim.mean_latency <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::abs(model.latency - sim.mean_latency) / sim.mean_latency;
}

std::vector<PointResult> run_series(const ScenarioSpec& spec,
                                    const std::vector<double>& lambdas,
                                    bool run_sim) {
  SweepEngine engine(spec);
  return engine.run(lambdas, run_sim);
}

std::vector<double> lambda_sweep(const ScenarioSpec& spec, int points,
                                 double lo_frac, double hi_frac) {
  SweepEngine engine(spec);
  return engine.lambda_sweep(points, lo_frac, hi_frac);
}

}  // namespace kncube::core
