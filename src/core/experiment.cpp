#include "core/experiment.hpp"

#include <cmath>
#include <limits>

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

}  // namespace kncube::core
