// Experiment harness: runs the analytical models and the flit-level
// simulator over injection-rate sweeps and produces the model-vs-simulation
// series of the paper's §4. This (plus core/kncube.hpp) is the library's
// main entry point for downstream users; workloads are described by
// core::ScenarioSpec (core/scenario_spec.hpp) and dispatched to the matching
// analytical model by the registry (core/model_registry.hpp).
#pragma once

#include <vector>

#include "core/scenario_spec.hpp"
#include "model/analytical_model.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"

namespace kncube::core {

/// One operating point: the model prediction (when the scenario has an
/// analytical model) and the simulation measurement at the same rate.
struct PointResult {
  double lambda = 0.0;
  model::ModelResult model;
  sim::SimResult sim;
  bool has_sim = false;
  /// False for sim-only scenarios (no analytical counterpart); `model` is
  /// then the default-constructed (saturated) result.
  bool has_model = false;

  /// Relative model error |model - sim| / sim; NaN when either side is
  /// unavailable (saturated or non-finite model, missing or degenerate sim).
  double relative_error() const;
};

/// Runs `lambdas` through the dispatched analytical model and (when
/// `run_sim`) the simulator. Convenience wrapper over a one-shot
/// core::SweepEngine (see core/sweep_engine.hpp): points execute in parallel
/// on the global thread pool and come back in input order, with per-point
/// derived seeds so series are reproducible regardless of scheduling.
/// Callers issuing repeated or overlapping sweeps should hold a SweepEngine
/// to reuse its memoization.
std::vector<PointResult> run_series(const ScenarioSpec& spec,
                                    const std::vector<double>& lambdas,
                                    bool run_sim = true);

/// A sweep of `points` rates from `lo_frac` to `hi_frac` of the model's
/// saturation rate (found by bisection), mirroring how the paper's figures
/// sample each curve from light load up to the latency asymptote. Requires
/// a scenario with an analytical model.
std::vector<double> lambda_sweep(const ScenarioSpec& spec, int points,
                                 double lo_frac = 0.1, double hi_frac = 0.95);

}  // namespace kncube::core
