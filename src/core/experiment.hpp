// One operating point of a model-vs-simulation series (the paper's §4):
// what core::SweepEngine::run (core/sweep_engine.hpp) returns per rate.
// core/kncube.hpp is the library's entry point; workloads are described by
// core::ScenarioSpec (core/scenario_spec.hpp) and dispatched to the matching
// analytical model by the registry (core/model_registry.hpp).
#pragma once

#include "core/scenario_spec.hpp"
#include "model/analytical_model.hpp"
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

}  // namespace kncube::core
