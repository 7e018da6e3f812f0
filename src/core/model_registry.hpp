// Model registry: ScenarioSpec -> AnalyticalModel dispatch.
//
// Maps a spec onto the model layer's one ModelConfig, or reports "sim-only"
// with a reason when no analytical counterpart exists. Two places know which
// corner of the scenario space the models cover:
//
//  * this registry, for what only a spec can express: failed routers or
//    links, bidirectional torus links, permutation traffic patterns and an
//    off-centre mesh hot node;
//  * model::unsupported_reason, for what a ModelConfig can express: torus
//    n != 2, MMPP arrivals off the torus, ablation knobs a family has no
//    variant for (uniform torus: blocking and bases; hypercube: blocking),
//    and models over the engine's channel-class bound (a hot-spot torus
//    past k = 253; every 2-D mesh and uniform torus fits).
//
// Every other (topology, traffic, arrivals) combination is modeled: the
// hot-spot and uniform 2-D torus, the uniform and centre-hot-spot k-ary
// n-mesh, the hypercube under either traffic (uniform is its h = 0
// degeneration), and MMPP arrivals on both torus families. The family table
// is in model/analytical_model.hpp.
//
// SweepEngine holds the dispatched model and solves every operating point
// through it, so memoization and saturation bisection work identically for
// all families.
#pragma once

#include <optional>
#include <string>

#include "core/scenario_spec.hpp"
#include "model/analytical_model.hpp"

namespace kncube::core {

struct ModelDispatch {
  /// The matching analytical model, or nullopt when the spec is sim-only.
  std::optional<model::AnalyticalModel> model;
  /// Why no analytical model applies (empty when `model` is set).
  std::string sim_only_reason;

  bool has_model() const noexcept { return model.has_value(); }
};

/// Dispatches a validated spec to its analytical model family. Throws
/// std::invalid_argument when the spec itself is invalid.
ModelDispatch make_analytical_model(const ScenarioSpec& spec);

}  // namespace kncube::core
