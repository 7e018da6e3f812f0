#include "core/model_registry.hpp"

namespace kncube::core {

namespace {

/// The sim-only reasons no ModelConfig can express.
std::string spec_only_reason(const ScenarioSpec& spec) {
  if (!spec.failures.empty()) {
    // Every analytical family assumes the pristine network: silently solving
    // the pristine model for a degraded scenario would report latencies for
    // a network that does not exist.
    return "fault-aware analytical model not yet implemented";
  }
  if (spec.is_torus() && spec.torus().bidirectional) {
    return "analytical models assume unidirectional links";
  }
  if (!spec.is_hotspot() && !std::holds_alternative<UniformTraffic>(spec.traffic)) {
    return "no analytical counterpart for this traffic pattern";
  }
  if (spec.is_mesh() && spec.is_hotspot()) {
    // The hot-spot mesh model exploits the centre node's mirror symmetry:
    // the hot load on a dimension-d line depends only on the distance to
    // the centre and on whether the line is hot, giving O(n k) classes. An
    // off-centre hot node breaks that symmetry — every channel gets its own
    // load — so the simulator carries that variant.
    const std::int64_t hot = spec.hotspot().hot_node;
    if (hot != -1 && hot != topo::centre_node(spec.mesh().k, spec.mesh().n)) {
      return "mesh hot-spot model covers the centre hot node only (off-centre "
             "load is per-channel with no class symmetry)";
    }
  }
  return {};
}

model::ModelConfig model_config(const ScenarioSpec& spec) {
  model::ModelConfig cfg;
  if (spec.is_torus()) {
    cfg.topology = model::TopologyKind::kTorus;
    cfg.k = spec.torus().k;
    cfg.n = spec.torus().n;
  } else if (spec.is_mesh()) {
    cfg.topology = model::TopologyKind::kMesh;
    cfg.k = spec.mesh().k;
    cfg.n = spec.mesh().n;
  } else {
    cfg.topology = model::TopologyKind::kHypercube;
    cfg.k = 2;
    cfg.n = spec.hypercube().dims;
  }
  cfg.hot_fraction = spec.is_hotspot() ? std::optional(spec.hotspot().fraction)
                                       : std::nullopt;
  cfg.vcs = spec.vcs;
  cfg.message_length = spec.message_length;
  cfg.blocking = spec.blocking;
  cfg.busy_basis = spec.busy_basis;
  cfg.vcmux_basis = spec.vcmux_basis;
  if (spec.is_mmpp()) {
    const MmppArrivals& m = spec.mmpp();
    cfg.mmpp = model::MmppArrivalShape{m.burst_multiplier, m.p_enter_burst,
                                       m.p_leave_burst};
  }
  return cfg;
}

}  // namespace

ModelDispatch make_analytical_model(const ScenarioSpec& spec) {
  spec.validate();
  ModelDispatch d;
  d.sim_only_reason = spec_only_reason(spec);
  if (!d.sim_only_reason.empty()) return d;
  model::ModelConfig cfg = model_config(spec);
  d.sim_only_reason = model::unsupported_reason(cfg);
  if (d.sim_only_reason.empty()) d.model.emplace(std::move(cfg));
  return d;
}

}  // namespace kncube::core
