// Uniform-traffic analytical model for the deterministically-routed k-ary
// n-mesh, built on the shared channel-class engine.
//
// Removing the torus's wrap-around links breaks vertex-transitivity: under
// dimension-order routing the load of a line's + link at position i is
// proportional to (i+1)(k-1-i) — peaking at the line's centre (the bisection
// links) — so the paper's "all channels of a dimension alike" classes no
// longer exist. The mesh model instead declares one channel class per
// (dimension, position): n(k-1) classes (the - direction folds onto the +
// classes by mirror symmetry, and the per-position rates are the same in
// every dimension), each blocking on its own channel, fed by the exact
// path-counting rates of src/topology/mesh_geometry.hpp, coupled through the
// same S = B + 1 + continuation recursion as the paper's eqs (16)-(25) and
// closed by the same fixed-point solve. DESIGN.md §8 derives
// the per-class rate and continuation equations and maps each to its paper
// counterpart.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"
#include "model/mesh_regular.hpp"
#include "topology/mesh_geometry.hpp"

namespace kncube::model {

namespace {

/// The n(k-1)-class mesh system (DESIGN.md §8): the regular classes alone,
/// each blocking on its own channel (per-position rates make blocking
/// position-dependent). Rate slot i holds the position-i channel rate, the
/// same in every dimension.
engine::ChannelClassSystem declare_system(const ModelConfig& cfg,
                                          const mesh::RegularLayout& lay) {
  const double lm = static_cast<double>(cfg.message_length);
  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  engine::ChannelClassSystem sys(lay.end(), cfg.k - 1, opts);
  mesh::declare_regular_classes(sys, lay, lm, [&](int d, int i) {
    const int term = sys.add_term(
        {i, mesh::regular_holding_time(cfg, d, i), sys.add_read(lay.slot(d, i), 1)});
    return sys.add_mixture({{term}});
  });
  return sys;
}

class UniformMesh final : public CompiledModel {
 public:
  explicit UniformMesh(const ModelConfig& cfg)
      : CompiledModel(cfg, declare_system(cfg, {cfg.k, cfg.n, 0})),
        cfg_(cfg),
        lay_{cfg.k, cfg.n, 0} {}

 private:
  ModelResult evaluate(double lambda, double /*arrival_idc: Bernoulli only*/) const override {
    const ModelConfig& cfg = cfg_;
    const int k = cfg.k;
    const int n = cfg.n;
    const double lm = static_cast<double>(cfg.message_length);
    const mesh::RegularLayout& lay = lay_;

    engine::ThreadWorkspace ws;
    ws->rates.resize(static_cast<std::size_t>(k - 1));
    for (int i = 0; i < k - 1; ++i) {
      ws->rates[static_cast<std::size_t>(i)] = topo::mesh_channel_rate(lambda, k, n, i);
    }
    const auto channel_rate = [&](int i) { return ws->rates[static_cast<std::size_t>(i)]; };

    ModelResult res;
    // All traffic is regular: regular_latency mirrors latency on every path,
    // +inf when saturated.
    const auto finish = [&res] {
      res.regular_latency = res.latency;
      return res;
    };

    const FixedPointResult fp = system_.solve(*ws);
    res.iterations = fp.iterations;
    res.converged = fp.converged;
    if (!fp.converged) return finish();  // saturated (diverged or no steady state)

    const std::vector<double>& state = ws->state;
    const mesh::RegularEntrances ent = mesh::regular_entrances(state, lay);
    const double s_net = ent.network;
    res.regular_network_latency = s_net;

    const double arr = lambda / static_cast<double>(cfg.vcs);
    const QueueDelay wait = mg1_wait(arr, s_net, lm);
    if (wait.saturated) return finish();
    res.source_wait_regular = wait.value;

    // Entrance-weighted VC multiplexing per first dimension (eqs 33-35 per
    // class), on the configured occupancy basis. Dimension 0 carries the
    // longest continuations (vc_mux_x); the last dimension drains into the
    // destination (both y slots).
    double latency = 0.0;
    for (int j = 0; j < n; ++j) {
      double vbar = 0.0;
      for (int i = 0; i < k - 1; ++i) {
        const double service =
            cfg.vcmux_basis == ServiceBasis::kTransmission
                ? mesh::regular_holding_time(cfg, j, i)
                : state[static_cast<std::size_t>(lay.slot(j, i))];
        vbar += topo::mesh_entrance_weight(k, i) *
                vc_multiplexing_degree(channel_rate(i), service, cfg.vcs);
      }
      if (j == 0) res.vc_mux_x = vbar;
      if (j == n - 1) res.vc_mux_hot_y = res.vc_mux_nonhot_y = vbar;
      latency += ent.p_first[static_cast<std::size_t>(j)] *
                 (ent.entrance[static_cast<std::size_t>(j)] + wait.value) * vbar;
    }
    res.latency = latency;

    // The most loaded class: a centre (bisection) link of dimension 0 in all
    // non-degenerate cases.
    double util = 0.0;
    for (int d = 0; d < n; ++d) {
      for (int i = 0; i < k - 1; ++i) {
        util = std::max(util, channel_rate(i) *
                                  state[static_cast<std::size_t>(lay.slot(d, i))]);
      }
    }
    res.max_channel_utilization = std::min(1.0, util);
    res.saturated = false;
    return finish();
  }

  ModelConfig cfg_;
  mesh::RegularLayout lay_;
};

}  // namespace

std::unique_ptr<const CompiledModel> compile_uniform_mesh(const ModelConfig& cfg) {
  return std::make_unique<UniformMesh>(cfg);
}

/// RegularLayout::end() from slot 0: one class per (dimension, position).
ModelSize uniform_mesh_size(const ModelConfig& cfg) {
  return {std::int64_t{cfg.n} * (cfg.k - 1), mesh::regular_coefficient_count(cfg.k, cfg.n)};
}

/// E[Manhattan distance | dst != src] + Lm - 1.
double uniform_mesh_zero_load_latency(const ModelConfig& cfg) {
  return topo::mesh_mean_hops_uniform(cfg.k, cfg.n) +
         static_cast<double>(cfg.message_length) - 1.0;
}

double uniform_mesh_saturation_estimate(const ModelConfig& cfg) {
  // Bandwidth pole of the most loaded class: the dimension-0 centre link,
  // whose M/G/1 wait diverges when rate * tx -> 1.
  const double coef = topo::mesh_bottleneck_rate(1.0, cfg.k, cfg.n);
  return 1.0 / (coef * mesh::regular_holding_time(cfg, 0, (cfg.k - 2) / 2));
}

}  // namespace kncube::model
