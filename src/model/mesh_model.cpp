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
// every dimension), each with its own blocking group fed by the exact
// path-counting rates of src/topology/mesh_geometry.hpp, coupled through the
// same S = B + 1 + continuation recursion as the paper's eqs (16)-(25) and
// closed by the same fixed-point solve. DESIGN.md §8 derives
// the per-class rate and continuation equations and maps each to its paper
// counterpart.
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"
#include "topology/mesh_geometry.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClass;
using engine::ChannelClassSystem;
using engine::StateExpr;

// State: one slot per (dimension d, + link position i), i = 0..k-2; the -
// direction link from i+1 to i mirrors the + link at position k-2-i and
// shares its class. Dimensions are laid out high-to-low and positions
// end-of-line-first, so every continuation (the next link of the same line,
// and the entrances of all later dimensions) references an *earlier* slot —
// the engine's within-sweep Gauss-Seidel chaining, exactly as the torus
// models lay y before x.
struct Lay {
  int k, n, ns;
  Lay(int k_, int n_) : k(k_), n(n_), ns(k_ - 1) {}
  int slot(int d, int i) const { return (n - 1 - d) * ns + (ns - 1 - i); }
  int total() const { return n * ns; }
};

/// Linear-expression accumulator (constant + weighted slots) feeding
/// StateExpr::weighted.
struct Lin {
  double c = 0.0;
  std::vector<std::pair<int, double>> terms;
};

void add_scaled(Lin& out, const Lin& in, double scale) {
  out.c += scale * in.c;
  for (const auto& [slot, weight] : in.terms) {
    out.terms.emplace_back(slot, scale * weight);
  }
}

/// Contention-free holding time of a class-(d, i) channel: Lm plus the mean
/// hops still ahead once the link is crossed — (m-1)/2 within the line
/// (destinations are uniform over the m = k-1-i coordinates beyond the
/// link) plus the iid mean line distance for each uncorrected dimension.
double holding_time(const ModelConfig& cfg, int d, int i) {
  const double lm = static_cast<double>(cfg.message_length);
  return lm + static_cast<double>(cfg.k - 2 - i) / 2.0 +
         static_cast<double>(cfg.n - 1 - d) * topo::mesh_mean_line_hops(cfg.k);
}

/// Builds the n(k-1)-class mesh system (DESIGN.md §8). Each class owns one
/// blocking group (per-position rates make blocking position-dependent);
/// continuations chain along the line and fall through G_{d+1}, the expected
/// service from the remaining dimensions:
///
///   S_d(i)   = B_d(i) + 1 + (m-1)/m * S_d(i+1) + 1/m * G_{d+1}   (m = k-1-i)
///   S_d(k-2) = B_d(k-2) + 1 + G_{d+1}
///   G_j      = 1/k * G_{j+1} + (k-1)/k * E_enter(j),  G_n = Lm - 1
///   E_enter(j) = sum_i w_i S_j(i),  w_i = mesh_entrance_weight(k, i)
ChannelClassSystem build_system(const ModelConfig& cfg, double lambda) {
  const int k = cfg.k;
  const int n = cfg.n;
  const double lm = static_cast<double>(cfg.message_length);
  const Lay lay(k, n);

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  ChannelClassSystem sys(lay.total(), opts);

  // G_{j} continuation expressions, built from the last dimension backward
  // (index n holds the destination drain), alongside their zero-load values
  // for the classes' iteration starting points.
  std::vector<Lin> g(static_cast<std::size_t>(n) + 1);
  std::vector<double> g0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  g[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> s0(static_cast<std::size_t>(lay.total()), 0.0);

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont_g = g[static_cast<std::size_t>(d + 1)];
    const double cont_g0 = g0[static_cast<std::size_t>(d + 1)];
    for (int i = k - 2; i >= 0; --i) {
      const double m = static_cast<double>(k - 1 - i);
      Lin cont;
      if (i == k - 2) {
        add_scaled(cont, cont_g, 1.0);
      } else {
        add_scaled(cont, cont_g, 1.0 / m);
        cont.terms.emplace_back(lay.slot(d, i + 1), (m - 1.0) / m);
      }

      ChannelClass cls;
      cls.name = "mesh";
      cls.blocking = sys.add_blocking(
          {{{1.0,
             {topo::mesh_channel_rate(lambda, k, n, i),
              StateExpr::slot(lay.slot(d, i)), holding_time(cfg, d, i)},
             {}}},
           1.0});
      // Zero-load value of the recursion above with B = 0 (exact: the
      // branching probabilities are exact path counts).
      double init = 1.0 + cont_g0;
      if (i < k - 2) {
        init = 1.0 + (m - 1.0) / m * s0[static_cast<std::size_t>(lay.slot(d, i + 1))] +
               cont_g0 / m;
      }
      s0[static_cast<std::size_t>(lay.slot(d, i))] = init;
      cls.initial = init;
      cls.output_continuation = StateExpr::weighted(cont.c, 1.0, std::move(cont.terms));
      sys.set_class(lay.slot(d, i), std::move(cls));
    }
    // Close this dimension's entrance average into G_d for the dimensions
    // below it.
    Lin& gd = g[static_cast<std::size_t>(d)];
    add_scaled(gd, g[static_cast<std::size_t>(d + 1)], 1.0 / static_cast<double>(k));
    double enter0 = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double w = topo::mesh_entrance_weight(k, i) *
                       (static_cast<double>(k - 1) / static_cast<double>(k));
      gd.terms.emplace_back(lay.slot(d, i), w);
      enter0 += topo::mesh_entrance_weight(k, i) *
                s0[static_cast<std::size_t>(lay.slot(d, i))];
    }
    g0[static_cast<std::size_t>(d)] =
        g0[static_cast<std::size_t>(d + 1)] / static_cast<double>(k) +
        enter0 * (static_cast<double>(k - 1) / static_cast<double>(k));
  }
  return sys;
}

}  // namespace

ModelResult solve_uniform_mesh(const ModelConfig& cfg, double lambda,
                               double /*arrival_idc: Bernoulli only*/) {
  const int k = cfg.k;
  const int n = cfg.n;
  const double lm = static_cast<double>(cfg.message_length);
  const Lay lay(k, n);
  const auto channel_rate = [&](int i) {
    return topo::mesh_channel_rate(lambda, k, n, i);
  };

  ModelResult res;
  // All traffic is regular: regular_latency mirrors latency on every path,
  // +inf when saturated.
  const auto finish = [&res] {
    res.regular_latency = res.latency;
    return res;
  };

  const ChannelClassSystem sys = build_system(cfg, lambda);
  std::vector<double> state;
  const FixedPointResult fp = sys.solve(state, engine::SolvePolicy{});
  res.iterations = fp.iterations;
  res.converged = fp.converged;
  if (!fp.converged) return finish();  // saturated (diverged or no steady state)

  // First-correcting-dimension path probabilities are exact: dimensions
  // 0..j-1 match with probability k^-j, dimension j differs with (k-1)/k,
  // renormalised by the dst != src conditioning.
  const double p_self = std::pow(static_cast<double>(k), -n);
  std::vector<double> entrance(static_cast<std::size_t>(n), 0.0);
  std::vector<double> p_first(static_cast<std::size_t>(n), 0.0);
  double s_net = 0.0;
  for (int j = 0; j < n; ++j) {
    double e = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      e += topo::mesh_entrance_weight(k, i) *
           state[static_cast<std::size_t>(lay.slot(j, i))];
    }
    entrance[static_cast<std::size_t>(j)] = e;
    p_first[static_cast<std::size_t>(j)] =
        std::pow(1.0 / static_cast<double>(k), j) *
        (static_cast<double>(k - 1) / static_cast<double>(k)) / (1.0 - p_self);
    s_net += p_first[static_cast<std::size_t>(j)] * e;
  }
  res.regular_network_latency = s_net;

  const double arr = lambda / static_cast<double>(cfg.vcs);
  const QueueDelay ws = mg1_wait(arr, s_net, lm);
  if (ws.saturated) return finish();
  res.source_wait_regular = ws.value;

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
              ? holding_time(cfg, j, i)
              : state[static_cast<std::size_t>(lay.slot(j, i))];
      vbar += topo::mesh_entrance_weight(k, i) *
              vc_multiplexing_degree(channel_rate(i), service, cfg.vcs);
    }
    if (j == 0) res.vc_mux_x = vbar;
    if (j == n - 1) res.vc_mux_hot_y = res.vc_mux_nonhot_y = vbar;
    latency += p_first[static_cast<std::size_t>(j)] *
               (entrance[static_cast<std::size_t>(j)] + ws.value) * vbar;
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

/// E[Manhattan distance | dst != src] + Lm - 1.
double uniform_mesh_zero_load_latency(const ModelConfig& cfg) {
  return topo::mesh_mean_hops_uniform(cfg.k, cfg.n) +
         static_cast<double>(cfg.message_length) - 1.0;
}

double uniform_mesh_saturation_estimate(const ModelConfig& cfg) {
  // Bandwidth pole of the most loaded class: the dimension-0 centre link,
  // whose M/G/1 wait diverges when rate * tx -> 1.
  const double coef = topo::mesh_bottleneck_rate(1.0, cfg.k, cfg.n);
  return 1.0 / (coef * holding_time(cfg, 0, (cfg.k - 2) / 2));
}

}  // namespace kncube::model
