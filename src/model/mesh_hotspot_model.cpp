// Hot-spot analytical model for the deterministically-routed k-ary n-mesh,
// built on the shared channel-class engine.
//
// The hot node sits at the centre coordinate c = k/2 of every dimension (the
// simulator's resolved default). Under dimension-order routing a hot-spot
// message corrects dimension 0 first, so on dimension d it travels only on
// the "hot lines" whose coordinates in dimensions < d already equal the hot
// node's — a fraction q_d = k^-d of that dimension's lines (every dimension-0
// line is hot; by dimension n-1 only the single funnel line into the hot node
// remains, carrying k^{n-1} sources per position). Removing the torus wrap
// also breaks the mirror fold at the centre: the + links below c and the -
// links above c carry different hot loads, so the hot classes split into a
// +chain (positions 0..c-1) and a -chain (positions c+1..k-1) per dimension,
// while the regular classes keep the uniform-mesh fold and see the hot
// streams through a (1-q_d, q_d/2, q_d/2) blocking mixture over the plain /
// +hot / -hot line cases. DESIGN.md §13 derives the rates and recursions.
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
using engine::StreamSpec;

/// Mean line distance to the centre coordinate c = k/2 from a uniform
/// source coordinate — the hot analogue of mesh_mean_line_hops.
double mean_hot_line_hops(int k) {
  const int c = k / 2;
  int sum = 0;
  for (int x = 0; x < k; ++x) sum += std::abs(x - c);
  return static_cast<double>(sum) / static_cast<double>(k);
}

// Slot layout. Hot chains first, dimensions high-to-low (the funnel before
// the lines feeding it), +chain positions descending and -chain positions
// ascending, so every hot continuation — the next link toward the centre,
// or E_h(d+1) over the next dimension's chains — references an earlier
// slot. The regular classes follow in the uniform-mesh layout, offset past
// the hot block; they reference only regular slots, so the engine's default
// slot-order evaluation is a valid Gauss-Seidel order for the whole system.
struct Lay {
  int k, n, c, ns, np, nm;
  Lay(int k_, int n_)
      : k(k_), n(n_), c(k_ / 2), ns(k_ - 1), np(k_ / 2), nm(k_ - 1 - k_ / 2) {}
  int hot_base(int d) const { return (n - 1 - d) * (np + nm); }
  /// + link p -> p+1, p = 0..c-1 (hot flows up toward c).
  int sp(int d, int p) const { return hot_base(d) + (c - 1 - p); }
  /// - link x -> x-1, x = c+1..k-1 (hot flows down toward c).
  int sm(int d, int x) const { return hot_base(d) + np + (x - (c + 1)); }
  int reg_base() const { return n * (np + nm); }
  int reg(int d, int i) const {
    return reg_base() + (n - 1 - d) * ns + (ns - 1 - i);
  }
  int total() const { return reg_base() + n * ns; }
};

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

/// Builder: shared geometry, rates and holding times for build + assembly.
struct Geo {
  const ModelConfig& cfg;
  Lay lay;
  double lambda, lm, h, md_uniform, md_hot;

  Geo(const ModelConfig& c, double rate)
      : cfg(c),
        lay(c.k, c.n),
        lambda(rate),
        lm(static_cast<double>(c.message_length)),
        h(*c.hot_fraction),
        md_uniform(topo::mesh_mean_line_hops(c.k)),
        md_hot(mean_hot_line_hops(c.k)) {}

  /// Fraction of dimension-d lines that are hot lines: k^-d.
  double q(int d) const {
    return std::pow(1.0 / static_cast<double>(lay.k), d);
  }
  /// Sources funnelled per hot-line position of dimension d: k^d (every
  /// combination of the already-corrected coordinates), each offering
  /// h*lambda toward the centre.
  double funnel(int d) const {
    return std::pow(static_cast<double>(lay.k), d) * h * lambda;
  }
  double sp_rate(int d, int p) const {
    return static_cast<double>(p + 1) * funnel(d);
  }
  double sm_rate(int d, int x) const {
    return static_cast<double>(lay.k - x) * funnel(d);
  }
  double reg_rate(int i) const {
    return topo::mesh_channel_rate((1.0 - h) * lambda, lay.k,
                                   lay.n, i);
  }

  /// Contention-free holding times: Lm plus the mean hops remaining after
  /// the link is crossed. Hot messages have c - (p+1) (or x-1 - c) hops left
  /// in the line and the mean centre distance in every later dimension.
  double tx_sp(int d, int p) const {
    return lm + static_cast<double>(lay.c - 1 - p) +
           static_cast<double>(lay.n - 1 - d) * md_hot;
  }
  double tx_sm(int d, int x) const {
    return lm + static_cast<double>(x - 1 - lay.c) +
           static_cast<double>(lay.n - 1 - d) * md_hot;
  }
  double tx_reg(int d, int i) const {
    return lm + static_cast<double>(lay.k - 2 - i) / 2.0 +
           static_cast<double>(lay.n - 1 - d) * md_uniform;
  }

  StreamSpec reg_stream(int d, int i) const {
    return {reg_rate(i), StateExpr::slot(lay.reg(d, i)), tx_reg(d, i)};
  }
  StreamSpec sp_stream(int d, int p) const {
    return {sp_rate(d, p), StateExpr::slot(lay.sp(d, p)), tx_sp(d, p)};
  }
  StreamSpec sm_stream(int d, int x) const {
    return {sm_rate(d, x), StateExpr::slot(lay.sm(d, x)), tx_sm(d, x)};
  }
  /// Hot stream on the + instance of folded regular position i (empty when
  /// the link is past the centre and carries no +chain traffic).
  StreamSpec hot_on_plus(int d, int i) const {
    if (i >= lay.c) return {};
    return sp_stream(d, i);
  }
  /// Hot stream on the - instance: the fold maps + position i onto the
  /// - link from k-1-i down to k-2-i, in the -chain when k-1-i > c.
  StreamSpec hot_on_minus(int d, int i) const {
    const int x = lay.k - 1 - i;
    if (x <= lay.c) return {};
    return sm_stream(d, x);
  }
};

/// Builds the 2n(k-1)-class system (DESIGN.md §13): hot chains
///
///   Sp_d(p) = Bh + 1 + (p = c-1 ? E_h(d+1) : Sp_d(p+1))
///   Sm_d(x) = Bh + 1 + (x = c+1 ? E_h(d+1) : Sm_d(x-1))
///   E_h(d)  = 1/k [ E_h(d+1) + sum_p Sp_d(p) + sum_x Sm_d(x) ],
///   E_h(n)  = Lm - 1
///
/// plus the uniform-mesh regular recursion with the hot-line blocking
/// mixture. `eh` and `eh0` (optional) receive the E_h(0) expression and its
/// zero-load value for the assembly phase.
ChannelClassSystem build_system(const Geo& geo, Lin* eh_out, double* eh0_out) {
  const ModelConfig& cfg = geo.cfg;
  const Lay& lay = geo.lay;
  const int k = lay.k;
  const int n = lay.n;
  const int c = lay.c;
  const double lm = geo.lm;

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  ChannelClassSystem sys(lay.total(), opts);

  // --- hot chains, funnel dimension first -------------------------------
  std::vector<Lin> eh(static_cast<std::size_t>(n) + 1);
  std::vector<double> eh0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  eh[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> hot0(static_cast<std::size_t>(lay.reg_base()), 0.0);

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont = eh[static_cast<std::size_t>(d + 1)];
    const double cont0 = eh0[static_cast<std::size_t>(d + 1)];
    for (int p = c - 1; p >= 0; --p) {
      ChannelClass cls;
      cls.name = "hot+";
      cls.blocking =
          sys.add_blocking({{{1.0, geo.reg_stream(d, p), geo.sp_stream(d, p)}},
                            1.0});
      double init;
      if (p == c - 1) {
        cls.output_continuation =
            StateExpr::weighted(cont.c, 1.0, {cont.terms});
        init = 1.0 + cont0;
      } else {
        cls.output_continuation = StateExpr::slot(lay.sp(d, p + 1));
        init = 1.0 + hot0[static_cast<std::size_t>(lay.sp(d, p + 1))];
      }
      hot0[static_cast<std::size_t>(lay.sp(d, p))] = init;
      cls.initial = init;
      sys.set_class(lay.sp(d, p), std::move(cls));
    }
    for (int x = c + 1; x < k; ++x) {
      const int i = k - 1 - x;  // folded regular position of the - link
      ChannelClass cls;
      cls.name = "hot-";
      cls.blocking =
          sys.add_blocking({{{1.0, geo.reg_stream(d, i), geo.sm_stream(d, x)}},
                            1.0});
      double init;
      if (x == c + 1) {
        cls.output_continuation =
            StateExpr::weighted(cont.c, 1.0, {cont.terms});
        init = 1.0 + cont0;
      } else {
        cls.output_continuation = StateExpr::slot(lay.sm(d, x - 1));
        init = 1.0 + hot0[static_cast<std::size_t>(lay.sm(d, x - 1))];
      }
      hot0[static_cast<std::size_t>(lay.sm(d, x))] = init;
      cls.initial = init;
      sys.set_class(lay.sm(d, x), std::move(cls));
    }
    // Close E_h(d): a hot message enters dimension d at a uniform source
    // coordinate — already centred with probability 1/k, else it starts the
    // chain at its entry link.
    Lin& ed = eh[static_cast<std::size_t>(d)];
    const double inv_k = 1.0 / static_cast<double>(k);
    add_scaled(ed, cont, inv_k);
    double acc0 = cont0;
    for (int p = 0; p < c; ++p) {
      ed.terms.emplace_back(lay.sp(d, p), inv_k);
      acc0 += hot0[static_cast<std::size_t>(lay.sp(d, p))];
    }
    for (int x = c + 1; x < k; ++x) {
      ed.terms.emplace_back(lay.sm(d, x), inv_k);
      acc0 += hot0[static_cast<std::size_t>(lay.sm(d, x))];
    }
    eh0[static_cast<std::size_t>(d)] = acc0 * inv_k;
  }

  // --- regular classes: uniform-mesh recursion, hot-line blocking mix ----
  std::vector<Lin> g(static_cast<std::size_t>(n) + 1);
  std::vector<double> g0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  g[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> s0(static_cast<std::size_t>(lay.total()), 0.0);

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont_g = g[static_cast<std::size_t>(d + 1)];
    const double cont_g0 = g0[static_cast<std::size_t>(d + 1)];
    const double qd = geo.q(d);
    for (int i = k - 2; i >= 0; --i) {
      const double m = static_cast<double>(k - 1 - i);
      Lin cont;
      if (i == k - 2) {
        add_scaled(cont, cont_g, 1.0);
      } else {
        add_scaled(cont, cont_g, 1.0 / m);
        cont.terms.emplace_back(lay.reg(d, i + 1), (m - 1.0) / m);
      }

      // Blocking mixture over the folded link pair's line type: plain with
      // probability 1-q_d, else the + or - instance of a hot line (equally
      // likely under the fold).
      engine::BlockingSpec spec;
      spec.divisor = 1.0;
      if (qd < 1.0) {
        spec.terms.push_back({1.0 - qd, geo.reg_stream(d, i), {}});
      }
      spec.terms.push_back({qd / 2.0, geo.reg_stream(d, i), geo.hot_on_plus(d, i)});
      spec.terms.push_back(
          {qd / 2.0, geo.reg_stream(d, i), geo.hot_on_minus(d, i)});

      ChannelClass cls;
      cls.name = "mesh";
      cls.blocking = sys.add_blocking(std::move(spec));
      double init = 1.0 + cont_g0;
      if (i < k - 2) {
        init = 1.0 +
               (m - 1.0) / m * s0[static_cast<std::size_t>(lay.reg(d, i + 1))] +
               cont_g0 / m;
      }
      s0[static_cast<std::size_t>(lay.reg(d, i))] = init;
      cls.initial = init;
      cls.output_continuation =
          StateExpr::weighted(cont.c, 1.0, std::move(cont.terms));
      sys.set_class(lay.reg(d, i), std::move(cls));
    }
    Lin& gd = g[static_cast<std::size_t>(d)];
    add_scaled(gd, g[static_cast<std::size_t>(d + 1)],
               1.0 / static_cast<double>(k));
    double enter0 = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double w = topo::mesh_entrance_weight(k, i) *
                       (static_cast<double>(k - 1) / static_cast<double>(k));
      gd.terms.emplace_back(lay.reg(d, i), w);
      enter0 += topo::mesh_entrance_weight(k, i) *
                s0[static_cast<std::size_t>(lay.reg(d, i))];
    }
    g0[static_cast<std::size_t>(d)] =
        g0[static_cast<std::size_t>(d + 1)] / static_cast<double>(k) +
        enter0 * (static_cast<double>(k - 1) / static_cast<double>(k));
  }

  if (eh_out != nullptr) *eh_out = std::move(eh[0]);
  if (eh0_out != nullptr) *eh0_out = eh0[0];
  return sys;
}

}  // namespace

ModelResult solve_hotspot_mesh(const ModelConfig& cfg, double lambda,
                               double /*arrival_idc: Bernoulli only*/) {
  const Geo geo(cfg, lambda);
  const Lay& lay = geo.lay;
  const int k = lay.k;
  const int n = lay.n;
  const double lm = geo.lm;
  const double h = geo.h;

  ModelResult res;

  Lin eh;
  double eh0 = 0.0;
  const ChannelClassSystem sys = build_system(geo, &eh, &eh0);
  std::vector<double> state;
  const FixedPointResult fp = sys.solve(state, engine::SolvePolicy{});
  res.iterations = fp.iterations;
  res.converged = fp.converged;
  if (!fp.converged) return res;  // saturated (diverged or no steady state)

  // --- regular network latency: uniform-mesh assembly over the regular
  // slots (first-correcting-dimension probabilities are exact path counts).
  const double p_self = std::pow(static_cast<double>(k), -n);
  std::vector<double> entrance(static_cast<std::size_t>(n), 0.0);
  std::vector<double> p_first(static_cast<std::size_t>(n), 0.0);
  double s_net = 0.0;
  for (int j = 0; j < n; ++j) {
    double e = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      e += topo::mesh_entrance_weight(k, i) *
           state[static_cast<std::size_t>(lay.reg(j, i))];
    }
    entrance[static_cast<std::size_t>(j)] = e;
    p_first[static_cast<std::size_t>(j)] =
        std::pow(1.0 / static_cast<double>(k), j) *
        (static_cast<double>(k - 1) / static_cast<double>(k)) / (1.0 - p_self);
    s_net += p_first[static_cast<std::size_t>(j)] * e;
  }
  res.regular_network_latency = s_net;

  // Hot network latency: E_h(0) evaluated on the converged state.
  double eh_net = eh.c;
  for (const auto& [slot, weight] : eh.terms) {
    eh_net += weight * state[static_cast<std::size_t>(slot)];
  }

  // --- source wait: per-VC M/G/1 over the h-mixed network service.
  const double arr = lambda / static_cast<double>(cfg.vcs);
  const double s_mix = (1.0 - h) * s_net + h * eh_net;
  const QueueDelay ws = mg1_wait(arr, s_mix, lm);
  if (ws.saturated) return res;
  res.source_wait_regular = ws.value;

  // --- VC multiplexing: entrance-weighted per dimension for the regular
  // path (folded-pair mean rate includes the hot share of the line mix) and
  // entry-weighted over the funnel dimension's chains for the hot path.
  const auto mux_service_reg = [&](int d, int i) {
    return cfg.vcmux_basis == ServiceBasis::kTransmission
               ? geo.tx_reg(d, i)
               : state[static_cast<std::size_t>(lay.reg(d, i))];
  };
  double latency_reg = 0.0;
  double vbar_first = 1.0;
  double vbar_last = 1.0;
  for (int j = 0; j < n; ++j) {
    const double qd = geo.q(j);
    double vbar = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double hot_pair =
          qd * 0.5 * (geo.hot_on_plus(j, i).rate + geo.hot_on_minus(j, i).rate);
      vbar += topo::mesh_entrance_weight(k, i) *
              vc_multiplexing_degree(geo.reg_rate(i) + hot_pair,
                                     mux_service_reg(j, i), cfg.vcs);
    }
    if (j == 0) vbar_first = vbar;
    if (j == n - 1) vbar_last = vbar;
    latency_reg += p_first[static_cast<std::size_t>(j)] *
                   (entrance[static_cast<std::size_t>(j)] + ws.value) * vbar;
  }
  res.vc_mux_x = vbar_first;
  res.vc_mux_nonhot_y = vbar_last;

  // Funnel-dimension hot multiplexing, entry-coordinate weighted.
  const int fd = n - 1;
  double vbar_hot = 0.0;
  for (int x = 0; x < k; ++x) {
    double rate = 0.0;
    double service = lm;
    if (x < lay.c) {
      rate = geo.sp_rate(fd, x) + geo.reg_rate(x);
      service = cfg.vcmux_basis == ServiceBasis::kTransmission
                    ? geo.tx_sp(fd, x)
                    : state[static_cast<std::size_t>(lay.sp(fd, x))];
    } else if (x > lay.c) {
      rate = geo.sm_rate(fd, x) + geo.reg_rate(k - 1 - x);
      service = cfg.vcmux_basis == ServiceBasis::kTransmission
                    ? geo.tx_sm(fd, x)
                    : state[static_cast<std::size_t>(lay.sm(fd, x))];
    }
    vbar_hot += vc_multiplexing_degree(rate, service, cfg.vcs) /
                static_cast<double>(k);
  }
  res.vc_mux_hot_y = vbar_hot;

  const double latency_hot = (eh_net + ws.value) * vbar_hot;
  res.regular_latency = latency_reg;
  res.hot_latency = latency_hot;
  res.latency = (1.0 - h) * latency_reg + h * latency_hot;

  // --- utilisation: regular classes at the regular rate, hot chains at the
  // full (regular + hot) link rate.
  double util = 0.0;
  for (int d = 0; d < n; ++d) {
    for (int i = 0; i < k - 1; ++i) {
      util = std::max(util, geo.reg_rate(i) *
                                state[static_cast<std::size_t>(lay.reg(d, i))]);
    }
    for (int p = 0; p < lay.c; ++p) {
      util = std::max(util, (geo.sp_rate(d, p) + geo.reg_rate(p)) *
                                state[static_cast<std::size_t>(lay.sp(d, p))]);
    }
    for (int x = lay.c + 1; x < k; ++x) {
      util = std::max(util,
                      (geo.sm_rate(d, x) + geo.reg_rate(k - 1 - x)) *
                          state[static_cast<std::size_t>(lay.sm(d, x))]);
    }
  }
  res.max_channel_utilization = std::min(1.0, util);
  res.saturated = false;
  return res;
}

/// The h-weighted mix of the uniform mean Manhattan distance and the mean
/// distance to the centre, plus Lm - 1.
double hotspot_mesh_zero_load_latency(const ModelConfig& cfg) {
  const double h = *cfg.hot_fraction;
  const double reg = topo::mesh_mean_hops_uniform(cfg.k, cfg.n) +
                     static_cast<double>(cfg.message_length) - 1.0;
  const double hot = static_cast<double>(cfg.n) * mean_hot_line_hops(cfg.k) +
                     static_cast<double>(cfg.message_length) - 1.0;
  return (1.0 - h) * reg + h * hot;
}

/// The tighter of the regular bisection-link pole and the hot funnel-link
/// pole.
double hotspot_mesh_saturation_estimate(const ModelConfig& cfg) {
  const double h = *cfg.hot_fraction;
  const Geo geo(cfg, 0.0);  // holding times only: rate-independent
  const Lay& lay = geo.lay;
  // Regular pole: the dimension-0 bisection link at the uniform component.
  const double coef_reg =
      topo::mesh_bottleneck_rate(1.0, cfg.k, cfg.n) * (1.0 - h);
  const double sat_reg =
      1.0 / (coef_reg * geo.tx_reg(0, (cfg.k - 2) / 2));
  if (h <= 0.0) return sat_reg;
  // Funnel pole: the last + link into the centre of the funnel dimension
  // carries c * k^{n-1} hot sources plus the line's regular share.
  const int fd = cfg.n - 1;
  const double coef_funnel =
      static_cast<double>(lay.c) *
          std::pow(static_cast<double>(cfg.k), fd) * h +
      topo::mesh_channel_rate(1.0 - h, cfg.k, cfg.n,
                              lay.c - 1);
  const double sat_funnel = 1.0 / (coef_funnel * geo.tx_sp(fd, lay.c - 1));
  return std::min(sat_reg, sat_funnel);
}

}  // namespace kncube::model
