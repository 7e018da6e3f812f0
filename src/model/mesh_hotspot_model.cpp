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
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"
#include "model/mesh_regular.hpp"
#include "topology/mesh_geometry.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClassSystem;
using mesh::Lin;

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
// the hot block; they reference only regular slots, so slot order is a
// valid Gauss-Seidel order for the whole system.
struct Lay {
  int k, n, c, ns, np, nm;
  mesh::RegularLayout regular;
  Lay(int k_, int n_)
      : k(k_),
        n(n_),
        c(k_ / 2),
        ns(k_ - 1),
        np(k_ / 2),
        nm(k_ - 1 - k_ / 2),
        regular{k_, n_, n_ * (k_ - 1)} {}
  int hot_base(int d) const { return (n - 1 - d) * (np + nm); }
  /// + link p -> p+1, p = 0..c-1 (hot flows up toward c).
  int sp(int d, int p) const { return hot_base(d) + (c - 1 - p); }
  /// - link x -> x-1, x = c+1..k-1 (hot flows down toward c).
  int sm(int d, int x) const { return hot_base(d) + np + (x - (c + 1)); }
  int reg(int d, int i) const { return regular.slot(d, i); }
};

/// Shared geometry, rate slots and holding times for the declaration and
/// the assembly; nothing in it depends on λ.
struct Geo {
  ModelConfig cfg;
  Lay lay;
  double lm, h, md_hot;

  explicit Geo(const ModelConfig& c)
      : cfg(c),
        lay(c.k, c.n),
        lm(static_cast<double>(c.message_length)),
        h(*c.hot_fraction),
        md_hot(mean_hot_line_hops(c.k)) {}

  /// Fraction of dimension-d lines that are hot lines: k^-d.
  double q(int d) const {
    return std::pow(1.0 / static_cast<double>(lay.k), d);
  }

  // --- the per-λ rate table: the regular rate of each folded position i,
  // then per dimension the +chain links p = 0..c-1 and the -chain links
  // x = c+1..k-1.
  int reg_slot(int i) const { return i; }
  int sp_slot(int d, int p) const { return (d + 1) * lay.ns + p; }
  int sm_slot(int d, int x) const { return (d + 1) * lay.ns + x - 1; }
  int rate_count() const { return (lay.n + 1) * lay.ns; }

  /// Fills `table` with the rates at injection rate `lambda`.
  void fill_rates(double lambda, std::vector<double>& table) const {
    const int k = lay.k;
    table.resize(static_cast<std::size_t>(rate_count()));
    const auto at = [&](int slot) -> double& {
      return table[static_cast<std::size_t>(slot)];
    };
    for (int i = 0; i < k - 1; ++i) {
      at(reg_slot(i)) = topo::mesh_channel_rate((1.0 - h) * lambda, k, lay.n, i);
    }
    for (int d = 0; d < lay.n; ++d) {
      // Sources funnelled per hot-line position of dimension d: k^d (every
      // combination of the already-corrected coordinates), each offering
      // h*lambda toward the centre.
      const double funnel = std::pow(static_cast<double>(k), d) * h * lambda;
      for (int p = 0; p < lay.c; ++p) {
        at(sp_slot(d, p)) = static_cast<double>(p + 1) * funnel;
      }
      for (int x = lay.c + 1; x < k; ++x) {
        at(sm_slot(d, x)) = static_cast<double>(k - x) * funnel;
      }
    }
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
};

/// Builds the 2n(k-1)-class system (DESIGN.md §13): hot chains
///
///   Sp_d(p) = Bh + 1 + (p = c-1 ? E_h(d+1) : Sp_d(p+1))
///   Sm_d(x) = Bh + 1 + (x = c+1 ? E_h(d+1) : Sm_d(x-1))
///   E_h(d)  = 1/k [ E_h(d+1) + sum_p Sp_d(p) + sum_x Sm_d(x) ],
///   E_h(n)  = Lm - 1
///
/// plus the uniform-mesh regular recursion with the hot-line blocking
/// mixture. `eh_out` receives the E_h(0) expression for the assembly phase.
ChannelClassSystem declare_system(const Geo& geo, Lin& eh_out) {
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
  ChannelClassSystem sys(lay.regular.end(), geo.rate_count(), opts);

  // --- terms: one per distinct stream pair of each folded regular position
  // (d, i) — the plain line and the + and - instances of a hot line. An
  // instance past the centre carries no hot stream: it is the plain term.
  struct LineTerms {
    int plain, plus, minus;
  };
  std::vector<LineTerms> line(static_cast<std::size_t>(n * lay.ns));
  const auto line_terms = [&](int d, int i) -> LineTerms& {
    return line[static_cast<std::size_t>(d * lay.ns + i)];
  };
  for (int d = 0; d < n; ++d) {
    for (int i = 0; i < k - 1; ++i) {
      const engine::TermStream reg{geo.reg_slot(i), mesh::regular_holding_time(cfg, d, i),
                                   sys.add_read(lay.reg(d, i), 1)};
      const int x = k - 1 - i;
      LineTerms& t = line_terms(d, i);
      t.plain = geo.q(d) < 1.0 || i >= c || x <= c ? sys.add_term(reg) : -1;
      t.plus = i < c ? sys.add_term(reg, {geo.sp_slot(d, i), geo.tx_sp(d, i),
                                          sys.add_read(lay.sp(d, i), 1)})
                     : t.plain;
      t.minus = x > c ? sys.add_term(reg, {geo.sm_slot(d, x), geo.tx_sm(d, x),
                                           sys.add_read(lay.sm(d, x), 1)})
                      : t.plain;
    }
  }

  // --- hot chains, funnel dimension first; each link blocks on its term ---
  std::vector<Lin> eh(static_cast<std::size_t>(n) + 1);
  std::vector<double> eh0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  eh[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> hot0(static_cast<std::size_t>(lay.regular.base), 0.0);

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont = eh[static_cast<std::size_t>(d + 1)];
    const double cont0 = eh0[static_cast<std::size_t>(d + 1)];
    const engine::Linear next_dimension = sys.linear(cont.c, cont.terms);
    // The link into the centre continues into E_h(d+1); every other link
    // continues along its chain.
    const auto chain = [&](int slot, int term, int next_slot) {
      engine::ChannelClass cls{sys.add_mixture({{term}}), 1.0 + cont0, {},
                               next_dimension};
      if (next_slot >= 0) {
        cls.output = sys.slot(next_slot);
        cls.initial = 1.0 + hot0[static_cast<std::size_t>(next_slot)];
      }
      hot0[static_cast<std::size_t>(slot)] = cls.initial;
      sys.set_class(slot, cls);
    };
    for (int p = c - 1; p >= 0; --p) {
      chain(lay.sp(d, p), line_terms(d, p).plus, p == c - 1 ? -1 : lay.sp(d, p + 1));
    }
    for (int x = c + 1; x < k; ++x) {
      chain(lay.sm(d, x), line_terms(d, k - 1 - x).minus,
            x == c + 1 ? -1 : lay.sm(d, x - 1));
    }
    // Close E_h(d): a hot message enters dimension d at a uniform source
    // coordinate — already centred with probability 1/k, else it starts the
    // chain at its entry link.
    Lin& ed = eh[static_cast<std::size_t>(d)];
    const double inv_k = 1.0 / static_cast<double>(k);
    add_scaled(ed, cont, inv_k);
    double acc0 = cont0;
    for (int p = 0; p < c; ++p) {
      ed.terms.push_back({lay.sp(d, p), inv_k});
      acc0 += hot0[static_cast<std::size_t>(lay.sp(d, p))];
    }
    for (int x = c + 1; x < k; ++x) {
      ed.terms.push_back({lay.sm(d, x), inv_k});
      acc0 += hot0[static_cast<std::size_t>(lay.sm(d, x))];
    }
    eh0[static_cast<std::size_t>(d)] = acc0 * inv_k;
  }

  // --- regular classes: uniform-mesh recursion, blocking on a mixture over
  // the folded link pair's line type: plain with probability 1-q_d, else
  // the + or - instance of a hot line (equally likely under the fold).
  mesh::declare_regular_classes(sys, lay.regular, lm, [&](int d, int i) {
    const LineTerms& t = line_terms(d, i);
    const double qd = geo.q(d);
    if (qd < 1.0) {
      return sys.add_mixture(
          {{t.plain, 1.0 - qd}, {t.plus, qd / 2.0}, {t.minus, qd / 2.0}});
    }
    return sys.add_mixture({{t.plus, qd / 2.0}, {t.minus, qd / 2.0}});
  });

  eh_out = std::move(eh[0]);
  return sys;
}

/// The compiled hot-spot mesh: the declared system, its geometry and the
/// E_h(0) expression the assembly evaluates on the converged state.
class HotspotMesh final : public CompiledModel {
 public:
  HotspotMesh(const Geo& geo, ChannelClassSystem sys, Lin eh)
      : CompiledModel(geo.cfg, std::move(sys)), geo_(geo), eh_(std::move(eh)) {}

 private:
  ModelResult evaluate(double lambda, double /*arrival_idc: Bernoulli only*/) const override {
    const Geo& geo = geo_;
    const ModelConfig& cfg = geo.cfg;
    const Lay& lay = geo.lay;
    const int k = lay.k;
    const int n = lay.n;
    const double lm = geo.lm;
    const double h = geo.h;

    engine::ThreadWorkspace ws;
    geo.fill_rates(lambda, ws->rates);
    const auto rate = [&](int slot) { return ws->rates[static_cast<std::size_t>(slot)]; };
    // Hot rates on the + and - instances of folded regular position i: the
    // + link carries +chain traffic below the centre, and the fold maps the
    // - instance onto the link from k-1-i down to k-2-i, in the -chain when
    // k-1-i > c.
    const auto plus_rate = [&](int d, int i) {
      return i < lay.c ? rate(geo.sp_slot(d, i)) : 0.0;
    };
    const auto minus_rate = [&](int d, int i) {
      const int x = k - 1 - i;
      return x > lay.c ? rate(geo.sm_slot(d, x)) : 0.0;
    };
    const auto reg_rate = [&](int i) { return rate(geo.reg_slot(i)); };

    ModelResult res;

    const FixedPointResult fp = system_.solve(*ws);
    res.iterations = fp.iterations;
    res.converged = fp.converged;
    if (!fp.converged) return res;  // saturated (diverged or no steady state)
    const std::vector<double>& state = ws->state;

    // --- regular network latency: uniform-mesh assembly over the regular
    // slots (first-correcting-dimension probabilities are exact path counts).
    const mesh::RegularEntrances ent = mesh::regular_entrances(state, lay.regular);
    const double s_net = ent.network;
    res.regular_network_latency = s_net;

    // Hot network latency: E_h(0) evaluated on the converged state.
    double eh_net = eh_.c;
    for (const engine::Coef& coef : eh_.terms) {
      eh_net += coef.weight * state[static_cast<std::size_t>(coef.slot)];
    }

    // --- source wait: per-VC M/G/1 over the h-mixed network service.
    const double arr = lambda / static_cast<double>(cfg.vcs);
    const double s_mix = (1.0 - h) * s_net + h * eh_net;
    const QueueDelay wait = mg1_wait(arr, s_mix, lm);
    if (wait.saturated) return res;
    res.source_wait_regular = wait.value;

    // --- VC multiplexing: entrance-weighted per dimension for the regular
    // path (folded-pair mean rate includes the hot share of the line mix) and
    // entry-weighted over the funnel dimension's chains for the hot path.
    const auto mux_service_reg = [&](int d, int i) {
      return cfg.vcmux_basis == ServiceBasis::kTransmission
                 ? mesh::regular_holding_time(cfg, d, i)
                 : state[static_cast<std::size_t>(lay.reg(d, i))];
    };
    double latency_reg = 0.0;
    double vbar_first = 1.0;
    double vbar_last = 1.0;
    for (int j = 0; j < n; ++j) {
      const double qd = geo.q(j);
      double vbar = 0.0;
      for (int i = 0; i < k - 1; ++i) {
        const double hot_pair = qd * 0.5 * (plus_rate(j, i) + minus_rate(j, i));
        vbar += topo::mesh_entrance_weight(k, i) *
                vc_multiplexing_degree(reg_rate(i) + hot_pair, mux_service_reg(j, i),
                                       cfg.vcs);
      }
      if (j == 0) vbar_first = vbar;
      if (j == n - 1) vbar_last = vbar;
      latency_reg += ent.p_first[static_cast<std::size_t>(j)] *
                     (ent.entrance[static_cast<std::size_t>(j)] + wait.value) * vbar;
    }
    res.vc_mux_x = vbar_first;
    res.vc_mux_nonhot_y = vbar_last;

    // Funnel-dimension hot multiplexing, entry-coordinate weighted.
    const int fd = n - 1;
    double vbar_hot = 0.0;
    for (int x = 0; x < k; ++x) {
      double total = 0.0;
      double service = lm;
      if (x < lay.c) {
        total = rate(geo.sp_slot(fd, x)) + reg_rate(x);
        service = cfg.vcmux_basis == ServiceBasis::kTransmission
                      ? geo.tx_sp(fd, x)
                      : state[static_cast<std::size_t>(lay.sp(fd, x))];
      } else if (x > lay.c) {
        total = rate(geo.sm_slot(fd, x)) + reg_rate(k - 1 - x);
        service = cfg.vcmux_basis == ServiceBasis::kTransmission
                      ? geo.tx_sm(fd, x)
                      : state[static_cast<std::size_t>(lay.sm(fd, x))];
      }
      vbar_hot += vc_multiplexing_degree(total, service, cfg.vcs) /
                  static_cast<double>(k);
    }
    res.vc_mux_hot_y = vbar_hot;

    const double latency_hot = (eh_net + wait.value) * vbar_hot;
    res.regular_latency = latency_reg;
    res.hot_latency = latency_hot;
    res.latency = (1.0 - h) * latency_reg + h * latency_hot;

    // --- utilisation: regular classes at the regular rate, hot chains at the
    // full (regular + hot) link rate.
    double util = 0.0;
    for (int d = 0; d < n; ++d) {
      for (int i = 0; i < k - 1; ++i) {
        util = std::max(util, reg_rate(i) * state[static_cast<std::size_t>(lay.reg(d, i))]);
      }
      for (int p = 0; p < lay.c; ++p) {
        util = std::max(util, (rate(geo.sp_slot(d, p)) + reg_rate(p)) *
                                  state[static_cast<std::size_t>(lay.sp(d, p))]);
      }
      for (int x = lay.c + 1; x < k; ++x) {
        util = std::max(util, (rate(geo.sm_slot(d, x)) + reg_rate(k - 1 - x)) *
                                  state[static_cast<std::size_t>(lay.sm(d, x))]);
      }
    }
    res.max_channel_utilization = std::min(1.0, util);
    res.saturated = false;
    return res;
  }

  Geo geo_;
  Lin eh_;
};

}  // namespace

std::unique_ptr<const CompiledModel> compile_hotspot_mesh(const ModelConfig& cfg) {
  const Geo geo(cfg);
  Lin eh;
  ChannelClassSystem sys = declare_system(geo, eh);
  return std::make_unique<HotspotMesh>(geo, std::move(sys), std::move(eh));
}

/// Lay::regular.end(): the n(k-1) hot-chain slots, then the n(k-1) regular
/// classes. Coefficients: E_h(d+1) once per dimension below the funnel (it
/// carries (n-1-d)(k-1)), one per chain link but the two into the centre,
/// and the regular recursion's.
ModelSize hotspot_mesh_size(const ModelConfig& cfg) {
  const std::int64_t k = cfg.k;
  const std::int64_t n = cfg.n;
  const std::int64_t chain_links = std::max<std::int64_t>(k - 3, 0);
  return {2 * n * (k - 1), (k - 1) * (n * (n - 1) / 2) + n * chain_links +
                               mesh::regular_coefficient_count(cfg.k, cfg.n)};
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
  const Geo geo(cfg);
  const Lay& lay = geo.lay;
  // Regular pole: the dimension-0 bisection link at the uniform component.
  const double coef_reg =
      topo::mesh_bottleneck_rate(1.0, cfg.k, cfg.n) * (1.0 - h);
  const double sat_reg =
      1.0 / (coef_reg * mesh::regular_holding_time(cfg, 0, (cfg.k - 2) / 2));
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
