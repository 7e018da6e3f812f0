// The paper's contribution: an analytical model of mean message latency in a
// deterministically-routed, wormhole-switched 2-D unidirectional torus under
// Pfister–Norton hot-spot traffic (eqs (1)-(37)).
//
// See DESIGN.md §3 for the full equation inventory and the reconstruction
// notes for the handful of OCR-ambiguous prefactors. The model is solved by
// fixed-point iteration (engine/channel_class.hpp); operating points whose
// iteration diverges, fails a utilisation bound, or does not converge are
// reported as *saturated* — the network has no steady state there, exactly
// the regime the paper's figures leave blank past the latency asymptote.
// The channel-class system is declared once per configuration; λ enters a
// solve only through the rate table (eqs 3-7) and the source queues (eq 32).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"
#include "model/path_probabilities.hpp"
#include "model/traffic_rates.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClassSystem;
using engine::TermStream;

/// State-vector layout. Positions j run 1..k-1 (a message has at most k-1
/// hops left inside a ring); array slot j-1 holds position j. The five
/// regular classes and S^h_y are (k-1)-vectors; S^h_x is (k-1) x k
/// (j = hops to the hot column, t = x-ring's distance from the hot node,
/// t == k being the hot node's own row).
struct Layout {
  int k;
  int ns;  ///< k-1
  int ybar, yhot, x, xhy, xyb, shy, shx, total;

  explicit Layout(int radix) : k(radix), ns(radix - 1) {
    ybar = 0;
    yhot = ns;
    x = 2 * ns;
    xhy = 3 * ns;
    xyb = 4 * ns;
    shy = 5 * ns;
    shx = 6 * ns;
    total = 6 * ns + ns * k;
  }
  int at(int base, int j) const {  // j in [1, k-1]
    return base + j - 1;
  }
  int at_shx(int j, int t) const {  // j in [1, k-1], t in [1, k]
    return shx + (t - 1) * ns + (j - 1);
  }
};

double average(const std::vector<double>& v, int off, int count) {
  double acc = 0.0;
  for (int i = 0; i < count; ++i) acc += v[static_cast<std::size_t>(off + i)];
  return acc / static_cast<double>(count);
}

/// Entrance service times: the class averages over the uniform remaining
/// distance 1..k-1 — used both as "network latency at the entrance" and as
/// the (inclusive) service time of competing traffic of that class.
struct Entrances {
  double ybar, yhot, x, xhy, xyb;
};

/// Contention-free (transmission) holding times, R8.
struct HoldingTimes {
  int k;
  double lm;
  // A hot message acquiring the hot-y channel j hops from the hot node keeps
  // it for the header's remaining j-1 hops plus the Lm-flit drain.
  double hot_y(int j) const { return lm + static_cast<double>(j - 1); }
  double hot_x(int j, int t) const {
    const double y_leg = t == k ? 0.0 : static_cast<double>(t);
    return lm + static_cast<double>(j - 1) + y_leg;
  }
  // Regular traffic, entrance-averaged per channel dimension: mean in-ring
  // distance k/2 past the channel, plus for x channels the expected y leg
  // ((k-1)/k chance of a y excursion of mean k/2).
  double reg_y() const { return lm + static_cast<double>(k) / 2.0 - 1.0; }
  double reg_x() const { return reg_y() + static_cast<double>(k - 1) / 2.0; }
};

/// The channel-class system of eqs (16)-(20), (23), (25), its stream rates
/// read from the TrafficRateSlots table. The shy and shx classes block on
/// one channel each, which is one term of the eq (17) or eqs (18-20)
/// average: their blocking is that shared term.
ChannelClassSystem declare_system(const ModelConfig& cfg) {
  const int k = cfg.k;
  const Layout lay(k);
  const int ns = lay.ns;
  const double lm = static_cast<double>(cfg.message_length);
  const HoldingTimes tx{k, lm};
  const TrafficRateSlots rates{k};

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = cfg.blocking;
  opts.busy_basis = cfg.busy_basis;
  ChannelClassSystem sys(lay.total, rates.count(), opts);

  // --- terms: competing regular streams read their class entrance; the
  // hot stream at position l reads its own class slot. The channel leaving
  // the hot node / hot column (l == k) carries no hot-spot traffic.
  const int lr = rates.regular();
  const TermStream reg_y{lr, tx.reg_y(), sys.add_read(lay.yhot, ns)};
  const TermStream reg_x{lr, tx.reg_x(), sys.add_read(lay.x, ns)};
  const int ybar_term = sys.add_term({lr, tx.reg_y(), sys.add_read(lay.ybar, ns)});
  const int yhot_terms = ybar_term + 1;  // term l-1 of eq (17), l = 1..k
  for (int l = 1; l <= k; ++l) {
    TermStream hot{rates.hot_y(l)};
    if (l < k) hot = {hot.rate, tx.hot_y(l), sys.add_read(lay.at(lay.shy, l), 1)};
    sys.add_term(reg_y, hot);
  }
  const int x_terms = yhot_terms + k;  // term (t-1)k + l-1 of eqs (18-20)
  for (int t = 1; t <= k; ++t) {
    for (int l = 1; l <= k; ++l) {
      TermStream hot{rates.hot_x(l)};
      if (l < k) hot = {hot.rate, tx.hot_x(l, t), sys.add_read(lay.at_shx(l, t), 1)};
      sys.add_term(reg_x, hot);
    }
  }

  // --- averaged blocking mixtures ---
  const int b_ybar = sys.add_mixture({{ybar_term}});
  const int b_yhot = sys.add_term_mean(yhot_terms, k);    // eq (17)
  const int b_x = sys.add_term_mean(x_terms, k * k);      // eqs (18-20)

  // --- regular-class recursions (Gauss-Seidel within each array) ---
  const engine::Linear last{lm - 1.0};
  const engine::Linear ent_ybar = sys.mean(lay.ybar, ns);
  const engine::Linear ent_yhot = sys.mean(lay.yhot, ns);
  const double y_ent0 = static_cast<double>(k) / 2.0 + lm - 1.0;
  for (int j = 1; j < k; ++j) {
    const double base0 = static_cast<double>(j) + lm - 1.0;
    const auto chain = [&](int base, int blocking, double initial,
                           engine::Linear first_hop) {
      engine::ChannelClass c{blocking, initial, {}, {}};
      if (j == 1) {
        c.input = first_hop;
      } else {
        c.output = sys.slot(lay.at(base, j - 1));
      }
      sys.set_class(lay.at(base, j), c);
    };
    chain(lay.ybar, b_ybar, base0, last);
    chain(lay.yhot, b_yhot, base0, last);
    chain(lay.x, b_x, base0, last);
    // x-then-y classes enter the y dimension at its entrance average.
    chain(lay.xhy, b_x, static_cast<double>(j) + y_ent0, ent_yhot);
    chain(lay.xyb, b_x, static_cast<double>(j) + y_ent0, ent_ybar);
  }

  // --- hot-spot messages in the hot y-ring (eq 23) ---
  for (int j = 1; j < k; ++j) {
    engine::ChannelClass c{sys.add_mixture({{yhot_terms + j - 1}}),
                           static_cast<double>(j) + lm - 1.0, {}, {}};
    if (j == 1) {
      c.input = last;
    } else {
      c.output = sys.slot(lay.at(lay.shy, j - 1));
    }
    sys.set_class(lay.at(lay.shy, j), c);
  }

  // --- hot-spot messages on x rings (eq 25) ---
  for (int t = 1; t <= k; ++t) {
    const double cont0 = t == k ? lm - 1.0 : static_cast<double>(t) + lm - 1.0;
    for (int j = 1; j < k; ++j) {
      engine::ChannelClass c{sys.add_mixture({{x_terms + (t - 1) * k + j - 1}}),
                             static_cast<double>(j) + cont0, {}, {}};
      if (j > 1) {
        c.output = sys.slot(lay.at_shx(j - 1, t));
      } else if (t == k) {
        // The hot node's own row: x ends at the hot node.
        c.input = last;
      } else {
        // Enter the hot y-ring, t hops out (shy slots precede shx slots).
        c.output = sys.slot(lay.at(lay.shy, t));
      }
      sys.set_class(lay.at_shx(j, t), c);
    }
  }
  return sys;
}

/// The compiled hot-spot torus: the declared system plus the geometry the
/// final assembly (eqs 10-15, 21-24, 31-37) reads from the converged state.
class HotspotTorus final : public CompiledModel {
 public:
  explicit HotspotTorus(const ModelConfig& cfg)
      : CompiledModel(cfg, declare_system(cfg)),
        cfg_(cfg),
        h_(*cfg.hot_fraction),
        probs_(path_probabilities(cfg.k)),
        lay_(cfg.k),
        lm_(static_cast<double>(cfg.message_length)),
        tx_{cfg.k, lm_},
        slots_{cfg.k} {}

 private:
  ModelResult evaluate(double lambda, double arrival_idc) const override {
    engine::ThreadWorkspace ws;
    traffic_rates(cfg_.k, lambda, h_, ws->rates);
    ModelResult res;
    const FixedPointResult fp = system_.solve(*ws, arrival_idc);
    res.iterations = fp.iterations;
    res.converged = fp.converged;
    if (!fp.converged) {
      // Diverged or failed to converge: no steady state at this load.
      res.saturated = true;
      return res;
    }
    if (!assemble(lambda, arrival_idc, *ws, res)) {
      res.saturated = true;
      res.latency = std::numeric_limits<double>::infinity();
    }
    return res;
  }

  Entrances entrances(const std::vector<double>& s) const {
    return Entrances{average(s, lay_.ybar, lay_.ns), average(s, lay_.yhot, lay_.ns),
                     average(s, lay_.x, lay_.ns), average(s, lay_.xhy, lay_.ns),
                     average(s, lay_.xyb, lay_.ns)};
  }

  /// Final assembly (eqs 10-15, 21-24, 31-37) from the converged state
  /// `ws.state`, at the rates in `ws.rates`; the per-position source waits
  /// and multiplexing degrees go to `ws.scratch`.
  bool assemble(double lambda, double idc, engine::Workspace& ws,
                ModelResult& res) const {
    const int k = cfg_.k;
    const double n_nodes = static_cast<double>(k) * static_cast<double>(k);
    const std::vector<double>& s = ws.state;
    const auto rate = [&](int slot) { return ws.rates[static_cast<std::size_t>(slot)]; };
    const double lr = rate(slots_.regular());
    const double h = h_;
    const int vcs = cfg_.vcs;
    const Entrances e = entrances(s);

    // Mean regular network latency, eq (31) with exact class probabilities.
    const double sr_net = probs_.x_only * e.x + probs_.x_then_hot_y * e.xhy +
                          probs_.x_then_nonhot_y * e.xyb + probs_.y_only_hot * e.yhot +
                          probs_.y_only_nonhot * e.ybar;
    res.regular_network_latency = sr_net;

    // --- source waits: per-VC M/G/1 queues with arrival lambda/V (eq 32) ---
    const double arr = lambda / static_cast<double>(vcs);
    const auto source_wait = [&](double service, double& w) {
      const QueueDelay q = mg1_wait(arr, service, lm_, idc);
      if (q.saturated) return false;
      w = q.value;
      return true;
    };

    double ws_sum = 0.0;
    double w_hot_node = 0.0;
    if (!source_wait(sr_net, w_hot_node)) return false;  // the hot node itself
    ws_sum += w_hot_node;

    std::vector<double>& ws_shy = ws.scratch[0];  // j = 1..k-1
    ws_shy.assign(static_cast<std::size_t>(k), 0.0);
    for (int j = 1; j < k; ++j) {
      const double mixed =
          (1.0 - h) * sr_net + h * s[static_cast<std::size_t>(lay_.at(lay_.shy, j))];
      if (!source_wait(mixed, ws_shy[static_cast<std::size_t>(j)])) return false;
      ws_sum += ws_shy[static_cast<std::size_t>(j)];
    }
    std::vector<double>& ws_shx = ws.scratch[1];  // (j, t), j = 1..k-1
    ws_shx.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0.0);
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j < k; ++j) {
        const double mixed =
            (1.0 - h) * sr_net + h * s[static_cast<std::size_t>(lay_.at_shx(j, t))];
        double w = 0.0;
        if (!source_wait(mixed, w)) return false;
        ws_shx[static_cast<std::size_t>((t - 1) * k + j)] = w;
        ws_sum += w;
      }
    }
    const double ws_r = ws_sum / n_nodes;
    res.source_wait_regular = ws_r;

    // --- virtual-channel multiplexing degrees (eqs 33-37) ---
    // The occupancy rho uses the configured service basis: inclusive times
    // count a VC as occupying the channel for its whole (blocked) residency;
    // transmission times count only the cycles it actually consumes
    // bandwidth. The latter matches the simulator's observed slowdown and is
    // the default (see R8 / ablation bench).
    const bool mux_incl = cfg_.vcmux_basis == ServiceBasis::kInclusive;
    res.vc_mux_nonhot_y = vc_multiplexing_degree(lr, mux_incl ? e.ybar : tx_.reg_y(), vcs);

    std::vector<double>& v_hy = ws.scratch[2];  // j = 1..k
    v_hy.assign(static_cast<std::size_t>(k) + 1, 1.0);
    double v_hy_avg = 0.0;
    for (int j = 1; j <= k; ++j) {
      const double rate_h = rate(slots_.hot_y(j));
      const double s_h_incl =
          j < k ? s[static_cast<std::size_t>(lay_.at(lay_.shy, j))] : 0.0;
      const double s_h = mux_incl ? s_h_incl : (j < k ? tx_.hot_y(j) : 0.0);
      const double s_r = mux_incl ? e.yhot : tx_.reg_y();
      const double total = lr + rate_h;
      const double sbar = total > 0.0 ? (lr * s_r + rate_h * s_h) / total : 0.0;
      v_hy[static_cast<std::size_t>(j)] = vc_multiplexing_degree(total, sbar, vcs);
      v_hy_avg += v_hy[static_cast<std::size_t>(j)];
    }
    v_hy_avg /= static_cast<double>(k);
    res.vc_mux_hot_y = v_hy_avg;

    std::vector<double>& v_x = ws.scratch[3];  // (j, t), j,t = 1..k
    v_x.assign(static_cast<std::size_t>(k + 1) * static_cast<std::size_t>(k + 1), 1.0);
    double v_x_avg = 0.0;
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j <= k; ++j) {
        const double rate_h = rate(slots_.hot_x(j));
        const double s_h_incl =
            j < k ? s[static_cast<std::size_t>(lay_.at_shx(j, t))] : 0.0;
        const double s_h = mux_incl ? s_h_incl : (j < k ? tx_.hot_x(j, t) : 0.0);
        const double s_r = mux_incl ? e.x : tx_.reg_x();
        const double total = lr + rate_h;
        const double sbar = total > 0.0 ? (lr * s_r + rate_h * s_h) / total : 0.0;
        const double v = vc_multiplexing_degree(total, sbar, vcs);
        v_x[static_cast<std::size_t>(t * (k + 1) + j)] = v;
        v_x_avg += v;
      }
    }
    v_x_avg /= static_cast<double>(k) * static_cast<double>(k);
    res.vc_mux_x = v_x_avg;

    // --- regular latency, eqs (11)-(15) ---
    const double sr =
        probs_.x_only * (e.x + ws_r) * v_x_avg +
        probs_.x_then_hot_y * (e.xhy + ws_r) * v_x_avg +
        probs_.x_then_nonhot_y * (e.xyb + ws_r) * v_x_avg +
        probs_.y_only_hot * (e.yhot + ws_r) * v_hy_avg +
        probs_.y_only_nonhot * (e.ybar + ws_r) * res.vc_mux_nonhot_y;
    res.regular_latency = sr;

    // --- hot-spot latency, eqs (21)-(24) ---
    double sh = 0.0;
    for (int j = 1; j < k; ++j) {  // hot-column sources (eq 22)
      sh += (s[static_cast<std::size_t>(lay_.at(lay_.shy, j))] +
             ws_shy[static_cast<std::size_t>(j)]) *
            v_hy[static_cast<std::size_t>(j)];
    }
    for (int t = 1; t <= k; ++t) {  // all other sources (eq 24)
      for (int j = 1; j < k; ++j) {
        sh += (s[static_cast<std::size_t>(lay_.at_shx(j, t))] +
               ws_shx[static_cast<std::size_t>((t - 1) * k + j)]) *
              v_x[static_cast<std::size_t>(t * (k + 1) + j)];
      }
    }
    sh /= n_nodes - 1.0;
    res.hot_latency = sh;

    res.latency = (1.0 - h) * sr + h * sh;  // eq (10)

    // --- diagnostic: peak busy probability over channel classes ---
    const bool busy_incl = cfg_.busy_basis == ServiceBasis::kInclusive;
    double max_util = std::min(1.0, lr * (busy_incl ? e.ybar : tx_.reg_y()));
    for (int j = 1; j < k; ++j) {
      max_util = std::max(
          max_util,
          busy_probability(Stream{lr, e.yhot, tx_.reg_y()},
                           Stream{rate(slots_.hot_y(j)),
                                  s[static_cast<std::size_t>(lay_.at(lay_.shy, j))],
                                  tx_.hot_y(j)},
                           busy_incl));
      for (int t = 1; t <= k; ++t) {
        max_util = std::max(
            max_util,
            busy_probability(Stream{lr, e.x, tx_.reg_x()},
                             Stream{rate(slots_.hot_x(j)),
                                    s[static_cast<std::size_t>(lay_.at_shx(j, t))],
                                    tx_.hot_x(j, t)},
                             busy_incl));
      }
    }
    res.max_channel_utilization = max_util;

    res.saturated = false;
    return true;
  }

  ModelConfig cfg_;
  double h_;
  PathProbabilities probs_;
  Layout lay_;
  double lm_;
  HoldingTimes tx_;
  TrafficRateSlots slots_;
};

}  // namespace

std::unique_ptr<const CompiledModel> compile_hotspot_torus(const ModelConfig& cfg) {
  return std::make_unique<HotspotTorus>(cfg);
}

/// Layout::total: five regular classes and S^h_y over k-1 positions, plus
/// the (k-1) x k S^h_x block. Coefficients: the two y entrance averages,
/// one per hop continuation of the five regular chains and the S^h_y chain,
/// and one per S^h_x class but the hot row's first hop.
ModelSize hotspot_torus_size(const ModelConfig& cfg) {
  const std::int64_t k = cfg.k;
  const std::int64_t ns = k - 1;
  return {6 * ns + ns * k, 2 * ns + 6 * (ns - 1) + k * ns - 1};
}

/// Mean hops + Lm - 1, averaged over the hot/regular mix.
double hotspot_torus_zero_load_latency(const ModelConfig& cfg) {
  const int k = cfg.k;
  const double lm = static_cast<double>(cfg.message_length);
  const double kd = static_cast<double>(k);
  const double h = *cfg.hot_fraction;
  const PathProbabilities p = path_probabilities(k);

  const double one_dim = kd / 2.0 + lm - 1.0;  // mean over 1..k-1 hops
  const double two_dim = kd + lm - 1.0;
  const double sr0 = p.x_only * one_dim + (p.x_then_hot_y + p.x_then_nonhot_y) * two_dim +
                     (p.y_only_hot + p.y_only_nonhot) * one_dim;

  double sh0 = 0.0;
  for (int j = 1; j < k; ++j) sh0 += static_cast<double>(j) + lm - 1.0;
  for (int t = 1; t <= k; ++t) {
    const double cont = t == k ? lm - 1.0 : static_cast<double>(t) + lm - 1.0;
    for (int j = 1; j < k; ++j) sh0 += static_cast<double>(j) + cont;
  }
  sh0 /= kd * kd - 1.0;

  return (1.0 - h) * sr0 + h * sh0;
}

/// From the bottleneck (hot-y, j=1) channel: lambda_sat ~ 1 / (S0 *
/// (lambda_1/lambda)) with S0 the zero-load hot-path service time.
/// Intentionally simple, not part of the paper.
double hotspot_torus_saturation_estimate(const ModelConfig& cfg) {
  const double kd = static_cast<double>(cfg.k);
  const double h = *cfg.hot_fraction;
  const double lm = static_cast<double>(cfg.message_length);
  // Bottleneck: the hot-y channel adjacent to the hot node carries
  // lambda * ((1-h)(k-1)/2 + h k (k-1)) messages/cycle, each holding the
  // channel for at least ~Lm cycles.
  const double coeff = (1.0 - h) * (kd - 1.0) / 2.0 + h * kd * (kd - 1.0);
  const double service = lm + kd / 2.0;
  return 1.0 / (coeff * service);
}

}  // namespace kncube::model
