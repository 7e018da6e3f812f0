// Hot-spot latency model for the deterministically-routed binary hypercube —
// the paper's direct predecessor (its ref. [12]: Loucif & Ould-Khaoua,
// "Modelling latency in deterministic wormhole-routed hypercubes under
// hot-spot traffic", J. Supercomputing 27(3), 2004), rebuilt here with the
// same queueing machinery as the torus model so the two lineage models can
// be compared on equal footing.
//
// Topology: N = 2^n nodes; node v's dimension-d channel links it to
// v XOR (1<<d). E-cube (dimension-order) routing corrects differing bits in
// increasing dimension order — exactly the k = 2 instance of this
// repository's k-ary n-cube simulator, which is what the tests validate
// against.
//
// Structure (mirrors DESIGN.md §3 with hypercube geometry):
//  * regular per-channel rate: lambda (1-h) 2^{n-1}/(2^n - 1)  (~lambda/2);
//  * hot-spot traffic funnels: the dim-d channel pointing at the hot node
//    from a node whose bits below d already match carries lambda h 2^d
//    (2^{n-d-1} such channels exist; conservation: sum_d 2^d 2^{n-d-1}
//    = n 2^{n-1} = total hot hop flux);
//  * a message at its dim-d channel next visits dim d' > d with probability
//    2^{-(d'-d)} and is delivered with probability 2^{-(n-1-d)} (source
//    address bits above d are i.i.d. fair coins);
//  * per-dimension service times S^r_d, S^h_d close through the same
//    blocking/waiting primitives (mg1.hpp) and Dally VC chain (vcmux.hpp),
//    solved by the shared fixed-point driver.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"
#include "util/assert.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClassSystem;

double pow2(int e) { return std::ldexp(1.0, e); }

/// State layout in evaluation order: the e-cube continuation reads higher
/// dimensions, so dimensions close from the top down — S^r_d at
/// [2(n-1-d)], then S^h_d, for d = n-1 .. 0.
struct Lay {
  int n;
  int total() const { return 2 * n; }
  int r(int d) const { return 2 * (n - 1 - d); }
  int h(int d) const { return r(d) + 1; }
};

/// Declarative description of the hot-spot hypercube over the shared
/// engine: per-dimension regular/hot channel classes whose continuations are
/// the e-cube next-dimension mixture, with funnel/plain blocking mixtures.
class Builder {
 public:
  Builder(const ModelConfig& cfg, double lambda)
      : cfg_(cfg),
        lay_{cfg.n},
        lm_(static_cast<double>(cfg.message_length)),
        lambda_(lambda),
        h_(cfg.hot_fraction.value_or(0.0)) {
    const int n = cfg_.n;
    lambda_r_ = lambda * (1.0 - h_) * pow2(n - 1) / (pow2(n) - 1.0);
    hot_rate_.resize(static_cast<std::size_t>(n));
    funnel_fraction_.resize(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      hot_rate_[static_cast<std::size_t>(d)] = hypercube_hot_funnel_rate(lambda, h_, d);
      // Funnel channels at dim d: 2^{n-d-1} of the 2^n dim-d channels.
      funnel_fraction_[static_cast<std::size_t>(d)] = pow2(-(d + 1));
    }
  }

  double hot_rate(int d) const { return hot_rate_[static_cast<std::size_t>(d)]; }

  /// Contention-free holding time of a dim-d channel: Lm flits plus the
  /// header's expected remaining hops (each higher dimension differs with
  /// probability 1/2) — identical for hot and regular streams.
  double tx(int d) const {
    return lm_ + static_cast<double>(cfg_.n - 1 - d) / 2.0;
  }

  /// P(next corrected dimension is d' | currently at dim d); delivery
  /// otherwise.
  double next_dim_probability(int d, int dp) const {
    KNC_DEBUG_ASSERT(dp > d);
    return pow2(-(dp - d));
  }
  double delivery_probability(int d) const { return pow2(-(cfg_.n - 1 - d)); }

  ChannelClassSystem build() const {
    const int n = cfg_.n;

    engine::EngineOptions opts;
    opts.service_floor = lm_;
    opts.blocking = BlockingVariant::kPaper;
    opts.busy_basis = cfg_.busy_basis;
    ChannelClassSystem sys(lay_.total(), opts);

    // Zero-load service times S_d = 1 + sum P S_d' + P0 (Lm-1), solved
    // backwards; hot and regular share the geometry at zero load.
    std::vector<double> s0(static_cast<std::size_t>(n));
    for (int d = n - 1; d >= 0; --d) {
      double acc = 1.0 + delivery_probability(d) * (lm_ - 1.0);
      for (int dp = d + 1; dp < n; ++dp) {
        acc += next_dim_probability(d, dp) * s0[static_cast<std::size_t>(dp)];
      }
      s0[static_cast<std::size_t>(d)] = acc;
    }

    std::vector<engine::Coef> next_r;
    std::vector<engine::Coef> next_h;
    for (int d = n - 1; d >= 0; --d) {
      const double f = funnel_fraction_[static_cast<std::size_t>(d)];
      const engine::TermStream reg{lambda_r_, tx(d), sys.add_read(lay_.r(d), 1)};
      const engine::TermStream hot{hot_rate(d), tx(d), sys.add_read(lay_.h(d), 1)};
      const int funnel = sys.add_term(reg, hot);
      const int plain = sys.add_term(reg);
      // Blocking seen by a regular message at a random dim-d channel: the
      // funnel fraction of them also carries the hot stream. Hot messages
      // always ride funnel channels.
      const int b_reg = sys.add_mixture({{funnel, f}, {plain, 1.0 - f}});
      const int b_hot = sys.add_mixture({{funnel}});

      const double cont0 = delivery_probability(d) * (lm_ - 1.0);
      next_r.clear();
      next_h.clear();
      for (int dp = d + 1; dp < n; ++dp) {
        const double p = next_dim_probability(d, dp);
        next_r.push_back({lay_.r(dp), p});
        next_h.push_back({lay_.h(dp), p});
      }
      const double s0_d = s0[static_cast<std::size_t>(d)];
      sys.set_class(lay_.r(d), {b_reg, s0_d, {}, sys.linear(cont0, next_r)});
      sys.set_class(lay_.h(d), {b_hot, s0_d, {}, sys.linear(cont0, next_h)});
    }
    return sys;
  }

  bool assemble(const std::vector<double>& s, ModelResult& res) const {
    const int n = cfg_.n;
    const double h = h_;
    const int vcs = cfg_.vcs;

    // Entry distribution over the first corrected dimension.
    std::vector<double> p_first(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      p_first[static_cast<std::size_t>(d)] = hypercube_first_dim_probability(n, d);
    }

    double sr_net = 0.0;
    double sh_net = 0.0;
    for (int d = 0; d < n; ++d) {
      sr_net +=
          p_first[static_cast<std::size_t>(d)] * s[static_cast<std::size_t>(lay_.r(d))];
      sh_net +=
          p_first[static_cast<std::size_t>(d)] * s[static_cast<std::size_t>(lay_.h(d))];
    }

    // Source queue: per-VC M/G/1 with the node-averaged network latency.
    const double arr = lambda_ / static_cast<double>(vcs);
    const QueueDelay ws = mg1_wait(arr, (1.0 - h) * sr_net + h * sh_net, lm_);
    if (ws.saturated) return false;
    res.source_wait_regular = ws.value;

    // VC multiplexing per dimension, funnel and plain channel classes.
    const bool mux_incl = cfg_.vcmux_basis == ServiceBasis::kInclusive;
    double sr_total = 0.0;
    double sh_total = 0.0;
    double max_util = 0.0;
    const bool busy_incl = cfg_.busy_basis == ServiceBasis::kInclusive;
    for (int d = 0; d < n; ++d) {
      const double rate_h = hot_rate(d);
      const Stream reg{lambda_r_, s[static_cast<std::size_t>(lay_.r(d))], tx(d)};
      const Stream hot{rate_h, s[static_cast<std::size_t>(lay_.h(d))], tx(d)};
      const double s_r = mux_incl ? s[static_cast<std::size_t>(lay_.r(d))] : tx(d);
      const double s_h = mux_incl ? s[static_cast<std::size_t>(lay_.h(d))] : tx(d);

      const double rate_f = lambda_r_ + rate_h;
      const double sbar_f = (lambda_r_ * s_r + rate_h * s_h) / rate_f;
      const double v_funnel = vc_multiplexing_degree(rate_f, sbar_f, vcs);
      const double v_plain = vc_multiplexing_degree(lambda_r_, s_r, vcs);
      const double f = funnel_fraction_[static_cast<std::size_t>(d)];
      const double v_reg = f * v_funnel + (1.0 - f) * v_plain;

      sr_total += p_first[static_cast<std::size_t>(d)] *
                  (s[static_cast<std::size_t>(lay_.r(d))] + ws.value) * v_reg;
      sh_total += p_first[static_cast<std::size_t>(d)] *
                  (s[static_cast<std::size_t>(lay_.h(d))] + ws.value) * v_funnel;
      max_util = std::max(max_util, busy_probability(reg, hot, busy_incl));
      // The funnel channel into the hot node is the hypercube's hot-y
      // analogue; vc_mux_x and vc_mux_nonhot_y keep their defaults.
      if (d == n - 1) res.vc_mux_hot_y = v_funnel;
    }
    res.regular_latency = sr_total;
    res.hot_latency = sh_total;
    res.latency = (1.0 - h) * sr_total + h * sh_total;
    res.max_channel_utilization = max_util;
    res.saturated = false;
    return true;
  }

 private:
  const ModelConfig& cfg_;
  Lay lay_;
  double lm_;
  double lambda_;
  double h_;
  double lambda_r_ = 0.0;
  std::vector<double> hot_rate_;
  std::vector<double> funnel_fraction_;
};

}  // namespace

double hypercube_hot_funnel_rate(double lambda, double hot_fraction, int d) {
  return lambda * hot_fraction * pow2(d);
}

double hypercube_first_dim_probability(int n, int d) {
  KNC_ASSERT(d >= 0 && d < n);
  return pow2(n - 1 - d) / (pow2(n) - 1.0);
}

ModelResult solve_hypercube(const ModelConfig& cfg, double lambda,
                            double /*arrival_idc: Bernoulli only*/) {
  const Builder builder(cfg, lambda);
  ModelResult res;

  const ChannelClassSystem sys = builder.build();
  std::vector<double> state;
  const FixedPointResult fp = sys.solve(state);
  res.iterations = fp.iterations;
  res.converged = fp.converged;
  if (!fp.converged) {
    res.saturated = true;
    return res;
  }
  if (!builder.assemble(state, res)) {
    res.saturated = true;
    res.latency = std::numeric_limits<double>::infinity();
    return res;
  }
  return res;
}

/// Lay::total(): a regular and a hot class per dimension.
std::int64_t hypercube_class_count(const ModelConfig& cfg) {
  return 2 * std::int64_t{cfg.n};
}

/// Mean e-cube hops + Lm - 1 over the hot/regular mix (hot and regular
/// coincide: both are uniform over the other nodes' bit patterns).
double hypercube_zero_load_latency(const ModelConfig& cfg) {
  // Mean e-cube hops over a uniform non-equal pair: n 2^{n-1} / (2^n - 1).
  const int n = cfg.n;
  const double hops = static_cast<double>(n) * pow2(n - 1) / (pow2(n) - 1.0);
  return hops + static_cast<double>(cfg.message_length) - 1.0;
}

/// The dim n-1 funnel channel carries lambda h 2^{n-1} (+ background) at
/// ~Lm cycles per message.
double hypercube_saturation_estimate(const ModelConfig& cfg) {
  const int n = cfg.n;
  const double h = cfg.hot_fraction.value_or(0.0);
  const double coeff = h * pow2(n - 1) + (1.0 - h) * 0.5;
  return 1.0 / (coeff * (static_cast<double>(cfg.message_length) + 1.0));
}

}  // namespace kncube::model
