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
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"
#include "topology/torus.hpp"  // topo::kMaxDims
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

/// The per-λ rate table: the regular rate, then the dim-d funnel's hot rate.
constexpr int kRegularRate = 0;
int hot_rate_slot(int d) { return 1 + d; }

/// What the declaration and the assembly share: nothing in it depends on λ.
struct Geometry {
  ModelConfig cfg;
  Lay lay;
  double lm;

  /// Contention-free holding time of a dim-d channel: Lm flits plus the
  /// header's expected remaining hops (each higher dimension differs with
  /// probability 1/2) — identical for hot and regular streams.
  double tx(int d) const { return lm + static_cast<double>(cfg.n - 1 - d) / 2.0; }
  /// P(next corrected dimension is d' | currently at dim d); delivery
  /// otherwise.
  double next_dim_probability(int d, int dp) const {
    KNC_DEBUG_ASSERT(dp > d);
    return pow2(-(dp - d));
  }
  double delivery_probability(int d) const { return pow2(-(cfg.n - 1 - d)); }
  /// Funnel channels at dim d: 2^{n-d-1} of the 2^n dim-d channels.
  double funnel_fraction(int d) const { return pow2(-(d + 1)); }
};

/// Per-dimension regular/hot channel classes whose continuations are the
/// e-cube next-dimension mixture, with funnel/plain blocking mixtures.
ChannelClassSystem declare_system(const Geometry& geo) {
  const int n = geo.cfg.n;
  const double lm = geo.lm;
  const Lay& lay = geo.lay;

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = BlockingVariant::kPaper;
  opts.busy_basis = geo.cfg.busy_basis;
  ChannelClassSystem sys(lay.total(), hot_rate_slot(n), opts);

  // Zero-load service times S_d = 1 + sum P S_d' + P0 (Lm-1), solved
  // backwards; hot and regular share the geometry at zero load.
  std::vector<double> s0(static_cast<std::size_t>(n));
  for (int d = n - 1; d >= 0; --d) {
    double acc = 1.0 + geo.delivery_probability(d) * (lm - 1.0);
    for (int dp = d + 1; dp < n; ++dp) {
      acc += geo.next_dim_probability(d, dp) * s0[static_cast<std::size_t>(dp)];
    }
    s0[static_cast<std::size_t>(d)] = acc;
  }

  std::vector<engine::Coef> next_r;
  std::vector<engine::Coef> next_h;
  for (int d = n - 1; d >= 0; --d) {
    const double f = geo.funnel_fraction(d);
    const engine::TermStream reg{kRegularRate, geo.tx(d), sys.add_read(lay.r(d), 1)};
    const engine::TermStream hot{hot_rate_slot(d), geo.tx(d), sys.add_read(lay.h(d), 1)};
    const int funnel = sys.add_term(reg, hot);
    const int plain = sys.add_term(reg);
    // Blocking seen by a regular message at a random dim-d channel: the
    // funnel fraction of them also carries the hot stream. Hot messages
    // always ride funnel channels.
    const int b_reg = sys.add_mixture({{funnel, f}, {plain, 1.0 - f}});
    const int b_hot = sys.add_mixture({{funnel}});

    const double cont0 = geo.delivery_probability(d) * (lm - 1.0);
    next_r.clear();
    next_h.clear();
    for (int dp = d + 1; dp < n; ++dp) {
      const double p = geo.next_dim_probability(d, dp);
      next_r.push_back({lay.r(dp), p});
      next_h.push_back({lay.h(dp), p});
    }
    const double s0_d = s0[static_cast<std::size_t>(d)];
    sys.set_class(lay.r(d), {b_reg, s0_d, {}, sys.linear(cont0, next_r)});
    sys.set_class(lay.h(d), {b_hot, s0_d, {}, sys.linear(cont0, next_h)});
  }
  return sys;
}

/// The compiled hot-spot hypercube: the declared system plus the geometry
/// and entry distribution its assembly reads.
class Hypercube final : public CompiledModel {
 public:
  explicit Hypercube(const Geometry& geo)
      : CompiledModel(geo.cfg, declare_system(geo)),
        geo_(geo),
        h_(geo.cfg.hot_fraction.value_or(0.0)) {
    // Entry distribution over the first corrected dimension.
    for (int d = 0; d < geo.cfg.n; ++d) {
      p_first_[static_cast<std::size_t>(d)] = hypercube_first_dim_probability(geo.cfg.n, d);
    }
  }

 private:
  ModelResult evaluate(double lambda, double /*arrival_idc: Bernoulli only*/) const override {
    const int n = geo_.cfg.n;
    engine::ThreadWorkspace ws;
    ws->rates.resize(static_cast<std::size_t>(hot_rate_slot(n)));
    ws->rates[kRegularRate] = lambda * (1.0 - h_) * pow2(n - 1) / (pow2(n) - 1.0);
    for (int d = 0; d < n; ++d) {
      ws->rates[static_cast<std::size_t>(hot_rate_slot(d))] =
          hypercube_hot_funnel_rate(lambda, h_, d);
    }
    ModelResult res;
    const FixedPointResult fp = system_.solve(*ws);
    res.iterations = fp.iterations;
    res.converged = fp.converged;
    if (!fp.converged) {
      res.saturated = true;
      return res;
    }
    if (!assemble(lambda, *ws, res)) {
      res.saturated = true;
      res.latency = std::numeric_limits<double>::infinity();
    }
    return res;
  }

  bool assemble(double lambda, const engine::Workspace& ws, ModelResult& res) const {
    const ModelConfig& cfg = geo_.cfg;
    const Lay& lay = geo_.lay;
    const int n = cfg.n;
    const double h = h_;
    const int vcs = cfg.vcs;
    const std::vector<double>& s = ws.state;
    const double lambda_r = ws.rates[kRegularRate];
    const auto p_first = [&](int d) { return p_first_[static_cast<std::size_t>(d)]; };

    double sr_net = 0.0;
    double sh_net = 0.0;
    for (int d = 0; d < n; ++d) {
      sr_net += p_first(d) * s[static_cast<std::size_t>(lay.r(d))];
      sh_net += p_first(d) * s[static_cast<std::size_t>(lay.h(d))];
    }

    // Source queue: per-VC M/G/1 with the node-averaged network latency.
    const double arr = lambda / static_cast<double>(vcs);
    const QueueDelay wait = mg1_wait(arr, (1.0 - h) * sr_net + h * sh_net, geo_.lm);
    if (wait.saturated) return false;
    res.source_wait_regular = wait.value;

    // VC multiplexing per dimension, funnel and plain channel classes.
    const bool mux_incl = cfg.vcmux_basis == ServiceBasis::kInclusive;
    double sr_total = 0.0;
    double sh_total = 0.0;
    double max_util = 0.0;
    const bool busy_incl = cfg.busy_basis == ServiceBasis::kInclusive;
    for (int d = 0; d < n; ++d) {
      const double rate_h = ws.rates[static_cast<std::size_t>(hot_rate_slot(d))];
      const double tx = geo_.tx(d);
      const Stream reg{lambda_r, s[static_cast<std::size_t>(lay.r(d))], tx};
      const Stream hot{rate_h, s[static_cast<std::size_t>(lay.h(d))], tx};
      const double s_r = mux_incl ? s[static_cast<std::size_t>(lay.r(d))] : tx;
      const double s_h = mux_incl ? s[static_cast<std::size_t>(lay.h(d))] : tx;

      const double rate_f = lambda_r + rate_h;
      const double sbar_f = (lambda_r * s_r + rate_h * s_h) / rate_f;
      const double v_funnel = vc_multiplexing_degree(rate_f, sbar_f, vcs);
      const double v_plain = vc_multiplexing_degree(lambda_r, s_r, vcs);
      const double f = geo_.funnel_fraction(d);
      const double v_reg = f * v_funnel + (1.0 - f) * v_plain;

      sr_total += p_first(d) * (s[static_cast<std::size_t>(lay.r(d))] + wait.value) * v_reg;
      sh_total +=
          p_first(d) * (s[static_cast<std::size_t>(lay.h(d))] + wait.value) * v_funnel;
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

  Geometry geo_;
  double h_;
  std::array<double, topo::kMaxDims> p_first_{};
};

}  // namespace

double hypercube_hot_funnel_rate(double lambda, double hot_fraction, int d) {
  return lambda * hot_fraction * pow2(d);
}

double hypercube_first_dim_probability(int n, int d) {
  KNC_ASSERT(d >= 0 && d < n);
  return pow2(n - 1 - d) / (pow2(n) - 1.0);
}

std::unique_ptr<const CompiledModel> compile_hypercube(const ModelConfig& cfg) {
  return std::make_unique<Hypercube>(
      Geometry{cfg, Lay{cfg.n}, static_cast<double>(cfg.message_length)});
}

/// Lay::total(): a regular and a hot class per dimension, each dim-d class
/// continuing through the n-1-d higher dimensions.
ModelSize hypercube_size(const ModelConfig& cfg) {
  const std::int64_t n = cfg.n;
  return {2 * n, n * (n - 1)};
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
