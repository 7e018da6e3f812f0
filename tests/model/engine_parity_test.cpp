// Parity tests for the channel-class engine refactor: the declarative
// uniform/hot-spot/hypercube models must reproduce the original hand-rolled
// fixed-point implementations (kept verbatim below as references) across
// lambda sweeps including the saturated region, and the h = 0 hot-spot model
// must coincide with the uniform model structurally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/analytical_model.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/path_probabilities.hpp"
#include "model/solver.hpp"
#include "model/traffic_rates.hpp"

namespace kncube::model {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations: the pre-engine (seed) solvers, trimmed to the
// quantities the parity assertions compare, reading their inputs from the
// shared ModelConfig plus the injection rate and the solver's default
// options. Any change in engine semantics shows up as a divergence from
// these.
// ---------------------------------------------------------------------------
namespace reference {

struct Outcome {
  bool saturated = true;
  double latency = std::numeric_limits<double>::infinity();
};

Outcome uniform_solve(const ModelConfig& cfg, double lambda) {
  const FixedPointOptions solver{};
  const int k = cfg.k;
  const double lm = static_cast<double>(cfg.message_length);
  const double lc = lambda * static_cast<double>(k - 1) / 2.0;
  const int ns = k - 1;
  const std::size_t y = 0, x = static_cast<std::size_t>(ns),
                    xy = 2 * static_cast<std::size_t>(ns);
  const auto at = [](std::size_t base, int j) {
    return base + static_cast<std::size_t>(j - 1);
  };
  const auto avg = [&](const std::vector<double>& v, std::size_t off) {
    double a = 0.0;
    for (int i = 0; i < ns; ++i) a += v[off + static_cast<std::size_t>(i)];
    return a / static_cast<double>(ns);
  };

  Outcome res;
  std::vector<double> state(3 * static_cast<std::size_t>(ns));
  const double y_ent0 = static_cast<double>(k) / 2.0 + lm - 1.0;
  for (int j = 1; j < k; ++j) {
    state[at(y, j)] = static_cast<double>(j) + lm - 1.0;
    state[at(x, j)] = static_cast<double>(j) + lm - 1.0;
    state[at(xy, j)] = static_cast<double>(j) + y_ent0;
  }
  const double tx_y = lm + static_cast<double>(k) / 2.0 - 1.0;
  const double tx_x = tx_y + static_cast<double>(k - 1) / 2.0;

  auto step = [&](const std::vector<double>& in, std::vector<double>& out) {
    const double ey = avg(in, y);
    const double ex = avg(in, x);
    const QueueDelay by = blocking_delay(Stream{lc, ey, tx_y}, Stream{}, lm, false);
    const QueueDelay bx = blocking_delay(Stream{lc, ex, tx_x}, Stream{}, lm, false);
    if (by.saturated || bx.saturated) return false;
    for (int j = 1; j < k; ++j) {
      out[at(y, j)] = by.value + 1.0 + (j == 1 ? lm - 1.0 : out[at(y, j - 1)]);
      out[at(x, j)] = bx.value + 1.0 + (j == 1 ? lm - 1.0 : out[at(x, j - 1)]);
      out[at(xy, j)] = bx.value + 1.0 + (j == 1 ? ey : out[at(xy, j - 1)]);
    }
    return true;
  };

  const FixedPointResult fp = solve_fixed_point(state, step, solver);
  if (!fp.converged) return res;

  const double ey = avg(state, y);
  const double ex = avg(state, x);
  const double exy = avg(state, xy);
  const double n = static_cast<double>(k) * static_cast<double>(k);
  const double p_xonly = (static_cast<double>(k) - 1.0) / (n - 1.0);
  const double p_yonly = p_xonly;
  const double p_xy =
      (static_cast<double>(k) - 1.0) * (static_cast<double>(k) - 1.0) / (n - 1.0);
  const double s_net = p_xonly * ex + p_xy * exy + p_yonly * ey;
  const QueueDelay ws =
      mg1_wait(lambda / static_cast<double>(cfg.vcs), s_net, lm);
  if (ws.saturated) return res;
  const double v_x = vc_multiplexing_degree(lc, tx_x, cfg.vcs);
  const double v_y = vc_multiplexing_degree(lc, tx_y, cfg.vcs);
  res.latency = p_xonly * (ex + ws.value) * v_x + p_xy * (exy + ws.value) * v_x +
                p_yonly * (ey + ws.value) * v_y;
  res.saturated = false;
  return res;
}

/// The seed hot-spot engine (step + assembly), verbatim modulo packaging.
class HotspotReference {
 public:
  HotspotReference(const ModelConfig& cfg, double lambda)
      : cfg_(cfg),
        rates_(traffic_rates(cfg.k, lambda, *cfg.hot_fraction)),
        probs_(path_probabilities(cfg.k)),
        k_(cfg.k),
        ns_(cfg.k - 1),
        lm_(static_cast<double>(cfg.message_length)) {
    ybar_ = 0;
    yhot_ = static_cast<std::size_t>(ns_);
    x_ = 2 * static_cast<std::size_t>(ns_);
    xhy_ = 3 * static_cast<std::size_t>(ns_);
    xyb_ = 4 * static_cast<std::size_t>(ns_);
    shy_ = 5 * static_cast<std::size_t>(ns_);
    shx_ = 6 * static_cast<std::size_t>(ns_);
    total_ = 6 * static_cast<std::size_t>(ns_) +
             static_cast<std::size_t>(ns_) * static_cast<std::size_t>(k_);
  }

  Outcome solve() const {
    Outcome res;
    std::vector<double> state = initial_state();
    auto step = [this](const std::vector<double>& in, std::vector<double>& out) {
      return this->step_fn(in, out);
    };
    const FixedPointOptions solver{};
    FixedPointResult fp = solve_fixed_point(state, step, solver);
    if (!fp.converged && !fp.diverged) {
      FixedPointOptions slower = solver;
      slower.damping = std::min(0.2, solver.damping);
      slower.max_iterations = solver.max_iterations * 2;
      state = initial_state();
      fp = solve_fixed_point(state, step, slower);
    }
    if (!fp.converged) return res;
    return assemble(state);
  }

 private:
  std::size_t at(std::size_t base, int j) const {
    return base + static_cast<std::size_t>(j - 1);
  }
  std::size_t at_shx(int j, int t) const {
    return shx_ + static_cast<std::size_t>((t - 1) * ns_ + (j - 1));
  }
  double average(const std::vector<double>& v, std::size_t off, int count) const {
    double acc = 0.0;
    for (int i = 0; i < count; ++i) acc += v[off + static_cast<std::size_t>(i)];
    return acc / static_cast<double>(count);
  }
  double tx_hot_y(int j) const { return lm_ + static_cast<double>(j - 1); }
  double tx_hot_x(int j, int t) const {
    const double y_leg = t == k_ ? 0.0 : static_cast<double>(t);
    return lm_ + static_cast<double>(j - 1) + y_leg;
  }
  double tx_reg_y() const { return lm_ + static_cast<double>(k_) / 2.0 - 1.0; }
  double tx_reg_x() const {
    return tx_reg_y() + static_cast<double>(k_ - 1) / 2.0;
  }

  std::vector<double> initial_state() const {
    std::vector<double> s(total_);
    const double y_ent0 = static_cast<double>(k_) / 2.0 + lm_ - 1.0;
    for (int j = 1; j < k_; ++j) {
      const double base = static_cast<double>(j) + lm_ - 1.0;
      s[at(ybar_, j)] = base;
      s[at(yhot_, j)] = base;
      s[at(x_, j)] = base;
      s[at(xhy_, j)] = static_cast<double>(j) + y_ent0;
      s[at(xyb_, j)] = static_cast<double>(j) + y_ent0;
      s[at(shy_, j)] = base;
      for (int t = 1; t <= k_; ++t) {
        const double cont = t == k_ ? lm_ - 1.0 : static_cast<double>(t) + lm_ - 1.0;
        s[at_shx(j, t)] = static_cast<double>(j) + cont;
      }
    }
    return s;
  }

  bool block(const Stream& reg, const Stream& hot, double& out) const {
    const bool busy_incl = cfg_.busy_basis == ServiceBasis::kInclusive;
    if (cfg_.blocking == BlockingVariant::kPaper) {
      const QueueDelay b = blocking_delay(reg, hot, lm_, busy_incl);
      if (b.saturated) return false;
      out = b.value;
      return true;
    }
    const double rate = reg.rate + hot.rate;
    if (rate <= 0.0) {
      out = 0.0;
      return true;
    }
    const double mean_tx = (reg.rate * reg.tx + hot.rate * hot.tx) / rate;
    const QueueDelay w = mg1_wait(rate, mean_tx, lm_);
    if (w.saturated) return false;
    out = w.value;
    return true;
  }

  bool step_fn(const std::vector<double>& in, std::vector<double>& out) const {
    const int k = k_;
    const double lr = rates_.regular_rate;
    const double e_ybar = average(in, ybar_, ns_);
    const double e_yhot = average(in, yhot_, ns_);
    const double e_x = average(in, x_, ns_);
    const Stream reg_y{lr, e_yhot, tx_reg_y()};
    const Stream reg_ybar{lr, e_ybar, tx_reg_y()};
    const Stream reg_x{lr, e_x, tx_reg_x()};

    double b_ybar = 0.0;
    if (!block(reg_ybar, Stream{}, b_ybar)) return false;

    double b_yhot = 0.0;
    for (int l = 1; l <= k; ++l) {
      Stream hot;
      hot.rate = rates_.hot_y[static_cast<std::size_t>(l)];
      if (l < k) {
        hot.inclusive = in[at(shy_, l)];
        hot.tx = tx_hot_y(l);
      }
      double b = 0.0;
      if (!block(reg_y, hot, b)) return false;
      b_yhot += b;
    }
    b_yhot /= static_cast<double>(k);

    double b_x = 0.0;
    for (int t = 1; t <= k; ++t) {
      for (int l = 1; l <= k; ++l) {
        Stream hot;
        hot.rate = rates_.hot_x[static_cast<std::size_t>(l)];
        if (l < k) {
          hot.inclusive = in[at_shx(l, t)];
          hot.tx = tx_hot_x(l, t);
        }
        double b = 0.0;
        if (!block(reg_x, hot, b)) return false;
        b_x += b;
      }
    }
    b_x /= static_cast<double>(k) * static_cast<double>(k);

    for (int j = 1; j < k; ++j) {
      const double last = lm_ - 1.0;
      out[at(ybar_, j)] = b_ybar + 1.0 + (j == 1 ? last : out[at(ybar_, j - 1)]);
      out[at(yhot_, j)] = b_yhot + 1.0 + (j == 1 ? last : out[at(yhot_, j - 1)]);
      out[at(x_, j)] = b_x + 1.0 + (j == 1 ? last : out[at(x_, j - 1)]);
      out[at(xhy_, j)] = b_x + 1.0 + (j == 1 ? e_yhot : out[at(xhy_, j - 1)]);
      out[at(xyb_, j)] = b_x + 1.0 + (j == 1 ? e_ybar : out[at(xyb_, j - 1)]);
    }

    for (int j = 1; j < k; ++j) {
      const Stream hot{rates_.hot_y[static_cast<std::size_t>(j)], in[at(shy_, j)],
                       tx_hot_y(j)};
      double b = 0.0;
      if (!block(reg_y, hot, b)) return false;
      out[at(shy_, j)] = b + 1.0 + (j == 1 ? lm_ - 1.0 : out[at(shy_, j - 1)]);
    }

    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j < k; ++j) {
        const Stream hot{rates_.hot_x[static_cast<std::size_t>(j)], in[at_shx(j, t)],
                         tx_hot_x(j, t)};
        double b = 0.0;
        if (!block(reg_x, hot, b)) return false;
        double cont;
        if (j > 1) {
          cont = out[at_shx(j - 1, t)];
        } else if (t == k) {
          cont = lm_ - 1.0;
        } else {
          cont = out[at(shy_, t)];
        }
        out[at_shx(j, t)] = b + 1.0 + cont;
      }
    }
    return true;
  }

  Outcome assemble(const std::vector<double>& s) const {
    Outcome res;
    const int k = k_;
    const double n_nodes = static_cast<double>(k) * static_cast<double>(k);
    const double lr = rates_.regular_rate;
    const double h = *cfg_.hot_fraction;
    const int vcs = cfg_.vcs;
    const double e_ybar = average(s, ybar_, ns_);
    const double e_yhot = average(s, yhot_, ns_);
    const double e_x = average(s, x_, ns_);
    const double e_xhy = average(s, xhy_, ns_);
    const double e_xyb = average(s, xyb_, ns_);

    const double sr_net = probs_.x_only * e_x + probs_.x_then_hot_y * e_xhy +
                          probs_.x_then_nonhot_y * e_xyb +
                          probs_.y_only_hot * e_yhot + probs_.y_only_nonhot * e_ybar;

    const double arr = rates_.lambda / static_cast<double>(vcs);
    const auto source_wait = [&](double service, double& w) {
      const QueueDelay q = mg1_wait(arr, service, lm_);
      if (q.saturated) return false;
      w = q.value;
      return true;
    };

    double ws_sum = 0.0;
    double w_hot_node = 0.0;
    if (!source_wait(sr_net, w_hot_node)) return res;
    ws_sum += w_hot_node;

    std::vector<double> ws_shy(static_cast<std::size_t>(k), 0.0);
    for (int j = 1; j < k; ++j) {
      const double mixed = (1.0 - h) * sr_net + h * s[at(shy_, j)];
      if (!source_wait(mixed, ws_shy[static_cast<std::size_t>(j)])) return res;
      ws_sum += ws_shy[static_cast<std::size_t>(j)];
    }
    std::vector<double> ws_shx(
        static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0.0);
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j < k; ++j) {
        const double mixed = (1.0 - h) * sr_net + h * s[at_shx(j, t)];
        double w = 0.0;
        if (!source_wait(mixed, w)) return res;
        ws_shx[static_cast<std::size_t>((t - 1) * k + j)] = w;
        ws_sum += w;
      }
    }
    const double ws_r = ws_sum / n_nodes;

    const bool mux_incl = cfg_.vcmux_basis == ServiceBasis::kInclusive;
    const double v_nonhot_y =
        vc_multiplexing_degree(lr, mux_incl ? e_ybar : tx_reg_y(), vcs);

    std::vector<double> v_hy(static_cast<std::size_t>(k) + 1, 1.0);
    double v_hy_avg = 0.0;
    for (int j = 1; j <= k; ++j) {
      const double rate_h = rates_.hot_y[static_cast<std::size_t>(j)];
      const double s_h_incl = j < k ? s[at(shy_, j)] : 0.0;
      const double s_h = mux_incl ? s_h_incl : (j < k ? tx_hot_y(j) : 0.0);
      const double s_r = mux_incl ? e_yhot : tx_reg_y();
      const double rate = lr + rate_h;
      const double sbar = rate > 0.0 ? (lr * s_r + rate_h * s_h) / rate : 0.0;
      v_hy[static_cast<std::size_t>(j)] = vc_multiplexing_degree(rate, sbar, vcs);
      v_hy_avg += v_hy[static_cast<std::size_t>(j)];
    }
    v_hy_avg /= static_cast<double>(k);

    std::vector<double> v_x(
        static_cast<std::size_t>(k + 1) * static_cast<std::size_t>(k + 1), 1.0);
    double v_x_avg = 0.0;
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j <= k; ++j) {
        const double rate_h = rates_.hot_x[static_cast<std::size_t>(j)];
        const double s_h_incl = j < k ? s[at_shx(j, t)] : 0.0;
        const double s_h = mux_incl ? s_h_incl : (j < k ? tx_hot_x(j, t) : 0.0);
        const double s_r = mux_incl ? e_x : tx_reg_x();
        const double rate = lr + rate_h;
        const double sbar = rate > 0.0 ? (lr * s_r + rate_h * s_h) / rate : 0.0;
        const double v = vc_multiplexing_degree(rate, sbar, vcs);
        v_x[static_cast<std::size_t>(t * (k + 1) + j)] = v;
        v_x_avg += v;
      }
    }
    v_x_avg /= static_cast<double>(k) * static_cast<double>(k);

    const double sr = probs_.x_only * (e_x + ws_r) * v_x_avg +
                      probs_.x_then_hot_y * (e_xhy + ws_r) * v_x_avg +
                      probs_.x_then_nonhot_y * (e_xyb + ws_r) * v_x_avg +
                      probs_.y_only_hot * (e_yhot + ws_r) * v_hy_avg +
                      probs_.y_only_nonhot * (e_ybar + ws_r) * v_nonhot_y;

    double sh = 0.0;
    for (int j = 1; j < k; ++j) {
      sh += (s[at(shy_, j)] + ws_shy[static_cast<std::size_t>(j)]) *
            v_hy[static_cast<std::size_t>(j)];
    }
    for (int t = 1; t <= k; ++t) {
      for (int j = 1; j < k; ++j) {
        sh += (s[at_shx(j, t)] + ws_shx[static_cast<std::size_t>((t - 1) * k + j)]) *
              v_x[static_cast<std::size_t>(t * (k + 1) + j)];
      }
    }
    sh /= n_nodes - 1.0;

    res.latency = (1.0 - h) * sr + h * sh;
    res.saturated = false;
    return res;
  }

  ModelConfig cfg_;
  TrafficRates rates_;
  PathProbabilities probs_;
  int k_;
  int ns_;
  double lm_;
  std::size_t ybar_, yhot_, x_, xhy_, xyb_, shy_, shx_, total_;
};

Outcome hypercube_solve(const ModelConfig& cfg, double lambda) {
  const FixedPointOptions solver{};
  const double hot_fraction = cfg.hot_fraction.value_or(0.0);
  const int n = cfg.n;
  const double lm = static_cast<double>(cfg.message_length);
  const auto pow2 = [](int e) { return std::ldexp(1.0, e); };
  const double lambda_r = lambda * (1.0 - hot_fraction) *
                          pow2(n - 1) / (pow2(n) - 1.0);
  std::vector<double> hot_rate(static_cast<std::size_t>(n));
  std::vector<double> funnel(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    hot_rate[static_cast<std::size_t>(d)] =
        lambda * hot_fraction * pow2(d);
    funnel[static_cast<std::size_t>(d)] = pow2(-(d + 1));
  }
  const auto r_at = [](int d) { return static_cast<std::size_t>(d); };
  const auto h_at = [n](int d) { return static_cast<std::size_t>(n + d); };
  const auto tx = [&](int d) {
    return lm + static_cast<double>(n - 1 - d) / 2.0;
  };
  const auto next_p = [&](int d, int dp) { return pow2(-(dp - d)); };
  const auto deliver_p = [&](int d) { return pow2(-(n - 1 - d)); };

  std::vector<double> state(2 * static_cast<std::size_t>(n));
  for (int d = n - 1; d >= 0; --d) {
    double acc = 1.0 + deliver_p(d) * (lm - 1.0);
    for (int dp = d + 1; dp < n; ++dp) acc += next_p(d, dp) * state[r_at(dp)];
    state[r_at(d)] = acc;
    state[h_at(d)] = acc;
  }
  const std::vector<double> initial = state;

  auto block = [&](const Stream& reg, const Stream& hot, double& out) {
    const QueueDelay b =
        blocking_delay(reg, hot, lm, cfg.busy_basis == ServiceBasis::kInclusive);
    if (b.saturated) return false;
    out = b.value;
    return true;
  };
  auto step = [&](const std::vector<double>& in, std::vector<double>& out) {
    for (int d = n - 1; d >= 0; --d) {
      const Stream reg{lambda_r, in[r_at(d)], tx(d)};
      const Stream hot{hot_rate[static_cast<std::size_t>(d)], in[h_at(d)], tx(d)};
      double b_funnel = 0.0;
      double b_plain = 0.0;
      if (!block(reg, hot, b_funnel)) return false;
      if (!block(reg, Stream{}, b_plain)) return false;
      const double f = funnel[static_cast<std::size_t>(d)];
      const double b_reg = f * b_funnel + (1.0 - f) * b_plain;

      double cont_r = deliver_p(d) * (lm - 1.0);
      double cont_h = cont_r;
      for (int dp = d + 1; dp < n; ++dp) {
        const double p = next_p(d, dp);
        cont_r += p * out[r_at(dp)];
        cont_h += p * out[h_at(dp)];
      }
      out[r_at(d)] = b_reg + 1.0 + cont_r;
      out[h_at(d)] = b_funnel + 1.0 + cont_h;
    }
    return true;
  };

  Outcome res;
  FixedPointResult fp = solve_fixed_point(state, step, solver);
  if (!fp.converged && !fp.diverged) {
    FixedPointOptions slower = solver;
    slower.damping = std::min(0.2, solver.damping);
    slower.max_iterations = solver.max_iterations * 2;
    state = initial;
    fp = solve_fixed_point(state, step, slower);
  }
  if (!fp.converged) return res;

  const double h = hot_fraction;
  const double n_nodes = pow2(n);
  std::vector<double> p_first(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    p_first[static_cast<std::size_t>(d)] = pow2(n - 1 - d) / (n_nodes - 1.0);
  }
  double sr_net = 0.0;
  double sh_net = 0.0;
  for (int d = 0; d < n; ++d) {
    sr_net += p_first[static_cast<std::size_t>(d)] * state[r_at(d)];
    sh_net += p_first[static_cast<std::size_t>(d)] * state[h_at(d)];
  }
  const double arr = lambda / static_cast<double>(cfg.vcs);
  const QueueDelay ws = mg1_wait(arr, (1.0 - h) * sr_net + h * sh_net, lm);
  if (ws.saturated) return res;

  const bool mux_incl = cfg.vcmux_basis == ServiceBasis::kInclusive;
  double sr_total = 0.0;
  double sh_total = 0.0;
  for (int d = 0; d < n; ++d) {
    const double rate_h = hot_rate[static_cast<std::size_t>(d)];
    const double s_r = mux_incl ? state[r_at(d)] : tx(d);
    const double s_h = mux_incl ? state[h_at(d)] : tx(d);
    const double rate_f = lambda_r + rate_h;
    const double sbar_f = (lambda_r * s_r + rate_h * s_h) / rate_f;
    const double v_funnel = vc_multiplexing_degree(rate_f, sbar_f, cfg.vcs);
    const double v_plain = vc_multiplexing_degree(lambda_r, s_r, cfg.vcs);
    const double f = funnel[static_cast<std::size_t>(d)];
    const double v_reg = f * v_funnel + (1.0 - f) * v_plain;
    sr_total += p_first[static_cast<std::size_t>(d)] * (state[r_at(d)] + ws.value) * v_reg;
    sh_total +=
        p_first[static_cast<std::size_t>(d)] * (state[h_at(d)] + ws.value) * v_funnel;
  }
  res.latency = (1.0 - h) * sr_total + h * sh_total;
  res.saturated = false;
  return res;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Parity assertions
// ---------------------------------------------------------------------------

/// Sweep fractions of the model's own coarse saturation estimate; the tail
/// entries land in the saturated region on purpose.
const std::vector<double> kSweepFractions = {0.02, 0.1, 0.25, 0.4, 0.55,
                                             0.7,  0.8, 0.9,  2.5, 6.0};

void expect_parity(const reference::Outcome& want, bool got_saturated,
                   double got_latency, double rel_tol, const std::string& ctx) {
  ASSERT_EQ(want.saturated, got_saturated) << ctx;
  if (!want.saturated) {
    EXPECT_NEAR(got_latency, want.latency, rel_tol * want.latency) << ctx;
  }
}

/// A hand-built config of the given family; `hot_fraction` nullopt =
/// uniform traffic.
ModelConfig config(TopologyKind topology, int k, int n, std::optional<double> h,
                   int message_length) {
  ModelConfig cfg;
  cfg.topology = topology;
  cfg.k = k;
  cfg.n = n;
  cfg.hot_fraction = h;
  cfg.vcs = 2;
  cfg.message_length = message_length;
  return cfg;
}

TEST(EngineParity, UniformMatchesSeedAcrossSweep) {
  for (int k : {4, 8, 16}) {
    for (int lmsg : {8, 32}) {
      const ModelConfig cfg = config(TopologyKind::kTorus, k, 2, std::nullopt, lmsg);
      const AnalyticalModel model(cfg);
      // Capacity scale: the x channel saturates when lc * tx_x -> 1.
      const double tx_x = static_cast<double>(lmsg) +
                          static_cast<double>(k) / 2.0 - 1.0 +
                          static_cast<double>(k - 1) / 2.0;
      const double cap = 2.0 / (static_cast<double>(k - 1) * tx_x);
      for (double f : kSweepFractions) {
        const double lambda = std::min(1.0, f * cap);
        const ModelResult got = model.solve_at(lambda);
        const reference::Outcome want = reference::uniform_solve(cfg, lambda);
        expect_parity(want, got.saturated, got.latency, 1e-9,
                      "k=" + std::to_string(k) + " Lm=" + std::to_string(lmsg) +
                          " f=" + std::to_string(f));
      }
    }
  }
}

TEST(EngineParity, HypercubeMatchesSeedAcrossSweep) {
  for (int dims : {4, 6}) {
    for (double h : {0.0, 0.2, 0.5}) {
      const ModelConfig cfg = config(TopologyKind::kHypercube, 2, dims, h, 32);
      const AnalyticalModel model(cfg);
      const double sat = model.estimated_saturation_rate();
      for (double f : kSweepFractions) {
        const double lambda = std::min(1.0, f * sat);
        const ModelResult got = model.solve_at(lambda);
        const reference::Outcome want = reference::hypercube_solve(cfg, lambda);
        // The engine sums the e-cube continuation terms before adding the
        // constant; the seed accumulated in place. Identical maths, ulp-level
        // association differences — hence the slightly looser tolerance.
        expect_parity(want, got.saturated, got.latency, 1e-7,
                      "dims=" + std::to_string(dims) + " h=" + std::to_string(h) +
                          " f=" + std::to_string(f));
      }
    }
  }
}

TEST(EngineParity, PaperFigureOperatingPointsMatchSeed) {
  // The Fig. 1 (Lm=32) and Fig. 2 (Lm=100) panels: 16x16 torus, V=2,
  // h in {20%, 40%, 70%}, sampled over the plotted 10-95% load range.
  for (int lmsg : {32, 100}) {
    for (double h : {0.2, 0.4, 0.7}) {
      const ModelConfig cfg = config(TopologyKind::kTorus, 16, 2, h, lmsg);
      const AnalyticalModel model(cfg);
      const double sat = model.estimated_saturation_rate();
      for (double f : {0.1, 0.35, 0.6, 0.85, 0.95}) {
        const ModelResult got = model.solve_at(f * sat);
        const reference::Outcome want =
            reference::HotspotReference(cfg, f * sat).solve();
        expect_parity(want, got.saturated, got.latency, 1e-9,
                      "Lm=" + std::to_string(lmsg) + " h=" + std::to_string(h) +
                          " f=" + std::to_string(f));
      }
    }
  }
}

TEST(EngineParity, HotspotAtZeroHotFractionIsStructurallyUniform) {
  // With h = 0 the hot-spot builder degenerates to the uniform builder over
  // the same engine (hot streams vanish, the five regular classes collapse
  // pairwise), so the two models agree far inside solver tolerance — a
  // structural guarantee, not a coincidence of two codebases.
  for (int k : {4, 8, 16}) {
    const AnalyticalModel hot(config(TopologyKind::kTorus, k, 2, 0.0, 32));
    const AnalyticalModel uniform(config(TopologyKind::kTorus, k, 2, std::nullopt, 32));
    const double sat = hot.estimated_saturation_rate();
    for (double f : {0.1, 0.5, 0.9}) {
      const ModelResult hr = hot.solve_at(f * sat);
      const ModelResult ur = uniform.solve_at(f * sat);
      ASSERT_EQ(hr.saturated, ur.saturated) << "k=" << k << " f=" << f;
      if (!hr.saturated) {
        EXPECT_NEAR(hr.latency, ur.latency, 1e-9 * ur.latency)
            << "k=" << k << " f=" << f;
      }
    }
  }
}

TEST(EngineParity, HotspotMatchesSeedAcrossSweep) {
  for (int k : {4, 8, 16}) {
    for (double h : {0.0, 0.2, 0.7}) {
      const ModelConfig cfg = config(TopologyKind::kTorus, k, 2, h, 32);
      const AnalyticalModel model(cfg);
      const double sat = model.estimated_saturation_rate();
      for (double f : kSweepFractions) {
        const double lambda = std::min(1.0, f * sat);
        const ModelResult got = model.solve_at(lambda);
        const reference::Outcome want =
            reference::HotspotReference(cfg, lambda).solve();
        expect_parity(want, got.saturated, got.latency, 1e-9,
                      "k=" + std::to_string(k) + " h=" + std::to_string(h) +
                          " f=" + std::to_string(f));
      }
    }
  }
}

}  // namespace
}  // namespace kncube::model
