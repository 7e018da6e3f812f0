// Baseline: uniform-traffic analytical model for the deterministically-routed
// 2-D unidirectional torus (the h = 0 special case, in the lineage of the
// classic wormhole models [4, 6, 18] the paper builds on).
//
// This is an *independent* three-class implementation (x-only, x-then-y,
// y-only), not the hot-spot builder at h = 0: the hot-spot model with h = 0
// must reproduce it to solver tolerance, which the tests use as a strong
// structural cross-check of both implementations.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/engine/channel_class.hpp"
#include "model/engine/mg1.hpp"
#include "model/engine/vcmux.hpp"
#include "model/families.hpp"

namespace kncube::model {

namespace {

using engine::ChannelClassSystem;

// State: Sy[j], Sx[j], Sxy[j] for j = 1..k-1, packed in that order.
struct Lay {
  int ns;
  int y, x, xy, total;
  explicit Lay(int k) : ns(k - 1), y(0), x(ns), xy(2 * ns), total(3 * ns) {}
  int at(int base, int j) const { return base + j - 1; }
};

double avg(const std::vector<double>& v, int off, int n) {
  double a = 0.0;
  for (int i = 0; i < n; ++i) a += v[static_cast<std::size_t>(off + i)];
  return a / static_cast<double>(n);
}

// Contention-free holding times (R8): same formulas as the hot-spot model's
// regular streams, so the h = 0 cross-check is structural. One definition
// feeds both the blocking model and the VC-mux occupancy.
struct HoldingTimes {
  double y, x;
};
HoldingTimes holding_times(int k, double lm) {
  const double tx_y = lm + static_cast<double>(k) / 2.0 - 1.0;
  return {tx_y, tx_y + static_cast<double>(k - 1) / 2.0};
}

/// Declares the three uniform path classes (y-only, x-only, x-then-y) over
/// the shared engine: one blocking term per dimension, both streams at the
/// one channel rate of rate slot 0, chained per-hop recursions, x-then-y
/// entering the y dimension at its entrance average.
ChannelClassSystem declare_system(const ModelConfig& cfg) {
  const int k = cfg.k;
  const double lm = static_cast<double>(cfg.message_length);
  const Lay lay(k);

  const auto [tx_y, tx_x] = holding_times(k, lm);

  engine::EngineOptions opts;
  opts.service_floor = lm;
  opts.blocking = BlockingVariant::kPaper;
  opts.busy_basis = ServiceBasis::kTransmission;
  ChannelClassSystem sys(lay.total, 1, opts);

  const int lc = 0;
  const int b_y = sys.add_mixture(
      {{sys.add_term({lc, tx_y, sys.add_read(lay.y, lay.ns)})}});
  const int b_x = sys.add_mixture(
      {{sys.add_term({lc, tx_x, sys.add_read(lay.x, lay.ns)})}});

  const engine::Linear last{lm - 1.0};
  const engine::Linear y_entrance = sys.mean(lay.y, lay.ns);
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
    chain(lay.y, b_y, base0, last);
    chain(lay.x, b_x, base0, last);
    chain(lay.xy, b_x, static_cast<double>(j) + y_ent0, y_entrance);
  }
  return sys;
}

class UniformTorus final : public CompiledModel {
 public:
  explicit UniformTorus(const ModelConfig& cfg)
      : CompiledModel(cfg, declare_system(cfg)), cfg_(cfg) {}

 private:
  ModelResult evaluate(double lambda, double arrival_idc) const override {
    const int k = cfg_.k;
    const double lm = static_cast<double>(cfg_.message_length);
    const double lc = uniform_torus_channel_rate(k, lambda);
    const Lay lay(k);

    ModelResult res;
    // All traffic is regular: regular_latency mirrors latency on every path,
    // +inf when saturated.
    const auto finish = [&res] {
      res.regular_latency = res.latency;
      return res;
    };

    engine::ThreadWorkspace ws;
    ws->rates.assign(1, lc);
    const FixedPointResult fp = system_.solve(*ws, arrival_idc);
    res.iterations = fp.iterations;
    res.converged = fp.converged;
    if (!fp.converged) return finish();  // saturated (diverged or no steady state)

    const std::vector<double>& state = ws->state;
    const double ey = avg(state, lay.y, lay.ns);
    const double ex = avg(state, lay.x, lay.ns);
    const double exy = avg(state, lay.xy, lay.ns);

    // Exact path-class probabilities under uniform destinations.
    const double n = static_cast<double>(k) * static_cast<double>(k);
    const double p_xonly = (static_cast<double>(k) - 1.0) / (n - 1.0);
    const double p_yonly = p_xonly;
    const double p_xy = (static_cast<double>(k) - 1.0) *
                        (static_cast<double>(k) - 1.0) / (n - 1.0);

    const double s_net = p_xonly * ex + p_xy * exy + p_yonly * ey;
    res.regular_network_latency = s_net;

    const double arr = lambda / static_cast<double>(cfg_.vcs);
    const QueueDelay wait = mg1_wait(arr, s_net, lm, arrival_idc);
    if (wait.saturated) return finish();
    res.source_wait_regular = wait.value;

    // Transmission-basis occupancy, matching the hot-spot model's default.
    const auto [tx_y, tx_x] = holding_times(k, lm);
    res.vc_mux_x = vc_multiplexing_degree(lc, tx_x, cfg_.vcs);
    res.vc_mux_hot_y = vc_multiplexing_degree(lc, tx_y, cfg_.vcs);
    res.vc_mux_nonhot_y = res.vc_mux_hot_y;

    res.latency = p_xonly * (ex + wait.value) * res.vc_mux_x +
                  p_xy * (exy + wait.value) * res.vc_mux_x +
                  p_yonly * (ey + wait.value) * res.vc_mux_hot_y;
    res.max_channel_utilization = std::min(1.0, lc * ex);  // identical on every channel
    res.saturated = false;
    return finish();
  }

  ModelConfig cfg_;
};

}  // namespace

double uniform_torus_channel_rate(int k, double lambda) {
  return lambda * static_cast<double>(k - 1) / 2.0;
}

std::unique_ptr<const CompiledModel> compile_uniform_torus(const ModelConfig& cfg) {
  return std::make_unique<UniformTorus>(cfg);
}

/// Lay::total: the y, x and x-then-y classes over k-1 positions.
/// Coefficients: the y entrance average and one per hop continuation.
ModelSize uniform_torus_size(const ModelConfig& cfg) {
  const std::int64_t ns = std::int64_t{cfg.k} - 1;
  return {3 * ns, ns + 3 * (ns - 1)};
}

double uniform_torus_zero_load_latency(const ModelConfig& cfg) {
  const int k = cfg.k;
  const double lm = static_cast<double>(cfg.message_length);
  const double kd = static_cast<double>(k);
  const double n = kd * kd;
  const double p_xonly = (kd - 1.0) / (n - 1.0);
  const double p_yonly = p_xonly;
  const double p_xy = (kd - 1.0) * (kd - 1.0) / (n - 1.0);
  const double one_dim = kd / 2.0 + lm - 1.0;
  const double two_dim = kd + lm - 1.0;
  return (p_xonly + p_yonly) * one_dim + p_xy * two_dim;
}

double uniform_torus_saturation_estimate(const ModelConfig& cfg) {
  // The x channel is the capacity bound: per-channel rate lambda (k-1)/2 at
  // holding time tx_x = Lm + k/2 - 1 + (k-1)/2 cycles per message.
  const double k = static_cast<double>(cfg.k);
  const double tx_x =
      static_cast<double>(cfg.message_length) + k / 2.0 - 1.0 + (k - 1.0) / 2.0;
  return 2.0 / ((k - 1.0) * tx_x);
}

}  // namespace kncube::model
