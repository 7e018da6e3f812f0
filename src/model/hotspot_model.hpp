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
#pragma once

#include <limits>
#include <vector>

#include "model/engine/channel_class.hpp"  // BlockingVariant, ServiceBasis
#include "model/solver.hpp"
#include "model/traffic_rates.hpp"

namespace kncube::model {

struct ModelConfig {
  int k = 16;                    ///< radix (N = k^2)
  int vcs = 2;                   ///< V >= 2 virtual channels per channel
  int message_length = 32;       ///< Lm flits
  double injection_rate = 1e-4;  ///< lambda, messages/node/cycle
  double hot_fraction = 0.2;     ///< h
  BlockingVariant blocking = BlockingVariant::kPaper;
  /// Basis for the busy probability Pb of eq (27).
  ServiceBasis busy_basis = ServiceBasis::kTransmission;
  /// Basis for the occupancy rho of the VC-multiplexing chain (eq 33).
  ServiceBasis vcmux_basis = ServiceBasis::kTransmission;
  /// Arrival-process index of dispersion (engine/bursty.hpp): 1 = Bernoulli
  /// (the paper's arrivals, bitwise-unchanged results), > 1 = bursty MMPP.
  double arrival_idc = 1.0;
  FixedPointOptions solver{};

  void validate() const;  ///< throws std::invalid_argument when inconsistent
};

struct ModelResult {
  /// Mean message latency in cycles (eq 10); +inf when saturated.
  double latency = std::numeric_limits<double>::infinity();
  bool saturated = true;
  bool converged = false;
  /// Fixed-point sweeps to tolerance: 2-3 on constant-blocking systems (the
  /// transmission basis and pure wait), tens of damped sweeps on the
  /// inclusive basis, where it also depends on the warm start. Describes the
  /// solve, not the answer, so bitwise comparisons leave it out.
  int iterations = 0;

  // Decomposition (finite only when !saturated):
  double regular_latency = 0.0;      ///< S_r of eq (11), scaled
  double hot_latency = 0.0;          ///< S_h of eq (21), scaled
  double regular_network_latency = 0.0;  ///< S_r^net of eq (31), unscaled
  double source_wait_regular = 0.0;      ///< Ws_r of eq (32)

  // Virtual-channel multiplexing degrees (eqs 35-37):
  double vc_mux_x = 1.0;         ///< average over all x channels
  double vc_mux_hot_y = 1.0;     ///< average over hot-y-ring channels
  double vc_mux_nonhot_y = 1.0;  ///< non-hot y channels

  /// Maximum channel utilisation Pb over all channel classes; the hot-y-ring
  /// channel adjacent to the hot node in all non-degenerate cases.
  double max_channel_utilization = 0.0;
};

class HotspotModel {
 public:
  explicit HotspotModel(const ModelConfig& cfg);

  ModelResult solve() const { return solve(nullptr, nullptr); }

  /// Solve with continuation support. `warm_start` (optional) seeds the
  /// fixed-point iteration with a converged channel-class state from a
  /// nearby operating point; on any warm failure the solver falls back to
  /// the zero-load start, so classification matches the cold path, and a
  /// successful warm solve is bit-identical to the cold one (the solver
  /// polishes converged iterates to the map's exact stationary point).
  /// `converged_state` (optional) receives the converged iterate for
  /// chaining; it is left empty when the point is saturated.
  ModelResult solve(const std::vector<double>* warm_start,
                    std::vector<double>* converged_state) const;

  const ModelConfig& config() const noexcept { return cfg_; }
  const TrafficRates& rates() const noexcept { return rates_; }

  /// Exact zero-load latency (mean hops + Lm - 1, averaged over the hot/
  /// regular mix) — the lambda -> 0 limit of solve().latency, used by tests.
  double zero_load_latency() const;

  /// Coarse closed-form estimate of the saturation injection rate from the
  /// bottleneck (hot-y, j=1) channel: lambda_sat ~ 1 / (S0 * (lambda_1/lambda))
  /// with S0 the zero-load hot-path service time. Benches use it to place
  /// sweep ranges; it is intentionally simple, not part of the paper.
  double estimated_saturation_rate() const;

 private:
  ModelConfig cfg_;
  TrafficRates rates_;
};

}  // namespace kncube::model
