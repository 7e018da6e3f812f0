// Channel traffic rates under hot-spot traffic (paper eqs (1)-(9)).
#pragma once

#include <vector>

namespace kncube::model {

/// Per-channel message rates for the 2-D unidirectional torus with XY
/// routing and Pfister–Norton hot-spot traffic. Index convention follows the
/// paper: position j in [1, k] counts hops to the hot column (x channels) or
/// to the hot node (hot-y-ring channels); j == k is the channel leaving the
/// hot column / hot node itself and carries no hot-spot traffic. Arrays are
/// stored with j at index j (index 0 unused).
struct TrafficRates {
  double lambda = 0.0;      ///< per-node generation rate
  double hot_fraction = 0.0;
  int k = 0;
  double mean_hops_per_dim = 0.0;  ///< kbar = (k-1)/2, eq (1)
  double regular_rate = 0.0;       ///< lambda_r, on every channel, eq (3)
  std::vector<double> hot_x;       ///< lambda^h_x[j] = lambda*h*(k-j), eq (6)
  std::vector<double> hot_y;       ///< lambda^h_y[j] = lambda*h*k*(k-j), eq (7)

  double total_x(int j) const { return regular_rate + hot_x[static_cast<std::size_t>(j)]; }
  double total_hot_y(int j) const {
    return regular_rate + hot_y[static_cast<std::size_t>(j)];
  }
};

TrafficRates traffic_rates(int k, double lambda, double hot_fraction);

/// The slots of the same rates in the hot-spot torus's per-λ rate table,
/// which its compiled channel-class system reads (engine::TermStream::rate):
/// lambda_r, then lambda^h_y[j] and lambda^h_x[j] for j = 1..k.
struct TrafficRateSlots {
  int k;
  static constexpr int regular() { return 0; }
  int hot_y(int j) const { return j; }
  int hot_x(int j) const { return k + j; }
  int count() const { return 2 * k + 1; }
};

/// Fills `table` (resized to TrafficRateSlots{k}.count()) with the rates
/// traffic_rates(k, lambda, hot_fraction) returns, bit for bit.
void traffic_rates(int k, double lambda, double hot_fraction, std::vector<double>& table);

}  // namespace kncube::model
