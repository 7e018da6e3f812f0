#include "model/traffic_rates.hpp"

#include "util/assert.hpp"

namespace kncube::model {

void traffic_rates(int k, double lambda, double hot_fraction, std::vector<double>& table) {
  KNC_ASSERT(k >= 2);
  KNC_ASSERT(lambda >= 0.0);
  KNC_ASSERT(hot_fraction >= 0.0 && hot_fraction <= 1.0);
  const TrafficRateSlots slots{k};
  table.assign(static_cast<std::size_t>(slots.count()), 0.0);
  const double mean_hops_per_dim = static_cast<double>(k - 1) / 2.0;  // eq (1)
  table[slots.regular()] = lambda * (1.0 - hot_fraction) * mean_hops_per_dim;  // eq (3)
  for (int j = 1; j < k; ++j) {
    // Eqs (4)-(7): N * lambda * h * P_h{x,y},j with P_hx = (k-j)/N and
    // P_hy = k(k-j)/N; the channels at j == k carry no hot-spot traffic.
    table[static_cast<std::size_t>(slots.hot_x(j))] =
        lambda * hot_fraction * static_cast<double>(k - j);
    table[static_cast<std::size_t>(slots.hot_y(j))] =
        lambda * hot_fraction * static_cast<double>(k) * static_cast<double>(k - j);
  }
}

TrafficRates traffic_rates(int k, double lambda, double hot_fraction) {
  std::vector<double> table;
  traffic_rates(k, lambda, hot_fraction, table);
  const TrafficRateSlots slots{k};
  TrafficRates r;
  r.lambda = lambda;
  r.hot_fraction = hot_fraction;
  r.k = k;
  r.mean_hops_per_dim = static_cast<double>(k - 1) / 2.0;
  r.regular_rate = table[slots.regular()];
  r.hot_x.assign(static_cast<std::size_t>(k) + 1, 0.0);
  r.hot_y.assign(static_cast<std::size_t>(k) + 1, 0.0);
  for (int j = 1; j <= k; ++j) {
    r.hot_x[static_cast<std::size_t>(j)] = table[static_cast<std::size_t>(slots.hot_x(j))];
    r.hot_y[static_cast<std::size_t>(j)] = table[static_cast<std::size_t>(slots.hot_y(j))];
  }
  return r;
}

}  // namespace kncube::model
