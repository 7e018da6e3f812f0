#include "model/engine/vcmux.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace kncube::model {

namespace {

/// rho of eq (33), clamped just below 1 so the chain stays finite.
double occupancy(double rate, double service) {
  return std::clamp(rate * service, 0.0, 1.0 - 1e-9);
}

/// q_v from q_{v-1}, v = 1..V (eq 33): times rho, and at v = V also / (1-rho).
double next_q(double q, int v, int vcs, double rho) {
  return v < vcs ? q * rho : q * rho / (1.0 - rho);
}

}  // namespace

void vc_occupancy_distribution(double rate, double service, int vcs, double* out) {
  KNC_ASSERT(vcs >= 1);
  const double rho = occupancy(rate, service);
  out[0] = 1.0;
  for (int v = 1; v <= vcs; ++v) out[v] = next_q(out[v - 1], v, vcs, rho);
  double sum = 0.0;
  for (int v = 0; v <= vcs; ++v) sum += out[v];
  for (int v = 0; v <= vcs; ++v) out[v] /= sum;
}

double vc_multiplexing_degree(double rate, double service, int vcs) {
  if (rate <= 0.0 || service <= 0.0) return 1.0;
  KNC_ASSERT(vcs >= 1);
  const double rho = occupancy(rate, service);
  // Two passes over the chain instead of a stored P_0..P_V: the first sums
  // q_v, the second regenerates each q_v with the same operations in the same
  // order and accumulates eq (35) from P_v = q_v / sum.
  double q = 1.0;  // q_0
  double sum = q;
  for (int v = 1; v <= vcs; ++v) {
    q = next_q(q, v, vcs, rho);
    sum += q;
  }
  double num = 0.0;
  double den = 0.0;
  q = 1.0;
  for (int v = 1; v <= vcs; ++v) {
    q = next_q(q, v, vcs, rho);
    const double pv = q / sum;
    num += static_cast<double>(v) * static_cast<double>(v) * pv;
    den += static_cast<double>(v) * pv;
  }
  if (den <= 0.0) return 1.0;
  return num / den;
}

}  // namespace kncube::model
