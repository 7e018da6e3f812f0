// Dally's virtual-channel multiplexing model (paper eqs (33)-(35)).
//
// A physical channel with V virtual channels, total crossing rate `rate` and
// mean service time `service` is modelled as a birth-death chain over the
// number of busy VCs v:
//
//   q_0 = 1,  q_v = q_{v-1} * rho   (0 < v < V),
//   q_V = q_{V-1} * rho / (1 - rho),      rho = rate * service
//   P_v = q_v / sum_l q_l
//
// and the average multiplexing degree — the factor by which each VC's share
// of the physical bandwidth is diluted — is
//
//   Vbar = sum_v v^2 P_v / sum_v v P_v            (eq 35)
//
// Vbar is 1 at zero load (a lone message owns the full channel) and
// approaches V as rho -> 1.
#pragma once

namespace kncube::model {

/// Average multiplexing degree for a channel with `vcs` virtual channels.
/// rho = rate*service is clamped just below 1; Vbar is finite even at
/// saturation (it tends to V).
double vc_multiplexing_degree(double rate, double service, int vcs);

/// Busy-VC distribution P_0..P_V (size V+1): the chain vc_multiplexing_degree
/// evaluates without storing it, exposed for tests.
void vc_occupancy_distribution(double rate, double service, int vcs, double* out);

}  // namespace kncube::model
