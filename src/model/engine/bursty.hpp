// Bursty-arrival (MMPP/MMBP) service-stage helpers for the channel-class
// engine.
//
// The simulator's MMPP arrival process (sim::MmppArrivals) is a discrete-time
// two-state Markov-modulated Bernoulli process: a background chain alternates
// between an idle state (per-cycle arrival probability lambda_i) and a burst
// state (lambda_b = min(1, burst_multiplier * mean)), with transition
// probabilities p_enter (idle -> burst) and p_leave (burst -> idle). The
// stationary burst fraction is pi_b = p_enter / (p_enter + p_leave) and the
// idle rate solves pi_b*lambda_b + (1-pi_b)*lambda_i == mean.
//
// The analytical side folds that process into the engine through a single
// scalar: the asymptotic index of dispersion of counts (IDC). Writing
// sigma = p_enter + p_leave (1 - sigma is the modulating chain's second
// eigenvalue), the lag-tau autocovariance of the per-cycle arrival indicator
// is pi_b*(1-pi_b)*(lambda_b - lambda_i)^2 * (1-sigma)^tau, so the counting
// process's long-run variance-to-mean ratio exceeds the Poisson value by the
// geometric sum over all lags:
//
//   IDC = 1 + 2 pi_b (1-pi_b) (lambda_b - lambda_i)^2 (1-sigma)
//                 / (sigma * mean)                                     (B1)
//
// This is the two-moment characterisation used by MMPP/G/1 heavy-traffic
// approximations (cf. the bursty NoC models of Mandal et al.,
// arXiv:2007.13951): a GI/G/1 queue driven by an MMPP behaves, to first
// order, like an M/G/1 queue whose arrival variability is inflated by the
// IDC. The engine consumes it via mg1_wait's `arrival_idc` parameter, which
// scales the Poisson part of the Pollaczek–Khinchine numerator
// (DESIGN.md §13).
//
// Exactness at the Bernoulli limit: burst_multiplier == 1 makes
// lambda_b == lambda_i == mean, so (B1) is computed as 1 + 0 and the engine
// sees arrival_idc == 1.0 exactly — every downstream float operation is then
// bitwise-identical to the Bernoulli model (mmpp_model_test pins this).
#pragma once

namespace kncube::model {

/// Stationary description of the two-state MMBP, with the simulator's exact
/// clamping (sim::MmppArrivals) so model and sim agree on realized rates.
struct MmppStationary {
  double pi_burst = 0.0;    ///< stationary fraction of cycles in burst state
  double burst_rate = 0.0;  ///< arrival probability in burst state (<= 1)
  double idle_rate = 0.0;   ///< arrival probability in idle state (>= 0)
  double mean_rate = 0.0;   ///< realized mean: pi_b*burst + (1-pi_b)*idle
};

/// Solves the stationary chain for a configured mean rate, mirroring
/// sim::MmppArrivals' constructor (including both clamps). Requires
/// p_enter, p_leave in (0,1] and burst_multiplier >= 1 (ScenarioSpec
/// validation guarantees these).
MmppStationary mmpp_stationary(double mean_rate, double burst_multiplier,
                               double p_enter_burst, double p_leave_burst);

/// Asymptotic index of dispersion of counts (B1) of the MMBP, clamped to
/// >= 0. Exactly 1.0 whenever burst and idle rates coincide (in particular
/// burst_multiplier == 1, or mean_rate == 0).
double mmpp_arrival_idc(double mean_rate, double burst_multiplier,
                        double p_enter_burst, double p_leave_burst);

/// Standard deviation of the per-cycle arrival indicator under the MMBP
/// stationary distribution, *relative* to the Bernoulli(mean) process:
/// sqrt(Var_mmpp / Var_bernoulli) >= 1. Used by the validation layer to
/// widen the offered-load sanity band exactly as much as the configured
/// burstiness warrants (instead of a hard-coded MMPP tolerance).
double mmpp_offered_load_dispersion(double mean_rate, double burst_multiplier,
                                    double p_enter_burst, double p_leave_burst);

}  // namespace kncube::model
