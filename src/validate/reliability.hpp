// Reliability-degradation measurement over the fault axis.
//
// Where run_validation asks "does the analytical model match the simulator
// on pristine networks?", run_reliability asks "how gracefully does the
// simulated network degrade as routers fail?". Each ReliabilityCase is a
// pristine ScenarioSpec plus a sweep of failure counts: for every count f
// it derives a faulty spec (seed-derived random mode at rate f/N, so the
// resolved failure set is a deterministic function of the spec) and
// measures it at each lambda fraction through ReplicationRunner, producing
// latency-degradation and survivable-throughput curves relative to the
// pristine (f = 0) baseline at the same load.
//
// Gates (ReliabilityReport::passed):
//  - zero conservation violations: every replication of every point must
//    satisfy SimResult::conservation_ok (offered = delivered + unreachable +
//    in-flight, in both message and flit units);
//  - thread invariance: for each case the most-degraded point re-runs at
//    sim.threads in {1, 2, 4} and every result word (sim::result_words)
//    must be bit-identical.
// Degradation *direction* is deliberately not gated: with few failures the
// latency of the surviving pairs can legitimately drop (the unreachable
// pairs were the longest routes), and gating on monotonicity would encode a
// falsehood. The curves themselves are the committed RELIABILITY.json
// trajectory, diffed structurally in CI like ACCURACY.json.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace kncube::validate {

/// One reliability scenario: a pristine spec swept over failure counts and
/// load fractions of `base_rate` (the pristine model's saturation anchor).
struct ReliabilityCase {
  std::string name;
  core::ScenarioSpec spec;           ///< pristine (failures must be empty)
  std::vector<int> failure_counts;   ///< failed-router counts; must include 0
  std::uint64_t failure_seed = 1;    ///< random-mode seed for every count
  std::vector<double> lambda_fracs;  ///< fractions of base_rate
  double base_rate = 0.0;            ///< lambda anchor (pristine saturation)
};

/// One (failure-config, lambda) measurement.
struct ReliabilityPoint {
  std::string scenario;
  int failed_routers = 0;  ///< requested failure count f
  std::uint64_t failure_seed = 0;
  double lambda = 0.0;
  double lambda_frac = 0.0;

  // Static fault-set properties (identical across replications).
  std::uint64_t unreachable_pairs = 0;
  double reachable_pair_fraction = 1.0;

  // Replication aggregates.
  int replications = 0;
  util::ConfidenceInterval latency;  ///< over surviving (delivered) traffic
  double offered_load = 0.0;         ///< mean generated load, msgs/node/cycle
  double delivered_load = 0.0;       ///< mean accepted load (survivable throughput)
  double unreachable_fraction = 0.0; ///< mean unreachable / generated
  bool saturated = false;            ///< majority vote across replications
  std::uint64_t conservation_violations = 0;

  // Degradation vs the pristine (f = 0) point at the same lambda fraction:
  // NaN for the pristine points themselves and when either side saturated.
  double latency_ratio = std::numeric_limits<double>::quiet_NaN();
  double throughput_ratio = std::numeric_limits<double>::quiet_NaN();
};

struct ReliabilityReport {
  int replications = 0;
  std::vector<ReliabilityPoint> points;
  std::uint64_t conservation_violations = 0;
  bool thread_invariant = true;

  bool passed() const noexcept {
    return conservation_violations == 0 && thread_invariant;
  }
};

/// Derives the faulty spec for failure count `f` of `c` (f = 0 returns the
/// pristine spec unchanged). Exposed so tests and the report reader can
/// reproduce exactly which spec a point measured.
core::ScenarioSpec faulty_spec(const ReliabilityCase& c, int f);

/// Measures every case at `replications` runs per point; throws
/// std::invalid_argument on an invalid spec or a count below 1.
ReliabilityReport run_reliability(const std::vector<ReliabilityCase>& cases,
                                  int replications);

/// The committed reliability suite behind RELIABILITY.json: hot-spot torus
/// and uniform mesh, failure counts {0, 1, 2, 4} x two load fractions.
std::vector<ReliabilityCase> reliability_suite();
/// Tier-1-sized subset (seconds): one faulty and one pristine config per
/// topology family, single load fraction.
std::vector<ReliabilityCase> reliability_quick_suite();

/// Deterministic JSON (schema kncube-reliability-v1, no timestamps);
/// write_json (accuracy_json.hpp) writes it.
std::string to_json(const ReliabilityReport& report);
util::Table reliability_table(const ReliabilityReport& report);
std::string summary_line(const ReliabilityReport& report);

}  // namespace kncube::validate
