// Statistically-gated model-vs-simulation accuracy over the ScenarioSpec
// space.
//
// The paper's claim is §4's model/simulation agreement; run_validation turns
// that claim into a tracked, machine-checkable artifact. A validation suite
// is a list of ScenarioCases spanning every registry-dispatched model family
// (hot-spot torus, uniform torus, hot-spot/uniform hypercube, uniform mesh)
// plus sim-only specs (MMPP bursts, permutation patterns, ...). For each
// case it sweeps lambda at fixed fractions of the model's bisected
// saturation rate (sim-only cases anchor on an explicit max_rate), measures
// each point with R-replication Student-t confidence intervals
// (ReplicationRunner), and classifies every point:
//
//   model-in-CI        model prediction inside the replication CI (widened
//                      by kCiEpsilon * sim mean — the CI collapses as R or
//                      the per-run sample count grows, while the model's
//                      approximation error does not);
//   within-tolerance   outside the CI but |model-sim|/sim within the
//                      documented load-dependent tolerance ladder
//                      (default_tolerance below, DESIGN.md §7);
//   out-of-tolerance   a modeled pre-saturation point failing both gates —
//                      the accuracy regression signal, and the only class
//                      (with failed sanity) that fails the report;
//   sim-sanity[-failed] sim-only points, gated on conservation
//                      (accepted == generated load below saturation, offered
//                      load tracked) and lambda-monotonicity of latency;
//   skipped-saturated  either side saturated: excluded from gating (the
//                      asymptote region has no steady state to compare).
//
// tools/validate.cpp renders a report as the committed repo-root
// ACCURACY.json (see accuracy_json.hpp) — the accuracy analogue of the
// BENCH_*.json perf baselines — and CI fails when a report stops passing.
#pragma once

#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "util/stats.hpp"
#include "validate/replication.hpp"

namespace kncube::validate {

enum class PointClass {
  kModelInCI,
  kWithinTolerance,
  kOutOfTolerance,
  kSimSanity,
  kSimSanityFailed,
  kSkippedSaturated,
};

/// Stable snake_case name used in ACCURACY.json ("model_in_ci", ...).
const char* point_class_name(PointClass cls) noexcept;

/// One classified operating point of the suite.
struct ValidationPoint {
  std::string scenario;  ///< owning ScenarioCase name
  std::string family;    ///< analytical model name, or "sim-only"
  double lambda = 0.0;
  /// Fraction of the model saturation rate (modeled cases) or of the case's
  /// max_rate anchor (sim-only cases).
  double lambda_frac = 0.0;

  double model_latency = 0.0;  ///< NaN for sim-only cases
  double sim_mean = 0.0;       ///< replication mean latency; NaN if unavailable
  double ci_half_width = 0.0;  ///< of the replication latency CI
  double rel_error = 0.0;      ///< |model-sim|/sim; NaN when either side missing
  double tolerance = 0.0;      ///< the ladder value this point was gated on

  PointClass cls = PointClass::kSkippedSaturated;
  std::string detail;  ///< human-readable reason (sanity failures, skips)
};

/// One spec in a validation suite.
struct ScenarioCase {
  std::string name;
  core::ScenarioSpec spec;
  /// Sweep fractions: of the model's bisected saturation rate when the
  /// registry dispatches a model, of `max_rate` otherwise.
  std::vector<double> fractions;
  /// Absolute sweep anchor (messages/node/cycle) for sim-only cases.
  double max_rate = 0.0;
};

/// Relative slack added to each CI side before the in-CI test, as a
/// fraction of the sim mean.
inline constexpr double kCiEpsilon = 0.02;

struct ValidationReport {
  int replications = 0;
  std::vector<ValidationPoint> points;

  int count(PointClass cls) const noexcept;
  /// True when no point is out-of-tolerance and no sanity check failed.
  bool passed() const noexcept;
};

/// The documented load-dependent tolerance ladder (DESIGN.md §7): the model
/// is a light/moderate-load approximation, so the acceptable relative error
/// grows with the fraction of the saturation rate.
double default_tolerance(double lambda_frac) noexcept;

/// Runs and classifies the whole suite at `replications` runs per point.
/// Cases execute sequentially (each case already parallelises its
/// replication grid); throws std::invalid_argument on an invalid spec, a
/// replication count below 1 or a sim-only case without a max_rate anchor.
ValidationReport run_validation(const std::vector<ScenarioCase>& suite,
                                int replications);

/// Classification core for a modeled point: `tolerance` is the ladder value.
PointClass classify_modeled(double model_latency,
                            const util::ConfidenceInterval& ci,
                            double tolerance) noexcept;

/// Sim-only sanity checks (conservation, offered-load tracking,
/// lambda-monotonicity against `prev`, the previous unsaturated point).
/// Returns the failure description, or empty when all checks pass.
std::string sanity_failure(const ReplicationPoint& pt,
                           const ReplicationPoint* prev,
                           const core::ScenarioSpec& spec);

/// The committed-baseline suite: every registry-modeled topology x traffic x
/// arrivals family (incl. the uniform mesh at two shapes) plus sim-only
/// specs (MMPP bursts, transpose permutation, bidirectional torus, mesh
/// hot-spot). Sized for minutes, not hours — the nightly CI job and
/// `tools/validate` run this.
std::vector<ScenarioCase> full_suite();

/// Tier-1 subset (ctest label `accuracy`): one modeled case per topology
/// family plus one sim-only case, at reduced measurement effort — seconds.
std::vector<ScenarioCase> quick_suite();

}  // namespace kncube::validate
