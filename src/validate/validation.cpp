#include "validate/validation.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/sweep_engine.hpp"
#include "model/analytical_model.hpp"
#include "model/engine/bursty.hpp"

namespace kncube::validate {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Relative gap between simulated accepted and generated load tolerated
/// below saturation: flit conservation means the two can differ only by the
/// finite in-flight population at the measurement edges.
constexpr double kConservationTol = 0.05;

}  // namespace

const char* point_class_name(PointClass cls) noexcept {
  switch (cls) {
    case PointClass::kModelInCI: return "model_in_ci";
    case PointClass::kWithinTolerance: return "within_tolerance";
    case PointClass::kOutOfTolerance: return "out_of_tolerance";
    case PointClass::kSimSanity: return "sim_sanity";
    case PointClass::kSimSanityFailed: return "sim_sanity_failed";
    case PointClass::kSkippedSaturated: return "skipped_saturated";
  }
  return "unknown";
}

int ValidationReport::count(PointClass cls) const noexcept {
  int n = 0;
  for (const ValidationPoint& p : points) n += (p.cls == cls) ? 1 : 0;
  return n;
}

bool ValidationReport::passed() const noexcept {
  return count(PointClass::kOutOfTolerance) == 0 &&
         count(PointClass::kSimSanityFailed) == 0;
}

double default_tolerance(double lambda_frac) noexcept {
  // The ladder mirrors the empirically observed accuracy profile (DESIGN.md
  // §7): tight tracking at light load, growing approximation error toward
  // the knee where the M/G/1 blocking terms dominate.
  if (lambda_frac <= 0.2) return 0.15;
  if (lambda_frac <= 0.35) return 0.25;
  if (lambda_frac <= 0.5) return 0.35;
  if (lambda_frac <= 0.65) return 0.45;
  return 0.60;
}

PointClass classify_modeled(double model_latency,
                            const util::ConfidenceInterval& ci,
                            double tolerance) noexcept {
  if (!std::isfinite(model_latency) || !std::isfinite(ci.mean) || ci.mean <= 0.0) {
    return PointClass::kOutOfTolerance;
  }
  if (ci.contains(model_latency, kCiEpsilon * ci.mean)) {
    return PointClass::kModelInCI;
  }
  const double rel = std::abs(model_latency - ci.mean) / ci.mean;
  return rel <= tolerance ? PointClass::kWithinTolerance
                          : PointClass::kOutOfTolerance;
}

ValidationReport run_validation(const std::vector<ScenarioCase>& suite,
                                int replications) {
  ValidationReport report;
  report.replications = replications;

  for (const ScenarioCase& c : suite) {
    core::SweepEngine engine(c.spec);  // validates the spec
    const ReplicationRunner runner(c.spec, replications);

    // Sweep anchor: the model's bisected saturation boundary when the
    // registry dispatched a model, the case's explicit ceiling otherwise.
    double anchor = c.max_rate;
    if (engine.has_model()) {
      anchor = engine.saturation_rate().rate;
    } else if (!(anchor > 0.0)) {
      throw std::invalid_argument("run_validation: sim-only case '" + c.name +
                                  "' needs a max_rate sweep anchor");
    }
    std::vector<double> lambdas;
    lambdas.reserve(c.fractions.size());
    for (double f : c.fractions) lambdas.push_back(f * anchor);

    const std::vector<ReplicationPoint> pts = runner.run(lambdas);

    // Monotonicity state for sim-only sanity: the last unsaturated point.
    const ReplicationPoint* prev = nullptr;

    for (std::size_t i = 0; i < pts.size(); ++i) {
      const ReplicationPoint& pt = pts[i];
      ValidationPoint vp;
      vp.scenario = c.name;
      vp.lambda = lambdas[i];
      vp.lambda_frac = c.fractions[i];
      vp.sim_mean = pt.latency.mean;
      vp.ci_half_width = pt.latency.half_width;

      if (engine.has_model()) {
        vp.family = engine.analytical_model().name();
        vp.tolerance = default_tolerance(vp.lambda_frac);
        const model::ModelResult mr = engine.model_point(lambdas[i]);
        vp.model_latency = mr.latency;
        if (mr.saturated || pt.saturated()) {
          vp.cls = PointClass::kSkippedSaturated;
          vp.detail = mr.saturated ? "model saturated" : "sim saturated";
          vp.rel_error = kNaN;
        } else {
          vp.rel_error = std::abs(mr.latency - pt.latency.mean) / pt.latency.mean;
          vp.cls = classify_modeled(mr.latency, pt.latency, vp.tolerance);
        }
      } else {
        vp.family = "sim-only";
        vp.model_latency = kNaN;
        vp.rel_error = kNaN;
        vp.tolerance = 0.0;
        if (pt.saturated()) {
          vp.cls = PointClass::kSkippedSaturated;
          vp.detail = "sim saturated";
        } else {
          vp.detail = sanity_failure(pt, prev, c.spec);
          vp.cls = vp.detail.empty() ? PointClass::kSimSanity
                                     : PointClass::kSimSanityFailed;
          prev = &pt;
        }
      }
      report.points.push_back(std::move(vp));
    }
  }
  return report;
}

std::string sanity_failure(const ReplicationPoint& pt,
                           const ReplicationPoint* prev,
                           const core::ScenarioSpec& spec) {
  std::ostringstream msg;

  // Conservation: below saturation every generated message is eventually
  // delivered, so measured accepted load must track generated load up to
  // the in-flight population at the measurement-window edges.
  const double generated =
      pt.mean_of([](const sim::SimResult& r) { return r.generated_load; });
  const double accepted =
      pt.mean_of([](const sim::SimResult& r) { return r.accepted_load; });
  if (generated > 0.0 &&
      std::abs(accepted - generated) > kConservationTol * generated) {
    msg << "conservation: accepted load " << accepted
        << " deviates from generated load " << generated << " by more than "
        << kConservationTol * 100 << "%";
    return msg.str();
  }

  // Offered-load tracking: the arrival process is constructed to emit the
  // configured mean rate. MMPP gets a wider band, scaled by the ratio of
  // the modulated process's per-cycle arrival standard deviation to the
  // Bernoulli one at the same mean — computed from the MMPP stationary
  // distribution and autocovariance decay (engine/bursty.hpp), so a
  // slow-mixing, high-multiplier chain widens the band while a chain close
  // to Bernoulli collapses it back to the Bernoulli tolerance.
  const double offered = pt.lambda;
  double offered_tol = 0.15;
  if (spec.is_mmpp()) {
    const core::MmppArrivals& m = spec.mmpp();
    offered_tol *= model::mmpp_offered_load_dispersion(
        offered, m.burst_multiplier, m.p_enter_burst, m.p_leave_burst);
  }
  if (offered > 0.0 && std::abs(generated - offered) > offered_tol * offered) {
    msg << "offered-load tracking: generated load " << generated
        << " deviates from offered " << offered << " by more than "
        << offered_tol * 100 << "%";
    return msg.str();
  }

  // Lambda-monotonicity: mean latency must not decrease with load beyond
  // the replication noise band (the two CIs' combined half-widths). An
  // infinite half-width (R = 1) cannot reject.
  if (prev != nullptr) {
    const double slack =
        pt.latency.half_width + prev->latency.half_width + 1e-9 * prev->latency.mean;
    if (std::isfinite(slack) && pt.latency.mean < prev->latency.mean - slack) {
      msg << "monotonicity: latency " << pt.latency.mean << " at lambda "
          << pt.lambda << " dropped below " << prev->latency.mean
          << " at lambda " << prev->lambda << " beyond the CI noise band";
      return msg.str();
    }
  }
  return {};
}

}  // namespace kncube::validate
