// The tier-1 accuracy gate (ctest label `accuracy`): runs the quick
// validation suite end-to-end — real model solves, real replicated
// simulations — and requires the statistical classification to pass. This is
// the in-tree miniature of the nightly full-sweep kncube_validate job; if
// this fails, model-vs-simulation accuracy regressed (or the tolerance
// policy no longer reflects reality).
#include <gtest/gtest.h>

#include <cmath>

#include "validate/accuracy_json.hpp"
#include "validate/validation.hpp"

namespace kncube::validate {
namespace {

TEST(AccuracyGate, QuickSuitePasses) {
  const ValidationReport report = run_validation(quick_suite(), 3);

  // Print the table on failure so the regressing point is visible in CI.
  EXPECT_TRUE(report.passed()) << accuracy_table(report).to_string();

  // The gate must actually gate: modeled and sim-only points both present,
  // and no point silently skipped as saturated (the quick fractions are all
  // well below the boundary).
  int modeled = 0, sim_only = 0;
  for (const ValidationPoint& p : report.points) {
    if (p.family == "sim-only") {
      ++sim_only;
    } else {
      ++modeled;
      EXPECT_TRUE(std::isfinite(p.model_latency)) << p.scenario;
    }
    EXPECT_NE(p.cls, PointClass::kSkippedSaturated)
        << p.scenario << " frac " << p.lambda_frac;
  }
  EXPECT_GE(modeled, 3);
  EXPECT_GE(sim_only, 2);

  // And the JSON path used by tools/validate renders it.
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
}

}  // namespace
}  // namespace kncube::validate
