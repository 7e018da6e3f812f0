// Validation unit coverage: classification logic, sanity checks, tolerance
// ladder, suite composition and JSON rendering — everything that doesn't
// need a real simulation (the end-to-end quick-suite run lives in
// accuracy_gate_test.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/model_registry.hpp"
#include "validate/accuracy_json.hpp"
#include "validate/reliability.hpp"
#include "validate/validation.hpp"

namespace kncube::validate {
namespace {

util::ConfidenceInterval ci(double mean, double half_width) {
  util::ConfidenceInterval c;
  c.mean = mean;
  c.half_width = half_width;
  c.count = 5;
  return c;
}

TEST(Classification, ModelInsideCi) {
  EXPECT_EQ(classify_modeled(102.0, ci(100.0, 3.0), 0.15), PointClass::kModelInCI);
  // Exactly on the widened edge: 100 + 3 + 0.02*100 = 105.
  EXPECT_EQ(classify_modeled(105.0, ci(100.0, 3.0), 0.15), PointClass::kModelInCI);
}

TEST(Classification, WithinToleranceOutsideCi) {
  // 10% off with a 2-cycle CI: outside the widened interval, inside the
  // ladder.
  EXPECT_EQ(classify_modeled(110.0, ci(100.0, 2.0), 0.15),
            PointClass::kWithinTolerance);
}

TEST(Classification, OutOfTolerance) {
  EXPECT_EQ(classify_modeled(150.0, ci(100.0, 2.0), 0.15),
            PointClass::kOutOfTolerance);
  // Non-finite model prediction on an unsaturated sim point is a failure,
  // not a skip.
  EXPECT_EQ(classify_modeled(std::numeric_limits<double>::infinity(),
                             ci(100.0, 2.0), 0.15),
            PointClass::kOutOfTolerance);
}

TEST(Classification, InfiniteHalfWidthNeverRejects) {
  // R = 1: no variance estimate, the CI is the whole line.
  EXPECT_EQ(classify_modeled(
                1e6, ci(100.0, std::numeric_limits<double>::infinity()), 0.15),
            PointClass::kModelInCI);
}

TEST(ToleranceLadder, MonotoneAndDocumentedValues) {
  EXPECT_DOUBLE_EQ(default_tolerance(0.15), 0.15);
  EXPECT_DOUBLE_EQ(default_tolerance(0.3), 0.25);
  EXPECT_DOUBLE_EQ(default_tolerance(0.45), 0.35);
  EXPECT_DOUBLE_EQ(default_tolerance(0.6), 0.45);
  EXPECT_DOUBLE_EQ(default_tolerance(0.75), 0.60);
  for (double lo = 0.05; lo < 0.9; lo += 0.05) {
    EXPECT_LE(default_tolerance(lo), default_tolerance(lo + 0.05)) << lo;
  }
}

// --- sim-only sanity checks, on hand-built replication points ---

ReplicationPoint sanity_point(double lambda, double latency_mean,
                              double generated, double accepted) {
  ReplicationPoint pt;
  pt.lambda = lambda;
  pt.replications = 2;
  pt.latency = ci(latency_mean, 1.0);
  sim::SimResult r;
  r.mean_latency = latency_mean;
  r.generated_load = generated;
  r.accepted_load = accepted;
  pt.results = {r, r};
  return pt;
}

TEST(SanityChecks, PassesConsistentPoint) {
  core::ScenarioSpec spec;
  const auto pt = sanity_point(0.002, 50.0, 0.002, 0.00199);
  EXPECT_TRUE(sanity_failure(pt, nullptr, spec).empty());
}

TEST(SanityChecks, CatchesConservationViolation) {
  core::ScenarioSpec spec;
  // Accepted load 20% below generated: messages are vanishing (or piling up
  // unboundedly) inside the network.
  const auto pt = sanity_point(0.002, 50.0, 0.002, 0.0016);
  const std::string failure = sanity_failure(pt, nullptr, spec);
  EXPECT_NE(failure.find("conservation"), std::string::npos) << failure;
}

TEST(SanityChecks, CatchesOfferedLoadDrift) {
  core::ScenarioSpec spec;
  // Generated load 40% below offered: the arrival process is not emitting
  // the configured rate.
  const auto pt = sanity_point(0.002, 50.0, 0.0012, 0.0012);
  const std::string failure = sanity_failure(pt, nullptr, spec);
  EXPECT_NE(failure.find("offered-load"), std::string::npos) << failure;
}

TEST(SanityChecks, MmppGetsWiderOfferedBand) {
  core::ScenarioSpec spec;
  spec.arrivals = core::MmppArrivals{};
  // 25% drift: fails the 15% Bernoulli band, passes the MMPP band (15%
  // scaled by the default chain's mmpp_offered_load_dispersion).
  const auto pt = sanity_point(0.002, 50.0, 0.0015, 0.0015);
  EXPECT_TRUE(sanity_failure(pt, nullptr, spec).empty());
  spec.arrivals = core::BernoulliArrivals{};
  EXPECT_FALSE(sanity_failure(pt, nullptr, spec).empty());
}

TEST(SanityChecks, CatchesNonMonotoneLatency) {
  core::ScenarioSpec spec;
  const auto prev = sanity_point(0.002, 80.0, 0.002, 0.002);
  // Latency collapsed by far more than the combined CI half-widths.
  const auto cur = sanity_point(0.004, 40.0, 0.004, 0.004);
  const std::string failure = sanity_failure(cur, &prev, spec);
  EXPECT_NE(failure.find("monotonicity"), std::string::npos) << failure;
  // A drop within the noise band passes.
  const auto wiggle = sanity_point(0.004, 79.5, 0.004, 0.004);
  EXPECT_TRUE(sanity_failure(wiggle, &prev, spec).empty());
}

// --- report and config plumbing ---

TEST(Report, CountsAndPassFlag) {
  ValidationReport report;
  ValidationPoint p;
  p.cls = PointClass::kModelInCI;
  report.points.push_back(p);
  p.cls = PointClass::kSimSanity;
  report.points.push_back(p);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.count(PointClass::kModelInCI), 1);

  p.cls = PointClass::kOutOfTolerance;
  report.points.push_back(p);
  EXPECT_FALSE(report.passed());

  report.points.back().cls = PointClass::kSimSanityFailed;
  EXPECT_FALSE(report.passed());
}

TEST(RunValidation, SimOnlyCaseWithoutAnchorThrows) {
  ScenarioCase c;
  c.name = "anchorless";
  c.spec.traffic = core::TransposeTraffic{};  // sim-only
  c.fractions = {0.5};
  EXPECT_THROW(run_validation({c}, 5), std::invalid_argument);
}

TEST(Suites, CoverEveryModeledFamilyAndSimOnlySpecs) {
  const auto suite = full_suite();
  int hotspot_torus = 0, uniform_torus = 0, hypercube = 0, sim_only = 0;
  int mmpp_torus = 0, hotspot_mesh = 0;
  for (const ScenarioCase& c : suite) {
    core::ModelDispatch d = core::make_analytical_model(c.spec);
    if (!d.has_model()) {
      ++sim_only;
      EXPECT_GT(c.max_rate, 0.0) << c.name;
      continue;
    }
    const std::string family = d.model->name();
    hotspot_torus += (family == "hotspot-torus") ? 1 : 0;
    uniform_torus += (family == "uniform-torus") ? 1 : 0;
    hypercube += (family == "hotspot-hypercube") ? 1 : 0;
    mmpp_torus += (family == "mmpp-hotspot-torus") ? 1 : 0;
    mmpp_torus += (family == "mmpp-uniform-torus") ? 1 : 0;
    hotspot_mesh += (family == "hotspot-mesh") ? 1 : 0;
    // Modeled sweeps stay below the saturation boundary.
    for (double f : c.fractions) EXPECT_LT(f, 1.0) << c.name;
  }
  EXPECT_GE(hotspot_torus, 1);
  EXPECT_GE(uniform_torus, 1);
  EXPECT_GE(hypercube, 2);    // hot-spot and uniform (h = 0) degenerations
  EXPECT_GE(mmpp_torus, 2);   // bursty arrivals on both torus patterns
  EXPECT_GE(hotspot_mesh, 1);
  EXPECT_GE(sim_only, 2);     // the acceptance-criteria floor

  // The quick suite is a strict subset in effort, not coverage of *every*
  // family; it must still mix modeled and sim-only cases.
  const auto quick = quick_suite();
  EXPECT_GE(quick.size(), 2u);
  bool has_modeled = false, has_sim_only = false;
  for (const ScenarioCase& c : quick) {
    (core::make_analytical_model(c.spec).has_model() ? has_modeled
                                                     : has_sim_only) = true;
  }
  EXPECT_TRUE(has_modeled);
  EXPECT_TRUE(has_sim_only);
}

TEST(AccuracyJson, RendersStableSchema) {
  ValidationReport report;
  report.replications = 3;
  ValidationPoint p;
  p.scenario = "case-a";
  p.family = "hotspot-torus";
  p.lambda = 0.002;
  p.lambda_frac = 0.3;
  p.model_latency = 51.5;
  p.sim_mean = 50.0;
  p.ci_half_width = 2.0;
  p.rel_error = 0.03;
  p.tolerance = 0.25;
  p.cls = PointClass::kModelInCI;
  report.points.push_back(p);
  p.scenario = "case-b";
  p.family = "sim-only";
  p.model_latency = std::numeric_limits<double>::quiet_NaN();
  p.rel_error = std::numeric_limits<double>::quiet_NaN();
  p.cls = PointClass::kSimSanity;
  p.detail = "say \"hi\"";
  report.points.push_back(p);

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"schema\": \"kncube-accuracy-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"replications\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"model_in_ci\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sim_sanity\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"class\": \"model_in_ci\""), std::string::npos);
  // NaN renders as null, quotes are escaped.
  EXPECT_NE(json.find("\"model_latency\": null"), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
  // Deterministic: same report, same bytes.
  EXPECT_EQ(json, to_json(report));

  const std::string line = summary_line(report);
  EXPECT_NE(line.find("PASS"), std::string::npos);

  const util::Table table = accuracy_table(report);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_NE(table.to_string().find("model_in_ci"), std::string::npos);
}

/// Everything before the "summary" block of a report: its schema and the
/// config the constants write. Empty when `json` has no summary.
std::string report_header(const std::string& json) {
  const std::size_t summary = json.find("\"summary\"");
  return summary == std::string::npos ? "" : json.substr(0, summary);
}

/// The header of a committed report at the repository root.
std::string committed_header(const char* name) {
  std::ifstream in(std::filesystem::path(KNCUBE_SOURCE_DIR) / name,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return report_header(text.str());
}

TEST(ReportHeaders, MatchTheCommittedReports) {
  // ACCURACY.json is written at 5 replications, RELIABILITY.json at 3; the
  // confidence and CI slack come from kConfidence and kCiEpsilon.
  ValidationReport accuracy;
  accuracy.replications = 5;
  const std::string accuracy_header = committed_header("ACCURACY.json");
  ASSERT_FALSE(accuracy_header.empty());
  EXPECT_EQ(report_header(to_json(accuracy)), accuracy_header);

  ReliabilityReport reliability;
  reliability.replications = 3;
  const std::string reliability_header = committed_header("RELIABILITY.json");
  ASSERT_FALSE(reliability_header.empty());
  EXPECT_EQ(report_header(to_json(reliability)), reliability_header);
}

}  // namespace
}  // namespace kncube::validate
