// Tier-1 reliability gate: the quick reliability suite end-to-end (labeled
// "reliability" in ctest, mirroring the accuracy gate). Pins that the
// degradation measurement machinery works — zero conservation violations,
// bit-identical faulty results across sim.threads — and that the report
// carries a sane degradation structure, without pinning the (deliberately
// ungated) degradation direction. The *full* sweep behind the committed
// RELIABILITY.json runs in the CI reliability job via tools/kncube_reliability.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "validate/reliability.hpp"

namespace kncube::validate {
namespace {

/// One run shared by every assertion below (the suite costs seconds;
/// re-running it per TEST would dominate tier-1 wall-clock).
const ReliabilityReport& quick_report() {
  static const ReliabilityReport report =
      run_reliability(reliability_quick_suite(), 2);
  return report;
}

TEST(ReliabilityGate, QuickSuitePasses) {
  const ReliabilityReport& report = quick_report();
  EXPECT_EQ(report.conservation_violations, 0u);
  EXPECT_TRUE(report.thread_invariant);
  EXPECT_TRUE(report.passed());
  ASSERT_GE(report.points.size(), 4u);
  // Both topology families are covered.
  std::set<std::string> scenarios;
  for (const ReliabilityPoint& p : report.points) scenarios.insert(p.scenario);
  EXPECT_GE(scenarios.size(), 2u);
}

TEST(ReliabilityGate, PristinePointsAreFullyReachable) {
  bool saw_pristine = false;
  for (const ReliabilityPoint& p : quick_report().points) {
    if (p.failed_routers != 0) continue;
    saw_pristine = true;
    EXPECT_EQ(p.unreachable_pairs, 0u) << p.scenario;
    EXPECT_EQ(p.reachable_pair_fraction, 1.0) << p.scenario;
    EXPECT_EQ(p.unreachable_fraction, 0.0) << p.scenario;
    // Pristine points are the baseline; they carry no ratio.
    EXPECT_TRUE(std::isnan(p.latency_ratio)) << p.scenario;
    EXPECT_TRUE(std::isnan(p.throughput_ratio)) << p.scenario;
  }
  EXPECT_TRUE(saw_pristine);
}

TEST(ReliabilityGate, FaultyPointsActuallyDegrade) {
  bool saw_faulty = false;
  for (const ReliabilityPoint& p : quick_report().points) {
    if (p.failed_routers == 0) continue;
    saw_faulty = true;
    EXPECT_GT(p.unreachable_pairs, 0u) << p.scenario;
    EXPECT_LT(p.reachable_pair_fraction, 1.0) << p.scenario;
    EXPECT_GT(p.unreachable_fraction, 0.0) << p.scenario;
    // Survivable throughput is real but below the pristine baseline's
    // generated load (some offered traffic was unreachable).
    EXPECT_GT(p.delivered_load, 0.0) << p.scenario;
    if (!p.saturated && !std::isnan(p.throughput_ratio)) {
      EXPECT_GT(p.throughput_ratio, 0.0) << p.scenario;
      EXPECT_LE(p.throughput_ratio, 1.0) << p.scenario;
    }
  }
  EXPECT_TRUE(saw_faulty);
}

TEST(ReliabilityGate, FaultySpecDerivationIsDeterministic) {
  // The faulty spec for failure count f is a pure function of the case:
  // rate = f/N so the resolved set has exactly f routers, and the key is
  // distinct per f (memoization and replication seeds separate cleanly).
  const auto suite = reliability_quick_suite();
  ASSERT_FALSE(suite.empty());
  const ReliabilityCase& c = suite.front();
  const core::ScenarioSpec pristine = faulty_spec(c, 0);
  EXPECT_TRUE(pristine.failures.empty());
  EXPECT_EQ(pristine.key(), c.spec.key());

  const core::ScenarioSpec f2 = faulty_spec(c, 2);
  EXPECT_FALSE(f2.failures.empty());
  EXPECT_EQ(f2.failures.random_seed, c.failure_seed);
  EXPECT_NE(f2.key(), pristine.key());
  EXPECT_EQ(f2.key(), faulty_spec(c, 2).key());
  EXPECT_NO_THROW(f2.validate());
}

TEST(ReliabilityGate, JsonReportIsDeterministicAndSchemaTagged) {
  const ReliabilityReport& report = quick_report();
  const std::string a = to_json(report);
  EXPECT_EQ(a, to_json(report));
  EXPECT_NE(a.find("\"schema\": \"kncube-reliability-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"points\""), std::string::npos);
  EXPECT_NE(a.find("\"thread_invariant\": true"), std::string::npos);
  // No timestamps: the baseline diff in CI must be structural.
  EXPECT_EQ(a.find("date"), std::string::npos);
  EXPECT_EQ(a.find("time"), std::string::npos);
}

}  // namespace
}  // namespace kncube::validate
