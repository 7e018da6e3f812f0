#include "sim/metrics.hpp"

#include <gtest/gtest.h>

namespace kncube::sim {
namespace {

Metrics make_metrics() { return Metrics(1000.0); }

TEST(Metrics, CountsGeneratedAndBacklog) {
  Metrics m = make_metrics();
  m.on_generated(0);
  m.on_generated(1);
  EXPECT_EQ(m.generated_total(), 2u);
  EXPECT_EQ(m.source_backlog(), 2u);
  m.on_injected(1, 0, 3);
  EXPECT_EQ(m.source_backlog(), 1u);
}

TEST(Metrics, PreMeasurementTrafficIsNotMeasured) {
  Metrics m = make_metrics();
  m.on_generated(5);
  m.on_injected(1, 5, 6);
  m.on_delivered(1, 5, 40, 0);
  EXPECT_EQ(m.delivered_total(), 1u);
  EXPECT_EQ(m.delivered_measured(), 0u);
  EXPECT_TRUE(m.latency().empty());
  EXPECT_TRUE(m.source_wait().empty());
}

TEST(Metrics, WarmupMessagesExcludedAfterMeasurementStarts) {
  Metrics m = make_metrics();
  m.on_generated(50);   // generated before measurement start
  m.begin_measurement(100);
  m.on_injected(1, 50, 120);
  m.on_delivered(1, 50, 150, 0);  // delivered inside the window, born before
  EXPECT_EQ(m.delivered_measured(), 0u);
  EXPECT_TRUE(m.latency().empty());
}

TEST(Metrics, MeasuredMessageLatencies) {
  Metrics m = make_metrics();
  m.begin_measurement(100);
  m.on_generated(110);
  m.on_injected(7, 110, 115);
  m.on_delivered(7, 110, 160, 3);
  EXPECT_EQ(m.delivered_measured(), 1u);
  EXPECT_DOUBLE_EQ(m.latency().mean(), 50.0);        // 160 - 110
  EXPECT_DOUBLE_EQ(m.source_wait().mean(), 5.0);     // 115 - 110
  EXPECT_DOUBLE_EQ(m.network_latency().mean(), 45.0);  // 160 - 115
}

TEST(Metrics, PerClassLatenciesRequireHotNode) {
  Metrics m = make_metrics();
  m.begin_measurement(0);
  m.on_generated(1);
  m.on_injected(1, 1, 2);
  m.on_delivered(1, 1, 10, 4);
  EXPECT_TRUE(m.latency_hot().empty());
  EXPECT_TRUE(m.latency_regular().empty());

  Metrics h = make_metrics();
  h.set_hot_node(4);
  h.begin_measurement(0);
  h.on_generated(1);
  h.on_injected(1, 1, 2);
  h.on_delivered(1, 1, 10, 4);
  h.on_generated(2);
  h.on_injected(2, 2, 3);
  h.on_delivered(2, 2, 30, 9);
  EXPECT_DOUBLE_EQ(h.latency_hot().mean(), 9.0);
  EXPECT_DOUBLE_EQ(h.latency_regular().mean(), 28.0);
}

TEST(Metrics, FlitCounter) {
  Metrics m = make_metrics();
  for (int i = 0; i < 5; ++i) m.on_flit_delivered();
  EXPECT_EQ(m.flits_delivered(), 5u);
}

TEST(Metrics, SteadyStateNeedsEnoughBatches) {
  Metrics m = make_metrics();
  constexpr std::uint64_t kBatch = Metrics::kSteadyBatch;
  m.begin_measurement(0);
  for (std::uint64_t i = 0; i < 3 * kBatch; ++i) {
    m.on_injected(i, 1, 2);
    m.on_delivered(i, 1, 43, 0);
  }
  EXPECT_FALSE(m.steady());  // 3 batches < 2 windows of 3
  for (std::uint64_t i = 3 * kBatch; i < 9 * kBatch; ++i) {
    m.on_injected(i, 1, 2);
    m.on_delivered(i, 1, 43, 0);
  }
  EXPECT_TRUE(m.steady());  // constant stream converges
}

TEST(MetricsDeathTest, DeliveredBeforeInjectedAsserts) {
  Metrics m = make_metrics();
  m.begin_measurement(0);
  m.on_generated(1);
  EXPECT_DEATH(m.on_delivered(99, 1, 10, 0), "delivered before injected");
}

TEST(MetricsDeathTest, DoubleMeasurementStartAsserts) {
  Metrics m = make_metrics();
  m.begin_measurement(5);
  EXPECT_DEATH(m.begin_measurement(6), "twice");
}

}  // namespace
}  // namespace kncube::sim
