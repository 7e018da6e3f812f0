#include "sim/metrics.hpp"

#include "util/assert.hpp"

namespace kncube::sim {

Metrics::Metrics(double latency_hist_max)
    : latency_hist_(0.0, latency_hist_max, 2048),
      batches_(kSteadyBatch, kSteadyRelTol) {}

void Metrics::begin_measurement(std::uint64_t cycle) {
  KNC_ASSERT_MSG(!measuring(), "measurement window started twice");
  measure_start_ = cycle;
}

void Metrics::on_generated(std::uint64_t gen_cycle) {
  ++generated_total_;
  if (measuring() && gen_cycle >= measure_start_) ++generated_measured_;
}

void Metrics::on_unreachable(std::uint64_t gen_cycle) {
  ++unreachable_total_;
  if (measuring() && gen_cycle >= measure_start_) ++unreachable_measured_;
}

void Metrics::on_injected(MessageId msg, std::uint64_t gen_cycle, std::uint64_t cycle) {
  ++injected_total_;
  if (!measuring() || gen_cycle < measure_start_) return;
  source_wait_.add(static_cast<double>(cycle - gen_cycle));
  inject_cycle_.emplace(msg, cycle);
}

void Metrics::apply_ejects(const StepDelta& delta, std::uint64_t cycle) {
  flits_delivered_ += delta.flits_delivered;
  for (const StepDelta::DeliveredEvent& e : delta.delivered) {
    on_delivered(e.msg, e.gen_cycle, cycle, e.dest);
  }
}

void Metrics::apply_injects(const StepDelta& delta, std::uint64_t cycle) {
  for (const StepDelta::InjectedEvent& e : delta.injected) {
    on_injected(e.msg, e.gen_cycle, cycle);
  }
}

void Metrics::on_delivered(MessageId msg, std::uint64_t gen_cycle, std::uint64_t cycle,
                           topo::NodeId dest) {
  ++delivered_total_;
  if (!measuring() || gen_cycle < measure_start_) return;
  ++delivered_measured_;
  const auto total = static_cast<double>(cycle - gen_cycle);
  latency_.add(total);
  if (hot_node_ >= 0) {
    (static_cast<std::int64_t>(dest) == hot_node_ ? latency_hot_ : latency_regular_)
        .add(total);
  }
  latency_hist_.add(total);
  batches_.add(total);
  const auto it = inject_cycle_.find(msg);
  KNC_ASSERT_MSG(it != inject_cycle_.end(), "delivered before injected");
  net_latency_.add(static_cast<double>(cycle - it->second));
  inject_cycle_.erase(it);
}

}  // namespace kncube::sim
