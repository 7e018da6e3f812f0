#include "validate/replication.hpp"

#include <stdexcept>
#include <utility>

namespace kncube::validate {

ReplicationRunner::ReplicationRunner(core::ScenarioSpec spec, int replications,
                                     util::ThreadPool* pool)
    : spec_(std::move(spec)), replications_(replications), pool_(pool) {
  spec_.validate();
  spec_key_ = spec_.key();
  if (replications_ < 1) {
    throw std::invalid_argument("ReplicationRunner: need at least 1 replication");
  }
}

std::uint64_t ReplicationRunner::replication_seed(int r) const noexcept {
  return sim::replication_seed(spec_key_, spec_.seed,
                               static_cast<std::uint64_t>(r));
}

ReplicationPoint ReplicationRunner::aggregate(
    double lambda, std::vector<sim::SimResult> results) const {
  ReplicationPoint pt;
  pt.lambda = lambda;
  pt.replications = replications_;
  // Sequential fold in replication order: the aggregates must not depend on
  // the completion order of the parallel phase.
  std::vector<double> latency, network, throughput;
  latency.reserve(results.size());
  network.reserve(results.size());
  throughput.reserve(results.size());
  for (const sim::SimResult& r : results) {
    latency.push_back(r.mean_latency);
    network.push_back(r.mean_network_latency);
    throughput.push_back(r.accepted_load);
    if (r.saturated) ++pt.saturated_replications;
    if (r.steady) ++pt.steady_replications;
  }
  pt.latency = util::student_t_ci(latency, kConfidence);
  pt.network_latency = util::student_t_ci(network, kConfidence);
  pt.throughput = util::student_t_ci(throughput, kConfidence);
  pt.results = std::move(results);
  return pt;
}

ReplicationPoint ReplicationRunner::run(double lambda) const {
  return run(std::vector<double>{lambda}).front();
}

std::vector<ReplicationPoint> ReplicationRunner::run(
    const std::vector<double>& lambdas) const {
  const auto reps = static_cast<std::size_t>(replications_);
  // Flat (point, replication) grid: slot p * R + r belongs to replication r
  // of point p, so every task writes its own pre-allocated slot.
  std::vector<sim::SimResult> grid(lambdas.size() * reps);
  const auto body = [&](std::size_t task) {
    const std::size_t p = task / reps;
    const auto r = static_cast<int>(task % reps);
    sim::SimConfig cfg = core::to_sim_config(spec_, lambdas[p]);
    cfg.seed = replication_seed(r);
    grid[task] = sim::simulate(cfg);
  };
  if (pool_) {
    pool_->parallel_for(grid.size(), body);
  } else {
    util::parallel_for(grid.size(), body);
  }

  std::vector<ReplicationPoint> points;
  points.reserve(lambdas.size());
  for (std::size_t p = 0; p < lambdas.size(); ++p) {
    points.push_back(aggregate(
        lambdas[p],
        std::vector<sim::SimResult>(grid.begin() + static_cast<std::ptrdiff_t>(p * reps),
                                    grid.begin() + static_cast<std::ptrdiff_t>((p + 1) * reps))));
  }
  return points;
}

}  // namespace kncube::validate
