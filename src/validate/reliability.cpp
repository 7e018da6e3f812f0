#include "validate/reliability.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/model_registry.hpp"
#include "validate/accuracy_json.hpp"
#include "validate/replication.hpp"

namespace kncube::validate {

namespace {

/// sim.threads values the thread-invariance gate compares.
constexpr int kInvarianceThreads[] = {1, 2, 4};

}  // namespace

core::ScenarioSpec faulty_spec(const ReliabilityCase& c, int f) {
  core::ScenarioSpec spec = c.spec;
  if (f > 0) {
    // The random mode fails round(rate * N) routers; rate = f/N reproduces
    // the requested count exactly while keeping the failure *placement* a
    // seed-derived function of the spec text (so the point is reproducible
    // from RELIABILITY.json alone).
    spec.failures.random_rate =
        static_cast<double>(f) / static_cast<double>(spec.node_count());
    spec.failures.random_seed = c.failure_seed;
  }
  return spec;
}

ReliabilityReport run_reliability(const std::vector<ReliabilityCase>& cases,
                                  int replications) {
  ReliabilityReport report;
  report.replications = replications;

  for (const ReliabilityCase& c : cases) {
    std::vector<ReliabilityPoint> case_points;

    for (const int f : c.failure_counts) {
      const core::ScenarioSpec spec = faulty_spec(c, f);
      const ReplicationRunner runner(spec, replications);
      std::vector<double> lambdas;
      lambdas.reserve(c.lambda_fracs.size());
      for (const double frac : c.lambda_fracs) {
        lambdas.push_back(frac * c.base_rate);
      }
      const std::vector<ReplicationPoint> measured = runner.run(lambdas);

      for (std::size_t i = 0; i < measured.size(); ++i) {
        const ReplicationPoint& m = measured[i];
        ReliabilityPoint p;
        p.scenario = c.name;
        p.failed_routers = f;
        p.failure_seed = f > 0 ? c.failure_seed : 0;
        p.lambda = m.lambda;
        p.lambda_frac = c.lambda_fracs[i];
        if (!m.results.empty()) {
          // Static fault-set properties: identical in every replication.
          p.unreachable_pairs = m.results.front().unreachable_pairs;
          p.reachable_pair_fraction = m.results.front().reachable_pair_fraction;
        }
        p.replications = m.replications;
        p.latency = m.latency;
        p.offered_load =
            m.mean_of([](const sim::SimResult& r) { return r.generated_load; });
        p.delivered_load = m.throughput.mean;
        p.unreachable_fraction = m.mean_of(
            [](const sim::SimResult& r) { return r.unreachable_fraction; });
        p.saturated = m.saturated();
        for (const sim::SimResult& r : m.results) {
          if (!r.conservation_ok) ++p.conservation_violations;
        }
        report.conservation_violations += p.conservation_violations;
        case_points.push_back(std::move(p));
      }
    }

    // Degradation ratios vs the pristine (f = 0) point at the same load
    // fraction; left NaN when either side saturated (a saturated mean is a
    // truncation artefact, not a latency).
    for (ReliabilityPoint& p : case_points) {
      if (p.failed_routers == 0) continue;
      for (const ReliabilityPoint& base : case_points) {
        if (base.failed_routers != 0 || base.lambda_frac != p.lambda_frac)
          continue;
        if (base.delivered_load > 0.0) {
          p.throughput_ratio = p.delivered_load / base.delivered_load;
        }
        if (!p.saturated && !base.saturated && base.latency.mean > 0.0) {
          p.latency_ratio = p.latency.mean / base.latency.mean;
        }
        break;
      }
    }

    // Thread invariance: the most-degraded config at the lowest load, one
    // replication per thread count, all bit-identical (sim.threads is
    // excluded from key(), so every run shares the replication-0 seed).
    if (!c.failure_counts.empty() && !c.lambda_fracs.empty()) {
      int worst = 0;
      for (const int f : c.failure_counts) worst = std::max(worst, f);
      core::ScenarioSpec spec = faulty_spec(c, worst);
      const double lambda = c.lambda_fracs.front() * c.base_rate;
      sim::SimConfig base_cfg = core::to_sim_config(spec, lambda);
      base_cfg.seed = sim::replication_seed(spec.key(), spec.seed, 0);
      std::vector<sim::SimResultWords> runs;
      for (const int t : kInvarianceThreads) {
        sim::SimConfig cfg = base_cfg;
        cfg.sim_threads = t;
        runs.push_back(sim::result_words(sim::simulate(cfg)));
      }
      for (const sim::SimResultWords& words : runs) {
        if (words != runs.front()) report.thread_invariant = false;
      }
    }

    for (ReliabilityPoint& p : case_points) {
      report.points.push_back(std::move(p));
    }
  }

  return report;
}

std::vector<ReliabilityCase> reliability_suite() {
  std::vector<ReliabilityCase> suite;

  // --- hot-spot torus (the paper's substrate) under router failures ---
  {
    ReliabilityCase c;
    c.name = "faulty-hotspot-torus-k8";
    c.spec.torus().k = 8;
    c.spec.hotspot().fraction = 0.2;
    c.spec.message_length = 16;
    c.spec.target_messages = 2000;
    c.spec.warmup_cycles = 5000;
    c.spec.max_cycles = 800'000;
    c.failure_counts = {0, 1, 2, 4};
    c.failure_seed = 7;
    c.lambda_fracs = {0.3, 0.6};
    c.base_rate =
        core::make_analytical_model(c.spec).model->estimated_saturation_rate();
    suite.push_back(std::move(c));
  }

  // --- uniform mesh (position-dependent load; edge failures matter
  // differently from centre failures) ---
  {
    ReliabilityCase c;
    c.name = "faulty-uniform-mesh-k8-n2";
    c.spec.topology = core::MeshTopology{8, 2};
    c.spec.traffic = core::UniformTraffic{};
    c.spec.message_length = 16;
    c.spec.target_messages = 2000;
    c.spec.warmup_cycles = 5000;
    c.spec.max_cycles = 800'000;
    c.failure_counts = {0, 1, 2, 4};
    c.failure_seed = 7;
    c.lambda_fracs = {0.3, 0.6};
    c.base_rate =
        core::make_analytical_model(c.spec).model->estimated_saturation_rate();
    suite.push_back(std::move(c));
  }

  return suite;
}

std::vector<ReliabilityCase> reliability_quick_suite() {
  std::vector<ReliabilityCase> suite = reliability_suite();
  for (ReliabilityCase& c : suite) {
    // Tier-1 sizing: pristine + one degraded config, one load point, reduced
    // measurement effort per replication.
    c.failure_counts = {0, 2};
    c.lambda_fracs = {0.3};
    c.spec.target_messages = 700;
    c.spec.warmup_cycles = 3000;
    c.spec.max_cycles = 300'000;
  }
  return suite;
}

std::string to_json(const ReliabilityReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"kncube-reliability-v1\",\n";
  out << "  \"config\": {\n";
  out << "    \"replications\": " << report.replications << ",\n";
  out << "    \"confidence\": " << json_number(kConfidence) << "\n";
  out << "  },\n";
  out << "  \"summary\": {\n";
  out << "    \"points\": " << report.points.size() << ",\n";
  out << "    \"conservation_violations\": " << report.conservation_violations
      << ",\n";
  out << "    \"thread_invariant\": "
      << (report.thread_invariant ? "true" : "false") << ",\n";
  out << "    \"passed\": " << (report.passed() ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const ReliabilityPoint& p = report.points[i];
    out << "    {\"scenario\": " << json_string(p.scenario)
        << ", \"failed_routers\": " << p.failed_routers
        << ", \"failure_seed\": " << p.failure_seed
        << ", \"lambda\": " << json_number(p.lambda)
        << ", \"lambda_frac\": " << json_number(p.lambda_frac)
        << ", \"unreachable_pairs\": " << p.unreachable_pairs
        << ", \"reachable_pair_fraction\": "
        << json_number(p.reachable_pair_fraction)
        << ", \"latency_mean\": " << json_number(p.latency.mean)
        << ", \"latency_ci_half_width\": " << json_number(p.latency.half_width)
        << ", \"offered_load\": " << json_number(p.offered_load)
        << ", \"delivered_load\": " << json_number(p.delivered_load)
        << ", \"unreachable_fraction\": " << json_number(p.unreachable_fraction)
        << ", \"latency_ratio\": " << json_number(p.latency_ratio)
        << ", \"throughput_ratio\": " << json_number(p.throughput_ratio)
        << ", \"saturated\": " << (p.saturated ? "true" : "false")
        << ", \"conservation_violations\": " << p.conservation_violations
        << "}" << (i + 1 < report.points.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

util::Table reliability_table(const ReliabilityReport& report) {
  util::Table table({"scenario", "failed", "frac", "lambda", "reach", "latency",
                     "ci±", "delivered", "unreach", "lat×", "thr×", "sat"});
  table.set_title("reliability degradation under router failures");
  const auto opt = [](double v) -> util::Cell {
    if (std::isnan(v)) return std::string("-");
    return v;
  };
  for (const ReliabilityPoint& p : report.points) {
    table.add_row({p.scenario, static_cast<long long>(p.failed_routers),
                   p.lambda_frac, p.lambda, p.reachable_pair_fraction,
                   opt(p.latency.mean), opt(p.latency.half_width),
                   p.delivered_load, p.unreachable_fraction,
                   opt(p.latency_ratio), opt(p.throughput_ratio),
                   std::string(p.saturated ? "yes" : "no")});
  }
  return table;
}

std::string summary_line(const ReliabilityReport& report) {
  std::ostringstream out;
  out << report.points.size() << " points, "
      << report.conservation_violations << " conservation violations, "
      << "thread-invariant: " << (report.thread_invariant ? "yes" : "no")
      << " -> " << (report.passed() ? "PASS" : "FAIL");
  return out.str();
}

}  // namespace kncube::validate
