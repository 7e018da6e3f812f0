// sweep-hotspot16: the paper's validation scenario (16x16 torus, h = 0.2,
// Lm = 32, V = 2) swept the way `kncube_run examples/specs/hotspot_torus.spec`
// sweeps it — saturation bisection, then 8 model+sim points from 0.1 to 0.95
// of saturation through SweepEngine::run on the global pool, each sweep with
// a fresh in-memory store. The simulator's measurement is shorter than the
// example's (warm-up 5000 cycles, 500 measured messages), so one run holds
// dozens of sweeps and its median is not set by a few slow seconds of host.
#include <algorithm>
#include <memory>

#include "core/kncube.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = kncube::core;

namespace {

/// The scenario of examples/specs/hotspot_torus.spec with a shorter
/// measurement, kept here so the benchmark's input does not change when the
/// example does.
constexpr const char* kPaperSpec = R"(topology.kind=torus
topology.k=16
topology.n=2
topology.bidirectional=false
traffic.kind=hotspot
traffic.hot_fraction=0.2
traffic.hot_node=-1
arrivals.kind=bernoulli
router.vcs=2
router.buffer_depth=2
workload.message_length=32
measure.warmup_cycles=5000
measure.target_messages=500
measure.max_cycles=1500000
)";
constexpr int kPoints = 8;
constexpr int kSetupReps = 15;
constexpr int kMinSweeps = 3;

core::ScenarioSpec paper_spec(std::uint64_t sim_seed) {
  core::ScenarioSpec spec = core::parse_scenario(kPaperSpec);
  core::apply_scenario_setting(spec, "measure.seed", std::to_string(sim_seed));
  core::apply_scenario_setting(spec, "sim.threads", "1");
  spec.validate();
  return spec;
}

/// Simulator seed of sweep `index`: each repeated sweep of a run simulates
/// a different seed, so the run's median is not hostage to one seed's knee.
std::uint64_t sweep_seed(std::uint64_t seed, std::uint64_t index) {
  return mix(seed, index) >> 16;
}

struct Sweep {
  double wall_s = 0.0;
  double saturation_s = 0.0;
  core::SaturationResult sat;
  std::vector<core::PointResult> points;
  std::uint64_t run_span = 0;
};

Sweep sweep_once(core::SweepEngine& engine, std::uint64_t request) {
  Tracer& tracer = Tracer::get();
  Sweep s;
  const auto t0 = Clock::now();
  {
    ScopedSpan span("SweepEngine::saturation_rate", "core", 0, request);
    tracer.set_context({span.id(), request});
    s.sat = engine.saturation_rate();
  }
  s.saturation_s = seconds_since(t0);
  if (!s.sat.failed) {
    std::vector<double> lambdas;
    {
      ScopedSpan span("SweepEngine::lambda_sweep", "core", 0, request);
      tracer.set_context({span.id(), request});
      lambdas = engine.lambda_sweep(kPoints, 0.1, 0.95);
    }
    ScopedSpan span("SweepEngine::run", "core", 0, request);
    tracer.set_context({span.id(), request});
    s.run_span = span.id();
    s.points = engine.run(lambdas, true);
  }
  s.wall_s = seconds_since(t0);
  tracer.set_context({});
  return s;
}

/// Every point below saturation must converge in the model and conserve
/// flits in the simulator.
void check_sweep(const Sweep& s, Tally& tally) {
  tally.attempted += kPoints;
  if (s.sat.failed) {
    tally.fail("sweep-hotspot16: saturation search failed", kPoints);
    return;
  }
  if (s.points.size() != kPoints) {
    tally.fail("sweep-hotspot16: wrong point count", kPoints);
    return;
  }
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const core::PointResult& p = s.points[i];
    const std::string where = "sweep-hotspot16 point " + std::to_string(i) + ": ";
    if (!p.has_sim || !p.sim.conservation_ok) {
      tally.fail(where + "simulator conservation check failed");
    } else if (!p.has_model || p.model.saturated || !p.model.converged) {
      tally.fail(where + "model did not converge below saturation");
    }
  }
}

double router_cycles(const Sweep& s, std::uint64_t nodes) {
  double total = 0.0;
  for (const auto& p : s.points) total += static_cast<double>(p.sim.cycles * nodes);
  return total;
}

}  // namespace

WorkloadResult run_sweep(const RunOptions& opt) {
  WorkloadResult out;
  std::vector<double> setup_s, sweep_s, saturation_ms, rate;
  {
    // Warm-up: one checked, untimed sweep (page faults, pool threads).
    core::SweepEngine engine(paper_spec(sweep_seed(opt.seed, 0)));
    check_sweep(sweep_once(engine, 0), out.tally);
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 1;
       i <= kMinSweeps || seconds_since(start) < opt.seconds; ++i) {
    // Set-up: spec parse, validation and engine construction (registry
    // dispatch). Each sweep's set-up is repeated kSetupReps times, so the
    // run's median samples the host across the whole run.
    std::unique_ptr<core::SweepEngine> engine;
    for (int r = 0; r < kSetupReps; ++r) {
      engine.reset();
      const auto t0 = Clock::now();
      const core::ScenarioSpec spec = paper_spec(sweep_seed(opt.seed, i));
      engine = std::make_unique<core::SweepEngine>(spec);
      setup_s.push_back(seconds_since(t0));
    }
    const core::ScenarioSpec& spec = engine->spec();
    const Sweep s = sweep_once(*engine, i + 1);
    check_sweep(s, out.tally);
    sweep_s.push_back(s.wall_s);
    saturation_ms.push_back(1e3 * s.saturation_s);
    rate.push_back(router_cycles(s, spec.node_count()) / s.wall_s);
  }

  out.metrics["setup_s"] = {median(setup_s), "s"};
  out.metrics["p50_ms"] = {1e3 * median(sweep_s), "ms"};
  out.metrics["rate_per_s"] = {median(rate), "1/s"};
  out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.lines.push_back(report_line("setup_s", median(setup_s), "s", setup_s.size()));
  out.lines.push_back(report_line("sweep_s", median(sweep_s), "s", sweep_s.size()));
  out.lines.push_back(report_line("saturation_ms", median(saturation_ms), "ms",
                                  saturation_ms.size()));
  out.lines.push_back(report_line("sim_router_cycles_per_s", median(rate), "1/s",
                                  rate.size()));
  return out;
}

SliceResult slice_sweep(const RunOptions& opt, bool traced) {
  SliceResult out;
  Tracer& tracer = Tracer::get();
  const core::ScenarioSpec spec = paper_spec(sweep_seed(opt.seed, 0));
  auto timed = std::make_shared<TimedStore>(std::make_shared<core::MemoryResultStore>());
  core::SweepEngine engine(spec, traced ? timed : nullptr);

  const std::size_t mark = tracer.size();
  tracer.set_enabled(traced);
  const Sweep s = sweep_once(engine, 1);
  tracer.set_enabled(false);
  check_sweep(s, out.tally);
  out.unit_wall_s = s.wall_s;
  if (!traced || s.points.size() != kPoints) return out;

  const std::vector<Span> spans = tracer.since(mark);
  const auto self = self_ms_by_layer(spans);
  for (const char* layer : {"core", "model", "sim"}) {
    const auto it = self.find(layer);
    out.metrics[std::string("self_ms.sweep.") + layer] = {
        it == self.end() ? 0.0 : it->second, "ms"};
  }

  // Lane utilisation of SweepEngine::run: point work (solves and
  // simulations issued under it) over wall x lanes.
  const double lanes = static_cast<double>(kncube::util::global_pool().size() + 1);
  double run_ns = 0.0, busy_ns = 0.0;
  for (const Span& sp : spans) {
    if (sp.id == s.run_span) run_ns = static_cast<double>(sp.end_ns - sp.start_ns);
    if (sp.parent == s.run_span &&
        (std::string(sp.layer) == "sim" || std::string(sp.layer) == "model")) {
      busy_ns += static_cast<double>(sp.end_ns - sp.start_ns);
    }
  }
  out.metrics["util.lane_utilization"] = {busy_ns / (run_ns * lanes), "ratio"};

  const TimedStore::Counters c = timed->counters();
  const std::uint64_t nodes = spec.node_count();
  double slowest = 0.0;
  std::uint64_t messages = 0;
  for (const auto& run : c.sims) {
    slowest = std::max(slowest, 1e-9 * static_cast<double>(run.ns));
    messages += run.result.measured_messages;
  }
  out.metrics["sim.slowest_point_s"] = {slowest, "s"};
  const auto ns_per_rc = [&](double lambda) {
    for (const auto& run : c.sims) {
      if (run.lambda == lambda) {
        return static_cast<double>(run.ns) /
               static_cast<double>(run.result.cycles * nodes);
      }
    }
    return 0.0;
  };
  out.metrics["sim.ns_per_router_cycle.light"] = {ns_per_rc(s.points.front().lambda), "ns"};
  out.metrics["sim.ns_per_router_cycle.knee"] = {ns_per_rc(s.points.back().lambda), "ns"};
  add_exact(out, "sim.router_cycles.sweep",
            static_cast<std::uint64_t>(router_cycles(s, nodes)), "count");
  add_exact(out, "sim.measured_messages.sweep", messages, "count");
  return out;
}

}  // namespace perfbench
