// sim-uniform64-sharded: one 64x64 uniform-traffic torus (4096 routers) at a
// fixed load below the knee, stepped by the sharded phase/barrier engine with
// sim.threads = every logical processor. No model, no store, no pool.
#include <algorithm>
#include <bit>
#include <memory>

#include "core/kncube.hpp"
#include "sim/arrival_batch.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = kncube::core;
namespace sim = kncube::sim;

namespace {

constexpr int kRadix = 64;
constexpr int kMessageLength = 32;
/// Offered load as a share of the unidirectional torus channel capacity
/// 2 / (Lm (k - 1)) messages/node/cycle. The model saturates this network at
/// about 0.27 of that capacity; 0.18 keeps every router busy yet stays below
/// the knee.
constexpr double kLoad = 0.18;
constexpr std::uint64_t kWarmup = 3000;
constexpr std::uint64_t kWindow = 256;
constexpr int kSegments = 4;
constexpr int kSetupReps = 15;
constexpr int kMinWindows = 5;
constexpr std::uint64_t kSliceWarmup = 2000;
constexpr int kSliceWindows = 40;
constexpr int kArrivalCycles = 2000;

sim::SimConfig uniform_config(std::uint64_t seed, unsigned threads) {
  core::ScenarioSpec spec = core::parse_scenario(
      "topology.kind=torus\n"
      "topology.k=" + std::to_string(kRadix) + "\n"
      "topology.n=2\n"
      "topology.bidirectional=false\n"
      "traffic.kind=uniform\n"
      "arrivals.kind=bernoulli\n"
      "router.vcs=2\n"
      "router.buffer_depth=2\n"
      "workload.message_length=" + std::to_string(kMessageLength) + "\n");
  core::apply_scenario_setting(spec, "measure.seed", std::to_string(seed));
  core::apply_scenario_setting(spec, "sim.threads", std::to_string(threads));
  spec.validate();
  const double rate = kLoad * 2.0 / (kMessageLength * (kRadix - 1.0));
  return core::to_sim_config(spec, rate);
}

double router_count() { return static_cast<double>(kRadix) * kRadix; }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Finalized results agree bit for bit on every aggregate the run reports.
bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  return a.cycles == b.cycles && a.measured_messages == b.measured_messages &&
         a.measured_cycles == b.measured_cycles &&
         same_bits(a.mean_latency, b.mean_latency) &&
         same_bits(a.p50_latency, b.p50_latency) &&
         same_bits(a.p99_latency, b.p99_latency) &&
         same_bits(a.generated_load, b.generated_load) &&
         same_bits(a.accepted_load, b.accepted_load) &&
         same_bits(a.mean_channel_utilization, b.mean_channel_utilization) &&
         same_bits(a.max_channel_utilization, b.max_channel_utilization) &&
         a.conservation_ok == b.conservation_ok && a.saturated == b.saturated;
}

/// One timed step window; returns its wall seconds and flits delivered.
struct Window {
  double seconds = 0.0;
  std::uint64_t flits = 0;
};

Window step_window(sim::Simulator& s, std::uint64_t cycles) {
  ScopedSpan span("Simulator::step_cycles", "sim", 0, 0);
  const std::uint64_t before = s.metrics().flits_delivered();
  const auto t0 = Clock::now();
  s.step_cycles(cycles);
  Window w;
  w.seconds = seconds_since(t0);
  w.flits = s.metrics().flits_delivered() - before;
  return w;
}

void check_window(sim::Simulator& s, const Window& w, Tally& tally) {
  ++tally.attempted;
  if (w.flits == 0) {
    tally.fail("sim-uniform64-sharded: a window delivered no flits");
  } else if (!s.finalize(0).conservation_ok) {
    tally.fail("sim-uniform64-sharded: conservation check failed");
  }
}

}  // namespace

WorkloadResult run_uniform(const RunOptions& opt) {
  WorkloadResult out;
  std::vector<double> setup_s, window_ms, rate;
  std::unique_ptr<sim::Simulator> s;
  const auto start = Clock::now();
  // The run is split into segments, each a fresh simulator with its own
  // traffic seed, so set-up samples and traffic realisations span the run.
  for (int seg = 0; seg < kSegments; ++seg) {
    const sim::SimConfig cfg = uniform_config(mix(opt.seed, seg), opt.lanes);
    // Set-up: Simulator construction including the shard thread team.
    for (int r = 0; r < kSetupReps; ++r) {
      s.reset();
      const auto t0 = Clock::now();
      s = std::make_unique<sim::Simulator>(cfg);
      setup_s.push_back(seconds_since(t0));
    }
    s->step_cycles(kWarmup);
    const double deadline = opt.seconds * (seg + 1) / kSegments;
    for (int n = 0; n < kMinWindows || seconds_since(start) < deadline; ++n) {
      const Window w = step_window(*s, kWindow);
      check_window(*s, w, out.tally);
      window_ms.push_back(1e3 * w.seconds);
      rate.push_back(static_cast<double>(kWindow) * router_count() / w.seconds);
    }
  }

  out.metrics["setup_s"] = {median(setup_s), "s"};
  out.metrics["p50_ms"] = {median(window_ms), "ms"};
  out.metrics["rate_per_s"] = {median(rate), "1/s"};
  out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.lines.push_back(report_line("setup_s", median(setup_s), "s", setup_s.size()));
  out.lines.push_back(report_line("router_cycles_per_s", median(rate), "1/s", rate.size()));
  out.lines.push_back(report_line("window_ms", median(window_ms), "ms", window_ms.size()));
  out.lines.push_back("shards=" + std::to_string(s->network().shard_count()) +
                      " (requested " +
                      std::to_string(s->network().requested_shard_count()) + ")");
  return out;
}

SliceResult slice_uniform(const RunOptions& opt, bool traced) {
  SliceResult out;
  Tracer& tracer = Tracer::get();
  const std::uint64_t seed = mix(opt.seed, 0);
  const sim::SimConfig cfg = uniform_config(seed, opt.lanes);

  const std::size_t mark = tracer.size();
  tracer.set_enabled(traced);
  std::vector<double> construct_ms;
  std::unique_ptr<sim::Simulator> sharded;
  for (int r = 0; r < 3; ++r) {
    sharded.reset();
    ScopedSpan span("Simulator::Simulator", "sim", 0, 0);
    const auto t0 = Clock::now();
    sharded = std::make_unique<sim::Simulator>(cfg);
    construct_ms.push_back(1e3 * seconds_since(t0));
  }
  step_window(*sharded, kSliceWarmup);
  std::vector<Window> windows;
  for (int i = 0; i < kSliceWindows; ++i) {
    windows.push_back(step_window(*sharded, kWindow));
    check_window(*sharded, windows.back(), out.tally);
    out.unit_wall_s += windows.back().seconds;
  }
  tracer.set_enabled(false);
  if (!traced) return out;
  const auto self = self_ms_by_layer(tracer.since(mark));

  // The same windows stepped serially must match bit for bit.
  sim::SimConfig serial_cfg = cfg;
  serial_cfg.sim_threads = 1;
  sim::Simulator serial(serial_cfg);
  serial.step_cycles(kSliceWarmup);
  std::vector<double> serial_s;
  for (int i = 0; i < kSliceWindows; ++i) {
    const Window w = step_window(serial, kWindow);
    serial_s.push_back(w.seconds);
    if (w.flits != windows[static_cast<std::size_t>(i)].flits) {
      out.tally.fail("sim-uniform64-sharded: sharded window " + std::to_string(i) +
                     " delivered a different flit count than serial");
    }
  }
  if (!same_result(serial.finalize(0), sharded->finalize(0))) {
    out.tally.fail("sim-uniform64-sharded: sharded SimResult differs from serial");
  }

  // The arrival kernel alone, on this workload's configuration.
  sim::ArrivalBatch arrivals(cfg, sharded->network().faults(), sharded->network().size());
  const auto a0 = Clock::now();
  for (int c = 0; c < kArrivalCycles; ++c) arrivals.generate();
  const double arrival_s = seconds_since(a0);

  std::vector<double> sharded_s;
  std::uint64_t flits = 0;
  for (const Window& w : windows) {
    sharded_s.push_back(w.seconds);
    flits += w.flits;
  }
  const double window_rc = static_cast<double>(kWindow) * router_count();
  out.metrics["self_ms.uniform64.sim"] = {self.count("sim") ? self.at("sim") : 0.0, "ms"};
  out.metrics["sim.construct_ms"] = {median(construct_ms), "ms"};
  out.metrics["sim.ns_per_router_cycle"] = {1e9 * median(sharded_s) / window_rc, "ns"};
  out.metrics["sim.ns_per_flit"] = {1e9 * out.unit_wall_s / static_cast<double>(flits), "ns"};
  out.metrics["sim.arrival_ns_per_node_cycle"] = {
      1e9 * arrival_s / (kArrivalCycles * router_count()), "ns"};
  out.metrics["sim.shard_speedup"] = {median(serial_s) / median(sharded_s), "ratio"};
  add_exact(out, "sim.shards", sharded->network().shard_count(), "count");
  add_exact(out, "sim.router_cycles.uniform64",
            (kSliceWarmup + kSliceWindows * kWindow) * kRadix * kRadix, "count");
  add_exact(out, "sim.flits_delivered.uniform64", sharded->metrics().flits_delivered(),
            "count");
  return out;
}

}  // namespace perfbench
