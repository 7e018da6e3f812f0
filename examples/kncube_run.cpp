// kncube_run: the generic ScenarioSpec driver — any workload the library
// can describe, from one spec file or the command line, with no per-figure
// hardcoding.
//
// Usage:
//   kncube_run [spec.txt] [--set key=value]...   # spec file plus overrides
//   kncube_run --set topology.k=32 --set traffic.hot_fraction=0.4
//   kncube_run --set topology.k=32 --set sim.threads=4   # sharded stepping,
//                                  # bit-identical results (DESIGN.md §9)
//   kncube_run spec.txt --print-spec             # echo the resolved spec
//   kncube_run --connect /tmp/kncube.sock spec.txt   # ask a kncube_serve
//                                  # daemon instead of computing locally;
//                                  # answers are bit-identical either way
//
// Sweep controls:
//   --points N      operating points (default 8; KNCUBE_QUICK=1 halves it)
//   --lo f --hi f   sweep range as fractions of the saturation rate
//                   (default 0.1 .. 0.95)
//   --max-rate r    absolute sweep ceiling in messages/node/cycle — required
//                   for sim-only specs (no model to anchor the sweep at)
//   --sim 0|1       run the simulator alongside the model (default 1)
//   --csv name      export the table via KNCUBE_OUT (see bench/common.hpp)
//   --verbose       print the cache-stats line (entries/hits/solves); in
//                   --connect mode the server's per-request stats line is
//                   always shown
//
// The spec grammar is the canonical `key=value` form of
// core/scenario_spec.hpp; see examples/specs/ for committed examples.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/kncube.hpp"
#include "service/client.hpp"
#include "util/cli.hpp"

namespace {

using namespace kncube;

bool quick_mode() {
  const char* env = std::getenv("KNCUBE_QUICK");
  return env && *env && std::string(env) != "0";
}

void print_table(const std::vector<core::PointResult>& pts,
                 const util::Args& args) {
  util::Table table = core::figure_table("kncube_run", pts);
  table.print(std::cout);
  const std::string csv_name = args.get_string("csv", "");
  if (!csv_name.empty()) {
    const std::string csv = core::export_csv(table, csv_name);
    if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  }

  // Summary table: the one-line roll-up CI smoke-checks for.
  std::vector<std::pair<std::string, core::PanelSummary>> summaries;
  summaries.emplace_back("kncube_run", core::summarize_panel(pts));
  std::cout << "\n";
  core::summary_table("summary", summaries).print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  const auto unknown =
      args.unknown_keys({"set", "points", "lo", "hi", "max-rate", "sim", "csv",
                         "print-spec", "connect", "verbose"});
  if (!unknown.empty()) {
    std::cerr << "kncube_run: unknown option --" << unknown.front() << "\n";
    return EXIT_FAILURE;
  }

  core::ScenarioSpec spec;
  int points = 0;
  double lo = 0.0, hi = 0.0, max_rate = 0.0;
  bool with_sim = true, verbose = false, print_spec = false;
  try {
    // Spec file first (positional), then --set overrides in order. util::Args
    // keeps only the last value per key, so collect repeated --set pairs from
    // the raw argv.
    if (!args.positional().empty()) {
      std::ifstream in(args.positional().front());
      if (!in) {
        std::cerr << "kncube_run: cannot open spec file '"
                  << args.positional().front() << "'\n";
        return EXIT_FAILURE;
      }
      std::ostringstream text;
      text << in.rdbuf();
      spec = core::parse_scenario(text.str());
    }
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) != "--set" || i + 1 >= argc) continue;
      const std::string kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::cerr << "kncube_run: --set expects key=value, got '" << kv << "'\n";
        return EXIT_FAILURE;
      }
      core::apply_scenario_setting(spec, kv.substr(0, eq), kv.substr(eq + 1));
    }
    if (quick_mode()) {
      spec.target_messages = std::min<std::uint64_t>(spec.target_messages, 800);
      spec.warmup_cycles = std::min<std::uint64_t>(spec.warmup_cycles, 6000);
      spec.max_cycles = std::min<std::uint64_t>(spec.max_cycles, 400'000);
    }
    spec.validate();
    points = static_cast<int>(args.get_int("points", quick_mode() ? 4 : 8));
    lo = args.get_double("lo", 0.1);
    hi = args.get_double("hi", 0.95);
    with_sim = args.get_bool("sim", true);
    max_rate = args.get_double("max-rate", 0.0);
    verbose = args.get_bool("verbose", false);
    print_spec = args.get_bool("print-spec", false);
  } catch (const std::exception& e) {
    std::cerr << "kncube_run: " << e.what() << "\n";
    return EXIT_FAILURE;
  }

  std::cout << "--- scenario (key " << std::hex << spec.key() << std::dec
            << ") ---\n"
            << core::format_scenario(spec) << "\n";
  if (print_spec) return EXIT_SUCCESS;

  if (points < 2 || !(lo > 0.0) || !(hi > lo)) {
    std::cerr << "kncube_run: need --points >= 2 and 0 < --lo < --hi\n";
    return EXIT_FAILURE;
  }

  // ------------------------------------------------------------- connect ---
  // Client mode: ship the spec to a kncube_serve daemon and print its
  // (bit-identical) answers; the daemon's store makes repeats instant.
  const std::string socket_path = args.get_string("connect", "");
  if (!socket_path.empty()) {
    try {
      service::Client client(socket_path);
      service::Request request;
      request.points = points;
      request.lo = lo;
      request.hi = hi;
      request.max_rate = max_rate;
      request.with_sim = with_sim;
      const service::Client::SweepOutcome outcome = client.run(spec, request);
      if (!outcome.begin.model_name.empty()) {
        std::cout << "analytical model: " << outcome.begin.model_name << "\n";
      } else {
        std::cout << "analytical model: none — " << outcome.begin.reason
                  << " (simulator only)\n";
      }
      if (outcome.has_sweep) {
        std::cout << "model saturation rate: " << outcome.sweep.saturation
                  << " messages/node/cycle (" << outcome.sweep.probes
                  << " probes)\n";
      }
      std::cout << "\n";
      print_table(outcome.points, args);
      std::cout << "\nserver stats: "
                << core::format_cache_stats(outcome.stats.stats) << "\n";
    } catch (const std::exception& e) {
      std::cerr << "kncube_run: " << e.what() << "\n";
      return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
  }

  // --------------------------------------------------------------- local ---
  // Model and simulator errors (e.g. a --hi that pushes a rate past 1) end
  // the run with a message, as in client mode.
  try {
    core::SweepEngine engine(spec);

    // Sweep anchor: the model's bisected saturation boundary when the
    // registry dispatched a model, else the explicit --max-rate ceiling.
    std::vector<double> lambdas;
    if (engine.has_model()) {
      std::cout << "analytical model: " << engine.analytical_model().name()
                << " (zero-load latency "
                << engine.analytical_model().zero_load_latency() << " cycles)\n";
      const core::SaturationResult sat = engine.saturation_rate();
      std::cout << "model saturation rate: " << sat.rate << " messages/node/cycle ("
                << sat.probes << " probes)\n\n";
      lambdas = core::sweep_rates(sat, points, lo, hi);
    } else {
      std::cout << "analytical model: none — " << engine.sim_only_reason()
                << " (simulator only)\n\n";
      if (max_rate <= 0.0) {
        std::cerr << "kncube_run: sim-only scenario needs --max-rate to anchor "
                     "the sweep\n";
        return EXIT_FAILURE;
      }
      lambdas = core::sweep_rates({max_rate}, points, lo, hi);
    }

    const auto pts = engine.run(lambdas, with_sim);
    print_table(pts, args);
    if (verbose) {
      std::cout << "\ncache stats: "
                << core::format_cache_stats(engine.cache_stats()) << "\n";
      // Surface the shard resolution: sim.threads is clamped so every shard
      // keeps enough routers, and a silent clamp reads as a perf mystery.
      for (const auto& p : pts) {
        if (!p.has_sim) continue;
        std::cout << "sim shards: " << p.sim.sim_shards << " ("
                  << p.sim.sim_shards_requested << " requested";
        if (p.sim.sim_shards < p.sim.sim_shards_requested) {
          std::cout << ", clamped by network size";
        }
        std::cout << ")\n";
        break;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "kncube_run: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
