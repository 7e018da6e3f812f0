// kncube_perfbench: runs one benchmark workload and prints its result.
//
//   kncube_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-dir <dir>]
//
// --trace 0 runs the workload's timed loop and reports the end-to-end
// metrics. --trace 1 runs the fixed-size slice of every workload twice, once
// untraced and once traced, reports the per-layer metrics, the tracing
// overhead and the exact counts, and writes the spans as JSON lines into
// --trace-dir. The last line of standard output is the JSON result object.
// perfbench/run.py builds this program and is the normal way to run it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

std::string report_line(const std::string& name, double value,
                        const std::string& unit, std::size_t samples) {
  std::ostringstream out;
  out << name << "=" << value << " " << unit << " (n=" << samples << ")";
  return out.str();
}

void add_exact(SliceResult& out, const std::string& name, std::uint64_t value,
               const std::string& unit) {
  out.metrics[name] = {static_cast<double>(value), unit};
  out.exact.push_back(name + "=" + std::to_string(value));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
         << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: kncube_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n";
    return 2;
  }
  using Loop = WorkloadResult (*)(const RunOptions&);
  Loop loop = nullptr;
  if (args.workload == "sweep-hotspot16") {
    loop = run_sweep;
  } else if (args.workload == "sim-uniform64-sharded") {
    loop = run_uniform;
  } else if (args.workload == "service-mixed") {
    loop = run_service;
  } else {
    std::cerr << "kncube_perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  RunOptions opt;
  opt.seed = args.seed;
  opt.seconds = args.seconds;
  opt.lanes = hardware_lanes();
  // Thread budget: util::ThreadPool::parallel_for also drains on the calling
  // thread, so lanes - 1 workers keep the pool at one compute thread per
  // logical processor. The sharded simulator takes every lane itself and
  // leaves the pool idle.
  const unsigned pool_workers = opt.lanes > 1 ? opt.lanes - 1 : 1;
  ::setenv("KNCUBE_THREADS", std::to_string(pool_workers).c_str(), 1);
  std::cout << "workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "threads: lanes=" << opt.lanes << " pool=" << pool_workers
            << "+caller (sweep-hotspot16, service-mixed: sim.threads=1)"
            << " sim-uniform64-sharded: sim.threads=" << opt.lanes << ", pool idle\n";

  Tally tally;
  Metrics metrics;
  const HostSample h0 = sample_host();
  try {
    if (!args.trace) {
      WorkloadResult r = loop(opt);
      tally = r.tally;
      metrics = r.metrics;
      for (const auto& line : r.lines) std::cout << line << "\n";
    } else {
      using Slice = SliceResult (*)(const RunOptions&, bool);
      const std::pair<const char*, Slice> slices[] = {
          {"sweep", slice_sweep}, {"uniform64", slice_uniform}, {"service", slice_service}};
      std::string exact;
      for (const auto& [tag, slice] : slices) {
        const SliceResult plain = slice(opt, false);
        const SliceResult traced = slice(opt, true);
        tally.merge(plain.tally);
        tally.merge(traced.tally);
        metrics.insert(traced.metrics.begin(), traced.metrics.end());
        metrics[std::string("trace.overhead_pct.") + tag] = {
            100.0 * (traced.unit_wall_s - plain.unit_wall_s) / plain.unit_wall_s, "%"};
        for (const auto& e : traced.exact) exact += " " + e;
      }
      std::cout << "exact:" << exact << "\n";
      const std::string path = args.trace_dir + "/trace-" + args.workload + "-" +
                               std::to_string(args.seed) + ".jsonl";
      Tracer::get().write_jsonl(path);
      std::cout << "spans: " << Tracer::get().size() << " written to " << path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "kncube_perfbench: " << e.what() << "\n";
    return 1;
  }
  const HostStamp host = host_between(h0, sample_host(), opt.lanes);
  if (args.trace) {
    metrics["host.steal_ratio"] = {host.steal_ratio, "ratio"};
    metrics["host.cpu_util"] = {host.cpu_util, "ratio"};
  }
  std::cout << "host: steal_ratio=" << host.steal_ratio << " cpu_util=" << host.cpu_util
            << "\n";
  std::cout << "failed_ratio=" << (tally.attempted ? static_cast<double>(tally.failed) /
                                                         static_cast<double>(tally.attempted)
                                                   : 1.0)
            << " (" << tally.failed << " of " << tally.attempted << " operations)\n";
  for (const auto& p : tally.problems) std::cerr << "failure: " << p << "\n";
  print_result(tally, metrics);
  return 0;
}
