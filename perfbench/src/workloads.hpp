// The benchmark's three workloads. Each has a timed loop (tracing off; the
// end-to-end metrics) and a fixed-size slice (the per-layer metrics, run once
// untraced and once traced so the difference is the tracing overhead).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  unsigned lanes = 1;  ///< logical processors of the host
};

/// End-to-end result of one workload loop.
struct WorkloadResult {
  Metrics metrics;  ///< every end-to-end metric (see NOTES.md)
  Tally tally;
  /// Human-readable report: the workload's own metric names with their
  /// units and sample counts.
  std::vector<std::string> lines;
};

/// Per-layer result of one slice.
struct SliceResult {
  Metrics metrics;
  Tally tally;
  /// Wall time of the slice's timed units (sweep, windows, requests); the
  /// traced minus the untraced value is the tracing overhead.
  double unit_wall_s = 0.0;
  /// Counts that are simulated or deterministic and must repeat exactly.
  std::vector<std::string> exact;
};

WorkloadResult run_sweep(const RunOptions& opt);
WorkloadResult run_uniform(const RunOptions& opt);
WorkloadResult run_service(const RunOptions& opt);

SliceResult slice_sweep(const RunOptions& opt, bool traced);
SliceResult slice_uniform(const RunOptions& opt, bool traced);
SliceResult slice_service(const RunOptions& opt, bool traced);

/// Formats "name=value unit (n=count)" for the human-readable report.
std::string report_line(const std::string& name, double value,
                        const std::string& unit, std::size_t samples);

/// Adds an exact count both as a metric and to the fingerprint list.
void add_exact(SliceResult& out, const std::string& name, std::uint64_t value,
               const std::string& unit);

}  // namespace perfbench
