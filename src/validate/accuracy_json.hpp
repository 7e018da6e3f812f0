// ACCURACY.json: the committed accuracy trajectory.
//
// A ValidationReport renders to a stable, diff-friendly JSON document — the
// accuracy analogue of the BENCH_*.json perf baselines. The writer is
// deliberately environment-free: no timestamps, hostnames or build ids, so
// the committed file only changes when the model, the simulator, the suite
// or the tolerance policy changes, and a `git diff` of ACCURACY.json *is*
// the accuracy regression review. Doubles print round-trip exact (%.17g),
// NaN (sim-only model fields) prints as null, and points appear in suite
// order.
#pragma once

#include <string>

#include "util/table.hpp"
#include "validate/validation.hpp"

namespace kncube::validate {

/// Round-trip-exact double (%.17g), null for NaN (JSON has no NaN literal)
/// and ±1e999 for ±inf (reads back as inf). Shared by the ACCURACY.json and
/// RELIABILITY.json writers.
std::string json_number(double v);

/// `s` as a quoted JSON string literal.
std::string json_string(const std::string& s);

/// Serializes the report (schema "kncube-accuracy-v1"): a `config` block,
/// per-class `summary` counts plus the overall pass flag, and one object
/// per classified point.
std::string to_json(const ValidationReport& report);

/// Writes a rendered report (either `to_json`) to `path`; returns false on
/// I/O failure.
bool write_json(const std::string& path, const std::string& json);

/// Human-readable rendering of the same data: one row per point with the
/// model/sim/CI columns and the classification verdict.
util::Table accuracy_table(const ValidationReport& report);

/// One-line per-class roll-up ("12 model-in-CI, 5 within-tolerance, ...").
std::string summary_line(const ValidationReport& report);

}  // namespace kncube::validate
