#!/usr/bin/env bash
# Benchmark baseline pipeline: runs the google-benchmark binaries and writes
# the repo-root BENCH_sim.json / BENCH_model.json baselines that performance
# PRs diff against (see README "Performance baselines").
#
# Usage:
#   bench/run_benchmarks.sh [build-dir] [extra google-benchmark args...]
#
# Examples:
#   bench/run_benchmarks.sh                       # full run, build/ tree
#   bench/run_benchmarks.sh build --benchmark_filter='BM_SimulatorCycles'
#   bench/run_benchmarks.sh build --benchmark_filter='BM_Model|BM_UniformModel'
#
# A binary none of whose benchmarks match the filter keeps its baseline.
#
# The build must contain the perf binaries (configure with google-benchmark
# installed; a bare `cmake -B build` defaults to a Release build, which is
# the only configuration whose numbers are meaningful to commit).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

for bin in perf_sim perf_model; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin not found or not executable." >&2
    echo "Configure with google-benchmark available and build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

# Refuse to bake Debug numbers into the committed baselines: -O0 results are
# an order of magnitude off and every later perf PR would diff against noise.
# KNCUBE_ALLOW_DEBUG_BENCH=1 overrides for local experiments.
if grep -q "CMAKE_BUILD_TYPE:STRING=Debug" "$build_dir/CMakeCache.txt" 2>/dev/null; then
  if [[ "${KNCUBE_ALLOW_DEBUG_BENCH:-}" != "1" ]]; then
    echo "error: $build_dir is a Debug build; refusing to write baselines." >&2
    echo "Rebuild Release (a bare 'cmake -B build' defaults to it), or set" >&2
    echo "KNCUBE_ALLOW_DEBUG_BENCH=1 to override for a local experiment." >&2
    exit 1
  fi
  echo "warning: Debug build (override active); do not commit these numbers." >&2
fi

# Each binary writes to a temporary file first, and replaces its committed
# baseline only if it ran at least one benchmark: a --benchmark_filter that
# matches rows of one binary leaves the other binary's baseline untouched.
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT
written=()
for bin in perf_sim perf_model; do
  case "$bin" in
    perf_sim) out="BENCH_sim.json" ;;
    perf_model) out="BENCH_model.json" ;;
  esac
  echo "== $bin -> $out"
  "$build_dir/bench/$bin" \
    --benchmark_format=json \
    --benchmark_out="$tmp_dir/$out" \
    --benchmark_out_format=json "$@"
  if grep -q '"run_name"' "$tmp_dir/$out" 2>/dev/null; then
    mv "$tmp_dir/$out" "$repo_root/$out"
    written+=("$repo_root/$out")
  else
    echo "== $bin ran no benchmark; $out left as it was"
  fi
done
if [[ ${#written[@]} -eq 0 ]]; then
  echo "error: no benchmark matched; no baseline written." >&2
  exit 1
fi

# Host metadata: stamp the machine shape and the *kncube* build type into
# each baseline's context block. google-benchmark records its own num_cpus
# and library build type, but not the project's CMAKE_BUILD_TYPE — and a
# baseline is only comparable against runs with the same core count and
# optimisation level, so record both explicitly where perf diffs look first.
#
# Thread-axis rows additionally get per-row honesty keys: a T-thread row run
# on a host with fewer than T cores measures time-slicing overhead, not
# scaling, so each such row is stamped `"oversubscribed": true` together
# with the cores it effectively ran on. Perf diffs must never compare a
# flagged row against an unflagged one.
kncube_build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
for f in "${written[@]}"; do
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$f" "${kncube_build_type:-unknown}" <<'PY'
import json, os, sys

path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
ncpu = os.cpu_count() or 1
ctx = doc.setdefault("context", {})
ctx["host"] = {
    "hardware_concurrency": ncpu,
    "kncube_build_type": build_type,
}
# Per-row thread-axis annotation. BM_SimulatorCycles rows are named
# BM_SimulatorCycles/<k>/<load%>/<sim_threads>; rows asking for more shards
# than the host has cores did not measure parallel stepping.
for row in doc.get("benchmarks", []):
    parts = row.get("name", "").split("/")
    if parts[0] != "BM_SimulatorCycles" or len(parts) < 4:
        continue
    try:
        threads = int(parts[3])
    except ValueError:
        continue
    row["effective_cores"] = min(threads, ncpu)
    row["oversubscribed"] = threads > ncpu
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
  else
    echo "warning: python3 not found; $(basename "$f") lacks host metadata" >&2
  fi
done

# The distro's libbenchmark can itself be a debug flavour; it stamps the
# context block, so surface it — the numbers are still comparable between
# runs on the same library, but note it when reading absolute values.
for f in "${written[@]}"; do
  if grep -q '"library_build_type": "debug"' "$f"; then
    echo "WARNING: $(basename "$f") was produced against a debug google-benchmark" >&2
    echo "         library (see its context block); absolute timings carry" >&2
    echo "         library overhead even though the kncube code is optimised." >&2
  fi
done

echo "Wrote ${written[*]}"
