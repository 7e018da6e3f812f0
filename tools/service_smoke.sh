#!/usr/bin/env bash
# End-to-end smoke of the capacity-planning service (DESIGN.md §11):
#
#   1. starts kncube_serve on a disk store and waits for the socket;
#   2. fires concurrent requests: repeated identical specs, a distinct
#      spec, a sim-only spec, and (via a raw python3 client) an invalid
#      spec that must produce a line-anchored ERROR without killing the
#      daemon;
#   3. asserts cold-vs-warm cache behaviour from the per-request stats
#      line (warm repeats add hits, never solves);
#   4. SIGTERMs the daemon (clean exit, socket removed), restarts it on
#      the same store file and asserts every answer is a cache hit —
#      zero solves, zero sim runs, byte-identical tables;
#   5. shuts down again and checks the store survived with content;
#   6. checks that each `--verbose` daemon log has one `[kncube_serve] id=`
#      line per answered request (errors answer no request).
#
# Usage: tools/service_smoke.sh [build-dir]   (default: ./build)
# Registered as the `service_smoke` ctest (label "service") and run by the
# CI `service-smoke` job.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
serve="$build_dir/tools/kncube_serve"
run="$build_dir/examples/kncube_run"

for bin in "$serve" "$run"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found; build kncube_serve and kncube_run first" >&2
    exit 1
  fi
done

work="$(mktemp -d "$build_dir/service_smoke.XXXXXX")"
daemon_pid=""
cleanup() {
  if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

sock="$work/daemon.sock"
store="$work/results.kncs"
export KNCUBE_QUICK=1

fail() { echo "FAIL: $*" >&2; exit 1; }

# Asserts that a daemon log holds one verbose line per answered request:
# <want> of them, matching the count on its "shut down after" line.
check_verbose_log() { # check_verbose_log <logfile> <want>
  local lines served
  lines="$(grep -c '^\[kncube_serve\] id=' "$1" || true)"
  served="$(grep -o 'shut down after [0-9]*' "$1" | grep -o '[0-9]*$')"
  [[ "$lines" -eq "$2" && "$served" -eq "$2" ]] \
    || fail "$1: $lines --verbose lines, $served served, want $2"
}

# Value of one counter on the client-printed "server stats:" line.
stat_of() { # stat_of <file> <counter>
  grep '^server stats:' "$1" | grep -o "$2=[0-9]*" | cut -d= -f2
}

wait_socket() {
  for _ in $(seq 100); do
    [[ -S "$sock" ]] && return 0
    sleep 0.1
  done
  fail "daemon never bound $sock"
}

start_daemon() { # start_daemon <logfile>
  "$serve" --socket "$sock" --store "$store" --verbose > "$1" 2>&1 &
  daemon_pid=$!
  wait_socket
}

stop_daemon() {
  kill -TERM "$daemon_pid"
  local status=0
  wait "$daemon_pid" || status=$?
  daemon_pid=""
  [[ "$status" -eq 0 ]] || fail "kncube_serve exited $status on SIGTERM"
  [[ -S "$sock" ]] && fail "socket file survived shutdown"
  return 0
}

spec_a=(--set topology.k=8 --set topology.n=2 --points 3)
spec_b=(--set topology.k=10 --set topology.n=2 --points 2 --sim 0)
spec_sim_only=(--set topology.n=3 --points 2 --max-rate 0.005 --sim 0)

echo "== 1. daemon start"
start_daemon "$work/serve1.log"

echo "== 2. concurrent requests (repeated / distinct / sim-only / invalid)"
"$run" --connect "$sock" "${spec_a[@]}" > "$work/cold_a1.out" 2>&1 &
p1=$!
"$run" --connect "$sock" "${spec_a[@]}" > "$work/cold_a2.out" 2>&1 &
p2=$!
"$run" --connect "$sock" "${spec_b[@]}" > "$work/cold_b.out" 2>&1 &
p3=$!
"$run" --connect "$sock" "${spec_sim_only[@]}" > "$work/cold_sim_only.out" 2>&1 &
p4=$!
# Invalid spec + malformed parameter, straight over the wire: kncube_run
# validates locally, so only a raw client can exercise the server's
# structured errors.
python3 - "$sock" > "$work/invalid.out" <<'PY' &
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
f = s.makefile("rw", newline="\n")
assert f.readline().startswith("KNCUBE-SERVE "), "bad greeting"
def roundtrip(lines):
    for line in lines:
        f.write(line + "\n")
    f.flush()
    return f.readline().strip()

r = roundtrip(["REQUEST bad1", "topology.kind=torus", "topology.k=potato", "END"])
assert r.startswith("ERROR id=bad1") and "line 2" in r, r
print("invalid spec ->", r)
r = roundtrip(["REQUEST bad2", "request.points=zero", "END"])
assert r.startswith("ERROR id=bad2") and "line 1" in r, r
print("malformed param ->", r)
r = roundtrip(["BOGUS"])
assert r.startswith("ERROR id=-") and "unknown command" in r, r
print("unknown command ->", r)
# The connection survived three errors.
assert roundtrip(["PING"]) == "PONG"
print("still PONG after errors")
PY
p5=$!
for p in $p1 $p2 $p3 $p4 $p5; do
  wait "$p" || fail "a concurrent client failed (logs in $work)"
done
cat "$work/invalid.out"
grep -q '^summary$' "$work/cold_a1.out" || fail "client A1 printed no summary"
grep -q 'analytical model: none' "$work/cold_sim_only.out" \
  || fail "sim-only spec was not dispatched sim-only"

echo "== 3. cold-vs-warm stats"
cold_solves="$(stat_of "$work/cold_a2.out" model_solves)"
cold_hits="$(stat_of "$work/cold_a2.out" model_hits)"
[[ "$cold_solves" -gt 0 ]] || fail "cold run reported no model solves"
"$run" --connect "$sock" "${spec_a[@]}" > "$work/warm_a.out" 2>&1 \
  || fail "warm client failed"
warm_solves="$(stat_of "$work/warm_a.out" model_solves)"
warm_hits="$(stat_of "$work/warm_a.out" model_hits)"
warm_sim_hits="$(stat_of "$work/warm_a.out" sim_hits)"
[[ "$warm_solves" -eq "$cold_solves" ]] \
  || fail "warm repeat added solves ($cold_solves -> $warm_solves)"
[[ "$warm_hits" -gt "$cold_hits" ]] \
  || fail "warm repeat added no model hits ($cold_hits -> $warm_hits)"
[[ "$warm_sim_hits" -gt 0 ]] || fail "warm repeat reran its simulations"
echo "cold solves=$cold_solves hits=$cold_hits; warm solves=$warm_solves hits=$warm_hits"

echo "== 4. restart: everything answers from the store"
stop_daemon
start_daemon "$work/serve2.log"
grep -q "loaded [1-9][0-9]* records" "$work/serve2.log" \
  || fail "restarted daemon loaded no records"
"$run" --connect "$sock" "${spec_a[@]}" > "$work/restart_a.out" 2>&1 \
  || fail "post-restart client A failed"
"$run" --connect "$sock" "${spec_b[@]}" > "$work/restart_b.out" 2>&1 \
  || fail "post-restart client B failed"
for name in a b; do
  out="$work/restart_$name.out"
  [[ "$(stat_of "$out" model_solves)" -eq 0 ]] \
    || fail "restart $name re-solved the model"
  [[ "$(stat_of "$out" sim_runs)" -eq 0 ]] \
    || fail "restart $name re-ran simulations"
done
# Byte-identical answers across the restart (stats lines differ by design).
diff <(grep -v '^server stats:' "$work/cold_a2.out") \
     <(grep -v '^server stats:' "$work/restart_a.out") \
  || fail "restart changed client A's output"
diff <(grep -v '^server stats:' "$work/cold_b.out") \
     <(grep -v '^server stats:' "$work/restart_b.out") \
  || fail "restart changed client B's output"
echo "restart answered bit-identically with zero solves"

echo "== 5. clean shutdown"
stop_daemon
[[ -s "$store" ]] || fail "store file is missing or empty after shutdown"
grep -q "shut down after" "$work/serve2.log" \
  || fail "daemon did not log its drained shutdown"

echo "== 6. --verbose: one line per answered request"
# Run 1 answered a1, a2, b, sim-only and the warm repeat; run 2 the two
# restart requests.
check_verbose_log "$work/serve1.log" 5
check_verbose_log "$work/serve2.log" 2

echo "service smoke: OK"
