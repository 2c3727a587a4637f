#!/bin/sh
# The single CI gate. Everything a change must pass, in the order that
# fails fastest; run locally before pushing — CI runs exactly this file.
#
# All cargo invocations are --offline: the workspace is hermetic (the
# criterion and proptest stand-ins live in third_party/) and CI machines
# are not assumed to reach crates.io.
set -eu

say() { printf '\n== %s ==\n' "$1"; }

say "rustfmt (check only)"
cargo fmt --all -- --check

say "clippy, warnings are errors"
cargo clippy --offline --workspace --all-targets -- -D warnings

say "aon-audit static analysis"
cargo run --offline -q -p aon-audit

say "tests (debug: assertions + counter invariants active)"
cargo test --offline --workspace -q

say "release build (tier-1)"
# --workspace so member-crate binaries (aon-bench, aon-serve) exist for the
# smoke gates below even on a fresh checkout; the root package alone
# would only produce the facade's own bins.
cargo build --offline --release --workspace

say "EXPERIMENTS.md byte identity (paper tables regenerate unchanged)"
# Replays the whole grid from scratch (~6 s): a change to any traced op or
# site id moves these bytes (recording_fingerprints_are_pinned names it).
./target/release/aon-bench all /tmp/EXPERIMENTS.check.md >/dev/null
cmp EXPERIMENTS.md /tmp/EXPERIMENTS.check.md

say "repo benchmark builds and smokes (benchmark/ is its own workspace)"
# No root gate compiles benchmark/src/layers.rs or client.rs against the
# workspace APIs they name; its unit tests plus `--quick` through all
# five workloads (correctness floors included) catch an API drift here
# instead of in the pipeline.
(cd benchmark && cargo test --offline -q)

say "perf harness smoke (quick windows)"
# No thresholds: the gate is that the harness runs end to end over a
# non-empty grid and prints its one stable stdout line,
# `simulated_cycles <n> cells <c> shape <passed>/<total>`.
perf_line=$(./target/release/aon-bench perf --quick)
set -- $perf_line
if [ "$#" -ne 6 ] || [ "$1" != simulated_cycles ] || [ "$3" != cells ] || [ "$4" -le 0 ]; then
    echo "FAIL: unexpected perf line: $perf_line"
    exit 1
fi
root_cycles=$2
echo "perf smoke ok: $4 cells, shape $6"

say "one simulated program (root build and benchmark/ build agree)"
# benchmark/ compiles the same crates through path dependencies, from
# another directory; both sides run aon_bench::perf::run(true), so the
# simulated cycle totals must be equal. The binary is the one the
# benchmark stage's `cargo test` just built.
./benchmark/target/debug/aon-benchmark --workload sim_grid_full --seed 1 --seconds 1 \
    --trace 1 --quick | tail -n 1 >/tmp/sim_grid_bench_build.json
ROOT_CYCLES=$root_cycles python3 - <<'EOF'
import json, os
root = int(os.environ["ROOT_CYCLES"])
with open("/tmp/sim_grid_bench_build.json") as f:
    bench = int(json.load(f)["metrics"]["sim.cycles_total"]["value"])
assert root == bench, f"root build simulates {root} cycles, benchmark/ build {bench}"
print(f"same program: {root} simulated cycles from both builds")
EOF

say "live server smoke (loadgen over loopback, zero protocol errors, /metrics agreement)"
# Stands up the real TCP server in-process, drives it closed-loop for
# ~2s, and scrapes GET /metrics from the still-running server; the binary
# itself exits 1 on any failed request, server-side protocol error, or
# scrape/client count mismatch. The python check then independently
# re-parses the scraped Prometheus text and cross-checks it against the
# JSON report, and asserts the extended snapshot fields are present.
./target/release/loadgen --duration 2 --out /tmp/BENCH_live_smoke.json \
    --scrape-metrics /tmp/BENCH_live_metrics.prom >/dev/null
python3 - <<'EOF'
import json, re
with open("/tmp/BENCH_live_smoke.json") as f:
    report = json.load(f)
assert report["requests_failed"] == 0, f"live failures: {report['errors']}"
assert report["requests_per_sec"] > 0
assert report["latency_us"]["p50"] > 0 and report["latency_us"]["p99"] > 0
assert report["server"]["protocol_errors"] == 0
for key in ("queue_depth_hwm", "rejected_closed", "admin_requests"):
    assert key in report["server"], f"server section missing {key!r}"
# No user-space accept queue: the key stays (benchmark/ names it), at 0.
assert report["server"]["dropped_backlog"] == 0
assert report["stages"], "stage breakdown must be non-empty with observability on"

# Independent cross-check: the live /metrics scrape must agree exactly
# with the load generator's client-side counts.
processed = 0
with open("/tmp/BENCH_live_metrics.prom") as f:
    for line in f:
        m = re.match(r'aon_requests_total\{[^}]*outcome="(ok|rejected)"[^}]*\} (\d+)', line)
        if m:
            processed += int(m.group(2))
assert processed == report["requests_ok"], (
    f"/metrics says {processed} processed, loadgen counted {report['requests_ok']}")
stage_cells = {(c["use_case"], c["stage"]) for c in report["stages"]}
assert ("CBR", "parse") in stage_cells and ("SV", "validate") in stage_cells, stage_cells
print(f"live smoke ok: {report['requests_per_sec']:.0f} req/s, "
      f"p99 {report['latency_us']['p99']:.0f}us, "
      f"/metrics agrees on {processed} requests, {len(report['stages'])} stage cells")
EOF

say "retired flags stay retired (one parse path, one measuring system, no accept queue, no governor, one paper harness)"
for cmd in "aon-serve --parse-mode fast" "loadgen --obs-overhead" \
    "aon-serve --queue-budget 1" "loadgen --queue-budget 1" \
    "aon-serve --no-governor" "aon-serve --p99-budget-ms 1" \
    "loadgen --overload" "loadgen --overload-smoke" "loadgen --fr-only" \
    "aon-serve --exemplar-threshold-ns 1" "aon-bench table 7" \
    "aon-bench perf /tmp/x.json"; do
    if out=$(./target/release/$cmd 2>&1) || ! echo "$out" | grep -q "unknown argument"; then
        echo "FAIL: '$cmd' must exit non-zero with \"unknown argument\", got: $out"
        exit 1
    fi
done
echo "all rejected as unknown arguments"

say "trace smoke (tail-sampler retention, complete span trees, admin reads free)"
# Mixed load against an FR-only server with tracing on: the binary exits
# 1 unless every shed request's span tree is retained in
# /trace.jsonl (dropped_keep == 0 — the 100%-tail-retention proof),
# every retained tree is structurally complete, and reading the dump
# moved no request total (server count == client count exactly).
./target/release/loadgen --trace-smoke --duration 2 \
    --out /tmp/BENCH_trace_smoke.json >/dev/null

say "profile smoke (worker-state profiler, Little's law, exemplar linkage)"
# Self-driven load, Little's-law agreement within 15% (request plane vs
# state plane), and at least one latency exemplar resolving to a retained
# trace — the binary exits 1 on either breach.
./target/release/aon-report profile --self-drive --check \
    --folded-out /tmp/profile_smoke.folded >/dev/null
python3 - <<'EOF'
import re
with open("/tmp/profile_smoke.folded") as f:
    lines = f.read().splitlines()
assert lines, "folded dump must be non-empty after load"
for line in lines:
    assert re.fullmatch(r'[^;]+;[a-z_]+ \d+', line), f"bad folded line: {line!r}"
states = {line.split(";")[1].split(" ")[0] for line in lines}
assert "write" in states, f"served load must show write samples: {states}"
print(f"profile smoke ok: {len(lines)} folded cells, states {sorted(states)}")
EOF

say "hw smoke (hardware-counter plane, probe-and-degrade)"
# Runs the closed loop with per-worker perf counter groups requested.
# On hosts without PMU access (most CI containers) the backend degrades
# to noop and this is a clean skip recorded in the report; on a host
# with a live PMU, zero attributed events is a failure.
./target/release/aon-report hw --self-drive --interval-ms 1000 \
    --out /tmp/BENCH_hw_smoke.json >/dev/null
python3 - <<'EOF'
import json
with open("/tmp/BENCH_hw_smoke.json") as f:
    report = json.load(f)
hw = report["hw"]
assert hw["backend"] in ("perf_event", "noop"), hw
if hw["backend"] == "perf_event":
    assert hw["rows"], "live perf backend must attribute events"
    for row in hw["rows"]:
        assert row["instructions"] > 0 and row["cycles"] > 0, row
    print(f"hw smoke ok: live backend, {len(hw['rows'])} use-case rows, "
          f"FR cpi {hw['rows'][0]['cpi']:.2f}")
else:
    print(f"hw smoke ok: noop backend ({hw['reason']}) — degrade path exercised")
EOF

if [ "${CI_CONCURRENCY:-0}" = "1" ]; then
    say "schedule-stress harness (extended rounds, seeds printed for replay)"
    # The seeded barrier-released permutation tests over the accept queue
    # and the metrics registry; 16 rounds run in the default test gate
    # above, this stage turns the crank much harder.
    AON_STRESS_ROUNDS=256 cargo test --offline -q -p aon-audit --test schedule_stress \
        -- --nocapture
fi

say "all gates passed"
