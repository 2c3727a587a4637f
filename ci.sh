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

say "retired flags stay retired (one parse path, one measuring system, no accept queue, no governor, one paper harness, no sampler, one live tool, no shed path)"
for cmd in "aon-serve --parse-mode fast" "aon-serve --queue-budget 1" \
    "aon-serve --no-governor" "aon-serve --p99-budget-ms 1" \
    "aon-serve --fr-only" "aon-serve --trace-seed 1" \
    "aon-serve --exemplar-threshold-ns 1" "aon-bench table 7" \
    "aon-bench perf /tmp/x.json" "aon-serve --profile-hz 1" \
    "aon-report hw --out x" "aon-report profile --check" "aon-report profile --folded-out x"; do
    if out=$(./target/release/$cmd 2>&1) || ! echo "$out" | grep -q "unknown argument"; then
        echo "FAIL: '$cmd' must exit non-zero with \"unknown argument\", got: $out"
        exit 1
    fi
done
echo "all rejected as unknown arguments"

say "live server (aon-report --self-drive: each report checks its own contract)"
# Each run starts the real TCP server in-process, drives a closed loop
# over all five use cases and exits 1 on a breach: obs on exact
# accounting (client == settled /metrics == ServeStats, no failure — a 503
# included — or protocol error, CBR parse and SV validate time recorded), trace on an
# incomplete span tree, profile on Little's law (1 %), exemplar linkage
# and the folded stacks' write state, hw on a load error or a live PMU
# that attributes nothing (the noop backend is a clean skip).
for r in obs trace profile hw; do ./target/release/aon-report $r --self-drive >/dev/null; done

if [ "${CI_CONCURRENCY:-0}" = "1" ]; then
    say "schedule-stress harness (extended rounds, seeds printed for replay)"
    # The seeded barrier-released permutation tests over the accept queue
    # and the metrics registry; 16 rounds run in the default test gate
    # above, this stage turns the crank much harder.
    AON_STRESS_ROUNDS=256 cargo test --offline -q -p aon-audit --test schedule_stress \
        -- --nocapture
fi

say "all gates passed"
