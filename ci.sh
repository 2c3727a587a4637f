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
# The lint tables hold the rules a compiler can state: no unwrap/panic
# outside #[test] fns (unwrap_used, panic), docs on every public item
# (missing_docs), no raw `as` in the counter/metric files (their
# #![deny(clippy::as_conversions)]), a reason on every suppression
# (allow_attributes_without_reason) and no stale #[expect]
# (unfulfilled_lint_expectations).
cargo clippy --offline --workspace --all-targets -- -D warnings

say "aon-audit static analysis"
# What no compiler lint states: the lint gate, branch site ids, dead pub
# items, the concurrency passes and the exact suppression budget.
cargo run --offline -q -p aon-audit

say "tests (debug: assertions + counter invariants active)"
cargo test --offline --workspace -q

say "release build (tier-1)"
# --workspace so member-crate binaries (aon-bench, aon-serve) exist for the
# smoke gates below even on a fresh checkout; the root package alone
# would only produce the facade's own bins.
cargo build --offline --release --workspace

say "bench bodies run once, untimed (a kernel that panics fails here)"
# The criterion stand-in measures only under `cargo bench`'s --bench; under
# `cargo test --benches` it runs every body once, so a kernel set up wrong
# fails CI instead of going unseen (running them takes under 0.1 s;
# recompiling the bench targets ~4 s).
cargo test --offline -q --release -p aon-bench --benches

say "EXPERIMENTS.md byte identity (paper tables regenerate unchanged)"
# Replays the whole grid from scratch (~6 s): a change to any traced op or
# site id moves these bytes (recording_fingerprints_are_pinned names it).
# The tables print rounded, derived metrics; the run's stderr carries the
# FNV digest of every raw per-CPU counter of the 25 full-window cells and
# the memo tally, and both are pinned too.
./target/release/aon-bench all /tmp/EXPERIMENTS.check.md >/dev/null 2>/tmp/experiments.err
cmp EXPERIMENTS.md /tmp/EXPERIMENTS.check.md
if ! grep -q "memo: corpus 2h/1m, server 15h/3m, netperf 10h/1m" /tmp/experiments.err; then
    echo "FAIL: full-grid memo tally moved: $(cat /tmp/experiments.err)"
    exit 1
fi
if ! grep -q "counters 0x189036e8d24c1bad" /tmp/experiments.err; then
    echo "FAIL: full-grid counter digest moved, pinned 'counters 0x189036e8d24c1bad':"
    cat /tmp/experiments.err
    exit 1
fi
echo "full grid: tables, memo tally and counter digest pinned"

say "repo benchmark builds and smokes (benchmark/ is its own workspace)"
# No root gate compiles benchmark/src/layers.rs or client.rs against the
# workspace APIs they name; its unit tests plus `--quick` through all
# five workloads (correctness floors included) catch an API drift here
# instead of in the pipeline.
(cd benchmark && cargo test --offline -q)

say "perf harness smoke (quick windows)"
# No thresholds: the gate is that the harness runs end to end over a
# non-empty grid and prints its one stable stdout line,
# `simulated_cycles <n> cells <c> shape <passed>/<total>`. Its stderr
# profile must carry the exact memo tally: the pooled record phase makes
# each recording once (three server, one netperf, one corpus) and the grid
# hits them, so a pool that records a key twice or regenerates the corpus
# moves it. It must also carry the pinned FNV digest of every per-CPU
# counter of all 25 cells: Σ clockticks and the shape score stay equal
# when an event is miscounted without moving time, the digest does not.
perf_line=$(./target/release/aon-bench perf --quick 2>/tmp/perf_quick.err)
set -- $perf_line
if [ "$#" -ne 6 ] || [ "$1" != simulated_cycles ] || [ "$3" != cells ] || [ "$4" -le 0 ]; then
    echo "FAIL: unexpected perf line: $perf_line"
    exit 1
fi
if ! grep -q "memo: corpus 2h/1m, server 15h/3m, netperf 10h/1m" /tmp/perf_quick.err; then
    echo "FAIL: memo tally moved: $(cat /tmp/perf_quick.err)"
    exit 1
fi
perf_digest=$(grep -o "counters 0x[0-9a-f]*" /tmp/perf_quick.err || true)
if [ "$perf_digest" != "counters 0xe149ce1971f70a22" ]; then
    echo "FAIL: counter digest moved: '$perf_digest', pinned 'counters 0xe149ce1971f70a22'"
    exit 1
fi
root_cycles=$2
echo "perf smoke ok: $4 cells, shape $6, memo tally and counter digest pinned"

say "dispatch order cannot reach the output (one worker against the pool)"
# Pinned to one CPU the pool has one worker, which runs the cells one at a
# time in dispatch order; unpinned, cells finish in whatever order the
# workers reach them. Results land by cell index, so the line and the
# counter digest must match.
one_worker_line=$(taskset -c 0 ./target/release/aon-bench perf --quick 2>/tmp/perf_one.err)
if [ "$one_worker_line" != "$perf_line" ]; then
    echo "FAIL: one worker prints '$one_worker_line', the pool '$perf_line'"
    exit 1
fi
one_worker_digest=$(grep -o "counters 0x[0-9a-f]*" /tmp/perf_one.err || true)
if [ "$one_worker_digest" != "$perf_digest" ]; then
    echo "FAIL: one worker's '$one_worker_digest', the pool's '$perf_digest'"
    exit 1
fi
echo "one worker and the pool print the same line and counter digest"

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

say "studies print their pinned bytes (sweep, ablation, extension)"
# No other stage runs these three: `sweep` is the only caller of the
# offered-load parameter, `ablation` the only one of modified machine
# descriptions, `extension` the only grid over DPI and CRYPTO. Each is
# deterministic (~15 s + 5 s + 6 s on a 2-vCPU host); a model change updates
# these digests in the same diff that regenerates EXPERIMENTS.md.
for study in \
    "sweep 72f37dc7f24e520fb3fc537da4a93626100f8fc6b388e4c71fb645ab1ec2fb36" \
    "ablation 41539f478af9ca0e524e19bd306fac10e6b39679d77b8bf68785a231b769f3f7" \
    "extension dc69f03f8e95857786133de71e25bb11ad0844aec3cbbe073b60d09b20555c3a"; do
    set -- $study
    got=$(./target/release/aon-bench "$1" | sha256sum | cut -d ' ' -f 1)
    if [ "$got" != "$2" ]; then
        echo "FAIL: aon-bench $1 stdout moved: sha256 $got, pinned $2"
        exit 1
    fi
done
echo "sweep, ablation and extension unchanged"

say "retired flags stay retired (one parse path, one measuring system, no accept queue, no governor, one paper harness, no sampler, one live tool, no shed path)"
for cmd in "aon-serve --parse-mode fast" "aon-serve --queue-budget 1" \
    "aon-serve --no-governor" "aon-serve --p99-budget-ms 1" \
    "aon-serve --fr-only" "aon-serve --trace-seed 1" \
    "aon-serve --exemplar-threshold-ns 1" "aon-bench table 7" \
    "aon-bench perf /tmp/x.json" "aon-serve --profile-hz 1" \
    "aon-report obs --out x" "aon-report profile --check" "aon-report profile --folded-out x"; do
    if out=$(./target/release/$cmd 2>&1) || ! echo "$out" | grep -q "unknown argument"; then
        echo "FAIL: '$cmd' must exit non-zero with \"unknown argument\", got: $out"
        exit 1
    fi
done
echo "all rejected as unknown arguments"
if out=$(./target/release/aon-report hw --self-drive 2>&1) || ! echo "$out" | grep -q "unknown subcommand"; then
    echo "FAIL: 'aon-report hw --self-drive' must exit non-zero with \"unknown subcommand\", got: $out"
    exit 1
fi
echo "aon-report hw rejected as an unknown subcommand (obs owns the hardware table)"

say "live server (aon-report --self-drive: each report checks its own contract)"
# Each run starts the real TCP server in-process, drives a closed loop
# over all five use cases and exits 1 on a breach: obs on exact
# accounting (client == settled /metrics == ServeStats, no failure — a 503
# included — or protocol error, CBR parse and SV validate time recorded)
# and on a live PMU that attributes nothing (the noop backend is a clean
# skip), trace on an incomplete span tree, profile on Little's law (1 %),
# exemplar linkage and the folded stacks' write state.
for r in obs trace profile; do ./target/release/aon-report $r --self-drive >/dev/null; done

if [ "${CI_CONCURRENCY:-0}" = "1" ]; then
    say "schedule-stress harness (extended rounds, seeds printed for replay)"
    # The seeded barrier-released permutation tests over the accept queue
    # and the metrics registry; 16 rounds run in the default test gate
    # above, this stage turns the crank much harder.
    AON_STRESS_ROUNDS=256 cargo test --offline -q -p aon-audit --test schedule_stress \
        -- --nocapture
fi

say "all gates passed"
