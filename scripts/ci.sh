#!/usr/bin/env bash
# Offline CI gate for vulkan-sim-rs.
#
# Everything runs with --offline: the workspace has zero external
# dependencies (vksim-testkit supplies PRNG / property testing / golden
# comparison), so a network-less container must pass this script end to
# end.
#
# The four independent first stages (format check, clippy, release build,
# rustdoc) run as background jobs and join at one barrier; they share the
# cargo target-dir lock, so only their compile phases serialize. The rest
# runs in order.
#
# Usage: scripts/ci.sh            (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

LOGS="$(mktemp -d)"
declare -a names=() pids=()

# bg <name> <cmd...> — launch a stage in the background, log to $LOGS.
bg() {
    local name="$1"
    shift
    ("$@") >"$LOGS/$name.log" 2>&1 &
    names+=("$name")
    pids+=($!)
}

# join — wait for every background stage, replay logs, abort on failure.
join() {
    local fail=0 status
    for i in "${!pids[@]}"; do
        if wait "${pids[$i]}"; then status="ok"; else status="FAILED"; fail=1; fi
        step "${names[$i]} ($status)"
        cat "$LOGS/${names[$i]}.log"
    done
    names=()
    pids=()
    if [ "$fail" -ne 0 ]; then
        printf '\nCI gate FAILED.\n'
        exit 1
    fi
}

# Format checking needs no build artifacts — overlap it with
# the release build and the lint gate (clippy builds its own debug-profile
# artifacts, so it shares little with the release build beyond the lock).
bg "cargo fmt --check" cargo fmt --check
# iter_over_hash_type is the determinism contract's lint: no outcome may
# depend on the iteration order of a hashed container (DESIGN.md).
bg "cargo clippy --offline --workspace -D warnings" \
    cargo clippy --offline --workspace --all-targets -- \
    -D warnings -D clippy::iter_over_hash_type
bg "cargo build --release --offline --workspace" \
    cargo build --release --offline --workspace
# Broken, ambiguous or private intra-doc links fail the gate.
bg "cargo doc --offline --no-deps --workspace (rustdoc -D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
join

step "cargo test --offline --workspace -q"
cargo test --offline --workspace -q

# The paper's tables and figures, pinned: the experiments binary's full
# Test-scale stdout (every experiment, deterministic, ~2 s in release)
# must equal tests/goldens/experiments_test.txt byte for byte. A modeling
# change that moves a figure re-records the file with the same command,
# redirected into it.
step "experiments stdout at Test scale (tests/goldens/experiments_test.txt)"
cargo run --release --offline -q -p vksim-bench --bin experiments \
    | diff -u tests/goldens/experiments_test.txt -

# BVH layout pins at Paper scale: the EXT and RTV5 structures (BLASes of
# 283 k and 328 k primitives, the largest builds any scene makes) must hash
# node for node as recorded. The Test and Small pins of
# tests/bvh_layout.rs run in the plain test stage above; these are
# #[ignore]d there.
step "Paper-scale BVH layout pins (release, --ignored)"
cargo test --release --offline -q -p vksim-bench --test bvh_layout -- --ignored

# The functional tier at Paper scale: each scene's run_functional
# statistics and an FNV-1a-64 hash of its framebuffer must equal
# tests/goldens/func_paper.json (the Test-scale check against the timing
# goldens runs in the plain test stage above).
step "Paper-scale functional-tier pins (release, --ignored)"
cargo test --release --offline -q -p vksim-bench --test functional_tier -- --ignored

# Fault-injection smoke: one drill per fault class (dropped completion,
# stalled warp, worker panic, truncated program, corrupted BVH) — each must end in a classified SimError with a
# parseable post-mortem dump, never a raw panic or a hang.
step "fault-injection drills (classified errors + post-mortem dumps)"
VKSIM_DUMP_DIR="$(mktemp -d)" \
    cargo test --offline -q -p vksim-bench --test fault_injection

# Observer gate: one run with every observer on together — tracer
# (Perfetto trace + interval CSV), cycle accounting and rt analytics —
# must write each export; the trace JSON must parse, and two validation
# suites run against the files the experiments *binary* wrote:
# tests/prof_smoke.rs (the flat-JSON stall breakdown parses, carries the
# documented key schema and conserves Σ categories == num_sms × cycles)
# and tests/rt_analytics.rs (heatmap visits == Σ per-ray node counts,
# Σ per-ray box tests == RT-unit box ops, every histogram totalling the
# ray count). tests/trace_export.rs validates traces it records itself
# and runs in the workspace step.
step "observer smoke run (trace + prof + rt analytics) + export validation"
obs_dir="$(mktemp -d)"
VKSIM_TRACE_CSV="$obs_dir/intervals.csv" \
    cargo run --release --offline -p vksim-bench --bin experiments -- \
    fig01 --trace="$obs_dir/trace.json" --trace-interval=256 \
    --prof="$obs_dir/prof.json" \
    --rt-analytics="$obs_dir/rt.json" --rt-heatmap="$obs_dir/heatmap.csv" >/dev/null
for f in trace.json intervals.csv prof.json rt.json heatmap.csv; do
    [ -s "$obs_dir/$f" ] || { echo "no $f written"; exit 1; }
done
head -1 "$obs_dir/intervals.csv" | grep -q '^start,len,' \
    || { echo "malformed interval CSV header"; exit 1; }
head -1 "$obs_dir/heatmap.csv" | grep -q '^space,depth,node,visits,hits$' \
    || { echo "malformed rt heatmap header"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$obs_dir/trace.json" >/dev/null \
        || { echo "trace JSON does not parse"; exit 1; }
fi
VKSIM_PROF_SMOKE_FILE="$obs_dir/prof.json" \
    cargo test --offline -q -p vksim-bench --test prof_smoke
VKSIM_RT_SMOKE_FILE="$obs_dir/rt.json" \
    cargo test --offline -q -p vksim-bench --test rt_analytics

# Chaos recovery drill: a fixed-seed campaign kills checkpointed runs
# with injected worker panics at pseudo-random cycles, auto-resumes each
# from its last checkpoint, and requires the recovered golden counters to
# match the uninterrupted reference byte for byte (plus checkpoint
# idempotency and corrupt-snapshot rejection, per
# tests/snapshot_recovery.rs).
step "chaos checkpoint/recovery campaign (VKSIM_CHAOS_ITERS=5)"
VKSIM_CHAOS_ITERS=5 VKSIM_DUMP_DIR="$(mktemp -d)" \
    cargo test --offline -q -p vksim-bench --test snapshot_recovery

# Repo-benchmark gate: the benchmark the PR driver runs (BENCHMARK.json ->
# benchmark/run.sh) must still build against the workspace crates, print
# every metric of its schema and finish with zero failed operations
# (determinism, observer purity, thread invariance, image match). --quick
# is Test scale, ~3 s after the build; the build goes under target/ and the
# summary to a temp file. Cargo rewrites benchmark/Cargo.lock whenever the
# workspace crates' dependency lists differ from it, so the committed file
# is saved here and put back on exit: CI leaves the checkout clean.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock' EXIT
step "repo benchmark schema/correctness check (benchmark/run.sh --quick)"
CARGO_TARGET_DIR="$PWD/target/benchmark" \
    bash benchmark/run.sh --quick --out "$(mktemp -d)/summary.json" | tail -n 2

# The same benchmark at Paper scale on the stall-heavy workload, where RT
# units sleep on refused fetches and starved L2 slices back reads off
# (Test scale barely stalls): repeated passes, so each must reproduce the
# first's counters and image, and the image must match the CPU reference.
# The traced pass pins the run end to end: its counter fingerprint and
# cycle count, and zero failed operations.
step "repo benchmark at Paper scale (ext_paper_sm48, traced, pinned counters)"
paper_out="$(CARGO_TARGET_DIR="$PWD/target/benchmark" \
    bash benchmark/run.sh --workload ext_paper_sm48 --seed 1 --seconds 2 --trace 1)"
for want in '^gpu\.counters_fnv 3069388910270302 ' '^gpu\.sim_cycles 220294 ' \
    '^operations attempted [0-9]+ failed 0$'; do
    grep -Eq "$want" <<<"$paper_out" || { echo "ext_paper_sm48: no line matches '$want'"; exit 1; }
done
printf '%s\n' "$paper_out" | grep -E '^(gpu\.counters_fnv|gpu\.sim_cycles|operations) '

# The functional tier through the benchmark at Paper scale: every pass of
# the five scenes must repeat the first pass's statistics and image, and
# the TRI/REF/EXT images must match the CPU reference.
step "repo benchmark at Paper scale (func_paper5, functional tier)"
func_out="$(CARGO_TARGET_DIR="$PWD/target/benchmark" \
    bash benchmark/run.sh --workload func_paper5 --seed 1 --seconds 2 --trace 0)"
grep -Eq '^operations attempted [0-9]+ failed 0$' <<<"$func_out" \
    || { echo "func_paper5: failed operations"; printf '%s\n' "$func_out"; exit 1; }
printf '%s\n' "$func_out" | grep -E '^(wall_s|image_match_frac|operations) '

step "examples build + run (quickstart, custom_scene, render_gallery, rtunit_explorer)"
cargo build --release --offline --examples
cargo run --release --offline --example quickstart >/dev/null
cargo run --release --offline --example custom_scene >/dev/null
cargo run --release --offline --example render_gallery >/dev/null
cargo run --release --offline --example rtunit_explorer >/dev/null

printf '\nCI gate passed.\n'
