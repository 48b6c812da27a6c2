#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, smoke-run.
# Everything here must pass with no network access and no pre-fetched
# third-party crates (the workspace has zero external dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark package: build + test"
# benchmark/ is its own workspace, so the commands above never compile it,
# yet it imports the engine API; build and test it so an API change that
# breaks it fails here.
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "==> examples"
# Run every example, not just build it, so their assertions are checked.
for example in quickstart counter_mot test_evaluation xred_speedup bench_file; do
  cargo run --release -q --example "$example" >/dev/null
done

echo "==> smoke: parallel strategies on g27"
cargo run --release -p motsim-cli --bin motsim -- strategies g27 --len 40 --jobs 2

echo "==> smoke: worker-count determinism (--jobs 4 vs --jobs 1)"
# Verdicts, BDD stats, and everything except elapsed times and worker
# counts must be byte-identical for any --jobs N.
smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    strategies g27 --len 40 --bdd-stats --jobs "$1" 2>/dev/null |
    sed 's/ in .*//'
}
diff <(smoke 1) <(smoke 4)

echo "==> smoke: sim3 partition independence (--units 1 vs 64)"
# Three-valued verdicts must not depend on how faults are split into work
# units (and so into 64-lane groups): lane state leaking between groups
# would show up here. Strip elapsed times and compare.
sim3_units() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    sim3 g5378 --len 100 --units "$1" --jobs "$2" 2>/dev/null |
    sed 's/ in .*//'
}
diff <(sim3_units 1 1) <(sim3_units 64 2)

echo "==> smoke: reorder-policy verdict equivalence (sift vs none)"
# Dynamic reordering may only change *where* the hybrid falls back (and
# how long runs take) — never a fault verdict. Strip elapsed times and the
# approximation marker (sifting can legitimately change fallback counts),
# then the sweeps must be byte-identical.
reorder_sweep() {
  for c in g27 g208 g298; do
    cargo run --release -q -p motsim-cli --bin motsim -- \
      strategies "$c" --len 40 --limit 30000 --reorder "$1" --jobs 2 2>/dev/null |
      sed -e 's/ in .*//' -e 's/ (\*)//'
  done
}
diff <(reorder_sweep none) <(reorder_sweep sift)

echo "==> smoke: structured trace (g208, --trace + trace-check)"
# The JSONL stream must parse, keep frames monotone within each unit
# bracket, and be byte-identical for every --jobs value.
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
trace_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    strategies g208 --len 40 --limit 2000 --units 8 --jobs "$1" \
    --trace "$TRACE_DIR/j$1.jsonl" >/dev/null 2>&1
}
trace_smoke 1
trace_smoke 4
cargo run --release -q -p motsim-cli --bin motsim -- trace-check "$TRACE_DIR/j1.jsonl"
cmp "$TRACE_DIR/j1.jsonl" "$TRACE_DIR/j4.jsonl"

echo "==> smoke: sifting trace (g298, --reorder sift, --trace + trace-check)"
# The g208 run above never sifts. This one makes 15 sifting passes, whose
# swaps free nodes by reference counting: its stream must validate, carry
# the passes, and stay byte-identical for every --jobs value.
sift_trace() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    strategies g298 --len 40 --limit 3000 --units 16 --reorder sift \
    --jobs "$1" --trace "$TRACE_DIR/sift$1.jsonl" >/dev/null 2>&1
}
sift_trace 1
sift_trace 4
cargo run --release -q -p motsim-cli --bin motsim -- trace-check "$TRACE_DIR/sift1.jsonl"
cmp "$TRACE_DIR/sift1.jsonl" "$TRACE_DIR/sift4.jsonl"
grep -q '"ev":"sift_pass"' "$TRACE_DIR/sift1.jsonl"

echo "==> smoke: experiment tables (figs, table1 --quick)"
# `motsim tables` regenerates the paper's experiments. The figure
# walkthroughs must show MOT detecting on all three figures, and a short
# Table I must run end to end.
cargo run --release -q -p motsim-cli --bin motsim -- tables figs >"$TRACE_DIR/figs.txt"
test "$(grep -c '^   MOT: DETECTED' "$TRACE_DIR/figs.txt")" -eq 3
cargo run --release -q -p motsim-cli --bin motsim -- tables table1 --quick --len 20 \
  >"$TRACE_DIR/table1.txt"
grep -q '^      g27        s27      32' "$TRACE_DIR/table1.txt"

echo "==> smoke: closed stdout and strict options"
# A reader that stops early must end the run quietly with status 0 (this
# script runs under pipefail), and an option a command does not read must
# exit 2 before any output or trace file is written.
cargo run --release -q -p motsim-cli --bin motsim -- faults g5378 | head -1 >/dev/null
status=0
cargo run --release -q -p motsim-cli --bin motsim -- \
  tables table2 --trace "$TRACE_DIR/x.jsonl" >/dev/null 2>&1 || status=$?
test "$status" -eq 2
test ! -e "$TRACE_DIR/x.jsonl"

echo "==> smoke: differential fuzzing (pinned seed, determinism)"
# The in-tree property harness must find zero counterexamples on the
# pinned seed, and its report must be byte-identical across runs.
fuzz_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    fuzz --seed 0xDAC95 --cases 32 --max-dffs 5
}
fuzz_smoke >"$TRACE_DIR/fuzz1.txt"
fuzz_smoke >"$TRACE_DIR/fuzz2.txt"
cmp "$TRACE_DIR/fuzz1.txt" "$TRACE_DIR/fuzz2.txt"
grep -q "0 counterexample(s)" "$TRACE_DIR/fuzz1.txt"

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "CI OK"
