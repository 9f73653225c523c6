#!/usr/bin/env bash
# CI entry point: hermetic (offline) build + tests + dependency guard.
#
# The workspace must build with NOTHING from crates.io — every dependency is
# an in-repo `meissa-*` path crate (`meissa-testkit` supplies the RNG,
# property-testing, JSON, and bench support that external crates used to).
# The guards at the end fail the run if any non-workspace crate sneaks into
# the dependency graph, or if `meissa-lang` gains a normal dependency on
# `meissa-testkit`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Warnings are errors. Exported once so every step below builds with the
# same flags and none of them rebuilds the workspace.
export RUSTFLAGS="-D warnings"

echo "==> build (release, offline)"
cargo build --release --offline --workspace --benches

echo "==> test (offline, sequential engine: MEISSA_THREADS=1)"
MEISSA_THREADS=1 cargo test -q --offline --workspace

echo "==> test (offline, parallel engine: MEISSA_THREADS=4)"
# Same suite again under the work-stealing explorer: templates must be
# byte-identical to the sequential run (the golden/e2e tests assert exact
# output), so this catches any thread-count-dependent behavior.
MEISSA_THREADS=4 cargo test -q --offline --workspace

echo "==> test (offline, stateful sequences: MEISSA_K_PACKETS=2)"
# The core + suite tests once more with the sequence-length knob set:
# `Meissa::run` is contractually independent of `k_packets` (only
# `run_sequences` consumes it), so every golden and e2e assertion must
# hold unchanged — while the stateful suite tests exercise the k=2
# sequence engine, the register-threading unroller, and the stateful
# wire checker directly.
MEISSA_K_PACKETS=2 MEISSA_THREADS=4 cargo test -q --offline -p meissa-suite -p meissa-core

echo "==> differential: indexed table lookup vs the guard scan, fresh seed"
# The switch target looks tables up through a hash index; the in-order
# guard scan is the oracle it must match byte for byte. The property ran
# above under the harness's fixed seed; this run draws fresh random
# packets (a new seed per CI run, printed here and in any failure report,
# so a failure reproduces with MEISSA_PROP_SEED=<seed>).
INDEX_SEED="$(date +%s)"
echo "MEISSA_PROP_SEED=$INDEX_SEED"
MEISSA_PROP_SEED="$INDEX_SEED" cargo test -q --offline -p meissa-suite --test target_index \
  indexed_lookup_matches_the_scan

echo "==> differential: walker arm index vs per-arm constant folding, fresh seed"
# The symbolic walker decides tables keyed on constants through a hash
# index; per-arm `SymCtx::eval_const` is the oracle it must match on every
# decided arm, and an unbound or symbolic key must make it decline. This
# run draws fresh value stacks and random rule sets (seed printed, so a
# failure reproduces with MEISSA_PROP_SEED=<seed>).
ARM_SEED="$(date +%s)"
echo "MEISSA_PROP_SEED=$ARM_SEED"
MEISSA_PROP_SEED="$ARM_SEED" cargo test -q --offline -p meissa-suite --test arm_index \
  indexed_verdicts_match_eval_const

echo "==> differential: walker independence shortcut vs the path solver, fresh seed"
# The walker decides an `x == c` arm Sat without the solver when no live
# path constraint mentions `x`; `check_under` on a solver holding exactly
# the path's constraints is the oracle it must match. This run draws fresh
# random rule sets, path prefixes and walks (seed printed, so a failure
# reproduces with MEISSA_PROP_SEED=<seed>).
INDEP_SEED="$(date +%s)"
echo "MEISSA_PROP_SEED=$INDEP_SEED"
MEISSA_PROP_SEED="$INDEP_SEED" cargo test -q --offline -p meissa-suite --test arm_independence \
  free_eq_verdicts_match_check_under

echo "==> plan validity oracle: warm-solver plans on fresh random gw-3 rule sets"
# The case planner solves a whole chunk of templates on one solver, so
# every planned input is checked against its own template: constraints
# and hash obligations, the template's path, intent givens, distinct
# rounds, no field leaked from an earlier template, and the same skips as
# fresh planning. The test ran above under the harness's fixed seed; this
# run draws new random gw-3 rule sets (plus the fixed gw-1/64 and gw-3/8
# programs), with the seed printed so a failure reproduces with
# MEISSA_PROP_SEED=<seed>.
PLAN_SEED="$(date +%s)"
echo "MEISSA_PROP_SEED=$PLAN_SEED"
MEISSA_PROP_SEED="$PLAN_SEED" cargo test -q --offline -p meissa-suite --test plan_determinism

echo "==> loopback smoke test: gw-3 through the wire driver"
# Spawns the switch agent on an ephemeral loopback port and streams the
# gw-3 suite through the TCP sender/receiver/checker (transport faults
# off); the test asserts zero spurious failures and verdict-for-verdict
# agreement with the in-process driver.
cargo test -q --offline -p meissa-suite --test wire_equivalence

echo "==> netdriver throughput guard: binary loopback floor (host-gated)"
# Streams the gw-3 (8-EIP) suite through the pipelined wire client with
# binary framing at 4 connections and fails if the best-of-3 replay-phase
# throughput lands under 20k cases/s. The floor is calibrated for a
# dedicated CI host; set MEISSA_SKIP_NETDRIVER_GUARD=1 on shared or
# heavily loaded machines.
MEISSA_BENCH_NETDRIVER=1 cargo bench -q --offline -p meissa-bench

echo "==> soak smoke: traced sub-second soaks + meissa-trace --check"
# The short soak tests once more with a JSONL trace sink attached: the
# wire.case / wire.conn / wire.run spans the pipelined client emits must
# survive the sustained-replay path too. meissa-trace then validates the
# trace wholesale (lines parse, span ids unique, parents resolve, children
# nest). The full bench leaves a longer 5 s soak trace behind as
# results/trace_netdriver_soak.jsonl with the same span vocabulary.
SOAK_TRACE="$PWD/target/soak_smoke.jsonl"
rm -f "$SOAK_TRACE"
MEISSA_TRACE="$SOAK_TRACE" cargo test -q --offline -p meissa-netdriver --test codec_props soak
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- --check "$SOAK_TRACE"

echo "==> bench smoke: gw-3-r8 figures row vs goldens"
# Runs the figures bench in smoke mode: one gw-3 (8-EIP) row through the
# DFS and summary engines at threads=1, asserting the goldens it still
# checks: smt_checks (12,648 DFS, 11,406 summary) and the 253-template
# count on both. Catches silent drift in the Fig. 11b metric —
# batched probing must keep one smt_check per probed arm — without paying
# for the full bench sweep. With observability off (no MEISSA_TRACE here),
# this also runs the disabled-path guard: a gated obs site must cost one
# relaxed atomic load (< 5 ns), or the smoke run fails.
MEISSA_BENCH_SMOKE=1 cargo bench -q --offline -p meissa-bench

echo "==> e2e benchmark: unit tests + gw3-verdicts correctness gate"
# The end-to-end benchmark's own tests, then one short run of its
# gw3-verdicts workload. The run exits 1 on `"correct":false`: it checks
# the template, rule-coverage and case-count goldens, that a faithful
# target fails no case, and that a target dropping setValid(vxlan) is
# caught. Any change to how cases are generated or planned must keep it.
cargo test -q --release --offline --manifest-path e2e-bench/Cargo.toml
cargo run -q --release --offline --manifest-path e2e-bench/Cargo.toml --bin e2e -- \
  run --workload gw3-verdicts --seed 0 --seconds 2

echo "==> e2e benchmark: gw1-wide-verdicts correctness gate"
# The same gate on gw-1 with 1024 EIPs: one pipeline, so plain DFS with
# the work-sharing explorer generates everything. It checks the
# 2,051-template, 2,048/2,048-rule and 4,102-case goldens and the
# dropped-setValid(vxlan) fault.
cargo run -q --release --offline --manifest-path e2e-bench/Cargo.toml --bin e2e -- \
  run --workload gw1-wide-verdicts --seed 0 --seconds 2

echo "==> e2e benchmark: gw4-verdicts correctness gate"
# The same gate on gw-4/set-4, the paper's headline program, where code
# summary generates and the driver plans and checks 10,410 cases on the
# run's two workers. It checks the template, rule-coverage and case-count
# goldens and the dropped-setValid(vxlan) fault.
cargo run -q --release --offline --manifest-path e2e-bench/Cargo.toml --bin e2e -- \
  run --workload gw4-verdicts --seed 0 --seconds 2

echo "==> stateful bench smoke: firewall unrolling sweep + sequence trace"
# Runs the stateful unrolling sweep (sequence templates and time vs k on
# the connection-tracking firewall, writing results/stateful_unroll.txt
# and BENCH_stateful.json), then reconciles the engine's sequence.* spans
# with meissa-trace: every line parses, span ids are unique, parents
# resolve, children nest. The sweep itself asserts the k=1 degeneration
# contract against the single-packet engine.
MEISSA_BENCH_STATEFUL=1 cargo bench -q --offline -p meissa-bench
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- --check results/trace_stateful_unroll.jsonl
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- results/trace_stateful_unroll.jsonl

echo "==> scaling guard: gw-3-r32/dfs t4 speedup (host-gated)"
# On a host with >= 4 cores the work-stealing DFS must deliver at least a
# 2.0x speedup at 4 threads on the large gateway, or the run fails — this
# is the regression tripwire for the serialization bugs the scaling trace
# work flushed out (static donation depth, merge on the join path, cold
# min_paths floor). On smaller hosts the engine right-sizes its pool to
# the available cores, the target is unattainable by construction, and
# the guard is skipped.
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  MEISSA_BENCH_SCALING=1 cargo bench -q --offline -p meissa-bench
else
  echo "skipped: host exposes $cores core(s) (< 4)"
fi

echo "==> obs smoke: traced gw-3-r8 run + meissa-trace --check"
# Re-runs the bench smoke with a JSONL trace sink attached (the engine's
# counters must not move — the smoke goldens still apply), then validates
# the trace with meissa-trace: every line parses, span ids are unique,
# parents resolve, children nest inside their parent's interval. The
# summarizer run at the end proves the per-phase/per-worker report path.
OBS_TRACE="$PWD/target/obs_smoke.jsonl"
rm -f "$OBS_TRACE"
MEISSA_BENCH_SMOKE=1 MEISSA_TRACE="$OBS_TRACE" cargo bench -q --offline -p meissa-bench
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- --check "$OBS_TRACE"
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- "$OBS_TRACE"

echo "==> coverage ledger & diff gate: identical runs match, mutations fail"
# Two identical-seed traced gw-3 runs append RunRecords to separate
# ledgers; `meissa-trace diff` must pass them (covered arms preserved,
# smt_checks/templates/valid_paths exactly equal). Then a seeded
# coverage-dropping mutation — the last eip_lookup rule removed — must
# make the gate FAIL and name the now-missing rule, or the gate itself
# is broken.
LEDGER_DIR="$PWD/target/ledger_gate"
rm -rf "$LEDGER_DIR" && mkdir -p "$LEDGER_DIR"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-3 --eips 8 --threads 4 --ledger "$LEDGER_DIR/a.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-3 --eips 8 --threads 4 --ledger "$LEDGER_DIR/b.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- \
  diff "$LEDGER_DIR/a.jsonl" "$LEDGER_DIR/b.jsonl"
# Thread invariance on a wide single pipeline: gw-1 with 1024 EIPs at one
# thread and at two, where range tasks split its 1,025-way branches, must
# cover the same arms with the same exact counters.
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-1 --eips 1024 --threads 1 --ledger "$LEDGER_DIR/wide_t1.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-1 --eips 1024 --threads 2 --ledger "$LEDGER_DIR/wide_t2.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- \
  diff "$LEDGER_DIR/wide_t1.jsonl" "$LEDGER_DIR/wide_t2.jsonl"
# The same gate on the summary path: gw-4's batch workers keep one warm
# solver across the jobs they run, and which jobs share a worker must not
# leak into smt_checks, templates or valid_paths.
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-4 --threads 1 --ledger "$LEDGER_DIR/gw4_t1.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-4 --threads 2 --ledger "$LEDGER_DIR/gw4_t2.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- \
  diff "$LEDGER_DIR/gw4_t1.jsonl" "$LEDGER_DIR/gw4_t2.jsonl"
cargo run -q --offline --release -p meissa-bench --bin meissa-run -- \
  gw-3 --eips 8 --threads 4 --ledger "$LEDGER_DIR/mut.jsonl" --drop-last-rule eip_lookup
if out=$(cargo run -q --offline --release -p meissa-bench --bin meissa-trace -- \
    diff "$LEDGER_DIR/a.jsonl" "$LEDGER_DIR/mut.jsonl"); then
  echo "diff gate FAILED to fail on a coverage-dropping mutation:" >&2
  echo "$out" >&2
  exit 1
fi
if ! echo "$out" | grep -q "table eip_lookup rule .* absent in candidate"; then
  echo "diff gate failed but did not name the dropped rule:" >&2
  echo "$out" >&2
  exit 1
fi
echo "ok: identical runs diff clean; dropped rule named and gated"

echo "==> dependency guard: workspace crates only"
# Every line of the flat dependency listing must be a meissa-* path crate
# (or the facade crate `meissa` itself). Anything else is an external
# dependency and breaks the hermetic-build guarantee.
bad=$(cargo tree --offline --workspace --prefix none --edges normal,build,dev \
  | sed 's/ (\*)$//' | sort -u \
  | grep -v -E '^meissa(-[a-z]+)? v[0-9.]+ \(/' || true)
if [ -n "$bad" ]; then
  echo "non-workspace dependencies found:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "ok: dependency graph is meissa-* only"

echo "==> dependency guard: the frontend takes programs and rules as text"
# meissa-lang parses P4lite source and rule text; it encodes and decodes
# no JSON, so meissa-testkit may only be a dev-dependency of it.
if cargo tree --offline -p meissa-lang --edges normal --depth 1 --prefix none \
  | grep -q '^meissa-testkit '; then
  echo "meissa-lang has a normal dependency on meissa-testkit" >&2
  exit 1
fi
echo "ok: meissa-testkit is a dev-dependency of meissa-lang only"
