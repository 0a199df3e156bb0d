#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Everything runs offline:
# the workspace has no third-party dependencies (DESIGN.md §5/§8).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> offline-policy lint (Cargo.lock must stay workspace-only)"
# Every [[package]] in the lock file must be one of our own crates; a
# `source` line would mean a registry/git dependency crept in.
if grep -q '^source = ' Cargo.lock; then
    echo "verify.sh: Cargo.lock contains a non-workspace package:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    exit 1
fi
if grep '^name = ' Cargo.lock | grep -qv '"sbif'; then
    echo "verify.sh: Cargo.lock lists a package outside the sbif workspace:" >&2
    grep '^name = ' Cargo.lock | grep -v '"sbif' >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> static-analysis gate (property suite + sbif-lint --strict)"
# The framework's own acceptance (DESIGN.md §14): ternary propagation
# against exhaustive simulation, cone slicing against random stimulus
# and the SBIF prefilter contract (strictly fewer windows, identical
# classes) — then the framework-driven sbif-lint in --strict mode over
# every shipped netlist. Generated dividers legitimately carry dead
# cones and structural duplicates, so those two rules are allow-listed;
# anything else (stuck-at, width gaps, …) fails the gate.
cargo test -q --offline --test analysis
./target/release/sbif-lint --strict --allow unreachable --allow duplicate-gate \
    examples/netlists/*.bnet tests/corpus/*.bnet

echo "==> sbif-fuzz --smoke mutation-kill gate (fixed seed, jobs-determinism)"
# The smoke profile pins the seed and mutant population; the binary
# itself fails unless every semantics-changing mutant (>= 200 required)
# is rejected with zero false alarms, zero escapes and zero crashes.
# Running it at two worker counts and byte-comparing the kill matrices
# extends the jobs-determinism discipline to the fuzz subsystem.
FUZZ_TMP="$(mktemp -d)"
trap 'rm -rf "$FUZZ_TMP"' EXIT
./target/release/sbif-fuzz --smoke --jobs 1 --json "$FUZZ_TMP/kill-1.json" \
    --metrics-out "$FUZZ_TMP/fuzz-metrics-1.json"
./target/release/sbif-fuzz --smoke --jobs 4 --json "$FUZZ_TMP/kill-4.json" \
    --metrics-out "$FUZZ_TMP/fuzz-metrics-4.json"
cmp "$FUZZ_TMP/kill-1.json" "$FUZZ_TMP/kill-4.json"
cmp "$FUZZ_TMP/fuzz-metrics-1.json" "$FUZZ_TMP/fuzz-metrics-4.json"
grep '"totals"' "$FUZZ_TMP/kill-1.json" | grep -q '"escaped": 0,'
grep '"totals"' "$FUZZ_TMP/kill-1.json" | grep -q '"false_alarms": 0,'

echo "==> trace gate (NDJSON contract + golden metrics byte-compare)"
# The deterministic metrics report must match the checked-in golden
# snapshot; the NDJSON event stream must satisfy the closed-set/
# span-balance contract enforced by the independent `sbif-trace check`
# tool (DESIGN.md §12).
./target/release/sbif-verify --demo 8 \
    --trace json --trace-out "$FUZZ_TMP/trace.ndjson" \
    --metrics-out "$FUZZ_TMP/metrics.json" > /dev/null
./target/release/sbif-trace check "$FUZZ_TMP/trace.ndjson"
cmp "$FUZZ_TMP/metrics.json" tests/golden/metrics_nonrestoring_n8.json

echo "==> service gate (frontends + result cache + sbif-serve smoke)"
# The verification-service layer (DESIGN.md §15): the parser
# conformance suite (AIGER/BENCH golden fixtures, write->parse
# round-trip properties, located rejection), the cache differential
# suite (cold = warm byte-identical, dirty-cone invalidation), and the
# daemon protocol tests.
cargo test -q --offline --test frontends
cargo test -q --offline --test cache
cargo test -q --offline --test serve
# Release-binary smoke: a daemon answers a job, a duplicate job hits
# the shared cache, and shutdown is clean — all inside a 10 s timeout
# so a wedged daemon fails the gate instead of hanging it.
SERVE_SOCK="$FUZZ_TMP/serve.sock"
timeout 10 ./target/release/sbif-serve "$SERVE_SOCK" \
    --cache-dir "$FUZZ_TMP/serve-cache" > /dev/null &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
./target/release/sbif-serve submit "$SERVE_SOCK" \
    '{"op": "verify", "id": 1, "demo": 6}' | grep -q '"verdict": "correct"'
./target/release/sbif-serve submit "$SERVE_SOCK" \
    '{"op": "verify", "id": 2, "demo": 6}' | grep -q '"cached": true'
./target/release/sbif-serve stop "$SERVE_SOCK" > /dev/null
wait "$SERVE_PID"
# Warm-over-cold on the fuzz side: a re-run over an unchanged corpus
# must reproduce the kill matrix byte for byte while skipping every
# already-judged seed and mutant (zero cache misses).
./target/release/sbif-fuzz --arch nonrestoring --n 4 --count 3 \
    --cache-dir "$FUZZ_TMP/fuzz-cache" --json "$FUZZ_TMP/kill-cold.json" \
    --metrics-out "$FUZZ_TMP/fm-cold.json" > /dev/null
./target/release/sbif-fuzz --arch nonrestoring --n 4 --count 3 \
    --cache-dir "$FUZZ_TMP/fuzz-cache" --json "$FUZZ_TMP/kill-warm.json" \
    --metrics-out "$FUZZ_TMP/fm-warm.json" > /dev/null
cmp "$FUZZ_TMP/kill-cold.json" "$FUZZ_TMP/kill-warm.json"
grep -q '"cache.misses": 0,' "$FUZZ_TMP/fm-warm.json"
if grep -q '"sbif.windows_solved"' "$FUZZ_TMP/fm-warm.json"; then
    echo "verify.sh: warm fuzz re-run still solved SBIF windows" >&2
    exit 1
fi

echo "==> robustness gate (resource governor + crash-safe daemon)"
# DESIGN.md §16: budgeted runs degrade to typed Inconclusive verdicts
# instead of aborting, byte-identically run to run; the daemon
# survives panicking jobs and SIGKILL mid-job (journal recovery and
# stale-socket rebind are asserted by tests/serve.rs, which the
# service gate above already runs under its 10 s stop discipline).
cargo test -q --offline -p sbif-govern
cargo test -q --offline --test governor
# Budget smoke on the known-divergent case: backward rewriting of the
# SRT divider blows any small term budget (DESIGN.md §16); governed,
# the standard flow must exit 0 with an inconclusive verdict naming
# the exhausted stage — inside a hard wall-clock ceiling so a hung
# governor fails the gate instead of wedging it.
timeout 60 ./target/release/sbif-verify --demo 6 --arch srt \
    --budget-conflicts 1 --budget-terms 10 --timeout 5000 \
    > "$FUZZ_TMP/srt-governed.out"
# Normally the term budget trips first ("rewrite exhausted
# rewrite-terms"); on a pathologically slow machine the 5 s watchdog
# may beat it — either way the contract is exit 0 + inconclusive.
grep -q "VERDICT: inconclusive (" "$FUZZ_TMP/srt-governed.out"

echo "==> SBIF scan gate (determinism + scheduler/batched-solver properties)"
# DESIGN.md §7: the level-major scan's classes and canonical metrics
# bytes are reproducible on every architecture and under an exhausted
# governor budget, a tripped budget is overrun by less than one check,
# and the scheduler/batched-solver property suite rides along.
cargo test -q --offline --test parallel_levels

echo "==> bdd gate (differential + property harness)"
# The BDD engine's own acceptance harness: every root of random
# netlists differentially checked against exhaustive truth-table
# simulation (tests/bdd_differential.rs), and the manager's structural
# walker — canonical complement-edge form, unique-table ownership,
# free-list consistency, pin survival — run after every random
# apply/compose/GC/sift (crates/bdd/tests/properties.rs).
cargo test -q --offline --test bdd_differential
cargo test -q --offline -p sbif-bdd --test properties

echo "==> bench determinism gate (scripts/bench_check.sh)"
./scripts/bench_check.sh

echo "verify.sh: all gates passed"
