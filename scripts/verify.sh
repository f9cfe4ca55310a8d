#!/usr/bin/env bash
# Full verification gate for the hermetic workspace. Everything runs with
# --offline: a clean checkout must build with no network and no registry
# cache, or the hermetic-build guarantee is broken.
#
# Usage: scripts/verify.sh [--fast]
#   --fast   smoke-run the bench targets too (SIM_BENCH_FAST=1); skipped
#            entirely by default because full benches take minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Tier-1 gate: release build + the whole test suite, fully offline.
run cargo build --release --offline --workspace
run cargo test -q --offline --workspace

# The same suite once more with the simulation pool forced to two
# workers, so every test exercises the work-stealing path (the default
# above resolves to the machine's parallelism, which can be 1 in CI).
SIM_THREADS=2 run cargo test -q --offline --workspace

# Style and lint gates.
run cargo fmt --all --check
run cargo clippy --offline --workspace --all-targets -- -D warnings

# Telemetry smoke: a tiny instrumented fig5 run (with tracing on) must
# emit a parseable event stream, a manifest sidecar and a trace sidecar;
# the report and the profiler must read them back, and the profiler must
# leave its exporter artifacts (collapsed stack, Chrome trace, analysis
# JSON) behind. Uses a scratch directory so the tracked CSVs in results/
# are not overwritten with reduced-scale data.
smoke_out="${TMPDIR:-/tmp}/aegis-verify-smoke"
rm -rf "$smoke_out"
run cargo run --release --offline -p aegis-experiments -- \
    fig5 --pages 2 --trace --run-id verify-smoke --quiet --out "$smoke_out"
for f in "$smoke_out"/telemetry/verify-smoke.jsonl \
         "$smoke_out"/telemetry/verify-smoke.manifest.json \
         "$smoke_out"/telemetry/verify-smoke.trace.jsonl; do
    [[ -s "$f" ]] || { echo "missing telemetry output: $f" >&2; exit 1; }
done
echo "==> experiments telemetry-report verify-smoke"
cargo run --release --offline -p aegis-experiments -- \
    telemetry-report verify-smoke --out "$smoke_out" >/dev/null
echo "==> experiments telemetry-analyze verify-smoke"
cargo run --release --offline -p aegis-experiments -- \
    telemetry-analyze verify-smoke --out "$smoke_out" >/dev/null
for f in "$smoke_out"/telemetry/verify-smoke.collapsed.txt \
         "$smoke_out"/telemetry/verify-smoke.chrome.json \
         "$smoke_out"/telemetry/verify-smoke.analysis.json; do
    [[ -s "$f" ]] || { echo "missing profiler artifact: $f" >&2; exit 1; }
done
# Block-death forensics smoke: the replayed per-block trace must be
# byte-identical across two invocations of the same seed.
echo "==> experiments fig5 --trace-block 1,12 (determinism)"
cargo run --release --offline -p aegis-experiments -- \
    fig5 --pages 2 --trace-block 1,12 >"$smoke_out/trace-block.a"
cargo run --release --offline -p aegis-experiments -- \
    fig5 --pages 2 --trace-block 1,12 >"$smoke_out/trace-block.b"
cmp "$smoke_out/trace-block.a" "$smoke_out/trace-block.b" \
    || { echo "--trace-block output is not deterministic" >&2; exit 1; }
rm -rf "$smoke_out"

# Shard/merge smoke: a fig5 campaign split into two seed-disjoint shards
# and merged back must reproduce the unsharded run byte-for-byte — same
# report, same CSVs, same telemetry stream modulo volatile lines.
shard_out="${TMPDIR:-/tmp}/aegis-verify-shard"
rm -rf "$shard_out"
mkdir -p "$shard_out/ref" "$shard_out/sh"
echo "==> experiments shard/merge smoke (2 shards vs unsharded)"
cargo run --release --offline -p aegis-experiments -- \
    fig5 --pages 8 --seed 7 --telemetry --quiet --out "$shard_out/ref" \
    >"$shard_out/ref-report.txt"
for i in 0 1; do
    cargo run --release --offline -p aegis-experiments -- \
        shard fig5 --pages 8 --seed 7 --shards 2 --shard-id "$i" \
        --quiet --out "$shard_out/sh" >/dev/null
done
cargo run --release --offline -p aegis-experiments -- \
    merge fig5-s7-shard1of2 fig5-s7-shard0of2 --quiet --out "$shard_out/sh" \
    >"$shard_out/sh-report.txt"
cmp "$shard_out/ref-report.txt" "$shard_out/sh-report.txt" \
    || { echo "merged report differs from the unsharded run" >&2; exit 1; }
# The CSVs carry the PR 10 uncertainty columns, so these byte-level
# comparisons also pin "merge pools moment accumulators exactly": the
# merged ci95_half_width/rse must equal the unsharded run's.
head -1 "$shard_out/ref/fig5.csv" | grep -q "ci95_half_width,rse" \
    || { echo "fig5.csv is missing the CI columns" >&2; exit 1; }
for csv in fig5.csv fig6.csv fig7.csv; do
    cmp "$shard_out/ref/$csv" "$shard_out/sh/$csv" \
        || { echo "merged $csv differs from the unsharded run" >&2; exit 1; }
done
grep -v '"event": "volatile"' "$shard_out/ref/telemetry/fig5-s7.jsonl" \
    >"$shard_out/ref-stream.jsonl"
grep -v '"event": "volatile"' "$shard_out/sh/telemetry/fig5-s7.jsonl" \
    >"$shard_out/sh-stream.jsonl"
cmp "$shard_out/ref-stream.jsonl" "$shard_out/sh-stream.jsonl" \
    || { echo "merged telemetry stream differs from the unsharded run" >&2; exit 1; }
rm -rf "$shard_out"

# fig8 smoke (PR 8): the matched-overhead masking sweep split into two
# page shards and merged back must reproduce the unsharded run — same
# report, same fig8.csv — and the sweep must cover all three
# partially-stuck fractions.
fig8_out="${TMPDIR:-/tmp}/aegis-verify-fig8"
rm -rf "$fig8_out"
mkdir -p "$fig8_out/ref" "$fig8_out/sh"
echo "==> experiments fig8 shard/merge smoke (2 shards vs unsharded)"
cargo run --release --offline -p aegis-experiments -- \
    fig8 --pages 4 --seed 7 --quiet --out "$fig8_out/ref" \
    >"$fig8_out/ref-report.txt"
for pct in 0 25 50; do
    grep -q "^$pct," "$fig8_out/ref/fig8.csv" \
        || { echo "fig8.csv missing the $pct% partially-stuck fraction" >&2; exit 1; }
done
for i in 0 1; do
    cargo run --release --offline -p aegis-experiments -- \
        shard fig8 --pages 4 --seed 7 --shards 2 --shard-id "$i" \
        --quiet --out "$fig8_out/sh" >/dev/null
done
cargo run --release --offline -p aegis-experiments -- \
    merge fig8-s7-shard1of2 fig8-s7-shard0of2 --quiet --out "$fig8_out/sh" \
    >"$fig8_out/sh-report.txt"
cmp "$fig8_out/ref-report.txt" "$fig8_out/sh-report.txt" \
    || { echo "merged fig8 report differs from the unsharded run" >&2; exit 1; }
cmp "$fig8_out/ref/fig8.csv" "$fig8_out/sh/fig8.csv" \
    || { echo "merged fig8.csv differs from the unsharded run" >&2; exit 1; }
rm -rf "$fig8_out"

# Committed-artifact freshness: the functional-codec extension CSVs in
# results/ must equal what `experiments <cmd>` writes at the default
# seed, so a change to a codec or to its sweep cannot leave them stale.
# failcdf --full and fig10 --full pin the timeline sampler's stream and
# the shared block-trial pass the same way: every trial's block is
# sampled once and judged by every scheme, so any drift in the sampled
# lifetimes, their order, the per-event draws or the per-scheme verdicts
# changes these CSVs. fig5/fig8/fig9 --full pin the page-major chip pass
# at paper scale: each page sampled once, every scheme judged on it with
# one shared split tape. fig11 --full (fig11-13) pins the base-Aegis
# verdicts across formations.
codec_out="${TMPDIR:-/tmp}/aegis-verify-codec-csvs"
rm -rf "$codec_out"
echo "==> results/{writecost,biasstudy,cachestudy,failcdf,fig10,fig5-7,fig8,fig9,fig11-13}.csv match a default-seed run"
for cmd in writecost biasstudy cachestudy "failcdf --full" "fig10 --full" \
           "fig5 --full" "fig8 --full" "fig9 --full" "fig11 --full"; do
    name="${cmd%% *}"
    case "$name" in
        fig5) csvs="fig5 fig6 fig7" ;;
        fig9) csvs="fig9 fig9_half_lifetime" ;;
        fig11) csvs="fig11 fig12 fig13" ;;
        *) csvs="$name" ;;
    esac
    # shellcheck disable=SC2086 # $cmd carries the command's flags
    cargo run --release --offline -p aegis-experiments -- \
        $cmd --quiet --out "$codec_out" >/dev/null
    for csv in $csvs; do
        cmp "results/$csv.csv" "$codec_out/$csv.csv" \
            || { echo "results/$csv.csv is stale: rerun experiments $cmd --out results" >&2; exit 1; }
    done
done
rm -rf "$codec_out"

# Memory ceiling: a straight paper-scale fig5 run keeps one sampled page
# per worker alive, not the whole chip, so its peak RSS stays far below
# the 2048-page chip's ~0.8 GB of timelines.
echo "==> fig5 --full peak RSS under 100 MB"
rss_out="${TMPDIR:-/tmp}/aegis-verify-rss"
rm -rf "$rss_out"
fig5_rss=$(python3 scripts/peak_rss.py ./target/release/experiments \
    fig5 --full --quiet --out "$rss_out")
echo "fig5 --full peak RSS: $fig5_rss MB"
awk -v mb="$fig5_rss" 'BEGIN { exit !(mb < 100) }' \
    || { echo "fig5 --full peaked at $fig5_rss MB (ceiling 100 MB)" >&2; exit 1; }
rm -rf "$rss_out"

# The checkpointed campaign runs page-major chunks too: no campaign
# timeline cache, the same ceiling, and the committed fig5-7 CSVs.
echo "==> fig5 --full --checkpoint-every 256 peak RSS under 100 MB"
ckpt_rss=$(python3 scripts/peak_rss.py ./target/release/experiments \
    fig5 --full --checkpoint-every 256 --telemetry --quiet --out "$rss_out")
echo "fig5 --full --checkpoint-every 256 peak RSS: $ckpt_rss MB"
awk -v mb="$ckpt_rss" 'BEGIN { exit !(mb < 100) }' \
    || { echo "fig5 --full --checkpoint-every 256 peaked at $ckpt_rss MB (ceiling 100 MB)" >&2; exit 1; }
for csv in fig5 fig6 fig7; do
    cmp "results/$csv.csv" "$rss_out/$csv.csv" \
        || { echo "checkpointed fig5 --full changed results/$csv.csv" >&2; exit 1; }
done
rm -rf "$rss_out"

# Observability smoke: runs recorded with --series --status must leave a
# series sidecar and a status heartbeat; `monitor --once --json` must
# report the finished campaign all_done; `telemetry-diff` must find a
# run clean against its own seed (exit 0) and drifted against a
# different seed (exit 1) — the self-check that makes the diff tool
# trustworthy as a regression gate.
obs_out="${TMPDIR:-/tmp}/aegis-verify-obs"
rm -rf "$obs_out"
echo "==> observability smoke (series/status/monitor/telemetry-diff)"
for run in "obs-a 5" "obs-b 5" "obs-c 6"; do
    set -- $run
    cargo run --release --offline -p aegis-experiments -- \
        fig5 --pages 2 --seed "$2" --series --status --run-id "$1" \
        --quiet --out "$obs_out" >/dev/null
    for f in "$obs_out/telemetry/$1.series.jsonl" "$obs_out/telemetry/$1.status.json"; do
        [[ -s "$f" ]] || { echo "missing observability output: $f" >&2; exit 1; }
    done
done
cargo run --release --offline -p aegis-experiments -- \
    monitor --once --json --out "$obs_out" | grep -q '"all_done": true' \
    || { echo "monitor did not report the finished campaign all_done" >&2; exit 1; }
cargo run --release --offline -p aegis-experiments -- \
    telemetry-diff obs-a obs-b --out "$obs_out" >/dev/null \
    || { echo "telemetry-diff flagged drift between identical seeds" >&2; exit 1; }
if cargo run --release --offline -p aegis-experiments -- \
    telemetry-diff obs-a obs-c --out "$obs_out" >/dev/null 2>&1; then
    echo "telemetry-diff missed drift between different seeds" >&2; exit 1
fi
rm -rf "$obs_out"

# Convergence smoke (PR 10): `--target-rse` must stop a fig5 campaign
# early, and the stop decision must be a pure function of pages
# processed — the stopped stream is byte-identical at two worker
# threads and across SIGINT + --resume. Larger memory blocks slow the
# per-page step so the SIGINT below has a wide window of checkpoint
# barriers to land between.
conv_out="${TMPDIR:-/tmp}/aegis-verify-conv"
rm -rf "$conv_out"
mkdir -p "$conv_out"
bin=./target/release/experiments
conv_strip() {
    grep -v -e '"event": "volatile"' -e '"event": "series_volatile"' "$1"
}
echo "==> convergence smoke (--target-rse early stop, threads, SIGINT/--resume)"
run_conv() { # run_conv OUT_DIR THREADS EXTRA...
    local out_dir="$1" threads="$2"; shift 2
    "$bin" fig5 --pages 8 --seed 9 --page-bytes 32768 --series --status \
        --target-rse 0.5 --threads "$threads" --checkpoint-every 1 \
        --run-id conv --quiet --out "$out_dir" "$@" >/dev/null
}
run_conv "$conv_out/ref" 1
pages_done=$(sed -n 's/.*"pages_done": \([0-9]*\).*/\1/p' \
    "$conv_out/ref/telemetry/conv.status.json")
pages_total=$(sed -n 's/.*"pages_total": \([0-9]*\).*/\1/p' \
    "$conv_out/ref/telemetry/conv.status.json")
[[ "$pages_done" -lt "$pages_total" ]] \
    || { echo "--target-rse did not stop early ($pages_done of $pages_total pages)" >&2; exit 1; }
run_conv "$conv_out/t2" 2
for f in conv.jsonl conv.series.jsonl; do
    conv_strip "$conv_out/ref/telemetry/$f" >"$conv_out/a.strip"
    conv_strip "$conv_out/t2/telemetry/$f" >"$conv_out/b.strip"
    cmp "$conv_out/a.strip" "$conv_out/b.strip" \
        || { echo "stopped $f differs between --threads 1 and --threads 2" >&2; exit 1; }
done
# SIGINT mid-run, then --resume: the finished stream must still match.
# The binary is backgrounded as a direct simple command — backgrounding
# the run_conv *function* wraps it in a subshell whose non-interactive
# SIGINT disposition can swallow the signal before it reaches the
# binary. The leg may rarely finish before the signal lands (exit 0
# instead of 130); retry with a fresh directory in that case.
for attempt in 1 2 3; do
    rm -rf "$conv_out/int"
    "$bin" fig5 --pages 8 --seed 9 --page-bytes 32768 --series --status \
        --target-rse 0.5 --threads 1 --checkpoint-every 1 \
        --run-id conv --quiet --out "$conv_out/int" >/dev/null &
    conv_pid=$!
    for _ in $(seq 1 200); do
        [[ -s "$conv_out/int/telemetry/conv.ckpt.json" ]] && break
        sleep 0.02
    done
    kill -INT "$conv_pid" 2>/dev/null || true
    conv_rc=0; wait "$conv_pid" || conv_rc=$?
    if [[ "$conv_rc" -eq 130 ]]; then
        break
    fi
    [[ "$attempt" -lt 3 ]] \
        || { echo "could not interrupt the convergence leg (exit $conv_rc)" >&2; exit 1; }
done
"$bin" fig5 --resume conv --quiet --out "$conv_out/int" >/dev/null
for f in conv.jsonl conv.series.jsonl; do
    conv_strip "$conv_out/ref/telemetry/$f" >"$conv_out/a.strip"
    conv_strip "$conv_out/int/telemetry/$f" >"$conv_out/b.strip"
    cmp "$conv_out/a.strip" "$conv_out/b.strip" \
        || { echo "stopped $f differs after SIGINT + --resume" >&2; exit 1; }
done
rm -rf "$conv_out"

# Repo hygiene: every PR's bench record AND its regression baseline must
# be committed — the PR 4 pair was once missing for two releases because
# the gate only printed a skip notice when a baseline was absent.
for pr in pr3 pr4 pr5 pr7 pr10; do
    for f in "results/bench/BENCH_$pr.json" "results/bench/BENCH_$pr.baseline.json"; do
        [[ -s "$f" ]] || { echo "missing committed bench record: $f" >&2; exit 1; }
    done
done

# Differential kernel suite at CI depth: 10^4 random cases per codec
# variant, word-level kernels vs the retained scalar references (see
# tests/differential_kernels.rs). The default `cargo test` above already
# ran it at reduced depth; this is the zero-divergence gate.
SIM_PROP_CASES=10000 run cargo test -q --offline --release --test differential_kernels

# Differential policy suite at CI depth: 10^4 random cases per property,
# warm incremental scratches vs cold recomputes vs the stateless
# reference across all policy families — including the masking/PLBC
# predicates with partially-stuck arrivals (see
# tests/incremental_policies.rs).
SIM_PROP_CASES=10000 run cargo test -q --offline --release --test incremental_policies

# Theorem/guarantee suite at CI depth: the paper's theorems over random
# rectangle formations plus the PR 8 masking invariants — the Mask
# t ⊆ t+1 subspace chain at random partially-stuck fractions and the
# weak-write-strength monotonicity of the split sampler (see
# tests/theorem_invariants.rs).
SIM_PROP_CASES=10000 run cargo test -q --offline --release --test theorem_invariants

# Dominance suite at CI depth: the cross-scheme partial orders,
# Mask6 ⊋ ECP6 at matched overhead, PLBC pointer-budget monotonicity
# and the exhaustive Mask2/PLC1+1 crossover (see tests/dominance.rs).
SIM_PROP_CASES=10000 run cargo test -q --offline --release --test dominance

# Timeline-sampler suite at CI depth: 10^4 random sampler configurations,
# the select-k kernel vs the retained sort-everything reference, equal
# events and equal RNG state afterwards (see tests/timeline_sampler.rs).
SIM_PROP_CASES=10000 run cargo test -q --offline --release --test timeline_sampler

# Estimate suite at CI depth: Wilson coverage on 10^4 Bernoulli streams
# per proportion and 10^4 shrinking merge-exactness cases (see
# tests/estimates.rs).
SIM_PROP_CASES=10000 run cargo test -q --offline --release --test estimates

# Bench gate: run the kernel (PR 3), engine (PR 4), tracing-overhead
# (PR 5), series/status-overhead (PR 7) and estimate-snapshot (PR 10)
# benchmarks into a scratch directory (so the tracked results/bench/
# records are not clobbered) and check the speedup and overhead ratios
# plus the recorded baselines (see EXPERIMENTS.md for regeneration).
bench_out="${TMPDIR:-/tmp}/aegis-verify-bench"
rm -rf "$bench_out"
SIM_BENCH_OUT="$bench_out" run cargo bench --offline -p aegis-bench --bench kernels
SIM_BENCH_OUT="$bench_out" run cargo bench --offline -p aegis-bench --bench engine
SIM_BENCH_OUT="$bench_out" run cargo bench --offline -p aegis-bench --bench tracing
SIM_BENCH_OUT="$bench_out" run cargo bench --offline -p aegis-bench --bench series
SIM_BENCH_OUT="$bench_out" run cargo bench --offline -p aegis-bench --bench estimates
run cargo run -q --release --offline -p aegis-bench --bin bench-gate \
    "$bench_out/BENCH_pr3.json" results/bench
rm -rf "$bench_out"

# Optional: compile + smoke-run every bench target.
if [[ "${1:-}" == "--fast" ]]; then
    SIM_BENCH_FAST=1 run cargo bench --offline --workspace
fi

echo "==> verify OK"
