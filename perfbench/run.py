#!/usr/bin/env python3
"""Repository benchmark for the `experiments` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 10 --trace 0

Builds the release `experiments` binary and the `perfbench` helper, then
for `--seconds` runs the workload's CLI command back to back (tracing off),
one process at a time, timing each run's wall clock and peak memory. A
traced in-process replay at the same seed follows; it rebuilds every output
file the CLI wrote and checks each CLI run against it byte for byte. The
last line of standard output is one JSON object: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Each workload's CLI command and scale. Every run adds
# `--seed N --threads T --quiet --out DIR`.
WORKLOADS = {
    "fig5-sweep": {"cli": ["fig5"], "scale": {"pages": 256}},
    "block-trials": {"cli": ["failcdf"], "scale": {"trials": 12000}},
    "fig8-campaign": {
        "cli": ["fig8", "--telemetry", "--series", "--status"],
        "scale": {"pages": 32, "every": 4},
    },
}
CLI_FLAG = {"pages": "--pages", "trials": "--trials", "every": "--checkpoint-every"}

MIN_REPS = 3  # untimed CLI runs per benchmark run, at least
SETUP_REPS = 15  # fresh set-up processes per benchmark run
REP_TIMEOUT_S = 120
EXACT_COUNTS = [
    "engine.fault_events",
    "engine.policy_decisions",
    "engine.pages",
    "timeline.blocks_sampled",
    "campaign.snapshots",
    "split.calls",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """Digest of the simulator's and the benchmark's sources, so results of
    different code are never compared silently when no git metadata is
    present."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.relpath(os.path.join(base, f), root) for f in sorted(files)]
    for rel in paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            digest.update(rel.encode())
            with open(full, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(root, threads, traced):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = "none"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "threads": threads,
        "cpu_model": cpu,
        "simd_backend": traced.get("simd_backend", "unknown"),
        "eval_lanes": traced.get("eval_lanes", 0),
        "git_revision": revision,
        "source_digest": source_digest(root),
    }


def build(root, env):
    for args in (
        ["-p", "aegis-experiments"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "-q", *args],
            cwd=root, env=env, stdout=sys.stderr, timeout=840,
        )
        if done.returncode != 0:
            fail(f"cargo build {' '.join(args)} failed")


def timed_process(argv, log_path):
    """Runs one process to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log)
        watchdog = threading.Timer(REP_TIMEOUT_S, child.kill)
        watchdog.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
        watchdog.cancel()
    # Reaped by wait4 above; tell Popen so it never waits again.
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def run_json(argv):
    done = subprocess.run(argv, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "experiments", "Cargo.toml"),
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(root, env)
    exe = os.path.join(target, "release", "experiments")
    helper = os.path.join(target, "release", "perfbench")

    spec = WORKLOADS[args.workload]
    threads = min(2, os.cpu_count() or 1)
    work = os.path.join(root, ".bench_out", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scale = spec["scale"]
    common = ["--seed", str(args.seed), "--threads", str(threads)]
    helper_args = ["--workload", args.workload, *common]
    for key, value in scale.items():
        helper_args += [f"--{key}", str(value)]
    cli_args = list(spec["cli"])
    for key, value in scale.items():
        cli_args += [CLI_FLAG[key], str(value)]

    try:
        # Set-up: each sample is a fresh process, as every CLI run pays it.
        setups = [
            run_json([helper, "setup", *helper_args, "--out", os.path.join(work, f"setup{i}")])
            for i in range(SETUP_REPS)
        ]

        # Untraced CLI runs, one at a time, for the measuring window.
        reps = []
        window_start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - window_start < args.seconds:
            out = os.path.join(work, f"rep{len(reps)}")
            code, wall, rss = timed_process(
                [exe, *cli_args, *common, "--quiet", "--out", out], out + ".log"
            )
            reps.append({"out": out, "code": code, "wall_s": wall, "rss_mb": rss})

        # Traced replay at the same seed: the reference outputs and the
        # per-layer metrics.
        notes = []
        try:
            compare = [flag for rep in reps for flag in ("--compare", rep["out"])]
            traced = run_json(
                [helper, "traced", *helper_args, "--out", os.path.join(work, "ref"), *compare]
            )
            mismatches = traced["mismatches"]
        except (RuntimeError, ValueError, subprocess.SubprocessError) as err:
            traced = {"layers": {}, "wall_s": 0.0}
            mismatches = [f"{rep['out']}: no reference ({err})" for rep in reps]
        notes += mismatches
        layers = traced["layers"]

        # Exact counts must repeat across runs of one seed on one source.
        prov = provenance(root, threads, traced)
        counts = {name: layers.get(name) for name in EXACT_COUNTS}
        counts_path = os.path.join(
            root, ".bench_out",
            f"counts-{args.workload}-s{args.seed}-{prov['source_digest']}.json",
        )
        if layers:
            if os.path.exists(counts_path):
                with open(counts_path) as handle:
                    earlier = json.load(handle)
                if earlier != counts:
                    notes.append(f"exact counts changed for seed {args.seed}: "
                                 f"{earlier} then {counts}")
                    mismatches += [f"{rep['out']}: counts" for rep in reps]
            else:
                with open(counts_path, "w") as handle:
                    json.dump(counts, handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [
        rep for rep in reps
        if rep["code"] != 0 or any(rep["out"] + os.sep in m or rep["out"] + ":" in m
                                   for m in mismatches)
    ]
    for rep in reps:
        if rep["code"] != 0:
            notes.append(f"{os.path.basename(rep['out'])} exited with {rep['code']}")
    walls = [rep["wall_s"] for rep in reps]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(s["schemes_s"] + s["sidecars_s"] for s in setups)
    values = {
        "wall_s": wall_s,
        "fault_events_per_s": layers.get("engine.fault_events", 0.0) / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }
    layers["setup.schemes_s"] = statistics.median(s["schemes_s"] for s in setups)
    layers["setup.sidecars_s"] = statistics.median(s["sidecars_s"] for s in setups)
    layers["trace.overhead_ratio"] = traced["wall_s"] / wall_s

    # Human-readable report first; the last line is the machine result.
    print(f"workload {args.workload}  seed {args.seed}  runs {len(reps)}  "
          f"command: experiments {' '.join(cli_args + common)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"  {'wall_s':<22} median {wall_s:.4f} s  min {min(walls):.4f}  "
          f"max {max(walls):.4f}  n={len(walls)}")
    for name in ("fault_events_per_s", "setup_s", "peak_rss_mb"):
        print(f"  {name:<22} {values[name]:.6g} {units[name]}")
    print(f"  {'fail_ratio':<22} {len(failed)}/{len(reps)} = {len(failed) / len(reps):.3f}")
    if args.trace:
        for name in sorted(layers):
            if name in units:
                print(f"  {name:<32} {layers[name]:.6g} {units[name]}")
    for note in notes:
        print(f"  check: {note}")

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    source = layers if args.trace else values
    metrics = {
        m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
    }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
