#!/usr/bin/env python3
"""Wall-clock Coulomb Apply benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library sources in src/) in Release
mode under $CARGO_TARGET_DIR (default .bench_build), runs perfbench_apply,
and prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Exits non-zero when the build fails or an
output check fails. Metric definitions, workloads and the layer-to-end-to-end
prediction table are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_apply",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_apply")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             check=True, capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def source_digest():
    """SHA-256 over the library and benchmark sources, for provenance where
    no git SHA exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed == 0:
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)[args.workload]
        cmd += ["--expect-norm", repr(ref["v_norm"]),
                "--expect-probe", repr(ref["v_probe"])]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench_apply exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"perfbench_apply exited {proc.returncode} without a record")
        return 1
    record["provenance"]["git_sha"] = git_sha()
    record["provenance"]["source_sha256"] = source_digest()
    print("\n".join(lines[:-1]))
    print(json.dumps(record))

    measured = record["per_layer" if args.trace else "end_to_end"]
    mismatched = [m["name"] for m in wanted
                  if measured.get(m["name"], {}).get("unit") != m["unit"]]
    if mismatched:
        log(f"metrics missing from the record or in another unit: "
            f"{mismatched}")
        return 1
    correct = bool(record["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": measured[m["name"]]["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
