#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload insitu-scan --seed 1 --seconds 10 --trace 0

--trace 0 runs the timed measurement and reports every end-to-end metric of
BENCHMARK.json; --trace 1 runs the traced ladder and reports every per-layer
metric, writing the layer report and its spans under the build directory's
reports/ folder. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails or any output check fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("insitu-scan", "insitu-compress", "kv-zipf")
# A run may take this long beyond twice --seconds: its set-ups, the traced
# ladder and the output checks.
SETUP_ALLOWANCE_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not d.is_absolute():
        d = ROOT / d
    return d / "perfbench"


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "Makefile").exists():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def describe():
    """git describe of the tree, or 'unknown' when git cannot say."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    if not build(out):
        log("perfbench: build failed")
        return 2
    reports = out / "reports"
    reports.mkdir(exist_ok=True)

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--report-dir", str(reports),
           "--describe", describe()]
    if args.trace:
        cmd.append("--trace")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=SETUP_ALLOWANCE_S + 2 * args.seconds)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 3
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    result = [l for l in lines if l.startswith("RESULT ")]
    if not result:
        log("perfbench: no result (exit %d)" % r.returncode)
        return 4
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    res = json.loads(result[-1][len("RESULT "):])

    metrics = {}
    missing = []
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        log("perfbench: metrics missing from the run: " + ", ".join(missing))
    correct = (r.returncode == 0 and not missing and res["failed"] == 0
               and res["attempted"] > 0)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
