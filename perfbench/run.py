"""Benchmark one sigmalab workload.

    python3 perfbench/run.py --workload scan|bigq|charsum --seed N
        --seconds S --trace 0|1 [--scale full|small]

Runs whole rounds of the workload's call list, each in a fresh interpreter
(oneround.py), until S seconds, not counting the output checks, have
passed; at least MIN_ROUNDS rounds always run, so that even on a slow
machine no per-call median is the mean of just two rounds.
The first round checks every output against reference.py; every later
round must reproduce the first round's outputs exactly.  Per-call medians
and the machine are printed first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones.  wall_s and cli_s sum,
over the calls of the list (the CLI commands expected to succeed, for
cli_s), each call's median time across the rounds, so that a few seconds
of a slower machine spoil one call's sample, not a whole round's, and one
outlying round of a call does not set its figure.  setup_s and
peak_rss_mb are medians across the rounds.  With --trace 1 every round
is traced and the metrics are the per-layer ones, medians across rounds.

Exits 1 without a result line if a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"wall_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 3


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(args, outdir: Path, check: bool) -> dict:
    cmd = [sys.executable, str(HERE / "oneround.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--outdir", str(outdir), "--scale", args.scale,
           "--trace", str(args.trace), "--check", str(int(check))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan", "bigq", "charsum"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args()
    if not (ROOT / "src" / "sigmalab" / "__init__.py").is_file():
        print(f"run.py: no sigmalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    outdir = ROOT / ".perfbench_out" / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    rounds = []
    try:
        start = time.perf_counter()
        checking = 0.0
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start - checking < args.seconds):
            rounds.append(run_round(args, outdir, check=not rounds))
            checking += rounds[-1].get("check_s", 0.0)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass

    first = rounds[0]
    failures = list(first["failures"])
    for i, r in enumerate(rounds[1:], start=2):
        for label, digest in r["digests"].items():
            if first["digests"].get(label) != digest:
                failures.append(f"{label}: round {i} output differs from round 1")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds")
    for label in first["calls"]:
        median = statistics.median(r["calls"][label] for r in rounds)
        print(f"  call {median:10.4f} s  {label}")
    print("machine " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": first["numpy"], "git_sha": git_sha()}))

    if args.trace:
        names = first["layers"].keys()
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": unit_of(name)} for name in names}
    else:
        call_medians = {label: statistics.median(r["calls"][label] for r in rounds)
                        for label in first["calls"]}
        values = {
            "wall_s": sum(call_medians.values()),
            "cli_s": sum(call_medians[label] for label in first["cli_calls"]),
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
