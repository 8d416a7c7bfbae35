"""One round of one workload, in a fresh interpreter.

    python3 perfbench/oneround.py --workload scan --seed 1 --outdir DIR
        [--scale full|small] [--trace 0|1] [--check 0|1]

Imports sigmalab from src/ of the checkout that holds this file, builds the
workload's inputs, runs its call list once and prints one JSON line: the
set-up time, the wall time of the list, the peak RSS, per-call times, which
calls are CLI commands, a fingerprint of every output and, when asked,
per-layer metrics (--trace 1) and the reference-check failures and their
time (--check 1).
The peak RSS is read before any fingerprint or check runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def load_program() -> dict:
    """The sigmalab modules, imported from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sigmalab

    if Path(sigmalab.__file__).resolve().parent != src / "sigmalab":
        raise SystemExit(f"sigmalab imported from {sigmalab.__file__}, not from {src}")
    return {layer: importlib.import_module(f"sigmalab.{layer}")
            for layer in ("cli", "census", "lsd", "factor", "characters",
                          "charsums", "varieties", "_scan")}


def fingerprint(value) -> str:
    """Digest of an output, equal for equal outputs; reads CLI output files."""
    import numpy as np

    h = hashlib.sha256()

    def feed(v) -> None:
        if dataclasses.is_dataclass(v):
            h.update(type(v).__name__.encode())
            for f in dataclasses.fields(v):
                feed(f.name)
                feed(getattr(v, f.name))
            if getattr(v, "output", None):
                h.update(Path(v.output).read_bytes())
        elif isinstance(v, dict) and len(v) > 64:
            h.update(np.fromiter(v.keys(), np.int64, len(v)).tobytes())
            h.update(np.fromiter(v.values(), np.int64, len(v)).tobytes())
        elif isinstance(v, dict):
            for key, item in v.items():
                feed(key)
                feed(item)
        elif isinstance(v, (list, tuple)):
            h.update(f"[{len(v)}".encode())
            for item in v:
                feed(item)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    lib = load_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    params = wl.params(args.seed, args.scale)
    ops = wl.ops(SimpleNamespace(**lib), params, args.outdir)
    setup_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(lib)

    outputs, calls, failed = {}, {}, []
    list_start = time.perf_counter()
    for op in ops:
        span = tracer.enter(op.layer, op.label) if tracer else None
        t0 = time.perf_counter()
        try:
            result = op.run()
            ok = op.ok(result)
        except Exception as exc:  # a failing call is counted, and the list goes on
            result, ok = f"{type(exc).__name__}: {exc}", False
        calls[op.label] = time.perf_counter() - t0
        if span is not None:
            tracer.exit(span)
        outputs[op.label] = result
        if not ok:
            failed.append(op.label)
    wall_s = time.perf_counter() - list_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    import numpy

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cli_calls": [op.label for op in ops if op.counts_as_cli],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "calls": calls,
        "numpy": numpy.__version__,
        "digests": {label: fingerprint(v) for label, v in outputs.items()},
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers["trace.wall_s"] = wall_s
        layers["cli.output_mb"] = sum(os.path.getsize(op.output) for op in ops
                                      if op.output and os.path.exists(op.output)) / 1e6
        report["layers"] = layers
    if args.check:
        check_start = time.perf_counter()
        ck = workloads.Checker()
        wl.check(params, {k: v for k, v in outputs.items() if k not in failed}, ck)
        report["failures"] = ck.failures
        report["check_s"] = time.perf_counter() - check_start
    print(json.dumps(report))


if __name__ == "__main__":
    main()
