"""Digest the results of a benchmark workload's operations.

    python3 tools/results_digest.py --workload interp|kernel|roots \
        [--seeds 1-5] [--ops N] [--expect SHA]

Run from anywhere inside a checkout; the checkout's own src/ is imported.
Per seed, the first N operations of perfbench's timed loop are drawn as
perfbench/worker.py draws them (`_order` for the kinds, `_rng` for each
input, the shared stream for a workload's SHARED_KINDS) and run one by
one, untimed.  The sha256 of the repr of each result (or of the exception
an operation raised) is fed into one digest per seed and one over all
seeds, which are printed, so two checkouts whose results agree print the
same lines.  Given --expect, the exit code is 1 when the digest over all
seeds differs from SHA.  perfbench is read, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("interp", "kernel", "roots")
STREAM = "timed"


def _worker():
    """perfbench's worker module, which pins the importing process to one
    CPU; the tool gives the process its CPUs back."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    worker = importlib.import_module("perfbench.worker")
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    return worker


def operations(workload: str, seed: int, ops: int):
    """The inputs of the first ops operations of the timed loop."""
    worker = _worker()
    wl = importlib.import_module(f"perfbench.wl_{workload}")
    n, shared = len(wl.CYCLE), {}
    for i in range(ops):
        if i % n == 0:
            order = worker._order(wl, seed, i // n)
        kind = order[i % n]
        if kind in getattr(wl, "SHARED_KINDS", ()):
            rng = worker._rng(wl, f"{STREAM}/shared/{kind}", 0, shared.get(kind, 0))
            shared[kind] = shared.get(kind, 0) + 1
        else:
            rng = worker._rng(wl, STREAM, seed, i)
        yield wl.make(kind, rng)


def digests(workload: str, seeds, ops: int) -> dict:
    """The hex digest per seed and, under "all", over every seed."""
    wl = importlib.import_module(f"perfbench.wl_{workload}")
    total, out = hashlib.sha256(), {}
    for seed in seeds:
        h = hashlib.sha256()
        for op in operations(workload, seed, ops):
            try:
                res = repr(wl.run(op))
            except Exception as exc:  # a raising operation has its exception as result
                res = f"{type(exc).__name__}: {exc}"
            h.update(hashlib.sha256(res.encode()).digest())
        out[seed] = h.hexdigest()
        total.update(h.digest())
    out["all"] = total.hexdigest()
    return out


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-5"), help="a seed or a range a-b")
    ap.add_argument("--ops", type=int, default=200, help="operations per seed")
    ap.add_argument("--expect", metavar="SHA", help="the digest over all seeds to require")
    args = ap.parse_args(argv)
    found = digests(args.workload, args.seeds, args.ops)
    for key, hexdigest in found.items():
        label = "all" if key == "all" else f"seed {key}"
        print(f"{args.workload} {label}: {hexdigest}")
    if args.expect is not None and found["all"] != args.expect:
        print(f"{args.workload}: expected all: {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
