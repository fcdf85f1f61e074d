"""One workload in one fresh interpreter; started by run.py, not by hand.

Modes:
  setup  import, warm up, report the moment the first timed operation
         could start, exit;
  timed  the same set-up, then the closed loop (one client, no threads)
         with tracing off and host-speed slices (perfbench/speed.py)
         between operations, about one per 50 ms, then every oracle;
  trace  the same set-up, one untraced and one traced pass over fixed,
         equally composed operation lists, then every oracle.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import speed, trace  # noqa: E402

# one CPU for this process and the processes it starts, so that the speed
# slices time the core the operations run on: without it, the cli
# workload's p50 spread over five seeds was 0.15, with it 0.05
try:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
except (AttributeError, OSError):
    pass

# host-speed slices before the library is imported as well as after the
# warm-up, so that set-up time is scaled by the host speed on both sides of
# it; the burst's own time is taken out of the set-up time
SETUP_METER = speed.Meter()
PRE_BURST_S = SETUP_METER.warm_burst()

import picweyl  # noqa: E402
from picweyl import BudgetError  # noqa: E402

LOOP_CAP_S = 120  # a run must end within 180 s whatever the machine


def _rng(wl, stream: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{wl.NAME}/{stream}/{seed}/{i}")


def _order(wl, seed: int, cycle: int) -> list[str]:
    """One cycle of operation kinds, in an order drawn afresh for every
    cycle, so that a run does not repeat one seed's order, and whatever
    the library caches between neighbouring operations, cycle after cycle."""
    kinds = list(wl.CYCLE)
    random.Random(f"{wl.NAME}/order/{seed}/{cycle}").shuffle(kinds)
    return kinds


def _execute(wl, kind: str, op: dict) -> dict:
    res = err = None
    budget = False
    t0 = time.perf_counter()
    try:
        res = wl.run(op)
    except BudgetError:
        budget = True
    except Exception as exc:  # an operation that raised counts as failed
        err = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return {"kind": kind, "op": op, "res": res, "err": err, "budget": budget,
            "start": t0, "latency": t1 - t0}


def run_fixed(wl, seed: int, stream: str, kinds) -> list[dict]:
    """The given kinds, with every input generated before the first call."""
    ops = [wl.make(kind, _rng(wl, stream, seed, i)) for i, kind in enumerate(kinds)]
    return [_execute(wl, kind, op) for kind, op in zip(kinds, ops)]


def run_timed(wl, seed: int, stream: str, seconds: float, meter: speed.Meter) -> list[dict]:
    """The seeded cycle until the time is up, and at least MIN_OPS
    operations, in whole cycles where the workload asks for them.  Inputs
    are generated, and the host speed sampled, between operations, outside
    the timed calls; each record's "scaled" latency is its wall latency at
    the reference speed."""
    records: list[dict] = []
    n = len(wl.CYCLE)
    shared = Counter()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        boundary = not getattr(wl, "WHOLE_CYCLES", False) or i % n == 0
        if (elapsed >= seconds and i >= wl.MIN_OPS and boundary) or elapsed > LOOP_CAP_S:
            break
        if i % n == 0:
            order = _order(wl, seed, i // n)
        kind = order[i % n]
        if kind in getattr(wl, "SHARED_KINDS", ()):
            # the k-th operation of this kind gets the same input under every seed
            rng = _rng(wl, f"{stream}/shared/{kind}", 0, shared[kind])
            shared[kind] += 1
        else:
            rng = _rng(wl, stream, seed, i)
        records.append(_execute(wl, kind, wl.make(kind, rng)))
        meter.maybe_sample()
        i += 1
    for rec in records:
        rec["scaled"] = rec["latency"] / meter.factor(rec["start"], rec["start"] + rec["latency"])
    return records


def judge(wl, seed: int, stream: str, records: list[dict]) -> None:
    """Run the oracle on every record; fill complete, census and error."""
    for i, rec in enumerate(records):
        rec["complete"], rec["census"] = None, {}
        if rec["budget"]:
            rec["complete"] = False
            continue
        if rec["err"] is not None:
            continue
        try:
            rec["complete"], rec["census"] = wl.outcome(rec["op"], rec["res"])
            rec["err"] = wl.check(rec["op"], rec["res"], _rng(wl, stream + "/oracle", seed, i))
        except Exception as exc:  # a malformed result is a failed operation
            rec["err"] = f"oracle raised {type(exc).__name__}: {exc}"


def summary(records: list[dict], key: str = "latency") -> dict:
    """Throughput and latency percentiles of the records' `key` times."""
    lat = [r[key] * 1e3 for r in records]
    verdicts = [r for r in records if r["complete"] is not None or r["budget"]]
    failed = [r for r in records if r["err"] is not None]
    done = len(records) - len(failed)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "errors": [f"{r['kind']}: {r['err']}" for r in failed[:5]],
        "ops_per_s": done / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
        "samples": len(lat),
        "error_ratio": len(failed) / len(records),
        "incomplete_ratio": (sum(1 for r in verdicts if r["complete"] is not True) / len(verdicts)
                             if verdicts else 0.0),
        "verdicts": len(verdicts),
    }


def census(records: list[dict]) -> dict:
    """Share of each input or outcome property, per property."""
    by_prop: dict[str, Counter] = {}
    for rec in records:
        for prop, label in rec["census"].items():
            by_prop.setdefault(prop, Counter())[label] += 1
    return {
        prop: {label: round(c / sum(counts.values()), 4) for label, c in sorted(counts.items())}
        for prop, counts in sorted(by_prop.items())
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def per_layer(tracer: trace.Tracer, records: list[dict]) -> dict:
    calls, self_s, counts = tracer.calls(), tracer.self_seconds(), tracer.counts
    verdicts = sum(1 for r in records if r["complete"] is not None or r["budget"])
    searches = [r for r in records if r["op"]["kind"] in ("theory", "orbit-bfs") and r["res"] is not None]
    out = {
        "fields.mul.count": counts["fields.mul"],
        "fields.addsub.count": counts["fields.addsub"],
        "fields.inv.count": counts["fields.inv"],
        "projgeom.row_reduce.calls": calls["projgeom.row_reduce"],
        "projgeom.row_reduce.cells": tracer.cells,
        "plane.effectivity_test.calls": calls["plane.effectivity_test"],
        "plane.classes_per_verdict": calls["plane.effectivity_test"] / verdicts if verdicts else 0.0,
        "cubic.group_add.count": counts["cubic.group_add"],
        "cubic.group_scalar.count": counts["cubic.group_scalar"],
        "catalog.enumerate_roots.calls": calls["catalog.enumerate_roots"],
        "catalog.enumerate_roots.roots": tracer.roots,
        "residue.contains.calls": counts["residue.contains"],
        "residue.found_ratio": (sum(1 for r in searches if r["res"].status == "found") / len(searches)
                                if searches else 0.0),
        "smith.smith_normal_form.calls": calls["smith.smith_normal_form"],
    }
    for name in (
        "projgeom.row_reduce", "plane.effectivity_test", "catalog.coble_conditions",
        "catalog.halphen_prohibited_classes", "cubic.classify_cubic", "polys.roots_in_field",
        "cubic.image_order", "cubic.torsion_set_check", "cubic.kernel_submodule_generators",
        "cubic.unnodal_by_kernel", "cubic.harbourne_check", "catalog.enumerate_roots",
        "residue.find_root.theory", "residue.find_root.orbit_bfs", "residue.represent_unit",
        "residue.witt_extend", "residue.adjust_to_spin", "smith.smith_normal_form",
        "weyl.noether_reduce", "weyl.word_to_isometry", "weyl.classify_isometry",
    ):
        out[name + ".self_s"] = self_s.get(name, 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = ap.parse_args()

    if not Path(picweyl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"picweyl imported from {picweyl.__file__}, not from this checkout")
    wl = importlib.import_module(f"perfbench.wl_{args.workload}")
    try:
        if hasattr(wl, "setup"):
            wl.setup(args.seed)
        # the same warm-up inputs for every seed, from a stream the timed
        # inputs never use: set-up time then varies with the program, not
        # with the seed (seeded warm-up spread kernel's setup_s by 0.21)
        run_fixed(wl, 0, "warm", wl.WARM_KINDS)
        ready = time.perf_counter() - PRE_BURST_S
        meter = speed.Meter()
        meter.warm_burst()
        SETUP_METER.dt += meter.dt
        out: dict = {"ready": ready, "setup_factor": SETUP_METER.factor()}
        if args.mode == "timed":
            records = run_timed(wl, args.seed, "timed", args.seconds, meter)
            out["peak_rss_mb"] = peak_rss_mb()  # before the oracles allocate
            judge(wl, args.seed, "timed", records)
            raw = summary(records)
            out.update(summary(records, "scaled"), census=census(records[: wl.CENSUS_OPS]),
                       raw={k: raw[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")},
                       run_factor=meter.factor())
        elif args.mode == "trace":
            ref = run_fixed(wl, args.seed, "reference", wl.TRACE_KINDS)
            tracer = trace.Tracer()
            tracer.install({name: importlib.import_module(f"picweyl.{name}") for name in (
                "fields", "projgeom", "plane", "catalog", "cubic", "polys", "residue", "smith", "weyl")})
            try:
                traced = run_fixed(wl, args.seed, "traced", wl.TRACE_KINDS)
            finally:
                tracer.restore()
            judge(wl, args.seed, "reference", ref)
            judge(wl, args.seed, "traced", traced)
            s_ref, s_tr = summary(ref), summary(traced)
            layer = per_layer(tracer, traced)
            layer["trace.ops_per_s"] = s_tr["ops_per_s"]
            layer["trace.overhead_ratio"] = s_ref["ops_per_s"] / s_tr["ops_per_s"]
            layer["verdict.incomplete_ratio"] = s_tr["incomplete_ratio"]
            wall: dict[str, list[float]] = {}
            for rec in traced:
                wall.setdefault(rec["kind"], []).append(rec["latency"] * 1e3)
            out.update(
                census=census(traced),
                attempted=s_ref["attempted"] + s_tr["attempted"],
                failed=s_ref["failed"] + s_tr["failed"],
                errors=s_ref["errors"] + s_tr["errors"],
                layer=layer,
                kind_wall_ms={k: statistics.median(v) for k, v in wall.items()},
            )
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
