"""The picweyl benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload interp|kernel|roots|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh interpreters
(perfbench/worker.py) as a closed loop with one client and no threads.

--trace 0 measures the end-to-end metrics with tracing off: set-up runs in
SETUPS fresh interpreters and setup_s is their median; the last of them
then runs the timed loop for --seconds.  Every time is given at the
reference host speed: the wall time divided by the speed factor measured
next to it (perfbench/speed.py), since the host's own speed changes by up
to 1.7x.  The raw wall times are printed above the result line.
--trace 1 runs a separate traced pass for the per-layer metrics.  The
metric names and units come from BENCHMARK.json at the checkout root;
perfbench/baseline.json maps each per-layer metric to the end-to-end
metric and workload it should move.

The last stdout line is the JSON result.  The exit code is 1 when an
operation raised or an oracle rejected its output, 2 when the checkout
holds no picweyl sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("interp", "kernel", "roots", "cli")
SETUPS = 3
IMPORT_SAMPLES = 5
DEADLINE_S = 175  # every run must end within 180 s


def _child_env() -> dict:
    # a fixed hash seed keeps set iteration, and with it every counter,
    # identical across runs with one seed
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))


def _time_left() -> float:
    return max(1.0, DEADLINE_S - (time.perf_counter() - _STARTED))


def _worker(args, mode: str) -> tuple[dict, float]:
    """Run one worker; return its result and the time it was spawned."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          timeout=_time_left())
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter running `import picweyl`."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import picweyl"], cwd=ROOT, env=_child_env(),
                       check=True, timeout=_time_left())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _metric(spec: dict, value) -> dict:
    return {"value": value, "unit": spec["unit"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "picweyl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no picweyl sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    if args.trace:
        out, _ = _worker(args, "trace")
        layer = dict(out["layer"])
        layer["cli.import_s"] = _import_seconds()
        if args.workload == "cli":
            layer.update({f"cli.{kind}.wall_ms": ms for kind, ms in out["kind_wall_ms"].items()})
        metrics = {m["name"]: _metric(m, layer.get(m["name"], 0)) for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    else:
        ready, ready_raw = [], []
        for i in range(SETUPS):
            out, spawned = _worker(args, "setup" if i < SETUPS - 1 else "timed")
            ready_raw.append(out["ready"] - spawned)
            ready.append(ready_raw[-1] / out["setup_factor"])
        values = {
            "ops_per_s": out["ops_per_s"],
            "latency_p50_ms": out["latency_p50_ms"],
            "latency_p90_ms": out["latency_p90_ms"],
            "setup_s": statistics.median(ready),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {m["name"]: _metric(m, values[m["name"]]) for m in spec["end_to_end"]}
        print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client")
        for name, m in metrics.items():
            print(f"{name:16s} {m['value']:>12.4f} {m['unit']}")
        print(f"latency samples  {out['samples']:>12d} ops")
        print(f"error_ratio      {out['error_ratio']:>12.4f} of {out['attempted']} ops")
        print(f"incomplete_ratio {out['incomplete_ratio']:>12.4f} of {out['verdicts']} verdicts")
        print(f"setup samples    {len(ready):>12d} interpreters")
        raw = dict(out["raw"], setup_s=statistics.median(ready_raw))
        print(f"host speed factor {out['run_factor']:>11.4f} (slice time / reference; raw wall "
              + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()) + ")")
    print("census " + json.dumps(out["census"], sort_keys=True))
    for err in out["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    correct = out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
