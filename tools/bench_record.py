"""Run the benchmark on every workload and save its result lines.

    python3 tools/bench_record.py --pr N

Run from anywhere inside a checkout.  For each workload named in
BENCHMARK.json this runs perfbench/run.py twice at seed 1 for the
BENCHMARK.json run length, with --trace 0 for the end-to-end metrics and
--trace 1 for the per-layer ones, and writes the
last (JSON) stdout line of every run, with the git SHA of the checkout, to
BENCH_<N>.json at its root.  "dirty" is true when the working tree differs
from that SHA.  The exit code is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, int, float | None]:
    """One perfbench/run.py run in checkout: its last (JSON) stdout line,
    its exit code and the host speed factor it printed (None if none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    factor = host_speed_factor(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode, factor
    except (IndexError, json.JSONDecodeError):
        return ({"correct": False, "error": proc.stderr.strip()[-500:]}, proc.returncode or 1,
                factor)


def host_speed_factor(stdout: str) -> float | None:
    """The factor of the "host speed factor" line an untraced run prints:
    the host's slice time over the reference, so above 1 on a slow host."""
    for line in stdout.splitlines():
        if line.startswith("host speed factor "):
            return float(line.split()[3])
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = ap.parse_args()

    record = {
        "sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    failed = False
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs[key], code, _ = run_bench(ROOT, name, SEED, spec["run_seconds"], trace)
            failed |= code != 0
            print(f"{name} {key}: exit {code}", file=sys.stderr)
        record["workloads"][name] = runs
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
