"""Run the benchmark in alternating pairs of a parent and a change commit.

    python3 tools/bench_pairs.py --pr N --parent SHA [--change SHA]
        [--pairs K] [--workload W] [--workload W2] ...

--workload takes one name; pass it once per workload.

Run from anywhere inside a checkout.  The committed files of each commit
(--change defaults to HEAD) are unpacked with `git archive` into a
temporary directory, so each side runs exactly what the commit holds, as
a fresh checkout would, and nothing is left registered in the repository.
For each workload (default: every one in BENCHMARK.json) pair i runs
perfbench/run.py --trace 0 at seed 1100 + i for the BENCHMARK.json run
length on both sides, the parent first in even pairs and the change
first in odd ones.  Every run's last (JSON) stdout line is written, with
its pair, side, seed, exit code and the host speed factor the run printed
(its slice time over the reference host's, so above 1 on a slow host), to
BENCH_<N>_pairs.json at the root of the checkout; the file is rewritten
after every pair, so an interrupted run keeps the pairs it finished.  A
file of the same parent, change and run length keeps the workloads this
invocation does not run, so the workloads can be measured one at a time.
After the last pair a summary goes to stdout: per workload, each
end-to-end metric's median on either side, the number of pairs in which
the change reads better, and the relative change of the medians, flagged
when it is worse than the metric's BENCHMARK.json bound; under it each
side's quartiles and whether the gain rule holds (the change ahead in at
least 9 of every 10 pairs run, its median better than the parent's by
more than the parent's interquartile distance, and no more failed runs
than the parent); then the median number
of attempted operations on either side, the median peak_rss_mb per 1,000
of them (peak_rss_mb grows with the number of operations, since every
record is kept) and the median host speed factor of either side.
The exit code is 1 when any run failed, and 2, before anything runs, when
--change is HEAD and tracked files under src/ differ from it (the change
side would run the commit, not the working tree), or when
BENCH_<N>_pairs.json holds pairs of another parent, change or run length.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from bench_record import ROOT, git, run_bench

SEED_BASE = 1100


def _unpack(sha: str, dest: Path) -> None:
    """The files committed at sha, written under dest."""
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def _median(values: list) -> str:
    return f"{statistics.median(values):.4g}" if values else "-"


def _relative(metric: dict, parent: list, change: list) -> str:
    """The change of the medians relative to the parent's, flagged when it
    is worse than the metric's bound."""
    if not parent or not change or not statistics.median(parent):
        return "-"
    rel = statistics.median(change) / statistics.median(parent) - 1
    worse = -rel if metric["better"] == "higher" else rel
    flag = f"  WORSE than bound {metric['bound']:.0%}" if worse > metric["bound"] else ""
    return f"{rel:+.1%}{flag}"


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return "-"
    return "/".join(f"{q:.4g}" for q in statistics.quantiles(values, n=4))


def _gain_rule(metric: dict, parent: list, change: list, ahead: int, run: int,
               failed: dict) -> str:
    """Whether the change wins: ahead in at least 9 of every 10 pairs run,
    its median better than the parent's by more than the distance between
    the parent's quartiles, and no more failed runs than the parent."""
    if len(parent) < 2 or not change:
        return "-"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = statistics.median(change) - statistics.median(parent)
    if metric["better"] == "lower":
        gain = -gain
    wins = 10 * ahead >= 9 * run and gain > q3 - q1 and failed["change"] <= failed["parent"]
    return "holds" if wins else "fails"


def _failed(run: dict) -> bool:
    """Whether a run exited nonzero, gave no metrics or failed an operation."""
    res = run["result"]
    return run["exit"] != 0 or "metrics" not in res or res.get("failed", 0) > 0


def earlier_workloads(path: Path, record: dict) -> dict:
    """The workloads already recorded in path for the same parent, change
    and run length as record, so that a run of other workloads keeps them;
    none when path does not exist.  Raises ValueError naming the file when
    it holds pairs of another parent, change or run length."""
    if not path.exists():
        return {}
    earlier = json.loads(path.read_text())
    for key in ("parent_sha", "change_sha", "seconds"):
        if earlier.get(key) != record[key]:
            raise ValueError(f"{path} holds pairs of {key} {earlier.get(key)}, not "
                             f"{record[key]}; pass another --pr or move the file")
    return earlier["workloads"]


def summary(spec: dict, record: dict) -> list[str]:
    """Lines for the pairs in record: per workload and end-to-end metric,
    the median of each side, the pairs the change is ahead in and the
    relative change of the medians, then each side's quartiles and the
    gain rule; then the median attempted operations of each side, the
    median peak_rss_mb per 1,000 of them and the median host speed factor.
    A failed run has no values."""
    lines = []
    for name, runs in record["workloads"].items():
        pairs: dict[int, dict] = {}
        for run in runs:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        failed = {"parent": 0, "change": 0}
        for run in runs:
            failed[run["side"]] += _failed(run)
        title = f"{name}, {len(pairs)} pairs"
        lines.append(f"{title:26s}{'parent':>10s}{'change':>10s}  ahead  change of medians")
        for metric in spec["end_to_end"]:
            key, higher = metric["name"], metric["better"] == "higher"
            values: dict[str, list] = {"parent": [], "change": []}
            ahead = both = 0
            for sides in pairs.values():
                got = {side: res.get("metrics", {}).get(key, {}).get("value")
                       for side, res in sides.items()}
                for side, value in got.items():
                    if value is not None:
                        values[side].append(value)
                if got.get("parent") is not None and got.get("change") is not None:
                    both += 1
                    diff = got["change"] - got["parent"]
                    ahead += diff > 0 if higher else diff < 0
            lines.append(f"  {key:24s}{_median(values['parent']):>10s}"
                         f"{_median(values['change']):>10s}  {f'{ahead}/{both}':5s}  "
                         f"{_relative(metric, values['parent'], values['change'])}")
            lines.append(f"    quartiles  parent {_quartiles(values['parent'])}  "
                         f"change {_quartiles(values['change'])}  gain rule "
                         f"{_gain_rule(metric, values['parent'], values['change'], ahead, len(pairs), failed)}")
        attempted: dict[str, list] = {"parent": [], "change": []}
        rss_per_k: dict[str, list] = {"parent": [], "change": []}
        factors: dict[str, list] = {"parent": [], "change": []}
        for run in runs:
            if run.get("host_speed_factor") is not None:
                factors[run["side"]].append(run["host_speed_factor"])
            res = run["result"]
            if res.get("attempted"):
                attempted[run["side"]].append(res["attempted"])
                rss = res.get("metrics", {}).get("peak_rss_mb", {}).get("value")
                if rss is not None:
                    rss_per_k[run["side"]].append(rss * 1000 / res["attempted"])
        lines.append(f"  {'attempted operations':24s}{_median(attempted['parent']):>10s}"
                     f"{_median(attempted['change']):>10s}")
        lines.append(f"  {'peak_rss_mb per 1k ops':24s}{_median(rss_per_k['parent']):>10s}"
                     f"{_median(rss_per_k['change']):>10s}")
        lines.append(f"  {'host speed factor':24s}{_median(factors['parent']):>10s}"
                     f"{_median(factors['change']):>10s}")
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [wl["name"] for wl in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--parent", required=True, help="commit of the parent side")
    ap.add_argument("--change", default="HEAD", help="commit of the change side")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run, repeatable (default: all)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.change == "HEAD" and git("status", "--porcelain", "--untracked-files=no", "--", "src"):
        print("error: tracked files under src/ differ from HEAD, which the change side "
              "would run; commit them or pass --change", file=sys.stderr)
        return 2

    seconds = spec["run_seconds"]
    record = {
        "change_sha": git("rev-parse", args.change),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "parent_sha": git("rev-parse", args.parent),
        "seconds": seconds,
        "what": f"alternating parent/change runs of perfbench/run.py --workload W --seed S "
                f"--seconds {seconds} --trace 0, one fresh seed per pair, the first side of "
                "each pair alternating",
    }
    out = ROOT / f"BENCH_{args.pr}_pairs.json"
    try:
        record["workloads"] = earlier_workloads(out, record)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {}
        for side in ("parent", "change"):
            checkouts[side] = Path(tmp) / side
            _unpack(record[f"{side}_sha"], checkouts[side])
        for name in args.workload or names:
            runs = record["workloads"][name] = []
            for pair in range(args.pairs):
                seed = SEED_BASE + pair
                sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in sides:
                    result, code, factor = run_bench(checkouts[side], name, seed, seconds, 0)
                    failed |= code != 0
                    runs.append({"exit": code, "host_speed_factor": factor, "pair": pair,
                                 "result": result, "seed": seed, "side": side})
                    ops = result.get("metrics", {}).get("ops_per_s", {}).get("value")
                    print(f"{name} pair {pair} {side}: exit {code} ops_per_s {ops} "
                          f"host speed factor {factor}", file=sys.stderr)
                out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary(spec, record)))
    print(out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
