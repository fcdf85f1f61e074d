"""cli: one fresh ``python -m picweyl.cli`` process per operation.

The only workload that measures the cli layer and interpreter and import
start-up.  The command mix is fixed; the seed shuffles the order within
each cycle and sets ``report --seed``.  Every stdout is checked against
the lines pinned in README and tests/test_cli.py; where those pin only part
of the output (find-root-mod, report), the rest is checked for validity and
for byte-identical reruns.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from . import arith

NAME = "cli"
ROOT = Path(__file__).resolve().parent.parent
NINE = [(0, 14), (22, 79), (76, 92), (6, 33), (92, 65), (87, 75), (85, 75), (99, 92), (66, 81)]
REDUCE_VECTOR = "[3,-2,-1,-1,-1,-1,-1,-1,-1,0,0]"
COMMANDS = {
    "gram": ["gram", "--n", "10"],
    "reduce": ["reduce", "--n", "10", "--vector", REDUCE_VECTOR],
    "residue-counts": ["residue-counts"],
    "enumerate-roots": ["enumerate-roots", "--n", "10", "--max-degree", "2"],
    "classify": ["classify", "--n", "10", "--word", "0,1,2,3,4,5,6,7,8,9"],
    "halphen-check": ["halphen-check", "--p", "101", "--m", "2", "--points", "{dir}/nine.json"],
    "harbourne-check": ["harbourne-check", "--p", "5", "--e", "12", "--params", "{dir}/params.json"],
    "find-root-mod": ["find-root-mod", "--m", "6", "--gens", "{dir}/gens.json", "--json"],
    "report": ["report", "--seed", "{seed}"],
}
EXACT = {
    "reduce": "terminal=[-1,1,1,1,0,0,0,0,0,0,0]\n"
    "word=[0,3,2,1,4,3,2,5,4,3,0,6,5,4,3,2,7,6,5,4,3,0]\n",
    "residue-counts": "isotropic=528 norm_one=496\n",
    "enumerate-roots": "degree 0: 45\ndegree 1: 120\ndegree 2: 210\ntotal: 375\n",
    "classify": "kind=Hyperbolic spectral_radius=1.1762808182599171\n",
    "halphen-check": "halphen=true\n",
    "harbourne-check": "harbourne=true kernel=pK_perp\n",
}
# report, the slowest command, runs twice a cycle: p90 then falls in the
# middle of its samples, not at the lowest of four, and p50 in the middle
# of the find-root-mod, enumerate-roots and harbourne-check cluster
CYCLE = (*COMMANDS, "report")
WHOLE_CYCLES = True  # percentiles then fall inside one command's samples
MIN_OPS = 0  # a 20 s run gets 30 to 40 operations: each is a fresh interpreter
CENSUS_OPS = len(CYCLE)
TRACE_KINDS = tuple(COMMANDS) * 2
WARM_KINDS = ()

_state: dict = {}


def _gens6() -> list[list[int]]:
    """The test suite's find-root-mod fixture: the first eight random
    vectors mod 6, drawn from Random(0), spanning a free rank-8 piece."""
    rng = random.Random(0)
    while True:
        gens = [[rng.randrange(6) for _ in range(10)] for _ in range(8)]
        if all(arith.independent_mod(gens, q) for q in (2, 3)):
            return gens


def setup(seed: int) -> None:
    """Write the fixture files and compile the package once, so that no
    timed process pays for byte-compiling."""
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    (tmp / "nine.json").write_text(json.dumps({"points": [[str(x), str(y), "1"] for x, y in NINE]}))
    rows = [["1" if j == i else "0" for j in range(12)] for i in range(10)]
    (tmp / "params.json").write_text(json.dumps({"params": rows}))
    gens = _gens6()
    (tmp / "gens.json").write_text(json.dumps({"generators": gens}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    _state.update(dir=tmp, gens=gens, env=env, seed=seed, report=None)
    subprocess.run([sys.executable, "-m", "picweyl.cli", "--version"], env=env, cwd=ROOT,
                   capture_output=True, check=True)


def teardown() -> None:
    if "dir" in _state:
        shutil.rmtree(_state["dir"], ignore_errors=True)


def make(kind: str, rng) -> dict:
    args = [a.format(dir=_state["dir"], seed=_state["seed"]) for a in COMMANDS[kind]]
    return {"kind": kind, "args": args}


def run(op: dict):
    proc = subprocess.run([sys.executable, "-m", "picweyl.cli", *op["args"]],
                          env=_state["env"], cwd=ROOT, capture_output=True)
    return proc.returncode, proc.stdout.decode()


def outcome(op: dict, res) -> tuple[bool | None, dict]:
    kind = op["kind"]
    if kind in ("halphen-check", "harbourne-check"):
        return True, {"command": kind}
    if kind == "find-root-mod":
        found = res[0] == 0 and json.loads(res[1])["status"] == "found"
        return found, {"command": kind}
    return None, {"command": kind}


def _gram_text() -> str:
    roots = [arith.simple_root(i, 10) for i in range(10)]
    return "".join(" ".join(f"{arith.inner(a, b):3d}" for b in roots) + "\n" for a in roots)


def check(op: dict, res, rng) -> str | None:
    code, out = res
    kind = op["kind"]
    if code != 0:
        return f"exit code {code}"
    if kind in EXACT:
        return None if out == EXACT[kind] else f"stdout {out!r}"
    if kind == "gram":
        return None if out == _gram_text() else f"stdout {out!r}"
    if kind == "find-root-mod":
        data = json.loads(out)
        cert = data["certificate"]
        r = tuple(int(c) for c in cert["root"])
        if data["status"] != "found" or cert["modulus"] != 6 or not arith.is_root(r, 10):
            return f"certificate {cert}"
        coords = arith.simple_root_coordinates(r)
        return None if arith.in_submodule(coords, _state["gens"], 6) else "residue outside the submodule"
    lines = out.splitlines()
    seed = _state["seed"]
    pinned = [
        "residue_counts: isotropic=528 norm_one=496",
        "root_census_n10: 0:45 1:120 2:210 3:360 4:850",
        "coble_families: shapes=5 total_classes=496",
    ]
    if lines[:3] != ["picweyl report", lines[1], f"seed={seed}"] or not lines[1].startswith("version="):
        return f"report header {lines[:3]}"
    if not all(p in lines for p in pinned):
        return "report lacks a pinned line"
    if not any(ln.startswith("lehmer_word_radius=1.1762808182599") for ln in lines):
        return "report lacks the Lehmer radius"
    if not any(ln.startswith("field_descriptors:") for ln in lines):
        return "report lacks the field descriptors"
    if _state["report"] is None:
        _state["report"] = out
    return None if out == _state["report"] else "report differs between runs with one seed"
