"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 domain violation, 3 search budget
exhausted.  Identical inputs and the same --seed give byte-identical
output, so nothing here prints wall-clock times or memory addresses.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import TYPE_CHECKING

from . import __version__
from .errors import BudgetError, CurveError, DomainError

# each command imports the layers it runs, so a process loads only those;
# the names below serve the annotations alone
if TYPE_CHECKING:
    from .fields import Field
    from .lattice import LatticeVector
    from .plane import PointConfiguration

_ENUMERATION_CAP = 16  # keeps enumerate-roots tractable from the shell


class _CliUsage(Exception):
    """Missing or malformed flags; maps to exit 1 like argparse errors."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _field_from_flags(args) -> Field:
    from .fields import ExtensionField, PrimeField

    if args.p is None:
        raise _CliUsage("--p is required for this command")
    if args.e < 1:
        raise _CliUsage("--e must be at least 1")
    if args.e > 1:
        return ExtensionField(args.p, args.e)
    return PrimeField(args.p)


def _vector_from_json_text(text: str) -> LatticeVector:
    from .lattice import LatticeVector

    data = json.loads(text)
    if not isinstance(data, list):
        raise DomainError("--vector wants a JSON list of coordinates")
    return LatticeVector.from_json([str(c) for c in data])


def _points_from_file(path: str, field: Field) -> PointConfiguration:
    from .plane import PointConfiguration
    from .projgeom import ProjectivePoint

    data = _load_json(path)
    if isinstance(data, dict):
        data = data["points"]
    pts = [ProjectivePoint.from_json(field, c) for c in data]
    return PointConfiguration(field, pts)


def _params_from_file(path: str, field: Field) -> list:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data["params"]
    return [field.element_from_json(c) for c in data]


def _word_from_args(args) -> list[int]:
    if args.word is not None:
        return _ints(args.word)
    if getattr(args, "input", None):
        data = _load_json(args.input)
        if isinstance(data, dict) and "word" in data:
            return [int(x) for x in data["word"]]
        raise _CliUsage(f"{args.input} does not hold a word")
    raise _CliUsage("give --word or an input file holding one")


def _vec_list(v: LatticeVector) -> list[int]:
    return list(v.coords)


# -- command bodies ----------------------------------------------------------


def _cmd_gram(args) -> int:
    from .lattice import gram_matrix, simple_roots

    g = gram_matrix(simple_roots(args.n))
    if args.json:
        print(_jdump({"n": args.n, "gram": [list(r) for r in g]}))
    else:
        for row in g:
            print(" ".join(f"{x:3d}" for x in row))
    return 0


def _cmd_enumerate_roots(args) -> int:
    from .catalog import enumerate_roots

    if args.max_degree < 0:
        raise _CliUsage("--max-degree must be nonnegative")
    if args.n > _ENUMERATION_CAP:
        raise DomainError(f"--n capped at {_ENUMERATION_CAP} for enumeration")
    roots = enumerate_roots(args.n, args.max_degree)
    census = Counter(r.coords[0] for r in roots)
    if args.json:
        print(
            _jdump(
                {
                    "n": args.n,
                    "max_degree": args.max_degree,
                    "counts": {str(d): census[d] for d in sorted(census)},
                    "roots": [_vec_list(r) for r in roots],
                }
            )
        )
    else:
        for d in sorted(census):
            print(f"degree {d}: {census[d]}")
        print(f"total: {len(roots)}")
    return 0


def _cmd_coble_conditions(args) -> int:
    from .catalog import coble_conditions

    fams = coble_conditions()
    by_label: dict[str, list] = {}
    for f in fams:
        by_label.setdefault(f.label, []).append(f)
    if args.json:
        print(
            _jdump(
                {
                    "total_classes": len(fams),
                    "shapes": [
                        {
                            "label": label,
                            "count": len(group),
                            "points_involved": len(group[0].index_set),
                            "representative": _vec_list(group[0].representatives[0]),
                        }
                        for label, group in by_label.items()
                    ],
                }
            )
        )
    else:
        for label, group in by_label.items():
            print(f"{label}: {len(group)}")
        print(f"total: {len(fams)}")
    return 0


def _cmd_residue_counts(args) -> int:
    from .catalog import residue_counts_mod2

    iso, one = residue_counts_mod2()
    if args.json:
        print(_jdump({"isotropic": iso, "norm_one": one}))
    else:
        print(f"isotropic={iso} norm_one={one}")
    return 0


def _cmd_classify(args) -> int:
    from .lattice import LatticeIsometry
    from .weyl import classify_isometry, word_to_isometry

    data = _load_json(args.input) if args.input else None
    if isinstance(data, dict) and "matrix" in data:
        g = LatticeIsometry(tuple(tuple(int(x) for x in row) for row in data["matrix"]))
    else:
        word = _word_from_args(args)
        g = word_to_isometry(word, args.n)
    cls = classify_isometry(g)
    if args.json:
        out = {"kind": cls.kind}
        if cls.order is not None:
            out["order"] = cls.order
        if cls.witness is not None:
            out["witness"] = _vec_list(cls.witness)
        if cls.spectral_radius is not None:
            out["spectral_radius"] = cls.spectral_radius
        print(_jdump(out))
        return 0
    if cls.kind == "Elliptic":
        print(f"kind=Elliptic order={cls.order} witness={_jdump(_vec_list(cls.witness))}")
    elif cls.kind == "Parabolic":
        print(f"kind=Parabolic witness={_jdump(_vec_list(cls.witness))}")
    else:
        print(f"kind=Hyperbolic spectral_radius={cls.spectral_radius!r}")
    return 0


def _cmd_reduce(args) -> int:
    from .weyl import noether_reduce

    if args.vector is None:
        raise _CliUsage("--vector is required")
    r = _vector_from_json_text(args.vector)
    if len(r.coords) != args.n + 1:
        raise DomainError(f"vector has {len(r.coords)} coordinates, wanted {args.n + 1}")
    trace: list[str] | None = [] if args.trace else None
    terminal, word = noether_reduce(r, trace)
    if args.json:
        out = {"terminal": _vec_list(terminal), "word": list(word)}
        if trace is not None:
            out["trace"] = trace
        print(_jdump(out))
        return 0
    if trace:
        for line in trace:
            print(line)
    print(f"terminal={_jdump(_vec_list(terminal))}")
    print(f"word={_jdump(list(word))}")
    return 0


def _cmd_halphen_check(args) -> int:
    from .plane import is_unnodal_halphen

    field = _field_from_flags(args)
    cfg = _points_from_file(args.points, field)
    ok, witness = is_unnodal_halphen(cfg, args.m)
    if args.json:
        out = {"halphen": ok}
        if witness is not None:
            out["witness"] = _vec_list(witness)
        print(_jdump(out))
    elif ok:
        print("halphen=true")
    else:
        print(f"halphen=false witness={_jdump(_vec_list(witness))}")
    return 0


def _cmd_coble_check(args) -> int:
    from .plane import is_coble_set

    field = _field_from_flags(args)
    cfg = _points_from_file(args.points, field)
    ok, report = is_coble_set(cfg)
    if args.json:
        print(_jdump({"coble": ok, "report": report}))
    elif ok:
        print("coble=true")
    else:
        print(f"coble=false violations={len(report['violations'])}")
    return 0


def _cmd_harbourne_check(args) -> int:
    from .cubic import classify_cubic, harbourne_check
    from .projgeom import Poly3

    field = _field_from_flags(args)
    params = _params_from_file(args.params, field)
    model = classify_cubic(Poly3.from_coeff_map(field, {"021": 1, "300": -1}))
    points = [model.point_from_parameter(t) for t in params]
    ok, info = harbourne_check(model, points)
    if args.json:
        print(_jdump({"harbourne": ok, "info": info}))
    elif ok:
        print("harbourne=true kernel=pK_perp")
    else:
        print("harbourne=false kernel=strictly_larger")
    return 0


def _cmd_cremona_act(args) -> int:
    from .plane import act_by_word

    field = _field_from_flags(args)
    cfg = _points_from_file(args.points, field)
    word = _word_from_args(args)
    out = act_by_word(cfg, word)
    if args.json:
        print(_jdump({"points": [p.to_json() for p in out.points]}))
    else:
        for p in out.points:
            print(_jdump(p.to_json()))
    return 0


def _cmd_orbit_fixed(args) -> int:
    from .weyl import invariant_sublattice_basis, word_to_isometry

    word = _word_from_args(args)
    g = word_to_isometry(word, args.n)
    basis = invariant_sublattice_basis(g)
    if args.json:
        print(_jdump({"fixed_rank": len(basis), "basis": [_vec_list(b) for b in basis]}))
    else:
        print(f"fixed_rank={len(basis)}")
        for b in basis:
            print(_jdump(_vec_list(b)))
    return 0


def _cmd_find_root_mod(args) -> int:
    from .residue import ResidueModule, find_root_in_submodule

    if args.budget is not None and args.budget < 0:
        raise _CliUsage("--budget must be nonnegative")
    data = _load_json(args.gens)
    if isinstance(data, dict):
        data = data["generators"]
    gens = [tuple(int(x) for x in row) for row in data]
    module = ResidueModule(args.m)
    sub = module.submodule(gens)
    method = "theory" if args.method == "theory" else "orbit-bfs"
    kwargs = {}
    if args.budget is not None:
        kwargs["max_depth"] = args.budget
    result = find_root_in_submodule(sub, method, **kwargs)
    if args.trace and result.certificate.get("word") is not None:
        print(f"trace: search depth {len(result.certificate['word'])}")
    if result.status != "found":
        if args.json:
            print(_jdump({"status": result.status, "certificate": result.certificate}))
        else:
            print(f"status=inconclusive reason={result.certificate.get('reason', '?')}")
        return 3
    if args.json:
        print(_jdump({"status": "found", "certificate": result.certificate}))
    else:
        print(f"status=found root={_jdump(_vec_list(result.root))}")
        print(f"word={_jdump(result.certificate['word'])}")
    return 0


def _cmd_report(args) -> int:
    import random

    from .catalog import coble_conditions, enumerate_roots, residue_counts_mod2
    from .fields import ExtensionField, PrimeField
    from .residue import ResidueModule, find_root_in_submodule
    from .weyl import classify_isometry, word_to_isometry

    seed = args.seed if args.seed is not None else 0
    rng = random.Random(seed)
    lines = []
    lines.append("picweyl report")
    lines.append(f"version={__version__}")
    lines.append(f"seed={seed}")
    iso, one = residue_counts_mod2()
    lines.append(f"residue_counts: isotropic={iso} norm_one={one}")
    census = Counter(r.coords[0] for r in enumerate_roots(10, 4))
    lines.append(
        "root_census_n10: "
        + " ".join(f"{d}:{census[d]}" for d in sorted(census))
    )
    fams = coble_conditions()
    shapes = sorted({f.label for f in fams})
    lines.append(f"coble_families: shapes={len(shapes)} total_classes={len(fams)}")
    lehmer = classify_isometry(word_to_isometry(list(range(10)), 10))
    lines.append(f"lehmer_word_radius={lehmer.spectral_radius!r}")
    module = ResidueModule(6)
    while True:
        gens = [tuple(rng.randrange(6) for _ in range(10)) for _ in range(8)]
        sub = module.submodule(gens)
        if sub.free_rank == 8:
            break
    for method in ("theory", "orbit-bfs"):
        res = find_root_in_submodule(sub, method)
        wl = len(res.certificate["word"]) if res.status == "found" else -1
        lines.append(f"find_root_mod: m=6 method={method} status={res.status} word_len={wl}")
    descriptors = {
        "plane_example": PrimeField(101).descriptor(),
        "cuspidal_example": ExtensionField(5, 12).descriptor(),
    }
    lines.append(f"field_descriptors: {_jdump(descriptors)}")
    if args.json:
        print(_jdump({"report": lines}))
    else:
        for line in lines:
            print(line)
    return 0


_COMMANDS = {
    "gram": _cmd_gram,
    "enumerate-roots": _cmd_enumerate_roots,
    "coble-conditions": _cmd_coble_conditions,
    "residue-counts": _cmd_residue_counts,
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "halphen-check": _cmd_halphen_check,
    "coble-check": _cmd_coble_check,
    "harbourne-check": _cmd_harbourne_check,
    "cremona-act": _cmd_cremona_act,
    "orbit-fixed": _cmd_orbit_fixed,
    "find-root-mod": _cmd_find_root_mod,
    "report": _cmd_report,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="picweyl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"picweyl {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, trace=False, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if trace:
            p.add_argument("--trace", action="store_true", help="emit step logs")
        return p

    p = add("gram", help="Gram matrix of the simple-root basis")
    p.add_argument("--n", type=int, default=10)

    p = add("enumerate-roots", help="roots of bounded degree with their census")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=3)

    add("coble-conditions", help="the 496 nodal-condition families")
    add("residue-counts", help="mod-2 isotropic and norm-one counts")

    p = add("classify", help="elliptic/parabolic/hyperbolic type of a Weyl word")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--word", type=str, default=None, help="comma-separated letters")
    p.add_argument("input", nargs="?", default=None, help="JSON file with a word or matrix")

    p = add("reduce", trace=True, help="reduce a root to its terminal form")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--vector", type=str, default=None, help="JSON coordinate list")

    p = add("halphen-check", help="index-m pencil test for nine points")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--points", type=str, required=True, help="JSON points file")

    p = add("coble-check", help="Coble test for ten points")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--points", type=str, required=True, help="JSON points file")

    p = add("harbourne-check", help="cuspidal restriction-kernel test")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--params", type=str, required=True, help="JSON parameter file")

    p = add("cremona-act", help="apply a Weyl word to a point configuration")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--word", type=str, default=None)
    p.add_argument("--points", type=str, required=True, help="JSON points file")
    p.add_argument("input", nargs="?", default=None, help="JSON file with a word")

    p = add("orbit-fixed", help="saturated fixed sublattice of a Weyl word")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--word", type=str, default=None)
    p.add_argument("input", nargs="?", default=None, help="JSON file with a word")

    p = add("find-root-mod", trace=True, help="root whose residue lies in a given submodule")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=("theory", "bfs"), default="theory")
    p.add_argument("--budget", type=int, default=None, help="search depth bound")
    p.add_argument("--gens", type=str, required=True, help="JSON generator file")

    p = add("report", help="reproducibility report over the standing invariants")
    p.add_argument("--seed", type=int, default=None, help="seed for the sampled checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _CliUsage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DomainError, CurveError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
