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
    """Missing, malformed or conflicting flags; maps to exit 1 like argparse errors."""


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


def _integer(x) -> int:
    """A JSON integer, or a string holding one; true, false and floats are refused."""
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return int(x)
    raise ValueError(f"{json.dumps(x)} is not an integer")


def _load_json(path: str, key: str | None = None):
    """The JSON value in the file; given a key, a JSON object yields its
    entry under that key, and an object without it is a domain error."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if key is None or not isinstance(data, dict):
        return data
    if key not in data:
        raise DomainError(f"{path} has no {json.dumps(key)} key")
    return data[key]


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


def _points_from_args(args) -> PointConfiguration:
    from .plane import PointConfiguration
    from .projgeom import ProjectivePoint

    field = _field_from_flags(args)
    pts = [ProjectivePoint.from_json(field, c) for c in _load_json(args.points, "points")]
    return PointConfiguration(field, pts)


def _params_from_file(path: str, field: Field) -> list:
    return [field.element_from_json(c) for c in _load_json(path, "params")]


def _word_input(args):
    """The input file's JSON, or {"word": letters} from --word; never both."""
    if args.word is not None:
        if args.input:
            raise _CliUsage("give --word or an input file, not both")
        return {"word": _ints(args.word)}
    if not args.input:
        raise _CliUsage("give --word or an input file holding one")
    return _load_json(args.input)


def _letters(data, args) -> list[int]:
    if isinstance(data, dict) and "word" in data:
        return [_integer(x) for x in data["word"]]
    raise _CliUsage(f"{args.input} does not hold a word")


def _vec_list(v: LatticeVector) -> list[int]:
    return list(v.coords)


# -- command bodies ----------------------------------------------------------
# Each returns its exit code, its JSON object and its text lines; main alone
# prints one or the other, so no body prints.


def _cmd_gram(args):
    from .lattice import gram_matrix, simple_roots

    g = gram_matrix(simple_roots(args.n))
    lines = [" ".join(f"{x:3d}" for x in row) for row in g]
    return 0, {"n": args.n, "gram": [list(r) for r in g]}, lines


def _cmd_enumerate_roots(args):
    from .catalog import enumerate_roots

    if args.max_degree < 0:
        raise _CliUsage("--max-degree must be nonnegative")
    if args.n > _ENUMERATION_CAP:
        raise DomainError(f"--n capped at {_ENUMERATION_CAP} for enumeration")
    roots = enumerate_roots(args.n, args.max_degree)
    census = Counter(r.coords[0] for r in roots)
    out = {
        "n": args.n,
        "max_degree": args.max_degree,
        "counts": {str(d): census[d] for d in sorted(census)},
        "roots": [_vec_list(r) for r in roots],
    }
    lines = [f"degree {d}: {census[d]}" for d in sorted(census)]
    return 0, out, [*lines, f"total: {len(roots)}"]


def _cmd_coble_conditions(args):
    from .catalog import coble_conditions

    fams = coble_conditions()
    by_label: dict[str, list] = {}
    for f in fams:
        by_label.setdefault(f.label, []).append(f)
    shapes = [
        {
            "label": label,
            "count": len(group),
            "points_involved": len(group[0].index_set),
            "representative": _vec_list(group[0].representatives[0]),
        }
        for label, group in by_label.items()
    ]
    lines = [f"{label}: {len(group)}" for label, group in by_label.items()]
    return 0, {"total_classes": len(fams), "shapes": shapes}, [*lines, f"total: {len(fams)}"]


def _cmd_residue_counts(args):
    from .catalog import residue_counts_mod2

    iso, one = residue_counts_mod2()
    return 0, {"isotropic": iso, "norm_one": one}, [f"isotropic={iso} norm_one={one}"]


def _cmd_classify(args):
    from .lattice import LatticeIsometry
    from .weyl import classify_isometry, word_to_isometry

    data = _word_input(args)
    if isinstance(data, dict) and "matrix" in data:
        g = LatticeIsometry(tuple(tuple(_integer(x) for x in row) for row in data["matrix"]))
        if args.n not in (None, g.n):
            raise _CliUsage(f"--n {args.n} disagrees with the matrix, which has n = {g.n}")
    else:
        g = word_to_isometry(_letters(data, args), 10 if args.n is None else args.n)
    cls = classify_isometry(g)
    out = {"kind": cls.kind}
    if cls.order is not None:
        out["order"] = cls.order
    if cls.witness is not None:
        out["witness"] = _vec_list(cls.witness)
    if cls.spectral_radius is not None:
        out["spectral_radius"] = cls.spectral_radius
    if cls.kind == "Elliptic":
        line = f"kind=Elliptic order={cls.order} witness={_jdump(out['witness'])}"
    elif cls.kind == "Parabolic":
        line = f"kind=Parabolic witness={_jdump(out['witness'])}"
    else:
        line = f"kind=Hyperbolic spectral_radius={cls.spectral_radius!r}"
    return 0, out, [line]


def _cmd_reduce(args):
    from .weyl import noether_reduce

    if args.vector is None:
        raise _CliUsage("--vector is required")
    r = _vector_from_json_text(args.vector)
    if len(r.coords) != args.n + 1:
        raise DomainError(f"vector has {len(r.coords)} coordinates, wanted {args.n + 1}")
    trace: list[str] | None = [] if args.trace else None
    terminal, word = noether_reduce(r, trace)
    out = {"terminal": _vec_list(terminal), "word": list(word)}
    if trace is not None:
        out["trace"] = trace
    lines = [*(trace or ()), f"terminal={_jdump(out['terminal'])}", f"word={_jdump(out['word'])}"]
    return 0, out, lines


def _cmd_halphen_check(args):
    from .plane import is_unnodal_halphen

    cfg = _points_from_args(args)
    ok, witness = is_unnodal_halphen(cfg, args.m)
    out = {"halphen": ok}
    if witness is not None:
        out["witness"] = _vec_list(witness)
    return 0, out, ["halphen=true" if ok else f"halphen=false witness={_jdump(out['witness'])}"]


def _cmd_coble_check(args):
    from .plane import is_coble_set

    cfg = _points_from_args(args)
    ok, report = is_coble_set(cfg)
    line = "coble=true" if ok else f"coble=false violations={len(report['violations'])}"
    return 0, {"coble": ok, "report": report}, [line]


def _cmd_harbourne_check(args):
    from .cubic import classify_cubic, harbourne_check
    from .projgeom import Poly3

    field = _field_from_flags(args)
    params = _params_from_file(args.params, field)
    model = classify_cubic(Poly3.from_coeff_map(field, {"021": 1, "300": -1}))
    points = [model.point_from_parameter(t) for t in params]
    ok, info = harbourne_check(model, points)
    line = "harbourne=true kernel=pK_perp" if ok else "harbourne=false kernel=strictly_larger"
    return 0, {"harbourne": ok, "info": info}, [line]


def _cmd_cremona_act(args):
    from .plane import act_by_word

    cfg = _points_from_args(args)
    points = [p.to_json() for p in act_by_word(cfg, _letters(_word_input(args), args)).points]
    return 0, {"points": points}, [_jdump(p) for p in points]


def _cmd_orbit_fixed(args):
    from .weyl import invariant_sublattice_basis, word_to_isometry

    g = word_to_isometry(_letters(_word_input(args), args), args.n)
    basis = [_vec_list(b) for b in invariant_sublattice_basis(g)]
    lines = [f"fixed_rank={len(basis)}", *(_jdump(b) for b in basis)]
    return 0, {"fixed_rank": len(basis), "basis": basis}, lines


def _cmd_find_root_mod(args):
    from .residue import ResidueModule, find_root_in_submodule

    if args.budget is not None and args.budget < 0:
        raise _CliUsage("--budget must be nonnegative")
    gens = [tuple(_integer(x) for x in row) for row in _load_json(args.gens, "generators")]
    module = ResidueModule(args.m)
    sub = module.submodule(gens)
    method = "theory" if args.method == "theory" else "orbit-bfs"
    kwargs = {}
    if args.budget is not None:
        kwargs["max_depth"] = args.budget
    result = find_root_in_submodule(sub, method, **kwargs)
    word = result.certificate.get("word")
    out = {"status": result.status, "certificate": result.certificate}
    lines = []
    if args.trace:
        out["trace"] = [] if word is None else [f"search depth {len(word)}"]
        lines = [f"trace: {step}" for step in out["trace"]]
    if result.status != "found":
        lines.append(f"status=inconclusive reason={result.certificate.get('reason', '?')}")
        return 3, out, lines
    lines.append(f"status=found root={_jdump(_vec_list(result.root))}")
    lines.append(f"word={_jdump(word)}")
    return 0, out, lines


def _cmd_report(args):
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
    return 0, {"report": lines}, lines


# -- flag groups shared between commands, each declared once -----------------


def _n_flag(p, default=10):
    p.add_argument("--n", type=int, default=default)


def _field_flags(p):
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--e", type=int, default=1)


def _word_flags(p, word_help=None, input_help="JSON file with a word"):
    p.add_argument("--word", type=str, default=None, help=word_help)
    p.add_argument("input", nargs="?", default=None, help=input_help)


def _points_flag(p):
    p.add_argument("--points", type=str, required=True, help="JSON points file")


def _trace_flag(p):
    p.add_argument("--trace", action="store_true", help="emit step logs")


def _build_parser() -> _Parser:
    parser = _Parser(prog="picweyl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"picweyl {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, run, help, *groups):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for group in groups:
            group(p)
        return p

    add("gram", _cmd_gram, "Gram matrix of the simple-root basis", _n_flag)

    p = add("enumerate-roots", _cmd_enumerate_roots, "roots of bounded degree with their census",
            _n_flag)
    p.add_argument("--max-degree", type=int, default=3)

    add("coble-conditions", _cmd_coble_conditions, "the 496 nodal-condition families")
    add("residue-counts", _cmd_residue_counts, "mod-2 isotropic and norm-one counts")

    p = add("classify", _cmd_classify, "elliptic/parabolic/hyperbolic type of a Weyl word")
    _n_flag(p, default=None)  # 10 for a word; a matrix file carries its own n
    _word_flags(p, "comma-separated letters", "JSON file with a word or matrix")

    p = add("reduce", _cmd_reduce, "reduce a root to its terminal form", _trace_flag, _n_flag)
    p.add_argument("--vector", type=str, default=None, help="JSON coordinate list")

    p = add("halphen-check", _cmd_halphen_check, "index-m pencil test for nine points",
            _field_flags)
    p.add_argument("--m", type=int, default=1)
    _points_flag(p)

    add("coble-check", _cmd_coble_check, "Coble test for ten points", _field_flags, _points_flag)

    p = add("harbourne-check", _cmd_harbourne_check, "cuspidal restriction-kernel test",
            _field_flags)
    p.add_argument("--params", type=str, required=True, help="JSON parameter file")

    add("cremona-act", _cmd_cremona_act, "apply a Weyl word to a point configuration",
        _field_flags, _word_flags, _points_flag)
    add("orbit-fixed", _cmd_orbit_fixed, "saturated fixed sublattice of a Weyl word",
        _n_flag, _word_flags)

    p = add("find-root-mod", _cmd_find_root_mod, "root whose residue lies in a given submodule",
            _trace_flag)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=("theory", "bfs"), default="theory")
    p.add_argument("--budget", type=int, default=None, help="search depth bound")
    p.add_argument("--gens", type=str, required=True, help="JSON generator file")

    p = add("report", _cmd_report, "reproducibility report over the standing invariants")
    p.add_argument("--seed", type=int, default=None, help="seed for the sampled checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        code, out, lines = args.run(args)
        if args.json:
            print(_jdump(out))
        else:
            for line in lines:
                print(line)
        return code
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
