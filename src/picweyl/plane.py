"""Ordered point configurations in the plane and the Cremona action.

Point indices are 1-based throughout this module, matching the lattice
convention that e_i is the class over the i-th point.  Configurations are
immutable; every operation returns a new one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby
from math import comb
from operator import itemgetter
from typing import Sequence

from .catalog import coble_conditions, halphen_prohibited_classes
from .errors import DomainError
from .fields import Field, field_from_descriptor
from .lattice import LatticeVector
from .projgeom import (
    Mat3,
    Poly3,
    ProjectivePoint,
    cross,
    dot,
    echelon_kernel,
    extend_echelon,
    frame_transform,
    kernel_basis,
    mat3_apply,
    mat3_from_columns,
    mat3_inverse,
    mat3_mul,
    matrix_rank,
    monomial_exponents,
    normalized,
    two_sided_kernels,
)


class PointConfiguration:
    """Ordered tuple of pairwise distinct plane points over one field.

    Four slots hold derived data for `effectivity_test` and the verdict
    scans, so equality and JSON ignore them.  `_conditions` memoises
    interpolation condition rows per degree, point and multiplicity (see
    `_point_rows`).  `_values` maps (d, mu) to the one elimination of the
    matrix R of every point's degree-d rows of orders below mu (see
    `_value_kernels`): the right kernel K of R, its left kernel L, per
    row r a v_r with R v_r = e_r, or None when some relation in L involves
    r, and per (point, multiplicity) the point's rows of orders mu and up
    multiplied into K and into every v_r, which the floors of mode mu
    share.  `_echelon` is (degree, multiplicities, bases) for the last
    prefix walk: bases[k] is the echelon basis of the rows of its first k
    points.  `_floors` maps (degree, floor multiplicities) to (kernel,
    blocks): a kernel basis of the floor's rows, and per (point, floor
    multiplicity, multiplicity) the extra rows of that point multiplied
    into it.  Ranks are exact, so no slot can change a result, only how
    much is recomputed.  Class-only facts go to `_route` and `_runs`; what
    a scan shares between the classes of one run stays in the scan.
    """

    __slots__ = ("field", "points", "_conditions", "_values", "_echelon", "_floors")

    def __init__(self, field: Field, points: Sequence[ProjectivePoint]):
        pts = tuple(points)
        for p in pts:
            if p.field != field:
                raise ValueError("point field does not match the configuration field")
        if len(set(pts)) != len(pts):
            raise DomainError("configuration points must be pairwise distinct")
        self.field = field
        self.points = pts
        self._conditions: dict[tuple[int, int, int], list] = {}
        self._values: dict[tuple[int, int], tuple] = {}
        self._echelon: tuple[int, tuple[int, ...], list[list]] = (-1, (), [[]])
        self._floors: dict[tuple[int, tuple[int, ...]], tuple[list, dict]] = {}

    def __len__(self) -> int:
        return len(self.points)

    def point(self, i: int) -> ProjectivePoint:
        """1-based access."""
        if not 1 <= i <= len(self.points):
            raise IndexError(f"point index {i} outside 1..{len(self.points)}")
        return self.points[i - 1]

    def __eq__(self, other):
        return (
            isinstance(other, PointConfiguration)
            and self.field == other.field
            and self.points == other.points
        )

    def to_json(self) -> dict:
        return {
            "field": self.field.descriptor(),
            "points": [p.to_json() for p in self.points],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PointConfiguration":
        field = field_from_descriptor(data["field"])
        pts = [ProjectivePoint.from_json(field, c) for c in data["points"]]
        return cls(field, pts)

    def __repr__(self):
        return f"PointConfiguration({self.field}, {len(self.points)} points)"


def configuration(field: Field, coords) -> PointConfiguration:
    return PointConfiguration(field, [ProjectivePoint(field, c) for c in coords])


# ---------------------------------------------------------------------------
# interpolation


def effectivity_test(cfg: PointConfiguration, cls: LatticeVector) -> tuple[bool, int]:
    """Does the class move on this configuration, and how much.

    Counts degree-d plane curves with multiplicity >= m_i at p_i by exact
    elimination over the configuration's field.  Returns (effective,
    projective dimension); dimension is -1 when the system is empty.
    Negative multiplicities count as 0: a curve meets the exceptional class
    over p_i in m_i < 0 only by containing it as a fixed component, so the
    linear system does not move there.

    Multiplicity >= m at p means that the Hasse derivatives of order (a, b)
    with a + b < m vanish at p, in an affine chart around p; one condition
    row per (a, b), see `_hasse_row`.  Hasse derivatives carry binomial
    coefficients instead of factorials, so this holds in every
    characteristic.

    The class is decided as a scan of one class (`_answers`), by the same
    code that decides the hundreds of classes of a verdict.  Per degree d
    and order mu, one elimination of every point's rows of orders below mu
    gives K, L and the v_r (see `_values` in `PointConfiguration`).  A
    class of multiplicities m takes the first route that applies, planned
    once per coordinate tuple (`_route`):
    - multiplicity bound, some m_i > d: the Hasse rows of order <= d at
      one point already determine a degree-d form, so nothing moves;
    - value rows, every m_i 0 or 1 and at most half of them 1 (lines
      through three points): the rank of the value rows of the points S
      with m_i = 1;
    - left kernel, every m_i 0 or 1 and more than half of them 1 (conics
      through six of nine points): |S| - dim L + the rank of the columns
      of L at the 0s T, since S's relations are the vectors of L
      vanishing on T;
    - floor kernel, m above its floor nu = min(m, mu), mu the mode of m
      (-dK + e_i - e_j is d + 1 at j over the floor d - 1 at i, d
      elsewhere): `_floors` keeps a kernel basis of the floor's rows and,
      per point k and m_k, the rows of orders nu_k <= a + b < m_k
      multiplied into it, stacked per class.  The dimension is the
      kernel's minus their rank, minus one, whatever the kernel's
      dimension is (a Halphen pencil enlarges it).  The floor drops the
      rows D of orders nu_k to mu - 1 from those below mu, so its kernel
      is K + span{v_r : r in D} if at most one v_r is None, left out (a
      relation of L nonzero there vanishes on the rest of D); otherwise
      `echelon_kernel` of its prefix walk;
    - prefix walk, when the floor is zero or the class itself: see
      `_echelon_walk`.
    The value-row, left-kernel and floor routes rank a stack of blocks of
    rows, one block per point (`_stack_rank`).  A class that is not
    effective ranks full; the rank is exact either way, so the dimension
    of an effective class is too.
    """
    if cls.n != len(cfg):
        raise ValueError(
            f"class on {cls.n} points against a configuration of {len(cfg)}"
        )
    return next(_answers(cfg, _runs((cls,))))[1:]


def _answers(cfg: PointConfiguration, runs: tuple):
    """(position, effective, dimension) of each class of runs (`_runs`),
    lazily and in run order, so that a scan can stop at its first
    effective class.  Each run's blocks of rows are looked up once, and
    the kernel of each prefix of blocks is kept for the run
    (`_stack_rank`)."""
    field, n = cfg.field, len(cfg)
    for key, run in runs:
        route, d, ncols = key[:3]
        if route == "bound":
            for i, _ in run:
                yield i, False, -1
            continue
        if route == "walk":
            for i, plan in run:
                dim = ncols - len(_echelon_walk(cfg, d, plan[3])) - 1
                yield i, dim >= 0, dim
            continue
        if route == "values":
            width, blocks = ncols, [_point_rows(cfg, d, i, 1) for i in range(n)]
        elif route == "left":  # ncols - rank = ncols - |S| + dim L - the stack's rank
            left = _value_kernels(cfg, d)[1]
            width, blocks = len(left), [[[v[i] for v in left]] for i in range(n)]
        else:
            kernel, blocks = _floor(cfg, key, {b for _, plan in run for b in plan[-1]})
            width = ncols = len(kernel)
        kernels: dict[tuple, list] = {}
        for i, plan in run:
            free = ncols - plan[3] + width if route == "left" else ncols
            dim = free - _stack_rank(field, width, blocks, kernels, plan[-1]) - 1
            yield i, dim >= 0, dim


def _runs(classes: Sequence[LatticeVector], merge: bool = False) -> tuple:
    """The classes' plans (`_route`) in runs of one key (route, degree and,
    for a floor, the floor and the rows it drops), each plan with its
    class's position: runs of consecutive classes, or with merge one run
    per key, in the order of their first classes."""
    keyed = [(plan[:5] if plan[0] == "floor" else plan[:3], i, plan)
             for i, plan in enumerate(_route(cls.coords) for cls in classes)]
    if merge:  # a stable sort, keys taken in list order: each key at its first position
        first: dict[tuple, int] = {}
        keyed.sort(key=lambda k: first.setdefault(k[0], k[1]))
    runs = groupby(keyed, itemgetter(0))
    return tuple((key, tuple((i, plan) for _, i, plan in run)) for key, run in runs)


@lru_cache(maxsize=None)
def _halphen_runs(m: int) -> tuple:
    """`_runs` of the index-m prohibited classes, planned once per process."""
    return _runs(halphen_prohibited_classes(m))


@lru_cache(maxsize=None)
def _coble_runs() -> tuple:
    """The Coble scan's conditions (label, index set, class), the
    anticanonical cubic first, and their merged `_runs`, once per process."""
    cubic = ("anticanonical_cubic", tuple(range(1, 11)), LatticeVector((3,) + (-1,) * 10))
    families = ((f.label, f.index_set, r) for f in coble_conditions() for r in f.representatives)
    conditions = (cubic, *families)
    return conditions, _runs([rep for *_, rep in conditions], merge=True)


def _stack_rank(field: Field, width: int, blocks, kernels: dict, ids: tuple) -> int:
    """The rank of the rows of blocks[b] for b in ids, stacked; every row
    has width entries.  All but the last block are a prefix, whose kernel
    N is kept in kernels, so a stack multiplies only its last block B into
    it: the rank is width - dim N + rank(B N), and `matrix_rank` reads a
    square B N off its determinant.  Two rows of width 3 have their cross
    product as kernel when it is nonzero (a line's first two points, a
    conic's first two 0s)."""
    if len(ids) < 2:
        return matrix_rank(blocks[ids[0]], field) if ids else 0
    head = ids[:-1]
    kernel = kernels.get(head)
    if kernel is None:
        prefix = [row for b in head for row in blocks[b]]
        normal = cross(*prefix, field) if len(prefix) == 2 and width == 3 else None
        if normal is None or normal == (field._zero,) * 3:
            kernel = echelon_kernel(extend_echelon([], prefix, field), width, field)
        else:
            kernel = [normal]
        kernels[head] = kernel
    dot = field.dot
    return width - len(kernel) + matrix_rank(
        [[dot(r, v) for v in kernel] for r in blocks[ids[-1]]], field
    )


@lru_cache(maxsize=None)
def _route(coords: tuple[int, ...]) -> tuple:
    """(route, d, ncols, *plan) of `effectivity_test` for these coordinates:
    the 1s' indices for "values"; their number and the 0s' for "left"; the
    multiplicities for "walk"; for "floor" the floor, the rows it drops of
    `_value_kernels` of its mode, and (point, floor, mult) per point above it."""
    d, mults = coords[0], _clamped_multiplicities(coords)
    top, ncols = max(mults, default=0), (d + 1) * (d + 2) // 2  # ncols: degree-d monomials
    if d < 0 or top > d:
        return "bound", d, ncols
    if top <= 1 and 2 * sum(mults) <= len(mults):
        return "values", d, ncols, tuple(i for i, m in enumerate(mults) if m)
    if top <= 1:
        return "left", d, ncols, sum(mults), tuple(i for i, m in enumerate(mults) if m == 0)
    mode = max(set(mults), key=mults.count)
    if mode == 0 or top == mode:  # floor 0 or the class
        return "walk", d, ncols, mults
    floor = tuple(min(m, mode) for m in mults)
    t = mode * (mode + 1) // 2  # rows of orders below the mode at one point
    dropped = tuple(k * t + r for k, n in enumerate(floor) for r in range(n * (n + 1) // 2, t))
    above = tuple((k, n, m) for k, (n, m) in enumerate(zip(floor, mults)) if m > n)
    return "floor", d, ncols, floor, dropped, above


def _floor(cfg: PointConfiguration, key: tuple, needed: set) -> tuple:
    """(kernel, blocks) for the floor of a run, key = ("floor", d, ncols,
    floor, dropped) from `_route`: a basis of the kernel of the floor's
    condition rows, and per (k, n, m) in needed the rows of orders
    n <= a + b < m at point k multiplied into that basis; both are kept
    per (degree, floor) in `_floors`.  When at most one dropped row r of
    `_value_kernels` of the floor's mode has no v_r, the kernel is K + the
    other v_r, and point rows multiplied into K and into each v_r are kept
    with that elimination, so floors that differ in what they drop share
    them.  Otherwise the kernel comes from the floor's prefix walk."""
    _, d, ncols, floor, dropped = key
    base, _, solutions, dotted = _value_kernels(cfg, d, max(floor))
    vs = [r for r in dropped if solutions[r] is not None]
    vs = vs if len(dropped) - len(vs) <= 1 else None
    if (d, floor) not in cfg._floors:
        if vs is None:
            kernel = echelon_kernel(_echelon_walk(cfg, d, floor), ncols, cfg.field)
        else:
            kernel = base + [solutions[r] for r in vs]
        cfg._floors[d, floor] = kernel, {}
    kernel, blocks = cfg._floors[d, floor]
    dot = cfg.field.dot
    for k, n, m in needed - blocks.keys():
        extra = _point_rows(cfg, d, k, m)[n * (n + 1) // 2 :]  # past the rows of orders below n
        if not vs:  # the walk's kernel, or K alone
            blocks[k, n, m] = [[dot(r, v) for v in kernel] for r in extra]
            continue
        if (k, m) not in dotted:  # n is the mode
            dotted[k, m] = [
                ([dot(r, x) for x in base], [None if v is None else dot(r, v) for v in solutions])
                for r in extra
            ]
        blocks[k, n, m] = [on_k + [on_v[r] for r in vs] for on_k, on_v in dotted[k, m]]
    return kernel, blocks


def _value_kernels(cfg: PointConfiguration, d: int, mu: int = 1) -> tuple[list, list, list, dict]:
    """`two_sided_kernels` of every point's degree-d rows of orders below
    mu, point by point (for mu = 1 the value rows), kept per (d, mu) with
    a memo of point rows of orders mu and up multiplied into K and every v_r."""
    if (d, mu) not in cfg._values:
        rows = [row for i in range(len(cfg)) for row in _point_rows(cfg, d, i, mu)]
        cfg._values[d, mu] = (*two_sided_kernels(rows, cfg.field), {})
    return cfg._values[d, mu]


def _echelon_walk(cfg: PointConfiguration, d: int, mults: tuple[int, ...]) -> list:
    """Forward echelon basis of the condition rows of degree d and mults,
    reduced point by point in index order.  The basis after each point is
    kept on the configuration (`_echelon`), so a walk of the degree of the
    previous one resumes after their longest common multiplicity prefix.
    It stops at full rank, where nothing further is independent."""
    ncols = (d + 1) * (d + 2) // 2  # degree-d monomials
    last_d, walked, bases = cfg._echelon
    k = 0
    if last_d == d:
        while k < len(walked) and walked[k] == mults[k]:
            k += 1
    bases = bases[: k + 1]  # bases[0] is empty whatever the degree
    for i in range(k, len(mults)):
        if len(bases[-1]) == ncols:
            break
        bases.append(extend_echelon(bases[-1], _point_rows(cfg, d, i, mults[i]), cfg.field))
    cfg._echelon = (d, mults[: len(bases) - 1], bases)
    return bases[-1]


def _clamped_multiplicities(coords: tuple[int, ...]) -> tuple[int, ...]:
    """max(m_i, 0) from the coordinates (d, -m_1, ..., -m_n)."""
    return tuple(-c if c < 0 else 0 for c in coords[1:])


def _condition_rows(cfg: PointConfiguration, d: int, mults: Sequence[int]) -> list[list]:
    """All condition rows of degree d and multiplicities mults, point by point."""
    return [row for i, m in enumerate(mults) for row in _point_rows(cfg, d, i, m)]


def _point_rows(cfg: PointConfiguration, d: int, i: int, m: int) -> list[list]:
    """One row of raws per Hasse derivative (a, b), a + b < m, at point i
    (0-based), by increasing a + b, so the rows of m - 1 come first.  Rows
    are memoised on the configuration: verdict routines test hundreds of
    classes on the same points, and the rows of one point and degree recur
    in all of them."""
    if m <= 0:
        return []
    rows = cfg._conditions.get((d, i, m))
    if rows is None:
        p = cfg.points[i]
        rows = cfg._conditions[d, i, m] = _point_rows(cfg, d, i, m - 1) + [
            _hasse_row(p, d, a, m - 1 - a) for a in range(m)
        ]
    return rows


def _hasse_row(p: ProjectivePoint, d: int, a: int, b: int) -> list:
    """The Hasse derivative of order (a, b) at p of every degree-d monomial,
    as raws in `monomial_exponents` order.

    The chart (s, t) is the one of `frame_with_last_column`: (0, 1) if
    p_2 != 0, (0, 2) if p_1 != 0, else (1, 2).  The normalised p has 1 in
    the remaining coordinate, so the monomial with exponents i gives
    C(i_s, a) C(i_t, b) p_s^(i_s - a) p_t^(i_t - b)."""
    field, c, zero = p.field, p.raw, p.field._zero
    s, t = (0, 1) if c[2] != zero else (0, 2) if c[1] != zero else (1, 2)
    hs, ht = _hasse_column(field, c[s], a, d), _hasse_column(field, c[t], b, d)
    mul = field._mul
    return [mul(hs[e[s]], ht[e[t]]) for e in monomial_exponents(d)]


def _hasse_column(field: Field, x, a: int, d: int) -> list:
    """C(i, a) x^(i - a) for i = 0..d on raws, zero for i < a: the
    coefficient of u^a in (u + x)^i."""
    mul = field._mul
    out, power = [field._zero] * a, field._one
    for i in range(a, d + 1):
        out.append(mul(field._from_int(comb(i, a)), power))
        power = mul(power, x)
    return out


def effective_curves_basis(cfg: PointConfiguration, cls: LatticeVector) -> list[Poly3]:
    """Basis of the linear system from effectivity_test, as ternary forms."""
    d = cls.degree
    field = cfg.field
    monos = monomial_exponents(d)
    rows = _condition_rows(cfg, d, _clamped_multiplicities(cls.coords))
    if not rows:
        return [Poly3.monomial(field, key) for key in monos]
    return [Poly3.from_raw(field, dict(zip(monos, v))) for v in kernel_basis(rows, field)]


# ---------------------------------------------------------------------------
# pencil / unnodality verdicts by interpolation


def is_unnodal_halphen(cfg: PointConfiguration, m: int) -> tuple[bool, LatticeVector | None]:
    """No prohibited class of index m is effective on these nine points.

    Returns (verdict, witness): witness is the first effective prohibited
    class when the verdict is False.
    """
    if len(cfg) != 9:
        raise DomainError("index-m pencil checks need exactly nine points")
    classes = halphen_prohibited_classes(m)
    for i, effective, _ in _answers(cfg, _halphen_runs(m)):
        if effective:
            return False, classes[i]
    return True, None


def is_coble_set(cfg: PointConfiguration) -> tuple[bool, dict]:
    """Ten points: no cubic may pass through them, a unique sextic with ten
    double points must exist, and no integral representative of the 496
    nodal conditions may be effective.

    The report lists the sextic's dimension and every violated condition,
    a cubic through the ten points (anticanonical_cubic) first.
    """
    if len(cfg) != 10:
        raise DomainError("this verdict is for ten-point configurations")
    sextic = LatticeVector((6,) + (-2,) * 10)
    sextic_eff, sextic_dim = effectivity_test(cfg, sextic)
    conditions, runs = _coble_runs()
    answers = sorted(_answers(cfg, runs))  # from run order back to catalog order
    violations = [
        {"label": label, "index_set": list(index_set), "class": rep.to_json(), "dimension": dim}
        for (label, index_set, rep), (_, effective, dim) in zip(conditions, answers)
        if effective
    ]
    ok = sextic_eff and sextic_dim == 0 and not violations
    report = {
        "sextic_effective": sextic_eff,
        "sextic_dimension": sextic_dim,
        "violations": violations,
    }
    return ok, report


# ---------------------------------------------------------------------------
# Cremona action


def cremona_quadratic(cfg: PointConfiguration, i: int, j: int, k: int) -> PointConfiguration:
    """Standard quadratic transformation based at points i, j, k (1-based).

    The base triple moves to the coordinate triangle; every other point must
    avoid the three lines through the base pairs and gets (x:y:z) |->
    (yz:xz:xy) applied after the frame change.
    """
    n = len(cfg)
    if len({i, j, k}) != 3 or not all(1 <= t <= n for t in (i, j, k)):
        raise DomainError(f"base indices ({i},{j},{k}) invalid for {n} points")
    field = cfg.field
    zero, mul = field._zero, field._mul
    try:
        t = mat3_inverse(mat3_from_columns([cfg.point(b).raw for b in (i, j, k)]), field)
    except ZeroDivisionError:
        raise DomainError("base points are collinear") from None
    new_points: list[ProjectivePoint] = []
    for idx0, p in enumerate(cfg.points, start=1):
        x, y, z = mat3_apply(t, p.raw, field)
        if idx0 in (i, j, k):  # a coordinate-triangle vertex
            new_points.append(ProjectivePoint.from_raw(field, (x, y, z)))
            continue
        if zero in (x, y, z):
            raise DomainError(
                f"point {idx0} lies on a line through two base points"
            )
        new_points.append(ProjectivePoint.from_raw(field, (mul(y, z), mul(x, z), mul(x, y))))
    return PointConfiguration(field, new_points)


def act_by_word(cfg: PointConfiguration, word: Sequence[int]) -> PointConfiguration:
    """Apply a Weyl word to the configuration, first letter first.

    Letter 0 is the quadratic transformation based at points 1, 2, 3; letter
    l >= 1 swaps points l and l+1.  Domain violations carry the failing step.
    """
    out = cfg
    for step, letter in enumerate(word):
        if letter == 0:
            try:
                out = cremona_quadratic(out, 1, 2, 3)
            except DomainError as err:
                raise DomainError(f"step {step}: {err}") from None
        elif 1 <= letter < len(out):
            pts = list(out.points)
            pts[letter - 1], pts[letter] = pts[letter], pts[letter - 1]
            out = PointConfiguration(out.field, pts)
        else:
            raise DomainError(f"step {step}: letter {letter} out of range")
    return out


def projectively_equivalent(
    a: PointConfiguration, b: PointConfiguration
) -> tuple[bool, Mat3 | None]:
    """Index-preserving projective equivalence.

    Builds the candidate transform from the first four points of `a` in
    general position and checks it on everything; the transform returned
    is a 3x3 matrix of raws.  Raises DomainError when `a` has no such four
    points (the notion is then not decided by a frame).
    """
    if a.field != b.field or len(a) != len(b):
        return False, None
    frame_idx = None
    for quad in combinations(range(len(a)), 4):
        if _general_position([a.points[t] for t in quad]):
            frame_idx = quad
            break
    if frame_idx is None:
        raise DomainError("no four points of the source are in general position")
    if not _general_position([b.points[t] for t in frame_idx]):
        return False, None
    ta = frame_transform(*[a.points[t] for t in frame_idx])
    tb = frame_transform(*[b.points[t] for t in frame_idx])
    field = a.field
    m = mat3_mul(tb, mat3_inverse(ta, field), field)
    for pa, pb in zip(a.points, b.points):
        if normalized(field, mat3_apply(m, pa.raw, field)) != pb.raw:
            return False, None
    return True, m


def _general_position(pts: list[ProjectivePoint]) -> bool:
    field = pts[0].field
    return all(
        dot(p.raw, cross(q.raw, r.raw, field), field) != field._zero
        for p, q, r in combinations(pts, 3)
    )
