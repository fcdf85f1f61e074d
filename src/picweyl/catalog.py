"""Census of roots and of the mod-2 nodal conditions on ten points.

Roots here are vectors r = m_0 e_0 - sum m_i e_i with r^2 = -2 orthogonal to
the canonical vector, i.e. integer solutions of

    sum m_i = 3 m_0        and        sum m_i^2 = m_0^2 + 2.

The second equation forces |m_i| <= m_0 + 1 outright, and m_i <= m_0 whenever
m_0 >= 1 (an entry m_0 + 1 alone already overshoots the square budget); both
bounds are asserted below.

Simple-root coordinates, and with them the mod-2 residues, come from the
closed-form change of basis in `lattice`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .lattice import LatticeVector, canonical_vector, root_basis_coordinates
from .residue import ResidueModule


# ---------------------------------------------------------------------------
# the quadratic form mod 2 on simple-root coordinates


def residue_mod2(v: LatticeVector) -> tuple[int, ...]:
    return tuple(c % 2 for c in root_basis_coordinates(v))


def q2_value(coords_mod2: tuple[int, ...], n: int = 10) -> int:
    """Half the even quadratic form, reduced mod 2, on a residue class in
    root-basis coordinates."""
    return ResidueModule(2, n).quadratic(coords_mod2)


def residue_counts_mod2(n: int = 10) -> tuple[int, int]:
    """(#isotropic, #norm-one) residues in the rank-n root lattice mod 2."""
    q = ResidueModule(2, n).quadratic
    iso = one = 0
    for mask in range(1 << n):
        x = tuple((mask >> i) & 1 for i in range(n))
        if q(x) == 0:
            iso += 1
        else:
            one += 1
    return iso, one


# ---------------------------------------------------------------------------
# root enumeration


@lru_cache(maxsize=None)
def enumerate_roots(n: int, max_degree: int) -> tuple[LatticeVector, ...]:
    """All roots of degree 0..max_degree, normalized and lex-sorted.

    Degree-0 roots come once each: the representative with positive first
    nonzero coordinate (e_i - e_j with i < j).  Positive degrees need no
    normalization since their negatives have negative degree.
    """
    k = canonical_vector(n)  # raises for n < 3
    out: list[LatticeVector] = []
    for m0 in range(max_degree + 1):
        bound = m0 + 1
        for multiset in _descending_solutions(n, 3 * m0, m0 * m0 + 2, bound):
            if m0 >= 1:
                assert max(multiset) <= m0, "bound m_i <= m_0 violated"
            for arrangement in _distinct_permutations(multiset):
                coords = (m0,) + tuple(-m for m in arrangement)
                if m0 == 0:
                    first = next((c for c in coords[1:] if c != 0), 0)
                    if first <= 0:
                        continue
                out.append(LatticeVector(coords))
    out.sort(key=lambda v: v.coords)
    for r in out:
        assert r.is_root(k)
    return tuple(out)


def _descending_solutions(n, target_sum, target_sq, bound):
    """Nonincreasing integer n-tuples with given sum and sum of squares,
    entries in [-bound, bound]."""
    results: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(pos: int, prev: int, rsum: int, rsq: int) -> None:
        if pos == n:
            if rsum == 0 and rsq == 0:
                results.append(tuple(prefix))
            return
        rest = n - pos - 1
        hi = min(prev, bound)
        for v in range(hi, -bound - 1, -1):
            if v * v > rsq:
                if v > 0:
                    continue
                break
            s = rsum - v
            # remaining entries are <= v and >= -bound
            if s > v * rest or s < -bound * rest:
                continue
            prefix.append(v)
            rec(pos + 1, v, s, rsq - v * v)
            prefix.pop()

    rec(0, bound, target_sum, target_sq)
    return results


def _distinct_permutations(values: tuple[int, ...]):
    """Every distinct arrangement of values, in lexicographic order."""
    p = sorted(values)
    while True:
        yield tuple(p)
        # next permutation: raise the last ascent by the smallest larger
        # entry to its right, then put that suffix in ascending order
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


# ---------------------------------------------------------------------------
# the 496 nodal conditions mod 2 on ten points


class ClassFamily(NamedTuple):
    """One mod-2 condition: a residue class, the roots of Coble's shape that
    represent it, and the point indices involved.  The five shapes are
    listed in `coble_conditions`; a conic_six residue is also represented by
    four quartics 4e_0 - 2(e_a + e_b + e_c) - (the six), which are not."""

    label: str
    representative: LatticeVector
    index_set: tuple[int, ...]
    representatives: tuple[LatticeVector, ...]
    residue: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.representative.degree


def _class_from_multiplicities(n: int, degree: int, mults: dict[int, int]) -> LatticeVector:
    coords = [degree] + [0] * n
    for i, m in mults.items():
        coords[i] = -m
    return LatticeVector(tuple(coords))


@lru_cache(maxsize=None)
def coble_conditions() -> tuple[ClassFamily, ...]:
    """The 45 + 120 + 210 + 120 + 1 distinct mod-2 conditions on ten points.

    Five shapes: coincident pair, collinear triple, six on a conic, eight on
    a cubic singular at a ninth, and all ten on a quartic with a triple
    point.  The last two shapes collapse mod 2: three integral classes share
    each eight-point residue, ten share the quartic one.
    """
    families: list[ClassFamily] = []
    idx = range(1, 11)

    for i, j in combinations(idx, 2):
        rep = _class_from_multiplicities(10, 0, {i: 1, j: -1})
        families.append(_family("coincident_pair", (i, j), (rep,)))

    for i, j, k in combinations(idx, 3):
        rep = _class_from_multiplicities(10, 1, {i: 1, j: 1, k: 1})
        families.append(_family("collinear_triple", (i, j, k), (rep,)))

    for s in combinations(idx, 6):
        rep = _class_from_multiplicities(10, 2, {i: 1 for i in s})
        families.append(_family("conic_six", s, (rep,)))

    for t in combinations(idx, 3):
        reps = []
        for j in t:
            omit = tuple(x for x in t if x != j)
            mults = {i: 1 for i in idx if i not in omit}
            mults[j] = 2
            reps.append(_class_from_multiplicities(10, 3, mults))
        families.append(_family("singular_cubic_eight", t, tuple(reps)))

    reps = []
    for j in idx:
        mults = {i: 1 for i in idx}
        mults[j] = 3
        reps.append(_class_from_multiplicities(10, 4, mults))
    families.append(_family("triple_point_quartic", tuple(idx), tuple(reps)))

    residues = {f.residue for f in families}
    if len(residues) != 496:
        raise AssertionError(f"expected 496 distinct residues, got {len(residues)}")
    return tuple(families)


def _family(label: str, index_set, reps) -> ClassFamily:
    k10 = canonical_vector(10)
    res = residue_mod2(reps[0])
    for r in reps:
        if not r.is_root(k10):
            raise AssertionError(f"{label} representative {r} is not a root")
        if residue_mod2(r) != res:
            raise AssertionError(f"{label} representatives disagree mod 2")
    if q2_value(res) != 1:
        raise AssertionError(f"{label} residue is not norm-one")
    rep = min(reps, key=lambda v: v.coords)
    return ClassFamily(
        label=label,
        representative=rep,
        index_set=tuple(index_set),
        representatives=tuple(sorted(reps, key=lambda v: v.coords)),
        residue=res,
    )


def catalog_to_csv(families: tuple[ClassFamily, ...]) -> str:
    """One row per condition: label, degree, ten multiplicities, residue bits."""
    lines = ["label,degree," + ",".join(f"m{i}" for i in range(1, 11)) + ",residue_mod2"]
    for f in families:
        mults = ",".join(str(m) for m in f.representative.multiplicities)
        bits = "".join(str(b) for b in f.residue)
        lines.append(f"{f.label},{f.representative.degree},{mults},{bits}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# prohibited classes for index-m pencils on nine points


@lru_cache(maxsize=None)
def halphen_prohibited_classes(m: int) -> tuple[LatticeVector, ...]:
    """Roots that must not be effective for a nine-point set to carry an
    index-m pencil: k-shifted coincidence classes -dK + e_i - e_j for
    0 <= 2d <= m, and k-shifted line classes -dK +- (e_0 - e_i - e_j - e_k)
    subject to 0 <= 2(3d +- 1) <= 3m (the minus branch therefore starts at
    d = 1; at d = 0 it would have negative degree)."""
    if m < 1:
        raise ValueError("pencil index must be >= 1")
    k = canonical_vector(9)
    minus_k = -k
    out: list[LatticeVector] = []
    idx = range(1, 10)

    d = 0
    while 2 * d <= m:
        for i in idx:
            for j in idx:
                if i != j:
                    coords = list((d * minus_k).coords)
                    coords[i] += 1
                    coords[j] -= 1
                    out.append(LatticeVector(tuple(coords)))
        d += 1

    triples = combinations(idx, 3)
    lines = [_class_from_multiplicities(9, 1, dict.fromkeys(t, 1)) for t in triples]
    d = 0
    while 2 * (3 * d + 1) <= 3 * m:
        out.extend(d * minus_k + line for line in lines)
        d += 1

    d = 1
    while 2 * (3 * d - 1) <= 3 * m:
        out.extend(d * minus_k - line for line in lines)
        d += 1

    for r in out:
        assert r.is_root(k), f"prohibited class {r} is not a root"
    return tuple(out)

