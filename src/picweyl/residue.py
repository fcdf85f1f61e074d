"""Quadratic-form arithmetic on the canonical complement, reduced mod m.

Everything here lives in simple-root coordinates: a residue vector is a
length-n tuple of ints in [0, m), the coordinates of an element of the
rank-n canonical complement k_n^perp inside Z^{1,n} with respect to the
simple roots.  In these coordinates the Gram matrix has -2 on the diagonal
and 1 on the edges of the T-shaped tree, the lattice is even, and the
half-norm q(x) = x.G.x / 2 is an integer with q(root) = -1.  Simple
reflections act by changing a single coordinate, which keeps the Weyl-word
search cheap: both root-search methods run that one breadth-first search
over integer roots, and differ only in the simple roots it starts from and
in the certificate they report.  It needs the unimodular case n = 10.
The orbit the search walks is built once per process and start set, level
by level, as deep as some search has gone.  Submodule membership is a
syndrome, the residues of the Smith rows whose invariant factor is not 1;
the search carries it from parent to child along the orbit, adding one
scaled column per reflection, instead of testing every root.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .errors import BudgetError, DomainError
from .lattice import LatticeVector, gram_matrix, simple_roots
from .smith import (
    diagonal_of,
    factor,
    integer_kernel,
    smith_normal_form,
)

_WORD_DEPTH = 24
_VISITED_CAP = 2**24
_WITT_TRIALS = 50_000
_BASE_SCAN_CAP = 2**16


@lru_cache(maxsize=None)
def _form(n: int):
    """The Gram matrix of k_n^perp in simple-root coordinates, and for each
    row the columns where it is nonzero, so b(x, alpha_i) is a short sum."""
    gram = gram_matrix(simple_roots(n))
    return gram, tuple(tuple(j for j in range(n) if gram[i][j]) for i in range(n))


def _b_int(x, y) -> int:
    """b(x, y) = x.G.y over the integers."""
    gram, neighbours = _form(len(x))
    acc = 0
    for i, xi in enumerate(x):
        if xi:
            for j in neighbours[i]:
                acc += gram[i][j] * xi * y[j]
    return acc


def _q_int(x) -> int:
    return _b_int(x, x) // 2


class ResidueModule:
    """The canonical complement k_n^perp with coefficients in Z/m."""

    def __init__(self, m: int, n: int = 10):
        if m < 2:
            raise DomainError("the modulus must be at least 2")
        self.m = m
        self.rank = n
        self.gram = _form(n)[0]

    # -- vector arithmetic -----------------------------------------------

    def reduce(self, x) -> tuple[int, ...]:
        if len(x) != self.rank:
            raise ValueError(f"residue vectors have {self.rank} coordinates")
        return tuple(int(c) % self.m for c in x)

    def add(self, x, y):
        return tuple((a + b) % self.m for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.m for a, b in zip(x, y))

    def bilinear(self, x, y) -> int:
        return _b_int(x, y) % self.m

    def quadratic(self, x) -> int:
        return _q_int(x) % self.m

    def is_totally_singular(self, vectors) -> bool:
        """q vanishes on the span of vectors.  Checked on the vectors and
        their pairs, since q(x + y) = q(x) + q(y) + b(x, y)."""
        vs = [self.reduce(v) for v in vectors]
        return all(self.quadratic(v) == 0 for v in vs) and all(
            self.bilinear(v, w) == 0 for v, w in combinations(vs, 2)
        )

    # -- structure ---------------------------------------------------------

    def is_unit(self, a: int) -> bool:
        return math.gcd(a, self.m) == 1

    def inverse(self, a: int) -> int:
        if not self.is_unit(a):
            raise DomainError(f"{a} is not invertible mod {self.m}")
        return pow(a, -1, self.m)

    def prime_power(self) -> tuple[int, int]:
        fac = factor(self.m)
        if len(fac) != 1:
            raise DomainError(f"modulus {self.m} is not a prime power")
        ((p, k),) = fac.items()
        return p, k

    def simple_residue(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rank:
            raise ValueError(f"simple root index {i} outside 0..{self.rank - 1}")
        return tuple(1 % self.m if j == i else 0 for j in range(self.rank))

    def submodule(self, generators) -> "ResidueSubmodule":
        return ResidueSubmodule(self, [self.reduce(g) for g in generators])

    def __eq__(self, other):
        return isinstance(other, ResidueModule) and (other.m, other.rank) == (self.m, self.rank)

    def __hash__(self):
        return hash(("ResidueModule", self.m, self.rank))

    def __repr__(self):
        return f"ResidueModule(m={self.m}, n={self.rank})"


class ResidueSubmodule:
    """Subgroup of (Z/m)^n spanned by a generating set, with Smith-form
    structure data computed on first use: one Smith form per submodule.

    With U.A.V = D in Smith form for A = [generators | m.I], x lies in the
    subgroup iff (U.x)_i = 0 mod d_i for every i.  Rows with d_i = 1 never
    fail, so only the others are kept, reduced mod their d_i: these residues
    are the syndrome of x, which is zero exactly on the subgroup.  Since
    A.V = U^-1.D, column i of A.V is column i of U^-1 wherever d_i = 1, and
    these columns span a free direct summand; mod m only the generator rows
    of V contribute to them.  So the free basis needs no U: a submodule
    asked only for its free basis takes a form that does not carry U.
    """

    def __init__(self, module: ResidueModule, generators):
        self.module = module
        self.generators = tuple(tuple(g) for g in generators)
        self._structure = None
        self._basis = None

    def _smith(self, u_cols=None):
        """(U, factors, V's generator rows) of A's Smith form, U cut to its
        leading u_cols columns."""
        m, n = self.module.m, self.module.rank
        cols = [list(g) for g in self.generators]
        cols += [[m if i == j else 0 for i in range(n)] for j in range(n)]
        a = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        u, d, v = smith_normal_form(a, v_rows=len(self.generators), u_cols=u_cols)
        return u, tuple(diagonal_of(d)), v

    def _compute(self):
        if self._structure is None:
            u, factors, v = self._smith()
            checks = tuple(
                (tuple(c % f for c in row), f) for row, f in zip(u, factors) if f != 1
            )
            self._structure = (checks, factors, v)
        return self._structure

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._compute()[1]

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f == 1)

    def free_basis(self) -> list[tuple[int, ...]]:
        """Vectors generating a free direct summand, one per unit factor: the
        columns of A.V with d_i = 1, reduced mod m.  Built once, off the full
        form when it is already known and off a form without U otherwise."""
        if self._basis is None:
            _, factors, v = self._structure or self._smith(u_cols=0)
            self._basis = tuple(
                self.module.reduce(_combo(self.generators, [row[i] for row in v]))
                for i, f in enumerate(factors)
                if f == 1
            )
        return list(self._basis)

    def syndrome(self, x) -> tuple[int, ...]:
        """(U.x)_i mod d_i over the factors d_i != 1, for an integer vector x."""
        return tuple(
            sum(a * b for a, b in zip(row, x)) % f for row, f in self._compute()[0]
        )

    def contains(self, x) -> bool:
        return not any(self.syndrome(self.module.reduce(x)))

    def __repr__(self):
        return (
            f"ResidueSubmodule(m={self.module.m}, "
            f"factors={self.invariant_factors})"
        )


# -- unit representation -------------------------------------------------


def represent_unit(sub: ResidueSubmodule, a: int):
    """A vector v of the submodule with q(v) = a, for a unit a mod p^k.

    The base solution mod p is found by search, then corrected one p-power
    at a time: if q(v) = a + c p^j, a companion w in the submodule with
    b(v, w) invertible turns v - c u^-1 p^j w into a solution mod p^(j+1);
    the square term is divisible by p^(2j) and drops out.
    """
    module = sub.module
    p, k = module.prime_power()
    a = a % module.m
    if not module.is_unit(a):
        raise DomainError(f"{a} is not a unit mod {module.m}")
    # free basis vectors are columns of a unimodular matrix, so they stay
    # independent mod p
    basis = sub.free_basis()
    if len(basis) < 2:
        raise DomainError(
            "the submodule drops below rank 2 mod p; representation of a "
            "unit is not guaranteed"
        )
    v, w = _base_solution(module, basis, a, p)
    # Hensel-style corrections up to p^k
    for j in range(1, k):
        pj = p**j
        qv = _q_int(v)
        c = ((qv - a) // pj) % p
        if c:
            u = module.bilinear(v, w) % p
            t = (-c * pow(u, -1, p)) % p
            v = tuple(vi + t * pj * wi for vi, wi in zip(v, w))
    v = module.reduce(v)
    if module.quadratic(v) != a:
        raise DomainError("unit representation drifted during lifting")
    return v


def _combo(basis, coeffs):
    out = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        if c:
            for i, bi in enumerate(b):
                out[i] += c * bi
    return tuple(out)


def _companion(module, basis, v, p):
    for w in basis:
        if module.bilinear(v, w) % p:
            return w
    return None


def _base_solution(module, basis, a: int, p: int):
    """(v, w) with q(v) = a mod p and b(v, w) a unit mod p, by search."""
    r = len(basis)
    if p**r <= _BASE_SCAN_CAP:
        for coeffs in product(range(p), repeat=r):
            v = _combo(basis, coeffs)
            if _q_int(v) % p != a % p:
                continue
            w = _companion(module, basis, v, p)
            if w is not None:
                return v, w
        raise DomainError(f"no vector of the submodule has q = {a} mod {p}")
    # big search space: restrict to a nondegenerate rank-3 slice, where a
    # ternary form over F_p takes every nonzero value; only the Gram blocks
    # of the slices tried are formed
    for triple in combinations(range(r), 3):
        picked = [basis[i] for i in triple]
        if _gram_det3([[module.bilinear(x, y) for y in picked] for x in picked]) % p == 0:
            continue
        for coeffs in product(range(p), repeat=3):
            v = _combo(picked, coeffs)
            if _q_int(v) % p != a % p:
                continue
            w = _companion(module, basis, v, p)
            if w is not None:
                return v, w
    raise BudgetError(
        f"unit representation search mod {p} exhausted its candidate slices"
    )


def _gram_det3(gram) -> int:
    """The determinant of a symmetric 3x3 Gram block, written out so that
    this layer needs no field arithmetic."""
    (a, b, c), (_, d, e), (_, _, f) = gram
    return a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)


# -- reflections -----------------------------------------------------------


def apply_reflection(module: ResidueModule, h, x):
    """s_h(x) = x - b(x, h) q(h)^-1 h, defined when q(h) is a unit."""
    qh = module.quadratic(h)
    factor = (module.bilinear(x, h) * module.inverse(qh)) % module.m
    return tuple((xi - factor * hi) % module.m for xi, hi in zip(x, h))


class ReflectionProduct:
    """An ordered list of reflection vectors, applied first vector first."""

    __slots__ = ("module", "vectors")

    def __init__(self, module: ResidueModule, vectors=()):
        self.module = module
        vecs = tuple(module.reduce(h) for h in vectors)
        for h in vecs:
            if not module.is_unit(module.quadratic(h)):
                raise DomainError(f"reflection vector {h} has non-unit norm")
        self.vectors = vecs

    def apply(self, x):
        out = self.module.reduce(x)
        for h in self.vectors:
            out = apply_reflection(self.module, h, out)
        return out

    def then(self, h) -> "ReflectionProduct":
        return ReflectionProduct(self.module, self.vectors + (tuple(h),))

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"ReflectionProduct({self.module.m}, {len(self.vectors)} reflections)"


def square_class(u: int, p: int, k: int) -> int:
    """Canonical label of a unit's class modulo squares of units.

    Odd p: 1 or the least non-residue mod p.  p = 2: the class is trivial
    mod 2, determined mod 4 for k = 2 and mod 8 beyond that.
    """
    if p != 2:
        if pow(u % p, (p - 1) // 2, p) == 1:
            return 1
        return _least_nonresidue(p)
    if k == 1:
        return 1
    if k == 2:
        return u % 4
    return u % 8


def _least_nonresidue(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) != 1:
            return n
    raise AssertionError("every unit a residue: p is not an odd prime")


def spinor_norm(prod: ReflectionProduct) -> int:
    """Product of the reflection norms, reduced to a square-class label."""
    p, k = prod.module.prime_power()
    acc = 1
    for h in prod.vectors:
        acc = (acc * prod.module.quadratic(h)) % prod.module.m
    return square_class(acc, p, k)


# -- Witt extension ----------------------------------------------------------


def witt_extend(f_basis, g_basis, module: ResidueModule) -> ReflectionProduct:
    """A product of reflections carrying each f to the matching g.

    Pairs are matched one at a time.  The difference d of the current image
    and the target is automatically orthogonal to everything already
    matched, so s_d works outright whenever q(d) is invertible.  Otherwise
    an intermediate x = g + w is searched with w orthogonal to the matched
    part, q(w) and q(f' - x) both units and q(x) = q(f'); two ordinary
    steps then chain f' to x to g.  The search is bounded and failure is
    reported, not skipped.
    """
    if len(f_basis) != len(g_basis):
        raise DomainError("basis lists differ in length")
    fs = [module.reduce(f) for f in f_basis]
    gs = [module.reduce(g) for g in g_basis]
    for i in range(len(fs)):
        if module.quadratic(fs[i]) != module.quadratic(gs[i]):
            raise DomainError(f"pair {i}: norms differ, the data is not isometric")
        for j in range(i):
            if module.bilinear(fs[i], fs[j]) != module.bilinear(gs[i], gs[j]):
                raise DomainError(
                    f"pairs {i},{j}: inner products differ, the data is not isometric"
                )

    prod = ReflectionProduct(module)
    current = list(fs)
    for i, g in enumerate(gs):
        f = current[i]
        if f == g:
            continue
        d = module.sub(f, g)
        if module.is_unit(module.quadratic(d)):
            prod = prod.then(d)
        elif i == 0 and module.is_unit(module.quadratic(module.add(f, g))):
            # f -> -g -> g; only safe with nothing matched yet
            prod = prod.then(module.add(f, g)).then(g)
        else:
            w = _witt_connector(module, gs[:i], f, g, d)
            prod = prod.then(module.sub(d, w)).then(w)
        current = [prod.apply(x) for x in fs]
        if current[i] != g:
            raise AssertionError("Witt step failed to match its pair")
    return prod


def _witt_connector(module: ResidueModule, matched, f, g, d):
    """w with x = g + w an intermediate isometric image: w orthogonal to the
    matched part, q(w) a unit, b(g, w) = -q(w), and q(d - w) a unit.

    Candidates w = sum c_t b_t over the orthogonal basis are scanned by
    support, then coefficients with the last one varying fastest, and scored
    on Gram data computed once: b(g, w) and b(d, w) are sums of c_t b(., b_t),
    and q(d - w) = q(d) - b(d, w) + q(w), all mod m.  Per choice of the
    leading coefficients, their vector w' is scored once, with its pairing
    b(w', b) against the last basis vector b; each last coefficient c then
    adds c b(., b) to the sums and makes q(w) = q(w') + c b(w', b) + c^2 q(b).
    Only the accepted candidate is built as a vector.
    """
    m = module.m
    basis = _orthogonal_basis(module, matched)
    qb = [module.quadratic(b) for b in basis]
    gb = [module.bilinear(g, b) for b in basis]
    db = [module.bilinear(d, b) for b in basis]
    bb = [[module.bilinear(x, y) for y in basis] for x in basis]
    qd = module.quadratic(d)
    trials = 0
    for support in range(1, len(basis) + 1):
        for idxs in combinations(range(len(basis)), support):
            *head, last = idxs
            ql, gl, dl, bl = qb[last], gb[last], db[last], bb[last]
            for lead in product(range(1, m), repeat=support - 1):
                qw = bg = bd = bw = 0
                for k, (c, s) in enumerate(zip(lead, head)):
                    qw += c * (c * qb[s] + sum(e * bb[r][s] for e, r in zip(lead[:k], head)))
                    bg += c * gb[s]
                    bd += c * db[s]
                    bw += c * bl[s]
                for c in range(1, m):
                    trials += 1
                    if trials > _WITT_TRIALS:
                        raise BudgetError(
                            "no Witt connector found within the search budget"
                        )
                    qc = qw + c * (bw + c * ql)
                    if (bg + c * gl + qc) % m or math.gcd(qc, m) != 1:
                        continue
                    if math.gcd(qd - bd - c * dl + qc, m) == 1:
                        return module.reduce(_combo([basis[t] for t in idxs], lead + (c,)))
    raise BudgetError("no Witt connector found in the orthogonal complement")


def _orthogonal_basis(module: ResidueModule, matched):
    """Generators of {x mod m : b(x, g) = 0 for all matched g}."""
    if not matched:
        return [module.simple_residue(i) for i in range(module.rank)]
    m = module.m
    rows = [[sum(a * b for a, b in zip(row, g)) for row in module.gram] for g in matched]
    block = [row + [m if i == j else 0 for j in range(len(matched))]
             for i, row in enumerate(rows)]
    kern = integer_kernel(block)
    out = []
    seen = set()
    for vec in kern:
        x = module.reduce(vec[: module.rank])
        if any(x) and x not in seen:
            seen.add(x)
            out.append(x)
    return out


def adjust_to_spin(prod: ReflectionProduct, m0: ResidueSubmodule) -> ReflectionProduct:
    """Append one or two reflections in vectors of the submodule so that the
    product has even length and trivial spinor norm.  Appended vectors stay
    inside the submodule, so a target residue already there remains there."""
    module = prod.module
    if m0.module != module:
        raise DomainError("submodule modulus differs from the product's")
    p, k = module.prime_power()
    sn = spinor_norm(prod)
    if len(prod) % 2 == 0 and sn == 1:
        return prod
    if len(prod) % 2 == 1:
        h = represent_unit(m0, sn % module.m)
        return prod.then(h)
    h1 = represent_unit(m0, sn % module.m)
    h2 = represent_unit(m0, 1)
    return prod.then(h1).then(h2)


# -- root search -------------------------------------------------------------


class RootSearchResult(NamedTuple):
    status: str  # "found" | "inconclusive"
    root: LatticeVector | None
    certificate: dict


def find_root_in_submodule(
    sub: ResidueSubmodule,
    method: str = "theory",
    *,
    max_depth: int | None = None,
) -> RootSearchResult:
    """A norm -2 vector of the canonical complement whose residue mod m lies
    in the given submodule.

    Both methods run one breadth-first search over Weyl words on integer
    roots and accept the first root whose residue lies in the submodule.
    "theory" first builds a target residue: per prime power, represent
    q = -1 inside a free rank-8 piece, Witt-extend the first simple root's
    residue onto it, adjust the product into the spin part, and combine the
    per-prime targets by CRT.  The target is reported in the certificate but
    does not steer the search, which starts from the first simple root; when
    building it runs out of budget, the search still runs and the target is
    reported as None.
    "orbit-bfs" starts the search from every simple root.

    The search walks a per-process memo of the Weyl orbit of its start
    roots (_orbit_level): the roots level by level, each with its parent,
    letter and delta, built only as deep as some search has gone.  The orbit
    depends on n and the start roots alone, and the memo is only read, so it
    cannot change an outcome: a search answers the same whether it finds the
    memo empty or deeper than it needs.  Each call keeps only its syndromes.
    The search is bounded; exhaustion reports status "inconclusive", never
    nonexistence.  The searches need the unimodular case n = 10.
    """
    if sub.module.rank != 10:
        raise DomainError(f"root searches need n = 10, not n = {sub.module.rank}")
    if sub.free_rank < 8:
        raise DomainError(
            f"free rank {sub.free_rank} < 8: the submodule is too small"
        )
    depth = _WORD_DEPTH if max_depth is None else max_depth
    if method == "theory":
        reason = f"no word of length <= {depth} carries the base root into the submodule"
        try:
            target = list(_theory_target(sub))
        except BudgetError:
            target = None  # the target does not steer the search
        return _search(sub, [1], depth, "Theory", reason, target)
    if method == "orbit-bfs":
        reason = f"no orbit root within depth {depth} has its residue in the submodule"
        return _search(sub, range(10), depth, "OrbitBFS", reason)
    raise ValueError(f"unknown method {method!r}: use theory or orbit-bfs")


def _theory_target(sub: ResidueSubmodule):
    m = sub.module.m
    pieces = []
    for p, k in factor(m).items():
        pk = p**k
        if pk == m:  # the piece is sub itself, whose Smith form is already known
            local, piece = sub.module, sub
        else:
            local = ResidueModule(pk)
            piece = local.submodule(sub.generators)
        m0 = local.submodule(piece.free_basis()[:8])
        v = represent_unit(m0, (pk - 1) % pk)
        start = local.simple_residue(1)
        prod = adjust_to_spin(witt_extend([start], [v], local), m0)
        pieces.append((pk, prod.apply(start)))
    target = _crt_combine(pieces, m)
    if not sub.contains(target):
        raise AssertionError("CRT target escaped the submodule")
    return target


def _crt_combine(pieces, m: int):
    out = []
    for i in range(len(pieces[0][1])):
        acc = 0
        for pk, vec in pieces:
            other = m // pk
            acc += vec[i] * other * pow(other, -1, pk)
        out.append(acc % m)
    return tuple(out)


def _search(sub, bases, depth, method, reason, target=None) -> RootSearchResult:
    """Run the word search from the simple roots numbered in bases and package its
    outcome.  A found certificate replays: the word applied to simple root
    number base gives the root.  A Theory certificate reports the target,
    None when it ran out of budget, as "target" beside a found root, as
    "residue" beside an inconclusive one."""
    module = sub.module
    starts = tuple(tuple(int(i == j) for j in range(module.rank)) for i in bases)
    found = _word_search(starts, sub, depth, _VISITED_CAP)
    if not isinstance(found, tuple):
        certificate = {"method": method, "modulus": module.m}
        if method == "Theory":
            certificate["residue"] = target
        certificate["reason"] = found or reason
        return RootSearchResult("inconclusive", None, certificate)
    start, word, root_alpha = found
    if _q_int(root_alpha) != -1:
        raise AssertionError("search produced a non-root")
    coords = [0] * (module.rank + 1)
    for c, alpha in zip(root_alpha, simple_roots(module.rank)):
        for i, a in enumerate(alpha.coords):
            coords[i] += c * a
    root = LatticeVector(tuple(coords))
    certificate = {
        "method": method,
        "base": bases[start],
        "word": word,
        "root": root.to_json(),
        "residue": list(module.reduce(root_alpha)),
        "modulus": module.m,
    }
    if method == "Theory":
        certificate["target"] = target
    return RootSearchResult("found", root, certificate)


@lru_cache(maxsize=None)
def _orbit_level(starts: tuple, level: int):
    """Level `level` of the breadth-first walk of the Weyl orbit of starts,
    the roots first reached by words of that length: (roots, steps, end).

    The roots of all levels are numbered in discovery order, and end is the
    number of roots through this level.  steps[k] = (parent, letter, delta)
    says that roots[k] is s_letter of root number parent, which adds delta
    = (G.x)_letter to coordinate letter alone.  Roots are discovered parent
    by parent, letters 0..n-1 under each.  Since reflections are involutions,
    a new root can repeat only roots of this level or of the two before it,
    so a level is built from those two alone.  Levels are built on demand,
    each after the two before it, so the memo is only as deep as the deepest
    search so far.  It depends on n and starts alone, never on a submodule.
    """
    if level == 0:
        return starts, (), len(starts)
    parents, _, end = _orbit_level(starts, level - 1)
    seen = set(parents)
    if level > 1:
        seen.update(_orbit_level(starts, level - 2)[0])
    gram, neighbours = _form(len(starts[0]))
    letters = [(i, [(j, gram[i][j]) for j in neighbours[i]]) for i in range(len(gram))]
    roots, steps = [], []
    for idx, x in enumerate(parents, end - len(parents)):
        for letter, terms in letters:
            delta = 0
            for j, g in terms:
                delta += g * x[j]
            if not delta:  # s_i fixes x, which is already seen
                continue
            child = list(x)
            child[letter] += delta
            child = tuple(child)
            if child not in seen:
                seen.add(child)
                roots.append(child)
                steps.append((idx, letter, delta))
    return tuple(roots), tuple(steps), end + len(roots)


def _word_search(starts, sub: ResidueSubmodule, depth: int, cap: int):
    """Breadth-first search over Weyl words for an integer root whose
    residue lies in sub, starting from the given roots.

    The search walks the memoised levels of _orbit_level and commits each
    level whole: a level that would take the search past cap roots ends it
    before any of its roots is tested.  So the first accepted root has a
    shortest word, and the outcome depends on the arguments alone.  The
    W(E_10)-orbit of a root is infinite, so every level adds roots.

    Membership is carried, not recomputed: a start's syndrome is computed
    outright, and every other root's is its parent's plus delta times
    column letter of the kept Smith rows; a root is accepted when its
    syndrome is zero.

    Returns (start index, word, root) for the first accepted root in
    discovery order, a reason string when the cap ends the search, or None
    when no root reached by a word of length <= depth is accepted.
    """
    starts = tuple(starts)
    checks = sub._compute()[0]
    columns = [[(row[i], f) for row, f in checks] for i in range(len(starts[0]))]
    zero = (0,) * len(checks)
    syndromes = [sub.syndrome(x) for x in starts]
    if depth >= 0 and zero in syndromes:
        idx = syndromes.index(zero)
        return idx, [], starts[idx]
    for level in range(1, depth + 1):
        roots, steps, end = _orbit_level(starts, level)
        if end > cap:
            return f"orbit capped at {end - len(roots)} roots before level {level}"
        for k, (parent, letter, delta) in enumerate(steps):
            s = tuple([(a + delta * c) % f for a, (c, f) in zip(syndromes[parent], columns[letter])])
            if s == zero:
                return _trace_back(starts, level, k)
            syndromes.append(s)
    return None


def _trace_back(starts, level: int, k: int):
    """(start index, word, root) for root k of the given level."""
    root, word = _orbit_level(starts, level)[0][k], []
    for lv in range(level, 0, -1):
        parent, letter, _ = _orbit_level(starts, lv)[1][k]
        word.append(letter)
        prior, _, end = _orbit_level(starts, lv - 1)
        k = parent - (end - len(prior))
    return k, word[::-1], root
