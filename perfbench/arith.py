"""Plain-integer arithmetic the benchmark builds its inputs and oracles on.

Nothing here imports picweyl: the curves, points, lattice vectors and
ranks below are computed independently of the library under test, so an
agreement between the two is evidence rather than a tautology.  sympy is
imported only when an oracle first needs it, after the timed loop, so the
benchmark's own imports never land in a measured set-up.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

# ---------------------------------------------------------------------------
# small number theory


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _sqrt_table(p: int) -> dict[int, int]:
    return {(v * v) % p: v for v in range(p)}


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the small prime p, or None."""
    return _sqrt_table(p).get(a % p)


def mult_order(x: int, p: int) -> int:
    """Order of the unit x in F_p^*."""
    n = p - 1
    for q in prime_factors(p - 1):
        while n % q == 0 and pow(x, n // q, p) == 1:
            n //= q
    return n


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), by sympy's DomainMatrix: the oracles' reference."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    if not rows or not rows[0]:
        return 0
    k = GF(p)
    return DomainMatrix([[k(x) for x in r] for r in rows], (len(rows), len(rows[0])), k).rank()


def independent_mod(rows: list[list[int]], q: int) -> bool:
    """Are the rows linearly independent mod the prime q?  Plain
    elimination, for input generation, which must not import sympy."""
    rows = [[c % q for c in r] for r in rows]
    for i in range(len(rows)):
        col = next((c for c in range(len(rows[i])) if rows[i][c]), None)
        if col is None:
            return False
        inv = pow(rows[i][col], -1, q)
        for r in rows[i + 1:]:
            f = r[col] * inv % q
            if f:
                r[:] = [(a - f * b) % q for a, b in zip(r, rows[i])]
    return True


# ---------------------------------------------------------------------------
# short Weierstrass curves y^2 = x^3 + a x + b over F_p, affine points,
# None for the point at infinity (an inflection point, the group origin)


class Weierstrass:
    def __init__(self, a: int, b: int, p: int):
        self.a, self.b, self.p = a % p, b % p, p

    def rhs(self, x: int) -> int:
        return (x * x * x + self.a * x + self.b) % self.p

    def is_smooth(self) -> bool:
        return (4 * self.a**3 + 27 * self.b**2) % self.p != 0

    def add(self, P, Q):
        p = self.p
        if P is None:
            return Q
        if Q is None:
            return P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    def neg(self, P):
        return None if P is None else (P[0], (-P[1]) % self.p)

    def mul(self, n: int, P):
        if n < 0:
            n, P = -n, self.neg(P)
        acc = None
        while n:
            if n & 1:
                acc = self.add(acc, P)
            P = self.add(P, P)
            n >>= 1
        return acc

    def total(self, points):
        acc = None
        for P in points:
            acc = self.add(acc, P)
        return acc

    def count(self) -> int:
        """Number of rational points, the origin included."""
        sq = _sqrt_table(self.p)
        n = 1
        for x in range(self.p):
            v = self.rhs(x)
            n += 1 if v == 0 else (2 if v in sq else 0)
        return n

    def order(self, P, group_order: int) -> int:
        n = group_order
        for q in prime_factors(group_order):
            while n % q == 0 and self.mul(n // q, P) is None:
                n //= q
        return n

    def random_point(self, rng):
        while True:
            x = rng.randrange(self.p)
            y = sqrt_mod(self.rhs(x), self.p)
            if y is not None:
                return (x, y if rng.random() < 0.5 else (-y) % self.p)

    def poly(self) -> dict[tuple[int, int, int], int]:
        """y^2 z - x^3 - a x z^2 - b z^3 as an exponent map."""
        p = self.p
        return {(0, 2, 1): 1, (3, 0, 0): p - 1, (1, 0, 2): (-self.a) % p, (0, 0, 3): (-self.b) % p}


# ---------------------------------------------------------------------------
# projective frame changes over F_p


def mat_inv_mod(m, p):
    (a, b, c), (d, e, f), (g, h, i) = m
    det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    if det == 0:
        return None
    inv = pow(det, -1, p)
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x * inv % p for x in row) for row in adj)


def mat_apply_mod(m, v, p):
    return tuple(sum(m[r][k] * v[k] for k in range(3)) % p for r in range(3))


def random_frame(rng, p):
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
        inv = mat_inv_mod(m, p)
        if inv is not None:
            return m, inv


def compose_poly(poly: dict, m, p: int) -> dict:
    """The form f(m X): substitute x_r -> sum_k m[r][k] X_k."""
    forms = [{(1, 0, 0): m[r][0], (0, 1, 0): m[r][1], (0, 0, 1): m[r][2]} for r in range(3)]
    out: dict = {}
    for key, coeff in poly.items():
        term = {(0, 0, 0): coeff % p}
        for r, power in enumerate(key):
            for _ in range(power):
                term = _poly_mul(term, forms[r], p)
        for k, v in term.items():
            out[k] = (out.get(k, 0) + v) % p
    return {k: v for k, v in out.items() if v}


def _poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for ka, va in f.items():
        for kb, vb in g.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = (out.get(k, 0) + va * vb) % p
    return out


def coeff_map(poly: dict) -> dict[str, int]:
    """picweyl's Poly3.from_coeff_map key format: "abc" exponent strings."""
    return {f"{a}{b}{c}": v for (a, b, c), v in poly.items()}


# ---------------------------------------------------------------------------
# interpolation dimension by affine Hasse-derivative conditions


def linear_system_dimension(points, degree: int, mults, p: int) -> int:
    """Projective dimension of degree-d plane curves through the affine
    points (x, y) with multiplicity >= m_i; -1 when empty.  Negative
    multiplicities impose nothing.  The condition for multiplicity m at
    (a, b) is that every Hasse derivative D^(s,t) with s + t < m vanishes:
    sum_{i,j} c_ij C(i,s) C(j,t) a^(i-s) b^(j-t) = 0."""
    if degree < 0:
        return -1
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    rows = []
    for (a, b), m in zip(points, mults):
        for s in range(max(m, 0)):
            for t in range(m - s):
                rows.append(
                    [
                        math.comb(i, s) * math.comb(j, t) * pow(a, i - s, p) * pow(b, j - t, p) % p
                        if i >= s and j >= t
                        else 0
                        for i, j in monos
                    ]
                )
    return len(monos) - rank_mod_p(rows, p) - 1


# ---------------------------------------------------------------------------
# the lattice Z^{1,n}: classes as coordinate tuples (d, -m_1, ..., -m_n)


def inner(u, v) -> int:
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def canonical(n: int) -> tuple[int, ...]:
    return (-3,) + (1,) * n


def simple_root(i: int, n: int) -> tuple[int, ...]:
    v = [0] * (n + 1)
    if i == 0:
        v[0], v[1], v[2], v[3] = 1, -1, -1, -1
    else:
        v[i], v[i + 1] = 1, -1
    return tuple(v)


def is_root(v, n: int) -> bool:
    return inner(v, v) == -2 and inner(v, canonical(n)) == 0


def reflect(alpha, v):
    c = inner(v, alpha)  # s_a(v) = v + (v.a) a for a root a (a.a = -2)
    return tuple(x + c * a for x, a in zip(v, alpha))


def apply_word(v, word, n: int):
    """Apply simple reflections, first letter first."""
    for letter in word:
        v = reflect(simple_root(letter, n), v)
    return v


def noether_terminal(v) -> tuple[int, ...] | None:
    """Degree-drop a root of nonnegative degree with the Cremona
    reflection (multiplicities sorted, top three summing past the degree);
    return the terminal root, of degree 0 or -1, or None if the reduction
    stalls.  Reaching such a terminal puts v in the Weyl orbit of a simple
    root: a degree-0 root is e_i - e_j and a degree -1 root is -alpha_0,
    each up to a permutation."""
    d, mult = v[0], [-c for c in v[1:]]
    for _ in range(10_000):
        mult.sort(reverse=True)
        if not 0 < d < sum(mult[:3]):
            break
        m1, m2, m3 = mult[:3]
        d, mult[0], mult[1], mult[2] = 2 * d - m1 - m2 - m3, d - m2 - m3, d - m1 - m3, d - m1 - m2
    terminal = (d,) + tuple(-m for m in mult)
    return terminal if d in (0, -1) and is_root(terminal, len(v) - 1) else None


def simple_root_coordinates(v) -> tuple[int, ...] | None:
    """Coefficients of a class of Z^{1,10} orthogonal to k_10 in the basis
    alpha_0..alpha_9, or None when v is not orthogonal to k_10."""
    r = v
    c = [0] * 10
    c[0] = r[0]
    c[1] = r[1] + c[0]
    c[2] = r[2] + c[0] + c[1]
    c[3] = r[3] + c[0] + c[2]
    for j in range(4, 10):
        c[j] = r[j] + c[j - 1]
    return tuple(c) if r[10] == -c[9] else None


def halphen_prohibited(m: int) -> list[tuple[int, ...]]:
    """The index-m prohibited roots on nine points, from their definition:
    -dK + e_i - e_j (0 <= 2d <= m) and -dK +- (e_0 - e_i - e_j - e_l) with
    0 <= 2(3d +- 1) <= 3m and nonnegative degree."""
    mk = tuple(-c for c in canonical(9))
    out = []
    for d in range(m // 2 + 1):
        for i in range(1, 10):
            for j in range(1, 10):
                if i != j:
                    v = [d * c for c in mk]
                    v[i] += 1
                    v[j] -= 1
                    out.append(tuple(v))
    for sign in (1, -1):
        d = 0 if sign == 1 else 1
        while 2 * (3 * d + sign) <= 3 * m:
            for trio in combinations(range(1, 10), 3):
                line = [1] + [0] * 9
                for t in trio:
                    line[t] = -1
                out.append(tuple(d * a + sign * b for a, b in zip(mk, line)))
            d += 1
    return out


# ---------------------------------------------------------------------------
# submodule membership in (Z/m)^10 over the local rings Z/p^k


def in_submodule(x, generators, m: int) -> bool:
    """Is x in the span of the generators mod m?  Decided prime power by
    prime power: Z/p^k is a chain ring, so elimination with a pivot of least
    p-adic valuation in each column gives an echelon form to reduce x by."""
    for q in prime_factors(m):
        pk = q
        while m % (pk * q) == 0:
            pk *= q
        if not _in_local_span([c % pk for c in x], [[c % pk for c in g] for g in generators], q, pk):
            return False
    return True


def _valuation(a: int, q: int) -> int:
    """q-adic valuation of a nonzero residue."""
    v = 0
    while a % q == 0:
        a //= q
        v += 1
    return v


def _in_local_span(x, gens, q: int, pk: int) -> bool:
    rows = [r[:] for r in gens]
    x = x[:]
    width = len(x)
    for col in range(width):
        live = [r for r in rows if r[col] % pk]
        if not live:
            continue
        piv = min(live, key=lambda r: _valuation(r[col], q))
        rows.remove(piv)
        vp = _valuation(piv[col], q)
        unit = piv[col] // q**vp
        inv = pow(unit, -1, pk)
        piv = [c * inv % pk for c in piv]  # pivot entry is now q^vp
        # q^vp * (unit part) generates the same ideal, so every row's entry
        # in this column is a multiple of the pivot entry
        rows = [[(a - (r[col] // q**vp) * b) % pk for a, b in zip(r, piv)] for r in rows]
        if x[col] % q**vp:
            return False
        f = x[col] // q**vp
        x = [(a - f * b) % pk for a, b in zip(x, piv)]
        # the pivot row times q^(k - vp) may still reach later columns
        extra = [c * (pk // q**vp) % pk for c in piv]
        if any(extra):
            rows.append(extra)
    return not any(c % pk for c in x)
