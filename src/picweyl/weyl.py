"""Reflections, Weyl words, translations, and the isometry trichotomy.

Conventions used by every function here:

* reflections act as s_a(v) = v + (v.a) a for a root a (a^2 = -2);
* a word is a sequence of simple-root indices, applied left to right, so
  apply_word(v, [2, 0]) first reflects in alpha_2, then in alpha_0;
* word_to_isometry returns the matrix that reproduces apply_word when
  matrices act on column vectors.

Both run on one integer letter kernel, `_apply_letters`; `reflect` and
`simple_reflection` stay the independent, root-by-root definitions.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import DomainError
from .lattice import (
    LatticeIsometry,
    LatticeVector,
    basis_vector,
    canonical_vector,
    inner,
    mat_identity,
    mat_mul,
    simple_roots,
)
from .smith import factor, integer_kernel


def reflect(alpha: LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection of v in the hyperplane orthogonal to the root alpha."""
    if inner(alpha, alpha) != -2:
        raise ValueError("reflection vector must have self-intersection -2")
    return v + inner(v, alpha) * alpha


def reflection_isometry(alpha: LatticeVector) -> LatticeIsometry:
    dim = len(alpha.coords)
    cols = [reflect(alpha, basis_vector(j, dim - 1)).coords for j in range(dim)]
    return LatticeIsometry(tuple(zip(*cols)))


@lru_cache(maxsize=None)
def simple_reflection(i: int, n: int) -> LatticeIsometry:
    roots = simple_roots(n)
    if not 0 <= i < n:
        raise ValueError(f"letter {i} outside 0..{n - 1}")
    return reflection_isometry(roots[i])


def _apply_letters(rows: list[list[int]], word: Sequence[int], n: int) -> list[list[int]]:
    """The letter kernel: apply the word's simple reflections, first letter
    first, to the n + 1 rows of an integer matrix whose columns are vectors.
    s_i (i >= 1) swaps rows i and i + 1; s_0 adds t = r_0 + r_1 + r_2 + r_3
    to row 0 and takes t from rows 1 to 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    for letter in word:
        if 0 < letter < n:
            rows[letter], rows[letter + 1] = rows[letter + 1], rows[letter]
        elif letter == 0:
            t = [sum(col) for col in zip(*rows[:4])]
            rows[0] = [a + b for a, b in zip(rows[0], t)]
            rows[1:4] = [[a - b for a, b in zip(r, t)] for r in rows[1:4]]
        else:
            raise ValueError(f"letter {letter} outside 0..{n - 1}")
    return rows


def apply_word(v: LatticeVector, word: Sequence[int]) -> LatticeVector:
    """Apply the simple reflections named by word, first letter first."""
    rows = _apply_letters([[c] for c in v.coords], word, v.n)
    return LatticeVector(tuple(r[0] for r in rows))


def word_to_isometry(word: Sequence[int], n: int) -> LatticeIsometry:
    """Matrix of the word's composite, compatible with apply_word:
    word_to_isometry(w, n).apply(v) == apply_word(v, w).  Each letter acts
    on the rows, so on every column at once."""
    rows = _apply_letters([list(r) for r in mat_identity(n + 1)], word, n)
    return LatticeIsometry(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# the extra isometries on nine points: shifts along the canonical direction


def iota(w: LatticeVector, v: LatticeVector) -> LatticeVector:
    """Unipotent isometry of Z^{1,9} attached to w in the canonical
    complement.  It fixes the canonical vector, acts on its complement by
    x |-> x + (w.x) k, and iota(w) o iota(w') = iota(w + w').
    """
    k = canonical_vector(9)
    if len(w.coords) != 10 or len(v.coords) != 10:
        raise ValueError("iota lives on Z^{1,9}")
    if inner(w, k) != 0:
        raise ValueError("shift vector must be orthogonal to the canonical vector")
    vk = inner(v, k)
    wv = inner(w, v)
    half_ww = inner(w, w) // 2  # even lattice, exact
    return v - vk * w + (wv - vk * half_ww) * k


def iota_isometry(w: LatticeVector) -> LatticeIsometry:
    cols = [iota(w, basis_vector(j, 9)).coords for j in range(10)]
    return LatticeIsometry(tuple(zip(*cols)))


def translation_isometry(a: LatticeVector, m: int) -> LatticeIsometry:
    """Translation-type isometry of Z^{1,9} attached to a section class.

    D |-> D - m (D.k) a + [ m (D.a) - (m^2/2) (D.k) (a.a) ] k

    where k is the canonical vector and a is orthogonal to it.  On the
    complement of k this restricts to D |-> D + m (D.a) k.  It is iota(m a):
    iota's formula at w = m a is the line above.
    """
    if len(a.coords) != 10:
        raise ValueError("translations live on Z^{1,9}")
    if inner(a, canonical_vector(9)) != 0:
        raise ValueError("section class must be orthogonal to the canonical vector")
    return iota_isometry(m * a)


# ---------------------------------------------------------------------------
# trichotomy


class IsometryClass(NamedTuple):
    """Result of classify_isometry.

    kind is "Elliptic", "Parabolic" or "Hyperbolic".  Elliptic carries the
    order and an invariant class (an orbit sum); Parabolic carries a
    primitive isotropic invariant class; Hyperbolic carries the spectral
    radius as a float witness.
    """

    kind: str
    witness: LatticeVector | None = None
    order: int | None = None
    spectral_radius: float | None = None


def classify_isometry(g: LatticeIsometry) -> IsometryClass:
    """Exact elliptic/parabolic/hyperbolic trichotomy.

    The characteristic polynomial is stripped of cyclotomic factors; by
    Kronecker's theorem a monic integer polynomial has all roots on the unit
    circle iff it is a product of cyclotomics, so a nontrivial remainder
    certifies spectral radius > 1 (Hyperbolic).  Otherwise let N be the lcm
    of the cyclotomic indices: a finite-order g is diagonalizable with those
    roots of unity as eigenvalues, so its order is exactly N, and the single
    test g^N == 1 separates Elliptic (of order N) from Parabolic.
    """
    powers = _half_powers(g.rows)
    coeffs = _charpoly_coeffs(g.rows, powers)
    cyclo_indices, remainder = _strip_cyclotomic(coeffs)

    if len(remainder) > 1:  # non-cyclotomic content: off-circle eigenvalue
        rho = _max_root_modulus(coeffs)
        if rho <= 1.0 + 1e-9:  # Kronecker has already certified rho > 1
            raise AssertionError(f"float spectral radius {rho!r} of a hyperbolic isometry")
        return IsometryClass(kind="Hyperbolic", spectral_radius=rho)

    order = math.lcm(*cyclo_indices)
    if _mat_power(powers, order) == mat_identity(g.dim):
        return IsometryClass(
            kind="Elliptic", witness=_elliptic_witness(g, order), order=order
        )

    return IsometryClass(kind="Parabolic", witness=_parabolic_witness(g))


def invariant_sublattice_basis(g: LatticeIsometry) -> list[LatticeVector]:
    """Saturated basis of the fixed sublattice {v : g(v) = v}."""
    dim = g.dim
    a = [[g.rows[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    return [LatticeVector(b) for b in integer_kernel(a)]


def _parabolic_witness(g: LatticeIsometry) -> LatticeVector:
    """Primitive isotropic generator of the radical of the form restricted
    to the fixed sublattice, normalized to positive degree."""
    fixed = invariant_sublattice_basis(g)
    if not fixed:
        raise ValueError("parabolic isometry with trivial fixed lattice")
    gram = [[inner(u, v) for v in fixed] for u in fixed]
    radical = integer_kernel(gram)
    if len(radical) != 1:
        raise ValueError(
            f"expected a one-dimensional radical on the fixed lattice, got {len(radical)}"
        )
    coeffs = radical[0]
    z = LatticeVector(
        tuple(
            sum(c * b.coords[i] for c, b in zip(coeffs, fixed))
            for i in range(g.dim)
        )
    )
    g0 = math.gcd(*z.coords)
    if g0 > 1:
        z = LatticeVector(tuple(c // g0 for c in z.coords))
    if z.degree < 0:
        z = -z
    if inner(z, z) != 0 or not g.fixes(z):
        raise AssertionError("parabolic witness failed its own checks")
    return z


def _elliptic_witness(g: LatticeIsometry, order: int) -> LatticeVector:
    """Invariant class: the orbit sum of the first basis vector whose orbit
    sum is nonzero (zero vector if none is, e.g. for -identity)."""
    n = g.n
    for j in range(n + 1):
        acc = basis_vector(j, n)
        cur = acc
        for _ in range(order - 1):
            cur = g.apply(cur)
            acc = acc + cur
        if any(c != 0 for c in acc.coords):
            return acc
    return LatticeVector((0,) * (n + 1))


def _half_powers(rows) -> list:
    """g, g^2, ..., g^ceil(dim/2), the powers the power traces read."""
    powers, cols = [rows], list(zip(*rows))
    while 2 * len(powers) < len(rows):
        powers.append([[sum(map(operator.mul, r, c)) for c in cols] for r in powers[-1]])
    return powers


def _charpoly_coeffs(rows, powers=None) -> list[int]:
    """Monic characteristic polynomial, integer coefficients, descending.

    Newton's identities on the power traces p_k = tr(g^k):
    k c_k = -(c_{k-1} p_1 + ... + c_0 p_k), every division exact.  p_k is
    the sum over i of row i of g^a times column i of g^b for any a + b = k,
    so only the powers up to g^ceil(dim/2) are formed, unless given.
    """
    dim = len(rows)
    powers = powers or _half_powers(rows)
    cols = [list(zip(*p)) for p in powers]
    traces = [sum(row[i] for i, row in enumerate(rows))]
    for k in range(2, dim + 1):
        pa, cb = powers[(k + 1) // 2 - 1], cols[k // 2 - 1]
        traces.append(sum(sum(map(operator.mul, r, c)) for r, c in zip(pa, cb)))
    coeffs = [1]
    for k in range(1, dim + 1):
        ck, rem = divmod(-sum(map(operator.mul, coeffs, reversed(traces[:k]))), k)
        if rem:
            raise AssertionError("characteristic polynomial must be integral")
        coeffs.append(ck)
    return coeffs


def _divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den, both descending
    integer coefficients; monic division never leaves the integers."""
    out = list(num)
    top = len(num) - len(den) + 1
    for i in range(top):
        c = out[i]
        if c:
            for j in range(1, len(den)):
                out[i + j] -= c * den[j]
    return out[:top], out[top:]


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial (descending coeffs): x^d - 1 divided
    by the cyclotomic polynomials of the proper divisors of d."""
    num = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            num = _divmod_monic(num, _cyclotomic_coeffs(e))[0]
    return tuple(num)


@lru_cache(maxsize=None)
def _cyclotomic_indices(deg: int) -> tuple[int, ...]:
    """The d with totient(d) <= deg, ascending: the cyclotomic polynomials
    that can divide a polynomial of degree deg."""
    # totient(d) >= sqrt(d/2), so they live below 2(deg+1)^2
    return tuple(
        d
        for d in range(1, 2 * (deg + 1) * (deg + 1) + 1)
        if math.prod(p ** (k - 1) * (p - 1) for p, k in factor(d).items()) <= deg
    )


def _strip_cyclotomic(coeffs: list[int]) -> tuple[list[int], list[int]]:
    """Divide out every cyclotomic factor; return (indices found, remainder),
    the remainder as descending coefficients like the input."""
    rem = list(coeffs)
    found = []
    for d in _cyclotomic_indices(len(coeffs) - 1):
        if len(rem) <= 1:
            break
        cd = _cyclotomic_coeffs(d)
        while len(rem) >= len(cd):
            q, r = _divmod_monic(rem, cd)
            if any(r):
                break
            rem = q
            found.append(d)
    return found, rem


def _max_root_modulus(coeffs: list[int]) -> float:
    import numpy as np

    roots = np.roots([float(c) for c in coeffs])
    return float(max(abs(r) for r in roots))


def _mat_power(powers, e: int) -> tuple[tuple[int, ...], ...]:
    """g^e for e >= 1, given g, g^2, ..., g^k: (g^k)^(e // k) by repeated
    squaring of g^k, times g^(e % k)."""
    q, r = divmod(e, len(powers))
    result, base = (powers[r - 1] if r else None), powers[-1]
    while q:
        if q & 1:
            result = base if result is None else mat_mul(result, base)
        q >>= 1
        if q:
            base = mat_mul(base, base)
    return tuple(map(tuple, result))


# ---------------------------------------------------------------------------
# degree reduction


def noether_reduce(
    r: LatticeVector, trace: list[str] | None = None
) -> tuple[LatticeVector, tuple[int, ...]]:
    """Reduce a root of nonnegative degree by sorting and degree-drop steps.

    Repeatedly: sort the multiplicities into descending order (stable, so
    ties keep their lower index; each adjacent swap is the letter of the
    corresponding simple reflection), then, while the degree is positive and
    smaller than the sum of the top three multiplicities, reflect in
    alpha_0.  For n <= 10 every root lands on +-(a simple root): degree-0
    terminals are rotated to the first two indices by recorded swaps, and
    the degree-drop chain bottoms out at -alpha_0 exactly.  From n = 11 on
    some roots lie outside the Weyl orbit of the simple roots, such as
    (3; 1^10, -1); their terminal is no simple root and DomainError is
    raised.

    Returns (terminal, word) where word replays the reduction backwards:
    apply_word(terminal, word) == r.  If trace is a list, one line per
    applied letter is appended to it.
    """
    n = r.n
    k = canonical_vector(n)
    if inner(r, r) != -2 or inner(r, k) != 0:
        raise ValueError("input is not a root orthogonal to the canonical vector")
    if r.degree < 0:
        raise ValueError("root must have nonnegative degree")

    a0 = r.degree
    mult = list(r.multiplicities)  # mult[i] = a_{i+1}
    letters: list[int] = []

    def emit(letter: int) -> None:
        letters.append(letter)
        if trace is not None:
            vec = [a0] + [-m for m in mult]
            trace.append(f"step {len(letters)}: apply s_{letter}, vector = {vec}")

    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("reduction failed to terminate")
        top3 = sum(sorted(mult, reverse=True)[:3])
        if not (a0 > 0 and a0 < top3):
            break
        # materialize the stable descending sort as adjacent swaps
        swapped = True
        while swapped:
            swapped = False
            for l in range(1, n):
                if mult[l - 1] < mult[l]:
                    mult[l - 1], mult[l] = mult[l], mult[l - 1]
                    emit(l)
                    swapped = True
        b0 = 2 * a0 - mult[0] - mult[1] - mult[2]
        m1 = a0 - mult[1] - mult[2]
        m2 = a0 - mult[0] - mult[2]
        m3 = a0 - mult[0] - mult[1]
        a0, mult[0], mult[1], mult[2] = b0, m1, m2, m3
        emit(0)

    if a0 == 0:
        nz = [i for i, x in enumerate(mult) if x != 0]
        if len(nz) == 2 and sorted(mult[i] for i in nz) == [-1, 1] and nz[1] != nz[0] + 1:
            j1, j2 = nz
            for l in range(j1, 0, -1):  # bubble first nonzero to index 0
                mult[l - 1], mult[l] = mult[l], mult[l - 1]
                emit(l)
            for l in range(j2, 1, -1):  # bubble second nonzero to index 1
                mult[l - 1], mult[l] = mult[l], mult[l - 1]
                emit(l)

    terminal = LatticeVector((a0, *(-m for m in mult)))
    simple = simple_roots(n)
    if terminal not in simple and -terminal not in simple:
        raise DomainError(f"{list(r.coords)} is not in the Weyl orbit of the simple roots")
    return terminal, tuple(reversed(letters))
