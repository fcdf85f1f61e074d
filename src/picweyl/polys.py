"""Univariate polynomials over the exact fields, on raw coefficients.

A polynomial over a field K is an ascending list of K's raws (ints in
[0, p) for GF(p), coefficient tuples for GF(p^e), Fraction for Q; see
``fields``) with no trailing zeros, so [] is the zero polynomial.  Every
function takes K first and computes with its raw operations ``_add``,
``_sub``, ``_mul`` and ``_inv``; nothing here boxes a coefficient, and this
module imports nothing from ``fields`` (``fields`` imports it).

This is the package's one univariate polynomial layer: euclidean
arithmetic, gcds, modular powers and inverses, Ben-Or's irreducibility test
(which picks and checks the GF(p^e) moduli) and distinct-root extraction in
the coefficient field.  Root finding depends on its inputs alone: a small
field is walked raw by raw (``K._raws()``), a large one is split by an
equal-degree splitting whose random draws are seeded by the field order and
the polynomial.  Over Q (``K.char == 0``) only rational roots are found.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd as igcd, lcm

from .smith import factor

Poly = list  # list of raws, ascending


def trim(K, f: Poly) -> Poly:
    """Drop trailing zeros of f in place and return it."""
    zero = K._zero
    while f and f[-1] == zero:
        f.pop()
    return f


def add(K, f: Poly, g: Poly) -> Poly:
    return trim(K, [K._add(a, b) for a, b in zip_longest(f, g, fillvalue=K._zero)])


def sub(K, f: Poly, g: Poly) -> Poly:
    return trim(K, [K._sub(a, b) for a, b in zip_longest(f, g, fillvalue=K._zero)])


def mul(K, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    zero, plus, times = K._zero, K._add, K._mul
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != zero:
            for j, b in enumerate(g):
                out[i + j] = plus(out[i + j], times(a, b))
    return trim(K, out)


def divmod_poly(K, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by g; g must be trimmed."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    minus, times = K._sub, K._mul
    inv_lead = K._inv(g[-1])
    low = g[:-1]
    q = [K._zero] * max(0, len(f) - len(g) + 1)
    r = trim(K, f[:])
    while len(r) >= len(g):
        shift = len(r) - len(g)
        c = q[shift] = times(r.pop(), inv_lead)
        for i, b in enumerate(low, shift):
            r[i] = minus(r[i], times(c, b))
        trim(K, r)
    return trim(K, q), r


def gcd(K, f: Poly, g: Poly) -> Poly:
    """The monic gcd of f and g ([] when both are zero)."""
    f, g = trim(K, f[:]), trim(K, g[:])
    while g:
        f, g = g, divmod_poly(K, f, g)[1]
    return monic(K, f)


def monic(K, f: Poly) -> Poly:
    if not f:
        return f
    inv, times = K._inv(f[-1]), K._mul
    return [times(c, inv) for c in f]


def pow_mod(K, f: Poly, n: int, m: Poly) -> Poly:
    """f^n modulo m, by square and multiply."""
    result = [K._one]
    base = divmod_poly(K, f, m)[1]
    while n:
        if n & 1:
            result = divmod_poly(K, mul(K, result, base), m)[1]
        base = divmod_poly(K, mul(K, base, base), m)[1]
        n >>= 1
    return result


def inverse_mod(K, a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m by the extended euclidean algorithm;
    ZeroDivisionError when a and m have a common factor."""
    r0, r1 = m[:], divmod_poly(K, a, m)[1]
    t0, t1 = [], [K._one]
    while r1:
        q, r = divmod_poly(K, r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, sub(K, t0, mul(K, q, t1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
    inv, times = K._inv(r0[0]), K._mul
    return [times(c, inv) for c in t0]


def evaluate(K, f: Poly, x):
    plus, times = K._add, K._mul
    acc = K._zero
    for c in reversed(f):
        acc = plus(times(acc, x), c)
    return acc


def is_irreducible(K, f: Poly) -> bool:
    """Ben-Or's test over the finite field K of order q: f of degree e >= 1
    is irreducible iff x^(q^k) - x is prime to f for k = 1, ..., e // 2,
    since a reducible f has an irreducible factor of degree k <= e / 2,
    which divides x^(q^k) - x.  The powers x^(q^k) mod f are built one
    from the last, and the test stops at the first common factor."""
    x = [K._zero, K._one]
    u = x
    for _ in range((len(f) - 1) // 2):
        u = pow_mod(K, u, K.order, f)
        if len(gcd(K, sub(K, u, x), f)) != 1:
            return False
    return len(f) >= 2


# ---------------------------------------------------------------------------
# distinct roots in the coefficient field


_BRUTE_FORCE_ORDER = 4096


def roots_in_field(K, f: Poly) -> list:
    """All distinct roots of f lying in K, as sorted raws.

    Finite fields: complete, by evaluation at every raw of a field of order
    at most 4096, otherwise by the gcd with x^q - x and an equal-degree
    splitting seeded by q and f.  Over Q: complete for rational roots via
    the rational root theorem; irrational roots are simply not returned.
    """
    f = trim(K, f[:])
    if not f:
        raise ValueError("the zero polynomial has every root")
    if len(f) == 1:
        return []
    if K.char == 0:
        return _rational_roots(f)
    if K.order <= _BRUTE_FORCE_ORDER:
        zero = K._zero
        return sorted(x for x in K._raws() if evaluate(K, f, x) == zero)
    return sorted(_finite_field_roots(K, f))


def _finite_field_roots(K, f: Poly) -> list:
    q, zero = K.order, K._zero
    fm = monic(K, f)
    # strip a root at zero
    out = []
    if fm[0] == zero:
        out.append(zero)
        while fm[0] == zero:
            fm = fm[1:]
    if len(fm) < 2:
        return out
    x = [zero, K._one]
    g = gcd(K, sub(K, pow_mod(K, x, q, fm), x), fm)
    if len(g) < 2:
        return out
    rng = random.Random(f"{q}|{[c if isinstance(c, tuple) else (c,) for c in f]}")
    out.extend(_split_linear(K, g, rng))
    return out


def _split_linear(K, g: Poly, rng) -> list:
    """g is a product of distinct monic linear factors; peel them apart.
    K has odd order: every field of characteristic 2 here (GF(2^e) with
    e <= 12) lies within the brute-force bound."""
    if len(g) == 1:
        return []
    if len(g) == 2:
        return [K._mul(K._sub(K._zero, g[0]), K._inv(g[1]))]
    one = K._one
    for _ in range(200):
        b = K.random_element(rng).raw
        powp = pow_mod(K, [b, one], (K.order - 1) // 2, g)  # (x + b)^((q-1)/2)
        h = gcd(K, sub(K, powp, [one]), g)
        if 1 < len(h) < len(g):
            rest = divmod_poly(K, g, h)[0]
            return _split_linear(K, h, rng) + _split_linear(K, rest, rng)
    raise RuntimeError("equal-degree splitting failed to make progress")


def _rational_roots(f: Poly) -> list:
    # clear denominators to coprime integer coefficients
    den = lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    content = igcd(*ints)
    ints = [c // content for c in ints]
    # strip zero roots
    out = []
    if ints[0] == 0:
        out.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return out
    # num/d is a root iff sum c_i num^i d^(deg - i) = 0, an integer test;
    # only coprime pairs, so every candidate comes once
    dens = _divisors(abs(ints[-1]))
    for num in _divisors(abs(ints[0])):
        for d in dens:
            if igcd(num, d) != 1:
                continue
            for s in (num, -num):
                val, dpow = 0, 1
                for c in reversed(ints):
                    val = val * s + c * dpow
                    dpow *= d
                if val == 0:
                    out.append(Fraction(s, d))
    return sorted(out)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, k in factor(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)
