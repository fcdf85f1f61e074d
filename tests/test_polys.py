"""polys checked against sympy's galoistools over GF(2), GF(3), GF(5) and
GF(101), root extraction against brute force and, over Q, against sympy,
and the default GF(p^e) moduli against a galoistools irreducibility scan."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ as SYMPY_QQ, ZZ, Poly, symbols
from sympy.polys.galoistools import (
    gf_div,
    gf_eval,
    gf_factor,
    gf_gcd,
    gf_gcdex,
    gf_irreducible_p,
    gf_pow_mod,
)

from picweyl import ExtensionField, PrimeField, polys
from picweyl.fields import QQ, FieldElement, smallest_irreducible

PRIMES = (2, 3, 5, 101)


def to_gf(f):
    """Ascending raws to galoistools' descending coefficient list."""
    return [ZZ(c) for c in reversed(f)]


def from_gf(f):
    return [int(c) for c in reversed(f)]


def poly(p, min_degree=-1, max_degree=8):
    """Trimmed ascending polynomials over GF(p) of degree in the range."""
    body = st.lists(st.integers(0, p - 1), min_size=max(min_degree, 0), max_size=max_degree)
    if min_degree < 0:
        return body.map(lambda f: polys.trim(PrimeField(p), f))
    return st.builds(lambda f, lead: f + [lead], body, st.integers(1, p - 1))


class TestAgainstGaloistools:
    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_divmod(self, p, data):
        f, g = data.draw(poly(p)), data.draw(poly(p, min_degree=0))
        q, r = polys.divmod_poly(PrimeField(p), f, g)
        sq, sr = gf_div(to_gf(f), to_gf(g), p, ZZ)
        assert (q, r) == (from_gf(sq), from_gf(sr))

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_gcd(self, p, data):
        f, g = data.draw(poly(p)), data.draw(poly(p))
        common = data.draw(poly(p, max_degree=3))
        K = PrimeField(p)
        f, g = polys.mul(K, f, common), polys.mul(K, g, common)
        assert polys.gcd(K, f, g) == from_gf(gf_gcd(to_gf(f), to_gf(g), p, ZZ))

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_inverse_mod(self, p, data):
        m = data.draw(poly(p, min_degree=1, max_degree=6))
        a = data.draw(poly(p, max_degree=len(m) - 1))
        s, _, h = gf_gcdex(to_gf(a), to_gf(m), p, ZZ)
        K = PrimeField(p)
        if h == [1]:
            assert polys.inverse_mod(K, a, m) == from_gf(s)
        else:
            with pytest.raises(ZeroDivisionError):
                polys.inverse_mod(K, a, m)

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_pow_mod(self, p, data):
        f, m = data.draw(poly(p)), data.draw(poly(p, min_degree=1))
        n = data.draw(st.integers(0, 300))
        ours = polys.pow_mod(PrimeField(p), f, n, m)
        assert ours == from_gf(gf_pow_mod(to_gf(f), n, to_gf(m), p, ZZ))

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_is_irreducible(self, p, data):
        f = data.draw(poly(p, min_degree=1, max_degree=7))
        assert polys.is_irreducible(PrimeField(p), f) == gf_irreducible_p(to_gf(f), p, ZZ)


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3)])
def test_is_irreducible_exhaustive(p, top):
    # every polynomial of degree 1 to top, leading coefficient included;
    # constants are units or zero, never irreducible
    K = PrimeField(p)
    for e in range(1, top + 1):
        for tail in itertools.product(range(p), repeat=e):
            for lead in range(1, p):
                f = [*tail, lead]
                assert polys.is_irreducible(K, f) == gf_irreducible_p(to_gf(f), p, ZZ), f
    assert not any(polys.is_irreducible(K, f) for f in ([], [1], [p - 1]))


def digits(p, e):
    """Raws of GF(p^e): e base-p digits, the constant one first."""
    return st.tuples(*[st.integers(0, p - 1)] * e)


def boxed_roots(K, f):
    """The sorted raws at which f vanishes, by boxed Horner evaluation over
    every element of K."""
    boxed = [K.element(c) for c in reversed(f)]
    roots = []
    for x in K.elements():
        value = K.zero()
        for c in boxed:
            value = value * x + c
        if not value:
            roots.append(x.raw)
    return sorted(roots)


class TestRoots:
    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_prime_field_against_brute_force(self, p, data):
        f = data.draw(poly(p, min_degree=0))
        brute = [x for x in range(p) if gf_eval(to_gf(f), x, p, ZZ) == 0]
        assert polys.roots_in_field(PrimeField(p), f) == brute

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_large_prime_field_against_linear_factors(self, data):
        # GF(10007) is past the brute-force bound: roots come from the
        # gcd with x^q - x and equal-degree splitting
        p = 10007
        roots = data.draw(st.lists(st.integers(0, p - 1), max_size=5))
        f = data.draw(poly(p, min_degree=0, max_degree=4))
        K = PrimeField(p)
        for r in roots:
            f = polys.mul(K, f, [-r % p, 1])
        _, factors = gf_factor(to_gf(f), p, ZZ)
        linear = sorted(-int(g[1]) % p for g, _ in factors if len(g) == 2)
        assert polys.roots_in_field(K, f) == linear

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_extension_field_against_brute_force(self, data):
        # GF(2^3) and GF(3^2) take the brute-force path in characteristics 2 and 3
        fields = [ExtensionField(5, 2), ExtensionField(2, 3), ExtensionField(3, 2)]
        K = data.draw(st.sampled_from(fields))
        f = polys.trim(K, data.draw(st.lists(digits(K.p, K.e), max_size=7)) + [K._one])
        assert polys.roots_in_field(K, f) == boxed_roots(K, f)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_equal_degree_splitting_against_brute_force(self, data):
        # GF(3^8), of order 6561, is past the brute-force bound: the roots
        # come from equal-degree splitting, as over GF(5^6) and up
        K = ExtensionField(3, 8)
        f = polys.trim(K, data.draw(st.lists(digits(3, 8), max_size=4)) + [K._one])
        for r in data.draw(st.lists(digits(3, 8), max_size=3)):
            f = polys.mul(K, f, [K._sub(K._zero, r), K._one])
        assert polys.roots_in_field(K, f) == boxed_roots(K, f)

    @pytest.mark.parametrize("K", (PrimeField(101), ExtensionField(5, 4)), ids=repr)
    def test_small_field_roots_box_nothing(self, K, monkeypatch):
        # a field within the brute-force bound is walked on raws
        built = []
        init = FieldElement.__init__

        def counting(self, field, raw):
            built.append(raw)
            init(self, field, raw)

        rng = random.Random(f"unboxed/{K}")
        fs = [[K.random_element(rng).raw for _ in range(4)] + [K._one] for _ in range(5)]
        monkeypatch.setattr(FieldElement, "__init__", counting)
        for f in fs:
            for r in polys.roots_in_field(K, f):
                assert polys.evaluate(K, f, r) == K._zero
        assert built == []


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=4), st.lists(rationals, min_size=1, max_size=5))
def test_rational_roots_against_sympy(roots, cofactor):
    # f = cofactor * prod (x - r): rational roots planted, others by chance
    f = polys.trim(QQ, cofactor)
    assume(f)
    for r in roots:
        f = polys.mul(QQ, f, [-r, Fraction(1)])
    x = symbols("x")
    expected = Poly(list(reversed(f)), x, domain=SYMPY_QQ).ground_roots()
    got = polys.roots_in_field(QQ, f)
    assert got == sorted(Fraction(int(r.p), int(r.q)) for r in expected)
    assert set(roots) <= set(got)


@pytest.mark.parametrize("p,e", list(itertools.product((2, 3, 5, 7), (2, 3, 4))))
def test_smallest_irreducible_is_first_in_base_p_scan(p, e):
    for code in range(p**e):
        tail = [code // p**i % p for i in range(e)]
        if gf_irreducible_p(to_gf(tail + [1]), p, ZZ):
            break
    assert smallest_irreducible(p, e) == tuple(tail + [1])
    assert ExtensionField(p, e).modulus == tuple(tail)
