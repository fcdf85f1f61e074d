"""Reflections, word actions, the unipotent family on Z^{1,9}, and the
elliptic/parabolic/hyperbolic classification."""

import random

import pytest
from hypothesis import given, strategies as st

from picweyl import (
    DomainError,
    IsometryClass,
    LatticeIsometry,
    apply_word,
    basis_vector,
    canonical_vector,
    classify_isometry,
    inner,
    invariant_sublattice_basis,
    iota,
    iota_isometry,
    noether_reduce,
    reflect,
    reflection_isometry,
    simple_reflection,
    simple_roots,
    translation_isometry,
    vector,
    word_to_isometry,
)

ALPHA = simple_roots(9)
K9 = canonical_vector(9)


def test_reflect_formula():
    a = ALPHA[0]
    v = basis_vector(0, 9)
    # s_a(v) = v + (a.v) a for a root a
    assert reflect(a, v) == v + a * inner(a, v)
    assert reflect(a, a) == -a


def test_reflection_is_involution():
    rng = random.Random(7)
    for _ in range(25):
        a = ALPHA[rng.randrange(9)]
        v = vector(*[rng.randint(-6, 6) for _ in range(10)])
        assert reflect(a, reflect(a, v)) == v


@given(st.integers(0, 8), st.lists(st.integers(-9, 9), min_size=10, max_size=10))
def test_reflection_preserves_form(i, coords):
    v = vector(*coords)
    w = reflect(ALPHA[i], v)
    assert inner(w, w) == inner(v, v)
    assert inner(w, K9) == inner(v, K9)  # simple roots sit in k-perp


def test_simple_reflection_matches_reflect():
    for i in range(9):
        g = simple_reflection(i, 9)
        for j in range(10):
            v = basis_vector(j, 9)
            assert g.apply(v) == reflect(ALPHA[i], v)


def test_word_conventions_agree():
    word = [0, 3, 1, 0, 5, 2]
    v = vector(2, -1, -1, -1, -1, -1, 0, 0, 0, 1)
    g = word_to_isometry(word, 9)
    assert g.apply(v) == apply_word(v, word)
    # letter by letter, first letter applied first
    u = v
    for letter in word:
        u = reflect(ALPHA[letter], u)
    assert u == apply_word(v, word)


def test_word_to_isometry_is_a_homomorphism():
    w1, w2 = [0, 2, 4], [1, 1, 3, 0]
    lhs = word_to_isometry(w1 + w2, 9)
    rhs = word_to_isometry(w2, 9) @ word_to_isometry(w1, 9)
    assert lhs.rows == rhs.rows


@given(st.data())
def test_apply_word_matches_reflect_letter_by_letter(data):
    n = data.draw(st.integers(3, 12))
    v = vector(*data.draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1)))
    word = data.draw(st.lists(st.integers(0, n - 1), max_size=30))
    u = v
    for letter in word:
        u = reflect(simple_roots(n)[letter], u)
    assert apply_word(v, word) == u
    bad = data.draw(st.sampled_from([-1, n, n + 5]))
    at = data.draw(st.integers(0, len(word)))
    with pytest.raises(ValueError, match=f"letter {bad} outside"):
        apply_word(v, word[:at] + [bad] + word[at:])


def test_words_need_three_points():
    with pytest.raises(ValueError, match="need n >= 3"):
        apply_word(vector(1, 0, 0), [])
    with pytest.raises(ValueError, match="need n >= 3"):
        word_to_isometry([], 2)


@pytest.mark.parametrize("n", [3, 4, 8, 9, 10, 11, 12])
def test_word_to_isometry_matches_reflection_product(n):
    # reference: one simple-reflection matrix per letter, multiplied on the left
    rng = random.Random(n)
    for _ in range(30):
        word = [rng.randrange(n) for _ in range(rng.randrange(25))]
        ref = LatticeIsometry.identity(n)
        for letter in word:
            ref = simple_reflection(letter, n) @ ref
        assert word_to_isometry(word, n).rows == ref.rows
    for bad in (-1, n):
        with pytest.raises(ValueError, match=f"letter {bad} outside"):
            word_to_isometry([0, bad], n)


def test_iota_is_additive_and_fixes_k():
    rng = random.Random(11)
    span = ALPHA[:8]
    for _ in range(40):
        w1 = sum((a * rng.randint(-5, 5) for a in span), vector(*[0] * 10))
        w2 = sum((a * rng.randint(-5, 5) for a in span), vector(*[0] * 10))
        g1, g2 = iota_isometry(w1), iota_isometry(w2)
        assert (g1 @ g2).rows == iota_isometry(w1 + w2).rows
        assert g1.fixes(K9)


def test_iota_action_on_complement():
    w = ALPHA[2]
    for v in ALPHA:
        assert iota(w, v) == v + K9 * inner(w, v)


def test_iota_rejects_bad_input():
    with pytest.raises(ValueError):
        iota(basis_vector(1, 9), basis_vector(0, 9))  # e_1 not in k-perp


def test_translation_restricts_to_iota():
    rng = random.Random(3)
    for _ in range(20):
        a = sum((b * rng.randint(-3, 3) for b in ALPHA), vector(*[0] * 10))
        m = rng.choice([1, 2, 3])
        t = translation_isometry(a, m)
        u = iota_isometry(a * m)
        for b in ALPHA:
            assert t.apply(b) == u.apply(b)
        assert t.fixes(K9)


def test_translation_formula_on_the_whole_lattice():
    # D - m (D.k) a + [m (D.a) - (m^2/2)(D.k)(a.a)] k on every e_j, e_0 and
    # the vectors off the complement of k included
    rng = random.Random(4)
    for _ in range(30):
        a = sum((b * rng.randint(-3, 3) for b in ALPHA), vector(*[0] * 10))
        m = rng.choice([-2, -1, 0, 1, 2, 3])
        t = translation_isometry(a, m)
        for j in range(10):
            d = basis_vector(j, 9)
            dk, da = inner(d, K9), inner(d, a)
            shift = m * da - m * m * (inner(a, a) // 2) * dk
            assert t.apply(d) == d - a * (m * dk) + K9 * shift
    with pytest.raises(ValueError, match="orthogonal"):
        translation_isometry(basis_vector(1, 9), 1)
    with pytest.raises(ValueError, match="translations live"):
        translation_isometry(simple_roots(10)[1], 1)


def test_classify_elliptic_simple_reflection():
    c = classify_isometry(simple_reflection(1, 10))
    assert c.kind == "Elliptic"
    assert c.order == 2
    assert c.witness is not None


def test_classify_parabolic_iota():
    c = classify_isometry(iota_isometry(ALPHA[1]))
    assert c.kind == "Parabolic"
    # the invariant isotropic line is spanned by the canonical vector; the
    # witness is its positive-degree generator
    assert c.witness in (K9, -K9)
    assert inner(c.witness, c.witness) == 0


def test_classify_hyperbolic_coxeter_word():
    g = word_to_isometry(list(range(10)), 10)
    c = classify_isometry(g)
    assert c.kind == "Hyperbolic"
    # frozen: largest real root of x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1
    assert abs(c.spectral_radius - 1.1762808182599) < 1e-10


def test_classify_identity():
    from picweyl import LatticeIsometry

    c = classify_isometry(LatticeIsometry.identity(9))
    assert c.kind == "Elliptic" and c.order == 1


def test_invariant_sublattice_of_reflection():
    g = simple_reflection(0, 9)
    basis = invariant_sublattice_basis(g)
    # fixed sublattice of a single reflection has corank 1
    assert len(basis) == 9
    for v in basis:
        assert g.fixes(v)
    # alpha_0 itself is not fixed, and is not in the span mod 2
    assert not g.fixes(ALPHA[0])


def test_noether_reduce_simple_cases():
    # already a simple root: empty word
    t, word = noether_reduce(ALPHA[4])
    assert t == ALPHA[4] and word == ()
    # a line class through a different point triple still reduces
    r = vector(1, -1, -1, 0, -1, 0, 0, 0, 0, 0)
    t, word = noether_reduce(r)
    assert apply_word(t, word) == r
    assert any(t == s or t == -s for s in ALPHA)


def test_noether_reduce_round_trip_bulk():
    rng = random.Random(20240)
    n = 10
    base = simple_roots(n)[1]
    for _ in range(80):
        word = [rng.randrange(n) for _ in range(rng.randint(0, 35))]
        r = apply_word(base, word)
        if r.degree < 0:
            r = -r
        t, w = noether_reduce(r)
        assert apply_word(t, w) == r
        assert any(t == s or t == -s for s in simple_roots(n))


def test_noether_reduce_trace_format():
    trace: list[str] = []
    r = vector(3, -2, -1, -1, -1, -1, -1, -1, -1, 0)
    t, word = noether_reduce(r, trace=trace)
    assert len(trace) == len(word)
    assert trace[0].startswith("step 1: apply s_")
    assert "vector = [" in trace[0]
    assert apply_word(t, word) == r


def test_noether_reduce_rejects_non_roots():
    with pytest.raises(ValueError):
        noether_reduce(vector(1, -1, -1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        noether_reduce(-vector(1, -1, -1, -1, 0, 0, 0, 0, 0, 0))
    # a root of k_11-perp outside the Weyl orbit of the simple roots: its
    # degree already equals the sum of its top three multiplicities
    with pytest.raises(DomainError):
        noether_reduce(vector(3, *[-1] * 10, 1))


def test_isometry_class_is_plain_data():
    c = IsometryClass(kind="Elliptic", order=5)
    assert c.kind == "Elliptic" and c.order == 5 and c.witness is None


def test_cyclotomic_coeffs_match_sympy():
    from sympy import Poly, Symbol, cyclotomic_poly

    from picweyl.weyl import _cyclotomic_coeffs

    x = Symbol("x")
    for d in range(1, 301):
        expected = tuple(int(c) for c in Poly(cyclotomic_poly(d, x), x).all_coeffs())
        assert _cyclotomic_coeffs(d) == expected, d


def test_cyclotomic_indices_are_the_small_totients():
    from sympy import totient

    from picweyl.weyl import _cyclotomic_indices

    for deg in range(12):
        expected = [d for d in range(1, 2 * (deg + 1) ** 2 + 1) if totient(d) <= deg]
        assert list(_cyclotomic_indices(deg)) == expected, deg


def _faddeev_leverrier(rows):
    """Reference characteristic polynomial, descending: M_k = A M_{k-1} +
    c_{k-1} I and c_k = -tr(A M_k) / k, all in integers."""
    dim = len(rows)
    coeffs, m = [1], [[0] * dim for _ in range(dim)]
    for k in range(1, dim + 1):
        m = [[sum(rows[i][t] * m[t][j] for t in range(dim)) + (coeffs[-1] if i == j else 0)
              for j in range(dim)] for i in range(dim)]
        trace = sum(rows[i][t] * m[t][i] for i in range(dim) for t in range(dim))
        assert trace % k == 0
        coeffs.append(-trace // k)
    return coeffs


def test_charpoly_from_power_traces_matches_faddeev_leverrier_and_sympy():
    # Coxeter elements and their powers have large entries, so the exact
    # divisions in Newton's identities are tested where they matter
    from sympy import Matrix

    from picweyl.weyl import _charpoly_coeffs

    rng = random.Random(29)
    for trial in range(90):
        n = 3 + trial % 9
        if trial % 3:
            word = [rng.randrange(n) for _ in range(rng.randrange(0, 61))]
        else:
            word = rng.sample(range(n), n) * rng.randrange(1, 6)
        rows = word_to_isometry(word, n).rows
        coeffs = _charpoly_coeffs(rows)
        assert coeffs == _faddeev_leverrier(rows), word
        assert coeffs == [int(c) for c in Matrix(rows).charpoly().all_coeffs()], word


def test_matrix_power_from_half_powers_matches_repeated_multiplication():
    # g^e read off g, ..., g^ceil(dim/2) equals e - 1 plain products, for
    # elliptic words of finite groups (where some g^e is the identity) and
    # for random and Coxeter words of the infinite ones
    from picweyl.lattice import mat_identity, mat_mul
    from picweyl.weyl import _half_powers, _mat_power

    rng = random.Random(30)
    hits = 0
    for trial in range(24):
        n = 3 + trial % 9
        if trial % 3:
            word = [rng.randrange(n) for _ in range(rng.randrange(0, 41))]
        else:
            word = rng.sample(range(n), n)
        rows = word_to_isometry(word, n).rows
        powers = _half_powers(rows)
        assert len(powers) == (len(rows) + 1) // 2
        acc = rows
        for e in range(1, 61):
            assert _mat_power(powers, e) == tuple(map(tuple, acc)), (word, e)
            hits += acc == mat_identity(n + 1)
            acc = mat_mul(acc, rows)
    assert hits


def test_strip_cyclotomic_matches_sympy_factorization():
    # the integer division must find exactly the cyclotomic irreducible
    # factors sympy finds over ZZ, with multiplicity, and leave the rest
    from sympy import Poly, Symbol, cyclotomic_poly, factor_list, totient

    from picweyl.weyl import _charpoly_coeffs, _strip_cyclotomic

    x = Symbol("x")
    rng = random.Random(23)
    for trial in range(80):
        if trial % 4:
            n = rng.randrange(3, 12)
            word = [rng.randrange(n) for _ in range(rng.randrange(0, 41))]
        else:  # Coxeter elements and their squares are hyperbolic for n >= 10
            n = rng.randrange(10, 12)
            word = rng.sample(range(n), n) * rng.randrange(1, 3)
        coeffs = _charpoly_coeffs(word_to_isometry(word, n).rows)
        indices, remainder = _strip_cyclotomic(coeffs)
        expected, rest = [], Poly(1, x)
        for f, mult in factor_list(Poly(coeffs, x))[1]:
            k = f.degree()
            ds = [d for d in range(1, 2 * (k + 1) ** 2 + 1)
                  if totient(d) == k and Poly(cyclotomic_poly(d, x), x) == f]
            if ds:
                expected += ds * mult
            else:
                rest *= f**mult
        assert indices == sorted(expected), word
        assert remainder == [int(c) for c in rest.all_coeffs()], word
