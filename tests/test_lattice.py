"""Basic arithmetic on Z^{1,n} and the isometry wrapper."""

import pytest
from hypothesis import given, strategies as st

from picweyl import (
    HyperbolicLattice,
    LatticeIsometry,
    LatticeVector,
    basis_vector,
    canonical_vector,
    gram_matrix,
    inner,
    simple_roots,
    vector,
)


def test_inner_signature():
    e0 = basis_vector(0, 4)
    e1 = basis_vector(1, 4)
    assert inner(e0, e0) == 1
    assert inner(e1, e1) == -1
    assert inner(e0, e1) == 0


def test_canonical_vector_norm():
    # k_n^2 = 9 - n
    for n in (3, 9, 10, 11, 14):
        k = canonical_vector(n)
        assert inner(k, k) == 9 - n
        assert k.coords == (-3,) + (1,) * n


@pytest.mark.parametrize("n", [3, 9, 10, 12])
def test_simple_roots_are_roots(n):
    k = canonical_vector(n)
    for a in simple_roots(n):
        assert inner(a, a) == -2
        assert inner(a, k) == 0
        assert a.is_root(k)


def test_simple_root_count_and_shape():
    rs = simple_roots(9)
    assert len(rs) == 9
    assert rs[0].coords == (1, -1, -1, -1, 0, 0, 0, 0, 0, 0)
    assert rs[1].coords == (0, 1, -1, 0, 0, 0, 0, 0, 0, 0)
    assert rs[8].coords == (0, 0, 0, 0, 0, 0, 0, 0, 1, -1)


def test_gram_of_simple_roots_matches_diagram():
    # diagonal -2; node 0 meets node 3; nodes 1..n-1 form a chain
    for n in (9, 10, 11):
        g = gram_matrix(simple_roots(n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    want = -2
                elif {i, j} == {0, 3}:
                    want = 1
                elif 0 not in (i, j) and abs(i - j) == 1:
                    want = 1
                else:
                    want = 0
                assert g[i][j] == want, (n, i, j)


def test_vector_arithmetic():
    u = vector(3, -2, -1, -1, -1, -1, -1, -1, -1, 0, 0)
    v = vector(1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0)
    assert (u + v).coords == (4, -3, -2, -2, -1, -1, -1, -1, -1, 0, 0)
    assert (u - v) + v == u
    assert -(-u) == u
    assert (u * 2).coords == tuple(2 * c for c in u.coords)
    assert 3 * v == v * 3
    assert u.degree == 3
    assert u.multiplicities == (2, 1, 1, 1, 1, 1, 1, 1, 0, 0)


def test_vector_is_root():
    k = canonical_vector(10)
    assert vector(3, -2, -1, -1, -1, -1, -1, -1, -1, 0, 0).is_root(k)
    assert not vector(1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0).is_root(k)  # e0-e1, norm 0
    assert not vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 1).is_root(k)  # not in k-perp


def test_json_round_trip():
    u = vector(10, -3, -3, -3, -3, -3, -3, -3, -3, -3, -3)
    blob = u.to_json()
    assert all(isinstance(s, str) for s in blob)
    assert LatticeVector.from_json(blob) == u


def test_json_strings_on_both_sides_of_the_shared_range():
    coords = (-(10**20), -65, -64, -10, -1, 0, 1, 9, 64, 65, 10**20)
    assert LatticeVector(coords).to_json() == [str(c) for c in coords]


@given(st.lists(st.integers(-50, 50), min_size=4, max_size=8))
def test_json_round_trip_random(coords):
    u = LatticeVector(tuple(coords))
    assert LatticeVector.from_json(u.to_json()) == u


def test_lattice_helpers():
    L = HyperbolicLattice(9)
    assert L.e(0) == basis_vector(0, 9)
    assert L.zero().coords == (0,) * 10
    g = L.gram()
    assert g == gram_matrix(simple_roots(9))
    s = [[L.e(i).dot(L.e(j)) for j in range(10)] for i in range(10)]
    assert s == [[(i == j) * (1 if i == 0 else -1) for j in range(10)] for i in range(10)]


def test_isometry_must_preserve_form():
    n = 4
    good = LatticeIsometry.identity(n)
    assert all(good.apply(basis_vector(i, n)) == basis_vector(i, n) for i in range(n + 1))
    rows = [list(r) for r in good.rows]
    rows[1][2] = 1  # shear: no longer an isometry of the form
    with pytest.raises(ValueError):
        LatticeIsometry(tuple(tuple(r) for r in rows))


def test_isometry_compose_and_invert():
    # permutation of e_1, e_2 is an isometry; composing with its inverse
    # gives the identity
    n = 3
    m = [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
    g = LatticeIsometry(tuple(tuple(r) for r in m))
    assert g @ g == LatticeIsometry.identity(n)
    assert g @ g.inverse() == LatticeIsometry.identity(n)
    assert g.apply(basis_vector(1, n)) == basis_vector(2, n)
    assert g.fixes(canonical_vector(n))
    assert g.n == n and g.dim == n + 1
