"""Root census and mod-2 condition catalog.

Expected counts were frozen from brute-force scans done with standalone
scripts (plain integer arithmetic, no package imports): the census from a
box scan over multiplicity tuples, the 528/496 split from all 1024 residue
classes against the diagram Gram matrix, and the family sizes from the
binomials C(10,2), C(10,3), C(10,6), C(10,7) plus the single quartic class.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from picweyl import (
    ClassFamily,
    basis_vector,
    canonical_vector,
    catalog_to_csv,
    coble_conditions,
    enumerate_roots,
    halphen_prohibited_classes,
    inner,
    integer_left_inverse,
    q2_value,
    residue_counts_mod2,
    residue_mod2,
    root_basis_coordinates,
    simple_roots,
    vector,
)

CENSUS_N10 = {0: 45, 1: 120, 2: 210, 3: 360, 4: 850}


def test_census_n10_frozen():
    roots = enumerate_roots(10, 4)
    got = Counter(r.degree for r in roots)
    assert dict(got) == CENSUS_N10


def test_census_small_degrees_match_combinatorics():
    # degree 0: one representative per pair, degree 1: lines through three
    # points, degree 2: conics through six
    from math import comb

    assert CENSUS_N10[0] == comb(10, 2)
    assert CENSUS_N10[1] == comb(10, 3)
    assert CENSUS_N10[2] == comb(10, 6)
    # degree 3: eight points, one doubled: 10 * C(9, 7)
    assert CENSUS_N10[3] == 10 * comb(9, 7)


def test_enumerated_roots_are_roots_and_sorted():
    k = canonical_vector(10)
    roots = enumerate_roots(10, 3)
    assert all(r.is_root(k) for r in roots)
    assert list(roots) == sorted(roots, key=lambda r: r.coords)
    assert len(set(roots)) == len(roots)


def test_degree_zero_normalization():
    roots = [r for r in enumerate_roots(10, 0)]
    assert len(roots) == 45
    for r in roots:
        nz = [c for c in r.coords if c]
        assert nz[0] > 0  # first nonzero coordinate positive


def test_enumerate_roots_small_n():
    # n = 3: only the pairs and the single line class
    roots = enumerate_roots(3, 1)
    assert Counter(r.degree for r in roots) == {0: 3, 1: 1}


def test_residue_counts_frozen():
    assert residue_counts_mod2() == (528, 496)


def test_q2_even_and_odd_samples():
    # zero class is isotropic; a single simple root has q = 1
    assert q2_value((0,) * 10) == 0
    one = tuple(1 if i == 0 else 0 for i in range(10))
    assert q2_value(one) == 1


def test_residue_of_root_has_q_one():
    for r in enumerate_roots(10, 2):
        assert q2_value(residue_mod2(r)) == 1


def test_root_basis_coordinates_round_trip():
    rs = simple_roots(10)
    v = vector(3, -2, -1, -1, -1, -1, -1, -1, -1, 0, 0)
    c = root_basis_coordinates(v)
    back = sum((rs[i] * c[i] for i in range(10)), vector(*[0] * 11))
    assert back == v


def test_root_basis_coordinates_rejects_outside_span():
    with pytest.raises(ValueError):
        root_basis_coordinates(vector(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("n", range(3, 13))
def test_root_basis_coordinates_match_smith_left_inverse(n):
    # oracle: a left inverse of the simple-root matrix by Smith normal form;
    # any left inverse agrees with the closed form on the span
    rs = simple_roots(n)
    li = integer_left_inverse([[r.coords[i] for r in rs] for i in range(n + 1)])
    rng = random.Random(n)
    combos = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(40)]
    zero = vector(*[0] * (n + 1))
    spanned = [sum((r * c for r, c in zip(rs, cs)), zero) for cs in combos]
    for v in list(enumerate_roots(n, 3)) + spanned:
        assert root_basis_coordinates(v) == tuple(
            sum(a * b for a, b in zip(row, v.coords)) for row in li
        )
    assert [root_basis_coordinates(v) for v in spanned] == combos
    # e_n, and a vector of the span plus e_0, lie off the complement
    for v in (basis_vector(n, n), spanned[0] + basis_vector(0, n)):
        with pytest.raises(ValueError, match="not orthogonal"):
            root_basis_coordinates(v)


@pytest.mark.parametrize("coords", [(0, 1, -1), (1, -1)])
def test_root_basis_coordinates_needs_three_points(coords):
    with pytest.raises(ValueError, match="need n >= 3"):
        root_basis_coordinates(vector(*coords))


def test_coble_conditions_frozen_shape():
    fams = coble_conditions()
    assert len(fams) == 496
    by_label = Counter(f.label for f in fams)
    assert by_label == {
        "coincident_pair": 45,
        "collinear_triple": 120,
        "conic_six": 210,
        "singular_cubic_eight": 120,
        "triple_point_quartic": 1,
    }


def test_coble_conditions_exhaust_norm_one():
    fams = coble_conditions()
    residues = {f.residue for f in fams}
    assert len(residues) == 496  # pairwise distinct
    assert all(q2_value(r) == 1 for r in residues)
    # together with the isotropic count this exhausts q^{-1}(1)
    assert residue_counts_mod2()[1] == len(residues)


def test_coble_family_internals():
    fams = coble_conditions()
    k = canonical_vector(10)
    for f in fams[:50] + fams[-50:]:
        assert isinstance(f, ClassFamily)
        assert f.representative.is_root(k)
        assert residue_mod2(f.representative) == f.residue
        assert f.representative in f.representatives
        for r in f.representatives:
            assert residue_mod2(r) == f.residue
    collapsed = [f for f in fams if f.label == "singular_cubic_eight"]
    assert all(len(f.representatives) == 3 for f in collapsed)
    quartic = [f for f in fams if f.label == "triple_point_quartic"]
    assert len(quartic[0].representatives) == 10


def test_coble_families_against_the_root_census():
    # every root of degree <= 4, by residue: each family's roots are among
    # them up to sign, and only conic_six leaves some out (four quartics)
    census = {}
    for r in enumerate_roots(10, 4):
        census.setdefault(residue_mod2(r), set()).add(r.coords)
    listed = {}
    for f in coble_conditions():
        roots = census[f.residue]
        for r in f.representatives:
            assert r.coords in roots or (-r).coords in roots
        listed.setdefault(f.label, set()).add((len(f.representatives), len(roots)))
    assert listed == {
        "coincident_pair": {(1, 1)},
        "collinear_triple": {(1, 1)},
        "conic_six": {(1, 5)},
        "singular_cubic_eight": {(3, 3)},
        "triple_point_quartic": {(10, 10)},
    }


def test_catalog_csv_header_and_size():
    fams = coble_conditions()
    text = catalog_to_csv(fams)
    lines = text.strip().splitlines()
    assert len(lines) == 497
    assert lines[0].split(",")[0] == "label"


@pytest.mark.parametrize("m,count", [(1, 156), (2, 312), (3, 396)])
def test_halphen_prohibited_class_counts(m, count):
    classes = halphen_prohibited_classes(m)
    assert len(classes) == count
    k = canonical_vector(9)
    assert all(inner(r, k) == 0 and inner(r, r) == -2 for r in classes)


def test_halphen_prohibited_rejects_bad_index():
    with pytest.raises(ValueError):
        halphen_prohibited_classes(0)


@pytest.mark.parametrize(
    "values",
    [(), (0,), (1, 1, 1), (2, 1, 1), (3, -1, 0, -1, 2), (1, 0, 0, 0, 0, -1, -1, -1, 0, 0)],
)
def test_distinct_permutations_match_sympy_order(values):
    from sympy.utilities.iterables import multiset_permutations

    from picweyl.catalog import _distinct_permutations

    expected = [tuple(p) for p in multiset_permutations(list(values))]
    assert list(_distinct_permutations(values)) == expected
