"""Smith form and integer linear algebra.

The 8x10 matrix in test_no_coefficient_swell is kept verbatim: an earlier
version of the reduction used floor-division quotients with in-place
swaps, and this exact input made intermediate entries grow without bound
(minutes of big-int multiplication before the fix, about a millisecond
after).  sympy cross-checks guard the invariant factors.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ, factorint, isprime
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from picweyl import integer_kernel, integer_left_inverse, smith_normal_form, solve_integer
from picweyl import smith
from picweyl.smith import factor, is_prime


def sympy_diag(a):
    d = sympy_snf(Matrix(a), domain=ZZ)
    return [abs(int(d[i, i])) for i in range(min(d.rows, d.cols))]


def unpack(a):
    u, d, v = smith_normal_form(a)
    return d, u, v


def mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def check_decomposition(a):
    d, u, v = unpack(a)
    assert mat_mul(mat_mul(u, a), v) == [list(r) for r in d]
    # unimodularity
    assert abs(Matrix(u).det()) == 1
    assert abs(Matrix(v).det()) == 1
    # diagonal, nonnegative, divisibility chain
    rows, cols = len(d), len(d[0])
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x != 0 and y % x == 0
    return diag


matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_decomposition_properties(a):
    diag = check_decomposition(a)
    assert diag == sympy_diag(a)


def _full_scan_pivot(m, t):
    """The first entry of least absolute value in row order, every entry read."""
    best = None
    for i in range(t, len(m)):
        for j in range(t, len(m[0])):
            if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_unit_stop_pivot_matches_full_scan(a):
    # stopping the pivot scan at a unit changes neither transform
    fast = smith_normal_form(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smith, "_find_pivot", _full_scan_pivot)
        assert smith_normal_form(a) == fast


def _offender_without_unit_skip(m, t):
    """The first row below t holding an entry the pivot does not divide,
    every entry read even at a unit pivot."""
    for i in range(t + 1, len(m)):
        for j in range(t + 1, len(m[0])):
            if m[i][j] % m[t][t] != 0:
                return i
    return None


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_unit_pivot_skip_and_leading_v_rows_match_full_form(a):
    # skipping the divisibility scan at a unit pivot changes no transform,
    # and carrying only v's leading rows returns exactly those rows
    u, d, v = smith_normal_form(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smith, "_offender", _offender_without_unit_skip)
        assert smith_normal_form(a) == (u, d, v)
    for k in range(len(a[0]) + 1):
        assert smith_normal_form(a, v_rows=k) == (u, d, v[:k])


def _reference_smith_normal_form(a, v_rows=None):
    """The kernel as it stood before its sweeps were made sparse: every
    elementary operation runs through a helper over whole rows and columns,
    and U is always carried in full.  Differential oracle for the kernel."""
    m = [row[:] for row in a]
    nrows, ncols = len(m), len(m[0])
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)][:v_rows]

    def rounded_quot(x, y):
        q, r = divmod(x, y)
        return q + 1 if 2 * abs(r) > abs(y) else q

    def swap_rows(i, k):
        if i != k:
            m[i], m[k] = m[k], m[i]
            u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        if j != k:
            for row in m + v:
                row[j], row[k] = row[k], row[j]

    def add_row(i, k, c):
        m[i] = [x + c * y for x, y in zip(m[i], m[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]

    def add_col(j, k, c):
        for row in m + v:
            if row[k]:
                row[j] += c * row[k]

    t = 0
    while t < min(nrows, ncols):
        pivot = _full_scan_pivot(m, t)
        if pivot is None:
            break
        while True:
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            changed = False
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    q = rounded_quot(m[i][t], m[t][t])
                    if q:
                        add_row(i, t, -q)
                    if m[i][t] != 0:
                        changed = True
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    q = rounded_quot(m[t][j], m[t][t])
                    if q:
                        add_col(j, t, -q)
                    if m[t][j] != 0:
                        changed = True
            if changed:
                pivot = _full_scan_pivot(m, t)
                continue
            offender = _offender_without_unit_skip(m, t)
            if offender is None:
                break
            add_row(t, offender, 1)
            pivot = (t, t)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [[m[i][j] if i == j else 0 for j in range(ncols)] for i in range(nrows)]
    return u, d, v


def _assert_matches_reference(a, pairs):
    """Each (v_rows, u_cols) form equals the reference form cut to the rows
    of v and the columns of u that it carries."""
    u, d, v = _reference_smith_normal_form(a)
    for v_rows, u_cols in pairs:
        cut_u = [row[:u_cols] for row in u]
        assert smith_normal_form(a, v_rows=v_rows, u_cols=u_cols) == (cut_u, d, v[:v_rows])


wide_matrices = st.integers(1, 12).flatmap(
    lambda r: st.integers(1, 20).flatmap(
        lambda c: st.tuples(
            st.lists(
                st.lists(st.integers(-40, 40) | st.integers(-10**6, 10**6), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ),
            st.none() | st.integers(0, c),
            st.none() | st.integers(0, r),
        )
    )
)


@given(wide_matrices)
@settings(max_examples=200, deadline=None)
def test_transforms_match_reference_kernel(case):
    a, v_rows, u_cols = case
    _assert_matches_reference(a, [(v_rows, u_cols)])


@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_every_carried_part_matches_reference_kernel(a):
    _assert_matches_reference(a, [(k, c) for k in [None, *range(5)] for c in [None, *range(4)]])


ROOTS_MODULI = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 25, 27, 30)


@pytest.mark.parametrize("m", ROOTS_MODULI)
def test_membership_matrices_match_reference_kernel(m):
    # [G | m.I] for eight random generators mod m, the residue searches' form,
    # with every number of v rows and u columns carried
    rng = random.Random(f"membership-{m}")
    for _ in range(2):
        gens = [[rng.randrange(m) for _ in range(10)] for _ in range(8)]
        a = [[g[i] for g in gens] + [m * (i == j) for j in range(10)] for i in range(10)]
        _assert_matches_reference(
            a, [(k, c) for k in [None, *range(19)] for c in [None, *range(11)]]
        )


def test_u_cols_outside_the_row_count_is_refused():
    for bad in (3, -1):
        with pytest.raises(ValueError, match="u_cols"):
            smith_normal_form([[2, 4, 4], [-6, 6, 12]], u_cols=bad)


def test_v_rows_above_the_column_count_is_refused():
    for bad in (4, -1):
        with pytest.raises(ValueError, match="v_rows"):
            smith_normal_form([[2, 4, 4], [-6, 6, 12]], v_rows=bad)


def test_identity_and_zero():
    assert [r[:] for r in unpack([[1, 0], [0, 1]])[0]] == [[1, 0], [0, 1]]
    d, _, _ = unpack([[0, 0], [0, 0]])
    assert [list(r) for r in d] == [[0, 0], [0, 0]]


def test_single_entry():
    d, u, v = unpack([[-12]])
    assert d[0][0] == 12 and u[0][0] * v[0][0] == -1


def test_known_example():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag = check_decomposition(a)
    # determinant 624 = 2 * 2 * 156 pins the chain
    assert diag == [2, 2, 156]


def test_no_coefficient_swell():
    gens = [
        (1, 4, 2, 5, 1, 4, 0, 3, 0, 2),
        (0, 5, 5, 5, 3, 4, 0, 5, 0, 4),
        (0, 0, 1, 3, 0, 3, 0, 0, 5, 2),
        (0, 0, 0, 5, 4, 5, 3, 5, 0, 4),
        (0, 0, 0, 0, 5, 4, 5, 1, 0, 0),
        (0, 0, 0, 0, 4, 3, 3, 4, 1, 0),
        (0, 0, 0, 0, 4, 0, 5, 4, 5, 5),
        (0, 0, 0, 0, 4, 0, 0, 1, 3, 2),
    ]
    # columns are the generators, then 6 * identity: the mod-6 membership
    # matrix that used to hang
    rows = []
    for i in range(10):
        rows.append([g[i] for g in gens] + [6 if j == i else 0 for j in range(10)])
    diag = check_decomposition(rows)
    assert diag == [1, 1, 1, 1, 1, 1, 1, 1, 6, 6]


def test_large_entries_still_exact():
    rng = random.Random(99)
    a = [[rng.randint(-10**6, 10**6) for _ in range(4)] for _ in range(5)]
    diag = check_decomposition(a)
    assert diag == sympy_diag(a)


class TestKernel:
    def test_kernel_is_saturated(self):
        # rows of a with a rank-1 kernel containing (1, -2, 1) primitively
        a = [[1, 1, 1], [0, 1, 2]]
        ker = integer_kernel(a)
        assert len(ker) == 1
        v = ker[0]
        assert [sum(r[i] * v[i] for i in range(3)) for r in a] == [0, 0]
        from math import gcd

        assert gcd(gcd(v[0], v[1]), v[2]) == 1

    def test_full_rank_has_no_kernel(self):
        assert integer_kernel([[2, 0], [0, 3]]) == []

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, a):
        for v in integer_kernel(a):
            assert all(sum(r[i] * v[i] for i in range(len(v))) == 0 for r in a)
            assert any(v)


class TestLeftInverse:
    def test_round_trip(self):
        # full column rank, unimodular column span
        a = [[1, 0], [2, 1], [3, 4]]
        li = integer_left_inverse(a)
        assert mat_mul(li, a) == [[1, 0], [0, 1]]

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            integer_left_inverse([[1, 2], [2, 4], [0, 0]])

    def test_rejects_imprimitive_span(self):
        # the column span has index 2, so no integral left inverse exists
        with pytest.raises(ValueError):
            integer_left_inverse([[2, 0], [0, 1], [0, 0]])


class TestSolveInteger:
    def test_solvable(self):
        a = [[2, 3], [1, 1]]
        x = solve_integer(a, [7, 3])
        assert x is not None
        assert [sum(r[i] * x[i] for i in range(2)) for r in a] == [7, 3]

    def test_unsolvable_by_divisibility(self):
        assert solve_integer([[2, 0], [0, 2]], [1, 0]) is None

    def test_unsolvable_inconsistent(self):
        assert solve_integer([[1, 1], [2, 2]], [0, 1]) is None

    @given(
        st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_solution_when_returned_is_real(self, a, x0):
        # manufacture a guaranteed-solvable right-hand side
        rhs = [sum(r[i] * x0[i] for i in range(3)) for r in a]
        x = solve_integer(a, rhs)
        assert x is not None
        assert [sum(r[i] * x[i] for i in range(3)) for r in a] == rhs


class TestPrimality:
    """is_prime and factor against sympy's isprime and factorint."""

    def test_small_range(self):
        assert [n for n in range(-5, 20001) if is_prime(n)] == [
            n for n in range(-5, 20001) if isprime(n)
        ]

    def test_random_below_2_100(self):
        rng = random.Random(11)
        for bits in (20, 40, 64, 100):
            for _ in range(400):
                n = rng.randrange(2**bits)
                assert is_prime(n) == isprime(n), n
        # random odd n near 2^64 and 2^100 are prime often enough to matter
        for _ in range(400):
            n = rng.randrange(2**63, 2**100) | 1
            assert is_prime(n) == isprime(n), n

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprimes to base 2
            3215031751,
            3825123056546413051,
            561,  # Carmichael numbers
            41041,
            22499,  # strong Lucas pseudoprimes with no factor below 100
            40309,
            2**61 - 1,  # Mersenne primes
            2**89 - 1,
            2**127 - 1,
            1000003**2,  # a prime square
        ],
    )
    def test_known_hard_cases(self, n):
        assert is_prime(n) == isprime(n)

    def test_each_half_is_fooled_by_its_own_pseudoprimes(self):
        # composites that pass one of the two tests: the other must catch them
        from picweyl.smith import _strong_base2, _strong_lucas

        for n in (2047, 3215031751, 3825123056546413051):
            assert _strong_base2(n) and not _strong_lucas(n)
        for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
            assert _strong_lucas(n) and not _strong_base2(n)

    def test_factor_small_range(self):
        for n in range(1, 5001):
            assert factor(n) == factorint(n), n

    def test_factor_random_below_10_18(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randrange(1, 10**18)
            fac = factor(n)
            assert fac == factorint(n), n
            assert list(fac) == sorted(fac)

    @pytest.mark.parametrize("p,e", [(5, 12), (7, 12), (101, 1), (3, 7)])
    def test_factor_field_unit_group_orders(self, p, e):
        assert factor(p**e - 1) == factorint(p**e - 1)

    def test_factor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factor(0)
