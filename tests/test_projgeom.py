"""Projective points, 3x3 transforms, ternary forms, univariate helpers,
and exact elimination checked against independent implementations."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Matrix, Rational
from sympy.polys.matrices import DomainMatrix

import picweyl
from picweyl import (
    ExtensionField,
    FieldElement,
    Poly3,
    PrimeField,
    ProjectivePoint,
    RationalField,
)
from picweyl.projgeom import (
    cross,
    dot,
    extend_echelon,
    frame_transform,
    kernel_basis,
    linear_solve,
    mat3_apply,
    mat3_det,
    mat3_inverse,
    mat3_mul,
    matrix_rank,
    monomial_exponents,
    row_reduce,
    two_sided_kernels,
)
from picweyl import polys

F = PrimeField(101)
QQ_FIELD = RationalField()


def pt(*coords, field=F):
    return ProjectivePoint(field, coords)


class TestProjectivePoint:
    def test_normalization(self):
        assert pt(2, 4, 6) == pt(1, 2, 3)
        assert pt(0, 5, 10) == pt(0, 1, 2)
        assert pt(3, 0, 0) == pt(1, 0, 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)

    def test_hash_respects_scaling(self):
        assert len({pt(1, 2, 3), pt(2, 4, 6), pt(1, 2, 4)}) == 2

    def test_json_round_trip(self):
        p = pt(17, 0, 99)
        assert ProjectivePoint.from_json(F, p.to_json()) == p


IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def det(m, field=F):
    """The determinant of a matrix of raws, over the field."""
    return dot(m[0], cross(m[1], m[2], field), field)


def moved(m, p):
    return ProjectivePoint.from_raw(p.field, mat3_apply(m, p.raw, p.field))


class TestMat3:
    # matrices are tuples of rows of raws; the raws of F are ints mod 101

    def test_mul_apply_consistency(self):
        m = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
        n = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        p = pt(5, 7, 1)
        assert moved(mat3_mul(m, n, F), p) == moved(m, moved(n, p))

    def test_inverse(self):
        m = ((2, 1, 0), (1, 1, 0), (0, 5, 3))
        assert mat3_mul(m, mat3_inverse(m, F), F) == IDENTITY
        assert det(IDENTITY) == 1

    @pytest.mark.parametrize("field", [ExtensionField(3, 2), QQ_FIELD], ids=repr)
    def test_inverse_over_other_fields(self, field):
        rng = random.Random(f"inverse/{field}")
        one, zero = field._one, field._zero
        identity = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        for _ in range(20):
            m = tuple(tuple(field.random_element(rng).raw for _ in range(3)) for _ in range(3))
            if det(m, field) == zero:
                with pytest.raises(ZeroDivisionError):
                    mat3_inverse(m, field)
                continue
            inv = mat3_inverse(m, field)
            assert mat3_mul(m, inv, field) == mat3_mul(inv, m, field) == identity

    def test_singular_has_no_inverse(self):
        m = ((1, 2, 3), (2, 4, 6), (0, 0, 1))
        assert det(m) == 0
        with pytest.raises((ValueError, ZeroDivisionError)):
            mat3_inverse(m, F)

    def test_integer_determinant_is_not_the_field_one(self):
        # mat3_det on raws of F computes over the integers: 101 here, 0 in F
        m = ((1, 0, 0), (0, 11, 9), (0, 1, 10))
        assert mat3_det(m) == 101 and det(m) == 0

    def test_frame_transform(self):
        ps = [pt(1, 2, 3), pt(1, 1, 0), pt(0, 1, 1), pt(2, 1, 1)]
        m = frame_transform(*ps)
        frame = [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1), pt(1, 1, 1)]
        for src, dst in zip(frame, ps):
            assert moved(m, src) == dst

    def test_frame_transform_needs_general_position(self):
        with pytest.raises(ValueError):
            frame_transform(pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(1, 1, 1))


class TestLinearAlgebra:
    def test_rank_and_kernel(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 0]]
        assert matrix_rank(rows, F) == 2
        ker = kernel_basis(rows, F)
        assert len(ker) == 1
        v = ker[0]
        for r in rows:
            assert sum(c * x for c, x in zip(r, v)) % 101 == 0

    def test_linear_solve(self):
        rows = [[1, 1], [1, 100]]
        sol = linear_solve(rows, [3, 1], F)
        assert sol is not None
        assert (rows[0][0] * sol[0] + rows[0][1] * sol[1]) % 101 == 3
        # inconsistent system
        bad = linear_solve([[1, 1], [2, 2]], [0, 1], F)
        assert bad is None


@st.composite
def matrices(draw, entry, zero):
    """Up to 6 x 7 matrices of drawn raws, with some rows and columns
    zeroed and some rows repeated, so that rank deficiency is common."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = zero
    for r in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[r] = [zero] * ncols
    if nrows > 1 and draw(st.booleans()):
        rows[-1] = rows[0][:]
    return rows


def mod_p_entries(field):
    p = field.p
    return st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))


def reference_row_reduce(rows):
    """Gauss-Jordan on FieldElements, with the library's pivot choice."""
    m, pivots = [row[:] for row in rows], []
    for c in range(len(m[0])):
        pivot = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        r = len(pivots)
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        m = [row if i == r else [x - row[c] * y for x, y in zip(row, m[r])]
             for i, row in enumerate(m)]
        pivots.append(c)
    return m, pivots


class TestEliminationOracles:
    """row_reduce, matrix_rank and kernel_basis on raws against sympy over
    GF(p) and QQ, and against a FieldElement-level elimination over
    GF(5^3)."""

    @pytest.mark.parametrize("p", [2, 3, 7, 10007, 10009])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prime_field_against_domain_matrix(self, p, data):
        fp = PrimeField(p)
        rows = data.draw(matrices(mod_p_entries(fp), 0))
        shape = (len(rows), len(rows[0]))
        k = GF(p)
        dm = DomainMatrix([[k(x) for x in row] for row in rows], shape, k)

        def ints(dmat):
            return [[int(x) % p for x in row] for row in dmat.to_list()]

        red, pivots = row_reduce(rows, fp)
        sym_red, sym_pivots = dm.rref()
        assert red == ints(sym_red)
        assert pivots == list(sym_pivots)
        assert matrix_rank(rows, fp) == dm.rank()
        # an echelon basis extended in two steps: the first is left as it
        # was, and the second spans what all the rows span
        split = data.draw(st.integers(0, len(rows)))
        head = extend_echelon([], rows[:split], fp)
        kept = [(c, row[:]) for c, row in head]
        basis = extend_echelon(head, rows[split:], fp)
        assert head == kept
        assert [c for c, _ in basis] == pivots
        assert all(row[:c] == [0] * c and row[c] == 1 for c, row in basis)
        assert row_reduce([row for _, row in basis], fp)[0] == red[: len(pivots)]
        # sympy scales its null vectors differently: compare the spans
        kernel = [[k(x) for x in v] for v in kernel_basis(rows, fp)]
        sym_kernel = dm.nullspace()
        assert len(kernel) == sym_kernel.shape[0] == shape[1] - dm.rank()
        if kernel:
            ours = DomainMatrix(kernel, (len(kernel), shape[1]), k)
            assert ints(ours.rref()[0]) == ints(sym_kernel.rref()[0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rationals_against_matrix_rref(self, data):
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
        rows = data.draw(matrices(entry, Fraction(0)))

        def sym(vectors):
            return [[Rational(x.numerator, x.denominator) for x in v] for v in vectors]

        matrix = Matrix(sym(rows))
        sym_red, sym_pivots = matrix.rref()
        red, pivots = row_reduce(rows, QQ_FIELD)
        assert Matrix(sym(red)) == sym_red
        assert pivots == list(sym_pivots)
        assert matrix_rank(rows, QQ_FIELD) == matrix.rank()
        kernel = kernel_basis(rows, QQ_FIELD)
        assert sym(kernel) == [list(v) for v in matrix.nullspace()]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_extension_field_against_reference(self, data):
        k = ExtensionField(5, 3)
        digits = st.lists(st.sampled_from([0, 0, 1, 2, 3, 4]), min_size=3, max_size=3)
        rows = data.draw(matrices(digits.map(lambda d: k.element(d).raw), k.zero().raw))
        boxed = [[FieldElement(k, x) for x in row] for row in rows]
        red, pivots = row_reduce(rows, k)
        ref_red, ref_pivots = reference_row_reduce(boxed)
        assert (red, pivots) == ([[x.raw for x in row] for row in ref_red], ref_pivots)
        assert matrix_rank(rows, k) == len(pivots)
        kernel = kernel_basis(rows, k)
        assert len(kernel) == len(rows[0]) - len(pivots)
        for v in kernel:
            for row in boxed:
                assert sum((x * FieldElement(k, y) for x, y in zip(row, v)), k.zero()) == k.zero()

    @pytest.mark.parametrize(
        "field",
        [PrimeField(2), PrimeField(7), PrimeField(10007), ExtensionField(3, 2), QQ_FIELD],
        ids=repr,
    )
    def test_small_square_ranks_against_elimination(self, field):
        # matrix_rank reads a nonsingular k x k matrix, k <= 3, off its
        # determinant; singular and non-square ones must still be eliminated
        rng = random.Random(29)
        zero, add, mul = field._zero, field._add, field._mul
        seen = set()
        for _ in range(300):
            k, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[field.random_element(rng).raw for _ in range(ncols)] for _ in range(k)]
            if k > 1 and rng.random() < 0.4:  # the last row a combination of the first two
                a, b = (field.random_element(rng).raw for _ in range(2))
                rows[-1] = [add(mul(a, x), mul(b, y)) for x, y in zip(rows[0], rows[-2 if k > 2 else 0])]
            elif rng.random() < 0.2:
                rows[rng.randrange(k)] = [zero] * ncols
            rank = len(extend_echelon([], rows, field))
            assert matrix_rank(rows, field) == rank, rows
            seen.add((k == ncols <= 3, rank == min(k, ncols)))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
        assert matrix_rank([], field) == 0

    @pytest.mark.parametrize(
        "field",
        [PrimeField(2), PrimeField(7), PrimeField(10007), ExtensionField(3, 2), QQ_FIELD],
        ids=repr,
    )
    def test_two_sided_kernels(self, field):
        # K is kernel_basis's; L is a basis of the left kernel; v_i solves
        # R v = e_i exactly, and is None just where some vector of L is
        # nonzero at i
        rng = random.Random(31)
        zero, one, add, mul = field._zero, field._one, field._add, field._mul
        seen = set()
        for _ in range(200):
            n, ncols = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[field.random_element(rng).raw for _ in range(ncols)] for _ in range(n)]
            if n > 2 and rng.random() < 0.5:  # a combination of the first two rows
                a, b = (field.random_element(rng).raw for _ in range(2))
                rows[rng.randrange(2, n)] = [add(mul(a, x), mul(b, y)) for x, y in zip(*rows[:2])]
            elif rng.random() < 0.2:
                rows[rng.randrange(n)] = [zero] * ncols
            kernel, left, solutions = two_sided_kernels(rows, field)
            assert kernel == kernel_basis(rows, field)
            rank = len(extend_echelon([], rows, field))
            assert len(left) == n - rank == len(extend_echelon([], left, field))
            columns = [list(c) for c in zip(*rows)]
            assert all(field.dot(u, c) == zero for u in left for c in columns)
            for i, v in enumerate(solutions):
                if any(u[i] != zero for u in left):
                    assert v is None
                else:
                    unit = [one if j == i else zero for j in range(n)]
                    assert [field.dot(row, v) for row in rows] == unit
                seen.add(v is None)
        assert seen == {True, False}

    def test_input_rows_are_not_modified(self):
        rows = [[0, 2], [3, 4]]
        before = [r[:] for r in rows]
        row_reduce(rows, F)
        assert rows == before

    def test_elimination_builds_no_field_elements(self, monkeypatch):
        built = []
        init = FieldElement.__init__
        monkeypatch.setattr(
            FieldElement, "__init__", lambda self, *a: built.append(a) or init(self, *a)
        )
        for field, one in ((F, 1), (QQ_FIELD, Fraction(1)), (ExtensionField(5, 3), (1, 0, 0))):
            zero = field._zero
            rows = [[one, zero, one], [zero, one, one]]
            row_reduce(rows, field)
            matrix_rank(rows, field)
            extend_echelon(extend_echelon([], rows[:1], field), rows[1:], field)
            kernel_basis(rows, field)
            linear_solve(rows, [one, zero], field)
        assert built == []


def test_only_extend_echelon_calls_reduce_into():
    """Every elimination goes through projgeom.extend_echelon, so none
    escapes a tracer that wraps it."""
    callers = []
    for path in sorted(Path(picweyl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                callers += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reduce_into"
                ]
    assert callers == [("projgeom", "extend_echelon")]


class TestPoly3:
    def test_coeff_map_round_trip(self):
        data = {"021": 1, "300": -1, "201": 1, "102": -1, "003": 6}
        f = Poly3.from_coeff_map(F, data)
        assert f.degree() == 3
        assert f.is_homogeneous()
        raws = {(0, 2, 1): 1, (3, 0, 0): 100, (2, 0, 1): 1, (1, 0, 2): 100, (0, 0, 3): 6}
        assert f == Poly3.from_raw(F, raws)
        assert f.terms == raws

    def test_evaluate_and_partials(self):
        f = Poly3.from_coeff_map(F, {"021": 1, "300": -1})  # y^2 z - x^3
        assert f.evaluate([F(0), F(1), F(0)]) == F.zero()
        assert f.evaluate([F(1), F(1), F(1)]) == F.zero()
        assert f.evaluate([F(1), F(2), F(1)]) == F(3)
        # euler relation: sum x_i dF/dx_i = deg * F in odd characteristic
        gx, gy, gz = (f.partial(i) for i in range(3))
        p = [F(4), F(9), F(2)]
        lhs = p[0] * gx.evaluate(p) + p[1] * gy.evaluate(p) + p[2] * gz.evaluate(p)
        assert lhs == F(3) * f.evaluate(p)

    def test_product_degree_and_values(self):
        l1 = Poly3.from_coeff_map(F, {"100": 1, "001": -1})
        l2 = Poly3.from_coeff_map(F, {"010": 1, "001": -1})
        g = l1 * l2
        assert g.degree() == 2
        p = [F(7), F(8), F(9)]
        assert g.evaluate(p) == l1.evaluate(p) * l2.evaluate(p)

    def test_compose_linear_is_substitution(self):
        f = Poly3.from_coeff_map(F, {"300": 1, "021": 2})
        m = ((0, 1, 0), (1, 0, 0), (0, 0, 1))  # swap x, y
        g = f.compose_linear(m)
        for coords in [(1, 2, 3), (4, 0, 1), (9, 9, 1)]:
            p = [F(c) for c in coords]
            q = [p[1], p[0], p[2]]
            assert g.evaluate(p) == f.evaluate(q)

    def test_monomial_exponents_count(self):
        assert len(monomial_exponents(3)) == 10
        assert len(monomial_exponents(6)) == 28
        assert all(sum(e) == 4 for e in monomial_exponents(4))

    def test_taylor_form_on_a_line(self):
        # F(s p + u q) = F(p) s^3 + (q . grad F(p)) s^2 u + (p . grad F(q)) s u^2
        # + F(q) u^3: the coefficients the chord-tangent law reads
        f = Poly3.from_coeff_map(F, {"021": 1, "300": -1, "003": 6})
        p, q = pt(0, 1, 0), pt(1, 5, 1)
        grad = [f.partial(i) for i in range(3)]

        def dot(u, v):  # u . grad F(v)
            return sum((c * g.evaluate(v.coords) for c, g in zip(u.coords, grad)), F.zero())

        coeffs = [f.evaluate(p.coords), dot(q, p), dot(p, q), f.evaluate(q.coords)]
        # the value at (s, u) must match direct evaluation at s p + u q
        for s, u in ((F(1), F(3)), (F(2), F(7)), (F(0), F(1)), (F(5), F(0))):
            direct = f.evaluate([s * a + u * b for a, b in zip(p.coords, q.coords)])
            horner = sum(
                (c * s ** (3 - i) * u ** i for i, c in enumerate(coeffs)), F.zero()
            )
            assert horner == direct


class TestUnivariate:
    def test_divmod_and_gcd(self):
        f = [2, 0, 1]  # x^2 + 2
        g = [1, 1]  # x + 1
        q, r = polys.divmod_poly(F, f, g)
        assert polys.add(F, polys.mul(F, q, g), r) == f
        assert len(r) < len(g)
        h = polys.mul(F, f, g)
        assert polys.monic(F, polys.gcd(F, h, g)) == polys.monic(F, g)

    def test_roots_in_prime_field(self):
        # (x - 3)(x - 5)(x^2 + 1) over F_101; x^2 + 1 has roots since
        # 101 = 1 mod 4, so expect four roots in total
        f = polys.mul(F, polys.mul(F, [F(-3).raw, 1], [F(-5).raw, 1]), [1, 0, 1])
        rs = polys.roots_in_field(F, f)
        assert 3 in rs and 5 in rs and len(rs) == 4
        for r in rs:
            assert polys.evaluate(F, f, r) == 0

    def test_roots_in_extension_field(self):
        K = ExtensionField(5, 2)
        # x^2 - 2: 2 is a non-square in F_5, so the roots live upstairs
        f = [K.from_int(c).raw for c in (-2, 0, 1)]
        rs = polys.roots_in_field(K, f)
        assert len(rs) == 2
        assert all(K.element(r) * K.element(r) == K.from_int(2) for r in rs)

    def test_rational_roots(self):
        Q = RationalField()
        f = [Fraction(c) for c in (-6, 1, 1)]  # (x+3)(x-2)
        rs = polys.roots_in_field(Q, f)
        assert set(rs) == {-3, 2}

    def test_square_roots(self):
        # x^2 - 4 and x^2 - 2 over F_101: 2 is not a square mod 101
        assert polys.roots_in_field(F, [F(-4).raw, 0, 1]) == [2, 99]
        assert polys.roots_in_field(F, [F(-2).raw, 0, 1]) == []
