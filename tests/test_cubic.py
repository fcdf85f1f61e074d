"""Cubic classification, the three group laws, and the restriction layer.

The smooth fixture over F_101 was verified offline with a standalone
Weierstrass-law script: exactly 100 rational points, (0:14:1) of order 100.
"""

import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from picweyl import (
    CubicCurveModel,
    CurveError,
    DomainError,
    ExtensionField,
    LatticeVector,
    Poly3,
    PrimeField,
    ProjectivePoint,
    RationalField,
    ReducibleCurveError,
    SmoothPoint,
    UnsupportedCurveError,
    basis_vector,
    canonical_vector,
    classify_cubic,
    configuration,
    cremona_quadratic,
    gram_matrix,
    halphen_index_check,
    harbourne_check,
    is_unnodal_halphen,
    kernel_submodule_generators,
    projectively_equivalent,
    restriction_hom,
    simple_roots,
    torsion_set_check,
    unnodal_by_kernel,
    vector,
)
from picweyl.catalog import enumerate_roots
from picweyl.cubic import (
    RestrictionLayer,
    _binary_quadratic_split,
    _common_rational_points,
    _direction_point,
    _group_sum,
    _point_key,
    _poly3_chart,
    _rational_inflections,
    _resultant_y,
    image_order,
    restriction_layer,
)
from picweyl import polys
from picweyl.fields import FieldElement
from picweyl.projgeom import (
    cross,
    dot,
    frame_with_last_column,
    kernel_basis,
    mat3_apply,
    mat3_det,
    mat3_from_columns,
    mat3_inverse,
    mat3_mul,
    matrix_rank,
    monomial_exponents,
    normalized,
)

F = PrimeField(101)
F7 = PrimeField(7)

SMOOTH = {"021": 1, "300": -1, "201": 1, "102": -1, "003": 6}
NODAL = {"021": 1, "300": -1, "201": -1}
CUSPIDAL = {"021": 1, "300": -1}
ELLIPTIC_F7 = {"021": 1, "300": -1, "003": -3}  # y^2 = x^3 + 3, 13 points
# a smooth cubic over F_7 with no rational inflection: relaxed origin
RELAXED_F7 = {"003": 3, "030": 3, "102": 4, "111": 4, "120": 2, "201": 3, "210": 3, "300": 6}


def smooth_model():
    return classify_cubic(Poly3.from_coeff_map(F, SMOOTH))


def nodal_model():
    return classify_cubic(Poly3.from_coeff_map(F, NODAL))


def cusp_model(field=F):
    return classify_cubic(Poly3.from_coeff_map(field, CUSPIDAL))


class TestClassification:
    def test_three_kinds(self):
        assert smooth_model().kind == "smooth"
        assert nodal_model().kind == "nodal"
        assert cusp_model().kind == "cuspidal"

    def test_group_names(self):
        assert smooth_model().group == "elliptic"
        assert nodal_model().group == "multiplicative"
        assert cusp_model().group == "additive"

    def test_singular_point_location(self):
        assert nodal_model().singular_point == ProjectivePoint(F, (0, 0, 1))
        assert cusp_model().singular_point == ProjectivePoint(F, (0, 0, 1))
        assert smooth_model().singular_point is None

    def test_classification_is_invariant_under_coordinate_change(self):
        m = ((1, 2, 0), (0, 1, 3), (1, 0, 1))  # raws of F
        f = Poly3.from_coeff_map(F, NODAL).compose_linear(m)
        moved = classify_cubic(f)
        assert moved.kind == "nodal"
        # the singular point moves by the inverse substitution
        assert moved.poly.evaluate(moved.singular_point.coords) == F.zero()

    def test_reducible_rejected(self):
        # line times conic meeting it in two points
        with pytest.raises(ReducibleCurveError):
            classify_cubic(Poly3.from_coeff_map(F, {"111": 1, "300": -1}))
        # three concurrent lines: x(x^2 + y^2) with -1 a square mod 101
        with pytest.raises(ReducibleCurveError):
            classify_cubic(Poly3.from_coeff_map(F, {"300": 1, "120": 1}))

    def test_line_times_conic_without_rational_singular_points_is_reducible(self):
        # z (x^2 - 2 y^2) over F_5: three nodes, the rational (0:0:1) with
        # conjugate tangents and a conjugate pair on z = 0; z (x^2 - 2 y^2 -
        # z^2): two conjugate nodes, where z = 0 meets the conic
        F5 = PrimeField(5)
        for coeffs in ({"201": 1, "021": -2}, {"201": 1, "021": -2, "003": -1}):
            with pytest.raises(ReducibleCurveError):
                classify_cubic(Poly3.from_coeff_map(F5, coeffs))

    def test_non_split_node_unsupported(self):
        # tangent cone y^2 = 2 x^2 with 2 a non-square mod 101
        with pytest.raises(UnsupportedCurveError):
            classify_cubic(Poly3.from_coeff_map(F, {"021": 1, "300": -1, "201": -2}))

    def test_non_cubic_rejected(self):
        with pytest.raises(CurveError):
            classify_cubic(Poly3.from_coeff_map(F, {"200": 1}))
        with pytest.raises(CurveError):
            classify_cubic(Poly3.zero(F))

    def test_classification_errors_are_value_errors(self):
        assert issubclass(ReducibleCurveError, CurveError)
        assert issubclass(UnsupportedCurveError, CurveError)
        assert issubclass(CurveError, ValueError)


class TestPointMembership:
    def test_contains_and_smoothness(self):
        m = nodal_model()
        assert m.contains(m.singular_point)
        with pytest.raises(DomainError, match="is a singular point of the curve"):
            m.smooth_point(m.singular_point)
        with pytest.raises(DomainError, match="is not on the curve"):
            m.smooth_point(ProjectivePoint(F, (1, 1, 1)))

    def test_smooth_point_passthrough(self):
        m = cusp_model()
        s = m.point_from_parameter(F(9))
        assert m.smooth_point(s) is s


class TestGroupLaws:
    def test_elliptic_axioms_randomized(self):
        m = smooth_model()
        g = m.smooth_point(ProjectivePoint(F, (0, 14, 1)))
        rng = random.Random(6)
        pts = [m.scalar(rng.randrange(1, 100), g) for _ in range(6)]
        z = m.zero()
        for a in pts:
            assert m.add(a, z) == a
            assert m.add(a, m.negate(a)) == z
            for b in pts:
                assert m.add(a, b) == m.add(b, a)
                for c in pts[:3]:
                    assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))

    def test_generator_order_is_100(self):
        m = smooth_model()
        g = m.smooth_point(ProjectivePoint(F, (0, 14, 1)))
        assert m.scalar(100, g) == m.zero()
        for d in (2, 4, 5, 10, 20, 25, 50):
            assert m.scalar(d, g) != m.zero()
        assert m.scalar(50, g).point == ProjectivePoint(F, (2, 0, 1))

    def test_scalar_matches_repeated_addition(self):
        m = smooth_model()
        g = m.smooth_point(ProjectivePoint(F, (0, 14, 1)))
        acc = m.zero()
        for i in range(1, 8):
            acc = m.add(acc, g)
            assert m.scalar(i, g) == acc
        assert m.scalar(-3, g) == m.negate(m.scalar(3, g))

    def test_scalar_spends_no_wasted_additions(self, monkeypatch):
        m = smooth_model()
        g = m.smooth_point(ProjectivePoint(F, (0, 14, 1)))
        multiples = [m.zero()]
        for _ in range(101):
            multiples.append(m.add(multiples[-1], g))
        calls = []
        add = CubicCurveModel.add

        def counting_add(self, a, b):
            calls.append(1)
            return add(self, a, b)

        monkeypatch.setattr(CubicCurveModel, "add", counting_add)
        for n, expected in ((0, 0), (1, 0), (2, 1), (3, 2), (100, 8), (101, 9)):
            calls.clear()
            assert m.scalar(n, g) == multiples[n]
            assert len(calls) == expected, n
        for n in (1, 2, 7, 100):
            assert m.scalar(-n, g) == m.negate(multiples[n])

    def test_cuspidal_group_is_additive_in_parameters(self):
        m = cusp_model()
        a, b = m.point_from_parameter(F(3)), m.point_from_parameter(F(4))
        assert m.add(a, b).param == F(7)
        assert m.negate(a).param == F(-3)
        assert m.scalar(10, a).param == F(30)
        assert m.zero().param == F(0)

    def test_nodal_group_is_multiplicative_in_parameters(self):
        m = nodal_model()
        a, b = m.point_from_parameter(F(3)), m.point_from_parameter(F(4))
        assert m.add(a, b).param == F(12)
        assert m.negate(a).param == F(3).inverse()
        assert m.scalar(4, a).param == F(81)
        assert m.zero().param == F(1)

    def test_nodal_zero_parameter_rejected(self):
        with pytest.raises(DomainError):
            nodal_model().point_from_parameter(F(0))

    def test_chord_add_agrees_with_parametric_add(self):
        rng = random.Random(13)
        mn, mc = nodal_model(), cusp_model()
        for _ in range(20):
            s, t = F(rng.randrange(1, 101)), F(rng.randrange(1, 101))
            assert mn.chord_add(
                mn.point_from_parameter(s), mn.point_from_parameter(t)
            ) == mn.add(mn.point_from_parameter(s), mn.point_from_parameter(t))
            assert mc.chord_add(
                mc.point_from_parameter(s), mc.point_from_parameter(t)
            ) == mc.add(mc.point_from_parameter(s), mc.point_from_parameter(t))

    def test_third_intersection_lies_on_curve_and_line(self):
        m = smooth_model()
        g = m.smooth_point(ProjectivePoint(F, (0, 14, 1)))
        a, b = m.scalar(2, g).point, m.scalar(5, g).point
        c = m.third_intersection(a, b)
        assert m.contains(c)
        # collinearity via a determinant
        rows = [list(a.coords), list(b.coords), list(c.coords)]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert det == F.zero()

    def test_parameter_round_trip_on_singular_models(self):
        for m in (nodal_model(), cusp_model()):
            for raw in (2, 7, 55):
                t = F(raw)
                if m.kind == "nodal" and not t:
                    continue
                assert m.parameter(m.point_from_parameter(t).point) == t

    def test_parameters_only_on_singular_curves(self):
        m = smooth_model()
        with pytest.raises(DomainError):
            m.parameter(ProjectivePoint(F, (0, 14, 1)))
        with pytest.raises(DomainError):
            m.point_from_parameter(F(3))


class TestRestriction:
    def nine_points(self, model):
        g = model.smooth_point(ProjectivePoint(F, (0, 14, 1)))
        return [model.scalar(i, g).point for i in (1, 2, 3, 4, 5, 6, 7, 8, 14)]

    def test_difference_class_detects_equal_points(self):
        m = cusp_model()
        pts = [m.point_from_parameter(F(i)).point for i in range(1, 10)]
        r = restriction_hom(m, pts, vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0))
        assert not r.is_zero()
        dup = [pts[0]] + pts[1:]
        dup[1] = pts[0]
        r2 = restriction_hom(m, dup, vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0))
        assert r2.is_zero()

    def test_restriction_is_additive(self):
        m = smooth_model()
        pts = self.nine_points(m)
        u = vector(1, -1, -1, -1, 0, 0, 0, 0, 0, 0)
        v = vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0)
        ru, rv = restriction_hom(m, pts, u), restriction_hom(m, pts, v)
        assert not ru.is_zero() and not rv.is_zero()

        def combination(a, b):
            moduli = ru.layer.moduli
            return tuple((a * x + b * y) % d for x, y, d in zip(ru.coords, rv.coords, moduli))

        assert restriction_hom(m, pts, u + v).coords == combination(1, 1)
        assert restriction_hom(m, pts, u - v).coords == combination(1, -1)
        assert restriction_hom(m, pts, u * 3).coords == combination(3, 0)

    def test_restriction_refuses_classes_off_the_complement(self):
        m = smooth_model()
        pts = self.nine_points(m)
        # e_1 has k . e_1 = 1: simple-root coordinates would hide that
        with pytest.raises(ValueError) as err:
            restriction_hom(m, pts, basis_vector(1, 9))
        assert not isinstance(err.value, DomainError)
        with pytest.raises(ValueError):
            restriction_hom(m, pts[:8], vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0))

    def test_halphen_index_frozen_verdicts(self):
        m = smooth_model()
        pts = self.nine_points(m)
        assert halphen_index_check(m, pts, 2) is True
        assert halphen_index_check(m, pts, 1) is False
        assert halphen_index_check(m, pts, 4) is False

    def test_halphen_index_validation(self):
        m = smooth_model()
        with pytest.raises(DomainError):
            halphen_index_check(m, self.nine_points(m)[:8], 2)
        with pytest.raises(ValueError):
            halphen_index_check(m, self.nine_points(m), 0)

    def test_torsion_exponent(self):
        m = smooth_model()
        assert torsion_set_check(m, self.nine_points(m)) == (True, 100)

    def test_image_order_on_elliptic(self):
        m = smooth_model()
        pts = self.nine_points(m)
        eps = restriction_hom(m, pts, -canonical_vector(9))
        assert image_order(eps) == 2

    def test_kernel_generators_refuse_non_positive_moduli(self):
        m = nodal_model()
        pts = [m.point_from_parameter(F(t)).point for t in range(2, 11)]
        assert torsion_set_check(m, pts) == (True, 100)
        for bad in (0, -100):
            with pytest.raises(DomainError):
                kernel_submodule_generators(m, pts, bad)

    def test_unnodal_by_kernel_on_elliptic_fixture(self):
        m = smooth_model()
        ok, witness, cert = unnodal_by_kernel(m, self.nine_points(m))
        assert ok and witness is None
        assert cert["certificate"] == "bounded-search"
        assert cert["modulus"] == 100 and cert["complete"] is False


class TestHarbourne:
    K = ExtensionField(5, 12)

    def params(self):
        x = self.K.element((0, 1) + (0,) * 10)
        return [x ** i for i in range(10)]

    def test_generic_parameters_pass(self):
        m = cusp_model(self.K)
        pts = [m.point_from_parameter(t).point for t in self.params()]
        ok, desc = harbourne_check(m, pts)
        assert ok
        assert desc["rank"] == 10
        assert desc["kernel"] == "5 * (canonical complement)"

    def test_generic_parameters_unnodal_complete(self):
        m = cusp_model(self.K)
        pts = [m.point_from_parameter(t).point for t in self.params()]
        ok, witness, cert = unnodal_by_kernel(m, pts)
        assert ok and witness is None
        assert cert == {"certificate": "kernel-trivial", "modulus": 5, "complete": True}

    def test_duplicate_parameter_flips_with_witness(self):
        m = cusp_model(self.K)
        ts = self.params()
        ts[1] = ts[0]
        pts = [m.point_from_parameter(t).point for t in ts]
        ok, desc = harbourne_check(m, pts)
        assert not ok
        assert desc["rank"] < 10
        assert desc["kernel_generators_mod_p"]
        ok2, witness, cert = unnodal_by_kernel(m, pts)
        assert not ok2
        assert witness == vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0)
        assert cert["certificate"] == "catalog-root"

    def test_kernel_generators_modulus_guard(self):
        m = cusp_model(self.K)
        pts = [m.point_from_parameter(t).point for t in self.params()]
        with pytest.raises(DomainError):
            kernel_submodule_generators(m, pts, 3)

    def test_mod_2_exclusion_on_the_cusp_in_characteristic_two(self):
        # y^2 z = x^3 over GF(2^8) with nine parameters whose kernel has
        # residues mod 2 but no catalog root
        K = ExtensionField(2, 8)
        m = cusp_model(K)
        params = ("00101111 00110011 00111000 10000101 10011001 10101001 11000111 "
                  "11101010 11111010").split()
        pts = [m.point_from_parameter(K.element([int(c) for c in t])).point for t in params]
        assert unnodal_by_kernel(m, pts) == (
            True, None, {"certificate": "mod-2-exclusion", "modulus": 2, "complete": True}
        )
        # a root r has q(r) = r.r/2 = -1, odd; q = x.G.x/2 is even on the
        # whole F_2-span of the kernel residues, so no root restricts to zero
        g = gram_matrix(simple_roots(9))
        gens = kernel_submodule_generators(m, pts, 2)
        span = {
            tuple(sum(c * v[i] for c, v in zip(cs, gens)) % 2 for i in range(9))
            for cs in itertools.product((0, 1), repeat=len(gens))
        }
        assert len(span) > 1
        for x in span:
            assert sum(x[i] * g[i][j] * x[j] for i in range(9) for j in range(9)) % 4 == 0

    def test_needs_cuspidal_finite(self):
        with pytest.raises(DomainError):
            harbourne_check(smooth_model(), [])
        Q = RationalField()
        mc = classify_cubic(Poly3.from_coeff_map(Q, CUSPIDAL))
        with pytest.raises(DomainError):
            harbourne_check(mc, [])

    def test_generator_images_shape(self):
        m = cusp_model(self.K)
        pts = [m.point_from_parameter(t).point for t in self.params()]
        layer = restriction_layer(m, pts)
        assert layer.group == "additive" and layer.moduli == (5,) * 12
        assert [len(col) for col in layer.columns] == [10] * 12
        assert [len(col) for col in layer.folded] == [11] * 12


class TestRationalCuspidal:
    def test_infinite_order_over_q(self):
        Q = RationalField()
        m = classify_cubic(Poly3.from_coeff_map(Q, CUSPIDAL))
        pts = [m.point_from_parameter(Q.from_int(i)).point for i in range(1, 10)]
        torsion, exponent = torsion_set_check(m, pts)
        assert not torsion and exponent is None


def _affine_points(f, field, count):
    pts = [
        ProjectivePoint(field, (x, y, 1))
        for x in range(field.p)
        for y in range(field.p)
        if not f.evaluate((field(x), field(y), field(1)))
    ]
    return pts[:count]


@lru_cache(maxsize=None)
def layer_fixture(name):
    """(model, marked points) for the differential tests of the layer."""
    if name == "smooth-F101":
        m = smooth_model()
        return m, TestRestriction().nine_points(m)
    if name in ("elliptic-F7", "relaxed-F7"):
        f = Poly3.from_coeff_map(F7, ELLIPTIC_F7 if name == "elliptic-F7" else RELAXED_F7)
        m = classify_cubic(f)
        assert m.relaxed_origin == (name == "relaxed-F7")
        return m, _affine_points(f, F7, 9)
    if name == "nodal-F101":
        m = nodal_model()
        return m, [m.point_from_parameter(F(t)).point for t in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    if name == "cusp-F101":
        m = cusp_model()
        return m, [m.point_from_parameter(F(t)).point for t in (1, 4, 9, 16, 25, 36, 49, 64, 81, 100)]
    K = ExtensionField(5, 4)
    m = cusp_model(K)
    params = [K.element((i % 5, i // 5 % 5, i * i % 5, 1)) for i in range(10)]
    return m, [m.point_from_parameter(t).point for t in params]


LAYER_FIXTURES = (
    "smooth-F101", "elliptic-F7", "relaxed-F7", "nodal-F101", "cusp-F101", "cusp-GF625"
)


def _from_root_coords(xs):
    """The class sum x_i alpha_i of k^perp."""
    cls = LatticeVector((0,) * (len(xs) + 1))
    for x, a in zip(xs, simple_roots(len(xs))):
        cls = cls + a * x
    return cls


def _direct(model, pts, cls):
    """d L - sum m_i P_i straight through the group law."""
    line = model.smooth_point(model.third_intersection(model.origin, model.origin))
    acc = model.scalar(cls.degree, line)
    for mult, p in zip(cls.multiplicities, pts):
        acc = model.add(acc, model.scalar(-mult, model.smooth_point(p)))
    return acc


def _order_by_addition(model, pt):
    acc, k = pt, 1
    while acc != model.zero():
        acc, k = model.add(acc, pt), k + 1
    return k


root_coords = st.lists(st.integers(-3, 3), min_size=10, max_size=10)


class TestRestrictionLayer:
    """Group coordinates against the group law itself."""

    @pytest.mark.parametrize("name", LAYER_FIXTURES)
    @settings(max_examples=25, deadline=None)
    @given(xs=root_coords, scale=st.integers(1, 4))
    def test_is_zero_matches_the_group_law(self, name, xs, scale):
        m, pts = layer_fixture(name)
        cls = _from_root_coords(xs[: len(pts)])
        direct = _direct(m, pts, cls)
        layer = restriction_layer(m, pts)
        killed = direct == m.zero()
        assert restriction_hom(m, pts, cls).is_zero() == killed
        assert layer.restricts_to_zero(cls.coords) == killed
        # a multiple that kills the image
        k = _order_by_addition(m, direct) * scale
        assert restriction_hom(m, pts, cls * k).is_zero()
        assert layer.restricts_to_zero((cls * k).coords)

    @pytest.mark.parametrize("name", LAYER_FIXTURES)
    @settings(max_examples=25, deadline=None)
    @given(xs=root_coords)
    def test_image_order_matches_repeated_addition(self, name, xs):
        m, pts = layer_fixture(name)
        cls = _from_root_coords(xs[: len(pts)])
        expected = _order_by_addition(m, _direct(m, pts, cls))
        assert image_order(restriction_hom(m, pts, cls)) == expected

    @pytest.mark.parametrize("name", ("smooth-F101", "elliptic-F7", "relaxed-F7", "nodal-F101"))
    def test_kernel_generators_restrict_to_zero(self, name):
        m, pts = layer_fixture(name)
        torsion, exponent = torsion_set_check(m, pts)
        assert torsion
        gens = kernel_submodule_generators(m, pts, exponent)
        assert gens
        for g in gens:
            assert _direct(m, pts, _from_root_coords(g)) == m.zero()

    def test_non_torsion_images_have_no_coordinates(self):
        Q = RationalField()
        m = classify_cubic(Poly3.from_coeff_map(Q, CUSPIDAL))
        pts = [m.point_from_parameter(Q.from_int(i)).point for i in range(1, 10)]
        with pytest.raises(DomainError):
            restriction_hom(m, pts, vector(0, 1, -1, 0, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# the Taylor-form law and the basis-coordinate layer against the old geometry


def _restrict_to_line(f, p, q):
    """Reference: the coefficients [s^3, s^2 u, s u^2, u^3] of F(s p + u q),
    each term of F expanded as a binary form."""
    field = f.field
    coeffs = [field.zero()] * 4
    for key in f.terms:
        v = f.coefficient(key)
        term = {0: field.one()}  # exponent of s -> coefficient
        for i in range(3):
            for _ in range(key[i]):
                new = {}
                for e, c in term.items():
                    new[e + 1] = new.get(e + 1, field.zero()) + c * p.coords[i]
                    new[e] = new.get(e, field.zero()) + c * q.coords[i]
                term = new
        for e, c in term.items():
            coeffs[3 - e] = coeffs[3 - e] + v * c
    return coeffs


def _reference_third(model, a, b):
    """The residual intersection read off the restriction to the line."""
    field = model.field
    if a == b:
        grad = [model.poly.partial(i).evaluate(a.coords) for i in range(3)]
        units = [[field(int(i == j)) for j in range(3)] for i in range(3)]
        crossings = [
            [grad[1] * e[2] - grad[2] * e[1], grad[2] * e[0] - grad[0] * e[2],
             grad[0] * e[1] - grad[1] * e[0]]
            for e in units
        ]
        others = [ProjectivePoint(field, c) for c in crossings if any(c)]
        others = [q for q in others if q != a]
        if not others:  # a singular point has no tangent line
            raise DomainError("no tangent line")
        q = others[0]
        c = _restrict_to_line(model.poly, a, q)
        if c[0] or c[1]:
            raise DomainError("not a smooth curve point")
        s, u = -c[3], c[2]
    else:
        q = b
        c = _restrict_to_line(model.poly, a, b)
        if c[0] or c[3]:
            raise DomainError("chord endpoint off the curve")
        s, u = -c[2], c[1]
    if not s and not u:
        raise ReducibleCurveError("a line lies on the cubic")
    return ProjectivePoint(field, [s * x + u * y for x, y in zip(a.coords, q.coords)])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, ReducibleCurveError) as err:
        return type(err)


def _random_point(field, rng):
    while True:
        c = [field.random_element(rng) for _ in range(3)]
        if any(c):
            return ProjectivePoint(field, c)


def _cubic_through(field, pts, rng):
    """A random nonzero cubic through the given points."""
    monos = monomial_exponents(3)
    rows = [[(p[0] ** a * p[1] ** b * p[2] ** c).raw for a, b, c in monos] for p in pts]
    ker = kernel_basis(rows, field)
    while True:
        coeffs = [field.zero()] * len(monos)
        for v in ker:
            r = field.random_element(rng)
            coeffs = [c + r * FieldElement(field, x) for c, x in zip(coeffs, v)]
        f = Poly3(field, dict(zip(monos, coeffs)))
        if not f.is_zero():
            return f


TAYLOR_FIELDS = (
    PrimeField(2), PrimeField(3), ExtensionField(2, 3), ExtensionField(3, 2),
    PrimeField(7), PrimeField(10007), RationalField(),
)


@pytest.mark.parametrize("field", TAYLOR_FIELDS, ids=repr)
def test_third_intersection_matches_line_restriction(field):
    rng = random.Random(f"taylor/{field}")
    outcomes = set()
    for trial in range(80):
        a = _random_point(field, rng)
        b = a if trial % 3 == 0 else _random_point(field, rng)
        model = CubicCurveModel(_cubic_through(field, [a, b], rng), "smooth", a)
        got = _outcome(model.third_intersection, a, b)
        assert got == _outcome(_reference_third, model, a, b), (model.poly, a, b)
        outcomes.add(got if isinstance(got, type) else "chord" if a != b else "tangent")
        if not isinstance(got, type):
            assert model.contains(got)
    # off-curve endpoints are refused, and both kinds of line were computed
    c = _random_point(field, rng)
    model = CubicCurveModel(_cubic_through(field, [a], rng), "smooth", a)
    if model.poly.evaluate(c.coords):
        assert _outcome(model.third_intersection, a, c) is DomainError
        assert _outcome(model.third_intersection, c, c) is DomainError
    assert {"chord", "tangent"} <= outcomes


def test_off_curve_and_singular_points_raise():
    for m in (nodal_model(), cusp_model()):
        s, off = m.singular_point, ProjectivePoint(F, (1, 2, 1))
        on = m.point_from_parameter(F(3)).point
        assert m.poly.evaluate(off.coords)
        for a, b in ((off, on), (on, off), (off, off), (s, s)):
            with pytest.raises(DomainError):
                m.third_intersection(a, b)
        for p in (off, s):
            with pytest.raises(DomainError):
                m.smooth_point(p)
            with pytest.raises(DomainError):
                restriction_layer(m, [p] + [on] * 8)
    m = smooth_model()
    with pytest.raises(DomainError):
        m.third_intersection(ProjectivePoint(F, (1, 1, 1)), m.origin)


def _frame(field, rng):
    """A random invertible 3x3 matrix of raws (small integers over Q)."""
    while True:
        m = tuple(
            tuple(
                field.random_element(rng).raw if field.char else field.from_int(rng.randint(-3, 3)).raw
                for _ in range(3)
            )
            for _ in range(3)
        )
        if dot(m[0], cross(m[1], m[2], field), field) != field._zero:  # det over the field
            return m


def _moved(field, coeffs, rng):
    """The canonical form composed with a random invertible frame."""
    return Poly3.from_coeff_map(field, coeffs).compose_linear(_frame(field, rng))


def _unit_logs(p):
    """Discrete logs mod p to the least primitive root."""
    for g in range(2, p):
        logs, x = {}, 1
        for k in range(p - 1):
            logs.setdefault(x, k)
            x = x * g % p
        if len(logs) == p - 1:
            return logs


@pytest.mark.parametrize(
    "kind, field",
    [("cuspidal", PrimeField(5))]
    + [("cuspidal", ExtensionField(5, e)) for e in (2, 3, 4)]
    + [("nodal", PrimeField(p)) for p in (7, 13, 31, 101)],
    ids=repr,
)
def test_layer_rows_match_the_group_law(kind, field):
    """Columns from the basis coordinates equal the coordinates of the
    simple-root images summed with the group law."""
    rng = random.Random(f"layer/{kind}/{field}")
    for n in (9, 10, 11):
        model = classify_cubic(_moved(field, CUSPIDAL if kind == "cuspidal" else NODAL, rng))
        assert model.kind == kind
        params = []
        while len(params) < n:
            t = field.random_element(rng)
            if t or kind == "cuspidal":
                params.append(t)
        pts = tuple(model.point_from_parameter(t).point for t in params)
        line = model.smooth_point(model.third_intersection(model.origin, model.origin))
        basis = [line] + [model.smooth_point(p) for p in pts]
        images = [_group_sum(model, zip(a.coords, basis)) for a in simple_roots(n)]
        if kind == "cuspidal":
            raws = [img.param.raw for img in images]
            rows = [r if isinstance(r, tuple) else (r,) for r in raws]
            moduli = (5,) * len(rows[0])
        else:
            logs = _unit_logs(field.p)
            rows = [(logs[img.param.raw],) for img in images]
            moduli = (field.p - 1,)
        layer = RestrictionLayer(model, pts)
        assert (layer.moduli, layer.columns) == (moduli, list(zip(*rows)))


# ---------------------------------------------------------------------------
# the census's elimination against sympy


@pytest.mark.parametrize("p", (5, 7, 101))
def test_resultant_in_y_matches_sympy(p):
    """Charts of random forms of degree <= 3, some constant in y on either
    side, though the census itself passes only pairs that both involve y."""
    x, y = sympy.symbols("x y")
    field, rng = PrimeField(p), random.Random(f"resultant/{p}")

    def random_chart(top):
        while True:
            d = rng.randint(1, 3)
            terms = {k: rng.randrange(p) for k in monomial_exponents(d) if k[1] <= top}
            chart = _poly3_chart(Poly3.from_raw(field, terms))
            if len(chart) == top + 1:
                return chart

    def as_sympy(chart):
        return sum(c * x**i * y**j for j, cy in enumerate(chart) for i, c in enumerate(cy))

    pairs = [(0, 1), (2, 0), (0, 3)] + [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(12)]
    for ya, yb in pairs:
        a, b = random_chart(ya), random_chart(yb)
        expected = sympy.resultant(as_sympy(a), as_sympy(b), y)
        if ya < yb:  # sympy takes the pair in descending y-degree
            expected *= (-1) ** (ya * yb)
        expected = sympy.Poly(expected, x, modulus=p).all_coeffs()
        assert (_resultant_y(a, b, field) or [0]) == [c % p for c in reversed(expected)], (a, b)


def _cofactor_det(rows, field):
    """Determinant of a square matrix over K[x] by cofactors along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    det = []
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = polys.mul(field, entry, _cofactor_det(minor, field))
            det = (polys.add if j % 2 == 0 else polys.sub)(field, det, term)
    return det


def _sylvester_resultant_y(ca, cb, field):
    """The oracle: the (m + n) x (m + n) Sylvester determinant of two charts
    of y-degrees m and n, n rows of ca's coefficients then m of cb's."""
    m, n = len(ca) - 1, len(cb) - 1
    size = m + n
    rows = [[[]] * i + ca[::-1] + [[]] * (size - i - m - 1) for i in range(n)]
    rows += [[[]] * i + cb[::-1] + [[]] * (size - i - n - 1) for i in range(m)]
    return _cofactor_det(rows, field)


@pytest.mark.parametrize("p, e", ((3, 2), (5, 2), (5, 3)))
def test_resultant_in_y_matches_sylvester_over_extension_fields(p, e):
    """Every y-degree pair in (0..3)^2 but (0, 0), in both orders, sign
    included; half the charts lead with a nonconstant polynomial in x, so
    the division by lc^(m-n) has extension-field coefficients to divide."""
    field, rng = ExtensionField(p, e), random.Random(f"resultant/{p}^{e}")
    raws = list(field._raws())

    def coefficient(degree):
        while True:
            c = polys.trim(field, [rng.choice(raws) for _ in range(degree + 1)])
            if len(c) == degree + 1:
                return c

    def chart(top, lead_degree):
        return [polys.trim(field, [rng.choice(raws) for _ in range(rng.randint(0, 4))])
                for _ in range(top)] + [coefficient(lead_degree)]

    nonconstant = 0
    for ya, yb in itertools.product(range(4), repeat=2):
        if ya == yb == 0:
            continue
        for trial in range(6):
            a = chart(ya, rng.randint(1, 3) if trial % 2 else 0)
            b = chart(yb, rng.randint(1, 3) if trial % 3 == 0 else 0)
            nonconstant += len(a[-1]) > 1 or len(b[-1]) > 1
            assert _resultant_y(a, b, field) == _sylvester_resultant_y(a, b, field), (a, b)
    assert nonconstant == 15 * 4


def _projective_raws(field):
    """Normalized raws of every point of P^2 over a finite field."""
    raws, one, zero = list(field._raws()), field._one, field._zero
    return (
        [(x, y, one) for x in raws for y in raws]
        + [(x, one, zero) for x in raws]
        + [(one, zero, zero)]
    )


@st.composite
def census_systems(draw, field):
    """[f, g]: two random forms of degree 1-3, some constant in y, or
    sharing a line factor, or a random cubic with a nonzero partial or with
    its Hessian."""

    def form(degree, no_y=False):
        keys = [k for k in monomial_exponents(degree) if not (no_y and k[1])]
        raws = st.lists(st.sampled_from(list(field._raws())), min_size=len(keys),
                        max_size=len(keys))
        nonzero = raws.filter(lambda rs: any(r != field._zero for r in rs))
        return Poly3.from_raw(field, dict(zip(keys, draw(nonzero))))

    shape = draw(st.sampled_from(["forms", "shared line", "gradient", "hessian"]))
    if shape == "forms":
        return [form(draw(st.integers(1, 3)), draw(st.booleans())) for _ in range(2)]
    if shape == "shared line":
        line = form(1, draw(st.booleans()))
        return [line * form(draw(st.integers(0, 2))) for _ in range(2)]
    f = form(3)
    if shape == "hessian" and field.char != 2:
        h = mat3_det([[f.partial(i).partial(j) for j in range(3)] for i in range(3)])
        if not h.is_zero():
            return [f, h]
    partials = [g for g in (f.partial(i) for i in range(3)) if not g.is_zero()]
    return [f, draw(st.sampled_from(partials))] if partials else [f, f]


def _coprime(f, g):
    """Do the forms have no common factor?  Forms A and B of degrees a and
    b share one exactly when U A = V B for forms U, V of degrees b - 1 and
    a - 1, not both zero: when the products of A with the monomials of
    degree b - 1 and of B with those of degree a - 1 are dependent."""
    field, a, b = f.field, f.degree(), g.degree()
    keys = monomial_exponents(a + b - 1)
    rows = [
        [(Poly3.monomial(field, k) * h).terms.get(key, field._zero) for key in keys]
        for h, d in ((f, b - 1), (g, a - 1))
        for k in monomial_exponents(d)
    ]
    return matrix_rank(rows, field) == len(rows)


@lru_cache(maxsize=None)
def _extension_scan(q, k):
    """GF(q^k) for the census field GF(q), on element indices: its addition
    and multiplication tables, the index of zero, the embedding of GF(q)'s
    raws (a GF(p^e) raw is evaluated at a root of GF(p^e)'s modulus in
    GF(p^ke)), and each monomial of degree 1 to 3 at every point of
    P^2(GF(q^k))."""
    field = _CENSUS_FIELDS[q]
    big = ExtensionField(field.char, k * getattr(field, "e", 1))
    elems = list(big._raws())
    index = {r: i for i, r in enumerate(elems)}
    add, mul = (np.array([[index[op(a, b)] for b in elems] for a in elems])
                for op in (big._add, big._mul))

    def lift(coeffs):
        return [big._from_int(c) for c in coeffs]

    if isinstance(field, PrimeField):
        embedded = {v: index[big._from_int(v)] for v in field._raws()}
    else:
        root = next(r for r in elems
                    if polys.evaluate(big, lift([*field.modulus, 1]), r) == big._zero)
        embedded = {v: index[polys.evaluate(big, lift(v), root)] for v in field._raws()}
    coords = np.array([[index[c] for c in pt] for pt in _projective_raws(big)]).T
    powers = [[np.full(coords.shape[1], index[big._one])] for _ in range(3)]
    for axis, column in zip(powers, coords):
        for _ in range(3):
            axis.append(mul[axis[-1], column])
    monomials = {
        (a, b, c): mul[mul[powers[0][a], powers[1][b]], powers[2][c]].astype(np.int32)
        for d in (1, 2, 3)
        for a, b, c in monomial_exponents(d)
    }
    return add, mul, index[big._zero], embedded, monomials


_CENSUS_FIELDS = {2: PrimeField(2), 3: PrimeField(3), 4: ExtensionField(2, 2),
                  5: PrimeField(5), 7: PrimeField(7), 9: ExtensionField(3, 2)}


@pytest.mark.parametrize("q", sorted(_CENSUS_FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_census_matches_brute_force(q, data):
    """Every point the census finds is a common zero of the two forms, and
    when the forms are coprime it finds all of P^2(F_q)'s."""
    field = _CENSUS_FIELDS[q]
    system = data.draw(census_systems(field))
    points = _common_rational_points(*system)
    zeros = [
        ProjectivePoint.from_raw(field, pt)
        for pt in _projective_raws(field)
        if all(g.evaluate_raw(pt) == field._zero for g in system)
    ]
    if _coprime(*system):
        assert points == sorted(zeros, key=_point_key)
    else:
        assert set(points) <= set(zeros) and points == sorted(points, key=_point_key)


# ---------------------------------------------------------------------------
# the decision by the singular scheme against evidence found without it


def _values_over(g, q, k):
    """The indices of g's values at every point of P^2(F_q^k)."""
    add, mul, zero, embedded, monomials = _extension_scan(q, k)
    value = zero
    for key, v in g.terms.items():
        value = add[value, mul[embedded[v], monomials[key]]]
    return value


def _singular_points_over(f, q, k):
    """How many points of P^2(F_q^k) are common zeros of f and its partials."""
    zero = _extension_scan(q, k)[2]
    common = True
    for g in [f] + [f.partial(i) for i in range(3)]:
        common &= _values_over(g, q, k) == zero
    return int(np.count_nonzero(common))


def _rational_line_on(f):
    """Does some rational line lie on the curve?  Over a finite field, one
    on which f vanishes at all its q^2 + 1 > 3 points over F_q^2; over Q,
    a linear factor that sympy finds."""
    field = f.field
    if field.char == 0:
        expr, xyz = _over_q(f)
        return any(sympy.Poly(g, *xyz).total_degree() == 1 for g, _ in sympy.factor_list(expr)[1])
    q = field.order
    zero = _extension_scan(q, 2)[2]
    on_curve = _values_over(f, q, 2) == zero
    for line in _projective_raws(field):
        form = Poly3.from_raw(field, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line)))
        if np.all(on_curve[_values_over(form, q, 2) == zero]):
            return True
    return False


def _over_q(f):
    """A form over Q as a sympy expression, and its variables."""
    xyz = sympy.symbols("x y z")
    return sum(c * math.prod(v**e for v, e in zip(xyz, k)) for k, c in f.terms.items()), xyz


def _smooth_over_q(f):
    """No common zero of f and its partials on any chart z = 1, y = 1, x = 1:
    their Groebner bases over Q are [1]."""
    expr, xyz = _over_q(f)
    grads = [expr] + [sympy.diff(expr, v) for v in xyz]
    return all(
        list(sympy.groebner([g.subs(v, 1) for g in grads], *[w for w in xyz if w != v]).exprs)
        == [1]
        for v in xyz
    )


def _random_form(field, rng, degree):
    """A nonzero form with random coefficients, in -3..3 over Q."""
    while True:
        coeffs = {
            k: field.random_element(rng) if field.char else field.from_int(rng.randint(-3, 3))
            for k in monomial_exponents(degree)
        }
        f = Poly3(field, coeffs)
        if not f.is_zero():
            return f


@pytest.mark.parametrize("field", [*_CENSUS_FIELDS.values(), RationalField()], ids=repr)
def test_decision_matches_the_singular_points(field):
    """classify_cubic decides from the degree of the singular scheme; every
    outcome is checked against evidence found without it, on random cubics,
    framed canonical cusps and nodes, a line times a conic and three lines
    (which meet pairwise).  A singular point is a common zero of f and its
    partials; a smooth cubic has none over F_q^2 (over Q, none at all); a
    reducible one has a rational line on it or two singular points over
    F_q^2 or F_q^3; a refused one has at most one over F_q^2 and no rational
    line.  Framed cusps in characteristics 2
    and 3 stay refused."""
    rng = random.Random(f"decision/{field}")
    seen = Counter()
    shapes = ("random", "cusp", "node", "line and conic", "triangle")
    for shape in shapes * (8 if field.char == 0 else 16):
        if shape == "random":
            f = _random_form(field, rng, 3)
        elif shape in ("cusp", "node"):
            f = _moved(field, CUSPIDAL if shape == "cusp" else NODAL, rng)
        elif shape == "line and conic":
            f = _random_form(field, rng, 1) * _random_form(field, rng, 2)
        else:
            a, b, c = (_random_form(field, rng, 1) for _ in range(3))
            f = a * b * c
        try:
            model = classify_cubic(f)
            outcome = model.kind
        except (ReducibleCurveError, UnsupportedCurveError) as err:
            outcome = type(err)
        seen[shape, outcome] += 1
        q = field.order if field.char else None
        if outcome == "smooth":
            assert _smooth_over_q(f) if q is None else _singular_points_over(f, q, 2) == 0, f
        elif outcome in ("nodal", "cuspidal"):
            s = model.singular_point.raw
            assert all(g.evaluate_raw(s) == field._zero for g in model._forms), f
        elif outcome is ReducibleCurveError:
            # three conjugate lines meet over F_q^3 only
            assert _rational_line_on(f) or q is not None and any(
                _singular_points_over(f, q, k) >= 2 for k in (2, 3)
            ), f
        else:
            assert not _rational_line_on(f), f
            assert q is None or _singular_points_over(f, q, 2) <= 1, f
        if shape == "cusp" and field.char in (2, 3):
            assert outcome is UnsupportedCurveError, f
    assert seen["triangle", ReducibleCurveError] and seen["line and conic", ReducibleCurveError]
    assert seen["random", "smooth"]
    if field.char not in (2, 3):
        assert seen["cusp", "cuspidal"] and seen["node", "nodal"]


# ---------------------------------------------------------------------------
# singular cubics: inflections and frames read off the parametrization


def _census_frame(f, sing, o):
    """from_canonical as the tangent-line construction builds it from the
    inflection o: the reference the parametrized frames must reproduce."""
    field = f.field
    zero, mul, add, sub, inv = field._zero, field._mul, field._add, field._sub, field._inv
    frame = frame_with_last_column(sing)
    g = f.compose_linear(frame)
    split = _binary_quadratic_split(
        field, *(g.terms.get(k, zero) for k in ((2, 0, 1), (1, 1, 1), (0, 2, 1)))
    )
    dirs = sorted(
        (
            ProjectivePoint.from_raw(field, mat3_apply(frame, _direction_point(field, line), field))
            for line in split[1:]
        ),
        key=_point_key,
    )
    to = [f.partial(i).evaluate_raw(o.raw) for i in range(3)]
    # where each tangent at the singular point meets the tangent at o
    meets = [normalized(field, cross(cross(sing.raw, d.raw, field), to, field)) for d in dirs]
    if split[0] == "double":
        (v1,) = meets
        h = f.compose_linear(mat3_from_columns([v1, o.raw, sing.raw]))
        t = sub(zero, mul(h.terms[3, 0, 0], inv(h.terms[0, 2, 1])))
        return mat3_from_columns([v1, o.raw, [mul(x, t) for x in sing.raw]])
    # columns c1 + c2 ~ v1, c1 - c2 ~ v2, c2 ~ o
    v1, v2 = meets
    minus2 = field.from_int(-2).raw
    rows = [[v1[i], sub(zero, v2[i]), mul(minus2, o.raw[i])] for i in range(3)]
    lam1, lam2, _ = kernel_basis(rows, field)[0]
    half = inv(field.from_int(2).raw)
    c1 = [mul(add(mul(lam1, a), mul(lam2, b)), half) for a, b in zip(v1, v2)]
    c2 = [mul(sub(mul(lam1, a), mul(lam2, b)), half) for a, b in zip(v1, v2)]
    h = f.compose_linear(mat3_from_columns([c1, c2, sing.raw]))
    mu = mul(h.terms[0, 2, 1], inv(h.terms[3, 0, 0]))
    cols = [[mul(x, sub(zero, mu)) for x in c1], [mul(x, mu) for x in c2], sing.raw]
    return mat3_from_columns(cols)


PARITY_FIELDS = (PrimeField(7), PrimeField(13), ExtensionField(5, 3), ExtensionField(7, 2), RationalField())


@pytest.mark.parametrize(
    "kind, field",
    [("cuspidal", k) for k in PARITY_FIELDS]
    + [("nodal", k) for k in PARITY_FIELDS + (ExtensionField(3, 2), PrimeField(3))],
    ids=repr,
)
def test_parametrized_models_match_the_inflection_census(kind, field):
    """The origin is the first inflection of the F-and-Hessian census, and
    the frame is the one built from it through the tangent lines."""
    rng = random.Random(f"parity/{kind}/{field}")
    for _ in range(4):
        f = _moved(field, CUSPIDAL if kind == "cuspidal" else NODAL, rng)
        model = classify_cubic(f)
        assert (model.kind, model.relaxed_origin) == (kind, False)
        flexes = [p for p in _rational_inflections(f) if p != model.singular_point]
        assert model.origin == flexes[0]
        assert model.from_canonical == _census_frame(f, model.singular_point, flexes[0])


def test_cusp_in_characteristic_three_is_refused():
    f3, rng = PrimeField(3), random.Random("cusp/3")
    for _ in range(4):
        f = _moved(f3, CUSPIDAL, rng)
        assert not _rational_inflections(f)
        with pytest.raises(UnsupportedCurveError):
            classify_cubic(f)


# x y z + x^3 + 2 y^3: the line of slope s = x/y through the node meets it
# again at P(s) = (s^2 : s : -s^3 - 2), and three such points are collinear
# iff their slopes multiply to kappa = -2, which is no cube mod 7 or mod 13:
# no inflection is rational
NO_FLEX = {"111": 1, "300": 1, "030": 2}


@pytest.mark.parametrize("field", (PrimeField(7), PrimeField(13)), ids=repr)
def test_split_node_without_rational_inflection(field):
    p, kappa = field.p, -2 % field.p
    rng = random.Random(f"no-flex/{field}")
    m = _frame(field, rng)
    f = Poly3.from_coeff_map(field, NO_FLEX).compose_linear(m)
    model = classify_cubic(f)
    assert (model.kind, model.relaxed_origin) == ("nodal", True)
    assert _rational_inflections(f) == [model.singular_point]
    back = mat3_inverse(m, field)

    def point(s):
        return ProjectivePoint.from_raw(field, mat3_apply(back, (s * s % p, s, -(s**3 + 2) % p), field))

    # three collinear points have parameter product kappa / s_origin^3
    a, b = model.smooth_point(point(3)), model.smooth_point(point(5))
    c = model.smooth_point(model.third_intersection(a.point, b.point))
    assert a.param * b.param * c.param == FieldElement(field, model.kappa)
    assert model.zero().param == field.one()
    assert model.chord_add(a, b) == model.add(a, b)

    # the oracle: the class d e_0 - sum m_i e_i restricts to kappa^d / prod s_i^m_i
    slopes = (rng.sample(range(1, p), p - 1) * 2)[:9]  # distinct when p > 9
    pts = [point(s) for s in slopes]

    def image(cls):
        d, *coords = cls.coords  # coords[i] = -m_i
        return pow(kappa, d, p) * math.prod(pow(s, c, p) for s, c in zip(slopes, coords)) % p

    def order(x):
        return next(k for k in range(1, p) if pow(x, k, p) == 1)

    assert torsion_set_check(model, pts) == (
        True, math.lcm(*(order(image(r)) for r in simple_roots(9)))
    )
    for index in range(1, p):
        assert halphen_index_check(model, pts, index) == (
            order(image(-canonical_vector(9))) == index
        )
    # the catalog search returns the first root of degree at most 4 that
    # restricts to zero
    killed = [r for r in enumerate_roots(9, 4) if image(r) == 1]
    verdict, witness, _ = unnodal_by_kernel(model, pts)
    assert (verdict, witness) == (not killed, killed[0] if killed else None)


# ---------------------------------------------------------------------------
# the census on small fields: charts constant in y, empty fibers, roots at
# infinity, and relaxed origins found off the affine chart

CENSUS_EDGES = [
    (2, "z**3", ReducibleCurveError),
    (2, "y*z**2 + z**3", ReducibleCurveError),
    (2, "y**2*z", ReducibleCurveError),
    (2, "x**2*y", ReducibleCurveError),
    (2, "z*(x**2 + x*y + y**2)", ReducibleCurveError),
    (3, "x**2*z + x*y**2 + z**3", ("smooth", (0, 1, 0), False)),
    (2, "x**2*z + x*z**2 + y**3 + y*z**2 + z**3", ("smooth", (1, 0, 0), True)),
    (2, "x**2*z + x*y**2 + x*y*z + x*z**2 + z**3", ("smooth", (0, 1, 0), True)),
]


@pytest.mark.parametrize("p, form, expected", CENSUS_EDGES, ids=[c[1] for c in CENSUS_EDGES])
def test_census_edges_against_sympy(p, form, expected):
    """Each expectation is checked independently, by brute force over
    P^2(F_p) and with sympy: a rational line on which the form vanishes
    for a reducible cubic; for a smooth one, Groebner bases
    over F_p of the form and its partials on the three charts, and its
    rational points in the census's scan order (the chart z = 1 by x then
    y, then the line z = 0)."""
    xyz = sympy.symbols("x y z")
    s, t = sympy.symbols("s t")
    expr = sympy.sympify(form, locals=dict(zip("xyz", xyz)))
    field = PrimeField(p)
    terms = sympy.Poly(expr, *xyz, modulus=p).terms()
    f = Poly3.from_coeff_map(field, {"".join(map(str, e)): int(c) for e, c in terms})
    scan = [(x, y, 1) for x in range(p) for y in range(p)]
    scan += [(u, 1, 0) for u in range(p)] + [(1, 0, 0)]

    def value(g, pt):
        return g.subs(dict(zip(xyz, pt))) % p

    grads = [expr] + [sympy.diff(expr, v) for v in xyz]
    if expected is ReducibleCurveError:
        # some rational line, through two of its points, lies on the curve
        def on_curve(line):
            a, b = [pt for pt in scan if sum(c * v for c, v in zip(line, pt)) % p == 0][:2]
            along = expr.subs({v: s * ai + t * bi for v, ai, bi in zip(xyz, a, b)})
            return sympy.Poly(along, s, t, modulus=p).is_zero

        assert any(on_curve(line) for line in scan)
    else:
        for v in xyz:
            rest = [w for w in xyz if w != v]
            basis = sympy.groebner([g.subs(v, 1) for g in grads], *rest, modulus=p)
            assert list(basis.exprs) == [1]  # no singular point on this chart
    if isinstance(expected, type):
        with pytest.raises(expected):
            classify_cubic(f)
        return
    kind, origin, relaxed = expected
    points = [pt for pt in scan if value(expr, pt) == 0]
    hessian = sympy.Matrix(3, 3, lambda i, j: sympy.diff(expr, xyz[i], xyz[j])).det()
    # the origin is the first rational flex, or without one the first point;
    # in characteristic 2 the Hessian finds no flexes and is not consulted
    flexes = [pt for pt in points if p != 2 and value(hessian, pt) == 0]
    assert origin == (flexes or points)[0] and relaxed == (not flexes)
    model = classify_cubic(f)
    assert (model.kind, model.origin, model.relaxed_origin) == (
        kind, ProjectivePoint(field, origin), relaxed
    )


# ---------------------------------------------------------------------------
# the plane layer computes on raws: FieldElement arithmetic is for callers

BOXED_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
)


@contextmanager
def _boxed_arithmetic_counts():
    """Count calls of each FieldElement arithmetic method while open."""
    counts = Counter()
    saved = {name: vars(FieldElement)[name] for name in BOXED_ARITHMETIC}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    try:
        for name, fn in saved.items():
            setattr(FieldElement, name, counting(name, fn))
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(FieldElement, name, fn)


def _curve_points(f, count):
    """The first count rational points of the form f, by brute force."""
    field, out = f.field, []
    for y, x in itertools.product(field.elements(), repeat=2):
        p = ProjectivePoint(field, (x, y, 1))
        if not f.evaluate(p.coords):
            out.append(p)
            if len(out) == count:
                return out
    raise AssertionError("too few rational points")


def test_no_boxed_arithmetic_below_the_api():
    rng = random.Random("raws")
    gf125, f31 = ExtensionField(5, 3), PrimeField(31)
    cusp = _moved(gf125, CUSPIDAL, rng)
    cusp_params = [gf125.random_element(rng) for _ in range(10)]
    node = _moved(f31, NODAL, rng)
    node_params = [f31(t) for t in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    smooth = _moved(F7, ELLIPTIC_F7, rng)
    smooth_pts = _curve_points(smooth, 9)
    cfg = configuration(F, [(rng.randrange(101), rng.randrange(101), 1) for _ in range(9)])
    m = ((1, 2, 0), (0, 1, 5), (3, 0, 1))  # raws of F
    moved = configuration(F, [mat3_apply(m, p.raw, F) for p in cfg.points])
    with _boxed_arithmetic_counts() as counts:
        F7(2) * F7(3)  # the hooks are live
        assert counts == {"__mul__": 1}
        counts.clear()
        model = classify_cubic(cusp)
        pts = [model.point_from_parameter(t).point for t in cusp_params]
        harbourne_check(model, pts)
        unnodal_by_kernel(model, pts)
        model = classify_cubic(node)
        pts = [model.point_from_parameter(t).point for t in node_params]
        unnodal_by_kernel(model, pts)
        halphen_index_check(model, pts, 2)
        model = classify_cubic(smooth)
        torsion_set_check(model, smooth_pts)
        unnodal_by_kernel(model, smooth_pts)
        is_unnodal_halphen(cfg, 2)
        cremona_quadratic(cfg, 1, 2, 3)
        assert projectively_equivalent(cfg, moved)[0]
    assert (model.kind, counts) == ("smooth", {})
    assert vars(FieldElement)["__mul__"] is FieldElement.__rmul__  # restored


# ---------------------------------------------------------------------------
# the Weierstrass law of flex models against the chord construction

WEIERSTRASS_FIELDS = (
    PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(10007),
    ExtensionField(5, 2), ExtensionField(3, 3),
)
# (exponents, coefficient of a_i) of y^2 z + a1 xyz + a3 yz^2 - x^3 - a2 x^2 z - a4 xz^2 - a6 z^3
_LONG_FORM = {"a1": ((1, 1, 1), 1), "a3": ((0, 1, 2), 1), "a2": ((2, 0, 1), -1),
              "a4": ((1, 0, 2), -1), "a6": ((0, 0, 3), -1)}


def _flex_case(field, rng):
    """(model, points): a random smooth long-Weierstrass cubic moved by a
    random frame, with an inflection origin, and up to eight of its points
    found from random x.  Where classification offers no inflection
    (characteristic 2) the model is built on the image of (0:1:0)."""
    while True:
        a = {k: field.random_element(rng) for k in _LONG_FORM}
        coeffs = {(0, 2, 1): 1, (3, 0, 0): -1}
        coeffs.update({key: a[k] * sign for k, (key, sign) in _LONG_FORM.items()})
        m = _frame(field, rng)
        moved = Poly3(field, coeffs).compose_linear(m)  # its points are m^-1 (x : y : z)
        try:
            model = classify_cubic(moved)
        except CurveError:
            continue
        if model.kind == "smooth":
            break
    m = mat3_inverse(m, field)

    def moved_point(x, y, z):
        return ProjectivePoint.from_raw(field, mat3_apply(m, (x, y, z), field))

    if model.relaxed_origin:
        model = CubicCurveModel(moved, "smooth", moved_point(field._zero, field._one, field._zero))
    pts = [model.zero()]
    for _ in range(8):
        x = field.random_element(rng)
        c1 = a["a1"] * x + a["a3"]
        c0 = -(x * x * x + a["a2"] * x * x + a["a4"] * x + a["a6"])
        for y in polys.roots_in_field(field, [c0.raw, c1.raw, field._one]):
            pts.append(model.smooth_point(moved_point(x.raw, y, field._one)))
    return model, pts


@pytest.mark.parametrize("field", WEIERSTRASS_FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), picks=st.lists(st.integers(0, 100), min_size=2, max_size=6))
def test_weierstrass_law_matches_chord_add(field, seed, picks):
    model, pts = _flex_case(field, random.Random(seed))
    frame = model.weierstrass
    assert frame is not None and model.zero().w is None
    z = model.zero()
    for i in picks:
        a = pts[i % len(pts)]
        b = pts[(i * 7 + 1) % len(pts)]
        for p, q in ((a, b), (a, a), (a, z), (z, a), (a, model.negate(a))):
            got = model.add(p, q)
            want = model.chord_add(p, q)
            assert got == want and got.point == want.point
            assert model.contains(got.point) and model.smooth_point(got.point) == got
        assert model.add(a, model.negate(a)) == z
        assert model.negate(model.negate(a)) == a
        assert model.scalar(3, a) == model.chord_add(a, model.chord_add(a, a))
        assert model.scalar(-2, a) == model.negate(model.chord_add(a, a))


@pytest.mark.parametrize("field", WEIERSTRASS_FIELDS, ids=repr)
def test_flex_models_frame_the_cubic_in_long_weierstrass_form(field):
    rng = random.Random(f"long-form/{field}")
    for _ in range(6):
        model, _ = _flex_case(field, rng)
        frame = model.weierstrass
        h = model.poly.compose_linear(frame.to_plane)
        c = h.coefficient((0, 2, 1))
        assert c
        allowed = {key for key, _ in _LONG_FORM.values()} | {(0, 2, 1), (3, 0, 0)}
        assert set(h.terms) <= allowed
        assert h.coefficient((3, 0, 0)) == -c
        for name, (key, sign) in _LONG_FORM.items():
            assert h.coefficient(key) == c * FieldElement(field, getattr(frame, name)) * sign
        one, zero = field._one, field._zero
        origin = mat3_apply(frame.to_plane, (zero, one, zero), field)
        assert ProjectivePoint.from_raw(field, origin) == model.origin
        ident = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
        assert mat3_mul(frame.from_plane, frame.to_plane, field) == ident


def test_relaxed_origin_keeps_the_generic_law(monkeypatch):
    assert layer_fixture("elliptic-F7")[0].weierstrass is not None
    m, pts = layer_fixture("relaxed-F7")
    assert m.relaxed_origin and m.weierstrass is None
    a, b = m.smooth_point(pts[0]), m.smooth_point(pts[1])
    assert m.add(a, b).frame is None and m.add(a, b) == m.chord_add(a, b)
    # the tangent at the origin is computed once per model, not per negation
    expected = [m.negate(m.smooth_point(p)) for p in pts]
    fresh = classify_cubic(m.poly)
    third, calls = CubicCurveModel._third, []

    def counting_third(self, u, v):
        calls.append(u == v == self.origin.raw)
        return third(self, u, v)

    monkeypatch.setattr(CubicCurveModel, "_third", counting_third)
    assert [fresh.negate(fresh.smooth_point(p)) for p in pts] == expected
    assert sum(calls) == 1


def test_flex_models_never_run_the_chord_construction(monkeypatch):
    m, pts = layer_fixture("smooth-F101")
    fresh = classify_cubic(m.poly)

    def refuse(self, u, v):
        raise AssertionError("the chord construction ran on a flex model")

    monkeypatch.setattr(CubicCurveModel, "_third", refuse)
    layer, expected = restriction_layer(fresh, pts), restriction_layer(m, pts)
    assert (layer.moduli, layer.columns) == (expected.moduli, expected.columns)
    unnodal_by_kernel(fresh, pts)
    g = fresh.smooth_point(pts[0])
    assert fresh.scalar(-7, g) == fresh.negate(fresh.scalar(7, g))
