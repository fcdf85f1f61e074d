"""Plane cubics: classification, canonical models, the group laws, and
lattice-class restriction to the curve.

The classification reads the singular scheme of f, cut out by f and its
partials, from d, the dimension of its degree-4 part: the kernel of the
matrix of the degree-4 multiples of f, f_x, f_y and f_z.  d is 0 for a
smooth cubic, 1 for a node, whose kernel vector is evaluation there, and 2
for a cusp, on the line both kernel vectors cut out, or for two singular
points on a line component.  Otherwise the cubic is reducible or a cusp in
characteristic 2 or 3, and the singular point is sought among the rational
common zeros of f and a nonzero partial, coprime when f is irreducible.
That census eliminates y by resultants, each the determinant of a Bezout
matrix over K[x] of the larger y-degree (at most 3), and also finds the
inflections of a smooth cubic on its Hessian.  Non-split nodes, which
would need an extension field, raise explicit errors instead of being
guessed at, as do tangent lines hiding curve components.

A singular cubic is parametrized by the lines through its singular point,
and its inflections come from that parametrization, not from a search:
three points are collinear iff their slopes sum to a constant tau (cusp) or
multiply to a constant kappa (split node), both read off the cubic part of
the equation.  A cusp has its one inflection at slope tau/3; the
inflections of a split node are the rational cube roots of kappa, and when
there is none the origin is relaxed to another smooth rational point.  Only
smooth cubics look for inflections, on the intersection with the Hessian.

Canonical models and parameters:

* cuspidal: y^2 z = x^3, cusp (0:0:1), inflection origin (0:1:0),
  parameter t = x/y, three points collinear iff the parameters sum to 0
  (characteristic 3 only in this canonical form);
* split nodal: y^2 z = x^3 + x^2 z, node (0:0:1), inflection origin
  (0:1:0), parameter t = (y+x)/(y-x) in K^*, collinear iff the product is 1.
  With a relaxed origin (relaxed_origin=True) the canonical curve is
  8 (y^2 z - x^3 - x^2 z) = (1 - kappa) (y - x)^3, the origin has t = 1 and
  three points are collinear iff the product is the model's kappa;
* smooth with a rational inflection origin: the Weierstrass frame sends the
  origin to (0:1:0) and its tangent to z = 0, where the curve reads
  y^2 z + a1 xyz + a3 yz^2 = x^3 + a2 x^2 z + a4 xz^2 + a6 z^3 in every
  characteristic, and points add by the long-Weierstrass formulas on their
  affine coordinates, one field inversion per operation;
* smooth without one: the chord-tangent law through the jet of f, with the
  first rational point of a deterministic scan as origin
  (relaxed_origin=True).

With a relaxed origin the line class is represented by the third
intersection of the tangent at the origin, which keeps the restriction map
a homomorphism for any origin.  `chord_add` runs the chord construction on
every model, as the oracle of the other laws.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import polys
from .errors import (
    BudgetError,
    CurveError,
    DomainError,
    ReducibleCurveError,
    UnsupportedCurveError,
)
from .fields import Field, FieldElement, PrimeField
from .lattice import LatticeVector, canonical_vector, root_basis_left_inverse, simple_roots
from .polys import Poly, roots_in_field
from .projgeom import (
    Mat3,
    Poly3,
    ProjectivePoint,
    cross,
    dot,
    frame_with_last_column,
    kernel_basis,
    mat3_apply,
    mat3_det,
    mat3_from_columns,
    mat3_inverse,
    matrix_rank,
    monomial_exponents,
    normalized,
    power_table,
)
from .smith import factor, integer_kernel, smith_normal_form

_SCAN_LIMIT = 4096
_SUBGROUP_CAP = 10_000
_CATALOG_BOUND = 4


class SmoothPoint:
    """A point on the smooth locus, with its parameter when the curve is
    singular (parameters live in K for cusps, K^* for split nodes).  The
    parameter is kept as a raw, t; `param` boxes it.  On a smooth cubic
    with a Weierstrass frame the point is its affine Weierstrass
    coordinates w, raws, or None at the origin; the plane point is mapped
    back through the frame only when `point` is read."""

    __slots__ = ("_point", "t", "w", "frame")

    def __init__(self, point: ProjectivePoint | None, t=None, w=None, frame=None):
        self._point = point
        self.t = t
        self.w = w
        self.frame = frame

    @property
    def point(self) -> ProjectivePoint:
        if self._point is None:
            self._point = self.frame.plane(self.w)
        return self._point

    @property
    def key(self):
        """The point's own coordinates: w on a framed model, else the plane
        point."""
        return self.point if self.frame is None else self.w

    @property
    def param(self) -> FieldElement | None:
        return None if self.t is None else FieldElement(self.point.field, self.t)

    def __eq__(self, other):
        if isinstance(other, SmoothPoint):
            if self.frame is not None and self.frame is other.frame:
                return self.w == other.w
            return self.point == other.point
        if isinstance(other, ProjectivePoint):
            return self.point == other
        return NotImplemented

    def __hash__(self):
        return hash(self.point)

    def __repr__(self):
        return f"SmoothPoint({self.point})"


class WeierstrassFrame:
    """The frame of a smooth cubic f whose origin O is an inflection.

    to_plane, a 3x3 matrix of raws, sends (0:1:0) to O and z = 0 to the
    tangent at O, and f(to_plane (x, y, z)) is a nonzero multiple of
    y^2 z + a1 xyz + a3 yz^2 - x^3 - a2 x^2 z - a4 xz^2 - a6 z^3, in every
    characteristic; from_plane is its inverse.  In a frame whose first column
    lies on the tangent and whose second is O, f reads alpha x^3 + z q(x, y, z)
    since the tangent meets the curve only at O, and q has the term beta y^2,
    beta != 0, since O is smooth.  Scaling x by -alpha beta and y by
    alpha^2 beta makes the x^3 and y^2 z coefficients -c and c, c = alpha^4
    beta^3.  Points are their affine coordinates w = (x, y), raws, with None
    for the point at infinity, the origin; the group law is the long
    Weierstrass chord-tangent law, one field inversion per operation."""

    def __init__(self, f: Poly3, origin: ProjectivePoint):
        field = self.field = f.field
        zero, one, mul, inv, pw = field._zero, field._one, field._mul, field._inv, field._pow
        o = self.origin = origin
        tangent = [f.partial(i).evaluate_raw(o.raw) for i in range(3)]
        if f.evaluate_raw(o.raw) != zero or all(t == zero for t in tangent):
            raise DomainError("the origin must be a smooth point of the curve")
        units = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
        off = next(e for e, t in zip(units, tangent) if t != zero)
        on = _second_point_on_line(field, tangent, o.raw)
        g = f.compose_linear(mat3_from_columns([on, o.raw, off])).terms
        if any(k[2] == 0 and k != (3, 0, 0) for k in g):
            raise DomainError("the origin is not an inflection of the curve")
        if (3, 0, 0) not in g:
            raise ReducibleCurveError("the inflectional tangent lies on the cubic")
        alpha, beta = g[3, 0, 0], g[0, 2, 1]
        lam, mu = field._sub(zero, mul(alpha, beta)), mul(mul(alpha, alpha), beta)
        scale = inv(mul(pw(alpha, 4), pw(beta, 3)))

        def coefficient(key, sign):
            a, b, _ = key
            v = mul(mul(g.get(key, zero), mul(pw(lam, a), pw(mu, b))), scale)
            return v if sign > 0 else field._sub(zero, v)

        self.a1, self.a3 = coefficient((1, 1, 1), 1), coefficient((0, 1, 2), 1)
        self.a2, self.a4, self.a6 = (coefficient(k, -1) for k in ((2, 0, 1), (1, 0, 2), (0, 0, 3)))
        cols = [[mul(lam, x) for x in on], [mul(mu, x) for x in o.raw], off]
        self.to_plane = mat3_from_columns(cols)
        self.from_plane = mat3_inverse(self.to_plane, field)
        self._three, self._two_a2 = field._from_int(3), field._add(self.a2, self.a2)

    def lift(self, xs):
        """w for the curve point with raw plane coordinates xs."""
        field = self.field
        x, y, z = mat3_apply(self.from_plane, xs, field)
        if z == field._zero:  # the curve meets z = 0 only at the origin
            return None
        zi = field._inv(z)
        return field._mul(x, zi), field._mul(y, zi)

    def plane(self, w) -> ProjectivePoint:
        if w is None:
            return self.origin
        xs = (*w, self.field._one)
        return ProjectivePoint.from_raw(self.field, mat3_apply(self.to_plane, xs, self.field))

    def coordinates(self, p: SmoothPoint):
        """w for a smooth point, read off when it is already in this frame."""
        return p.w if p.frame is self else self.lift(p.point.raw)

    def negate(self, w):
        if w is None:
            return None
        field = self.field
        x, y = w
        sub = field._sub
        return x, sub(sub(field._zero, y), field._add(field._mul(self.a1, x), self.a3))

    def add(self, p, q):
        if p is None:
            return q
        if q is None:
            return p
        field = self.field
        add, sub, mul = field._add, field._sub, field._mul
        a1, a3 = self.a1, self.a3
        (x1, y1), (x2, y2) = p, q
        if x1 == x2:
            # q is p or -p; den = y1 + y2 + a1 x + a3 vanishes iff q = -p,
            # and is the tangent's denominator 2 y + a1 x + a3 when q = p
            den = add(add(y1, y2), add(mul(a1, x1), a3))
            if den == field._zero:
                return None
            num = sub(add(mul(add(mul(self._three, x1), self._two_a2), x1), self.a4), mul(a1, y1))
        else:
            num, den = sub(y2, y1), sub(x2, x1)
        lam = mul(num, field._inv(den))
        x3 = sub(sub(sub(mul(add(lam, a1), lam), self.a2), x1), x2)
        return x3, sub(sub(mul(lam, sub(x1, x3)), y1), add(mul(a1, x3), a3))


class CubicCurveModel:
    """A classified cubic.  kind is one of smooth, nodal, cuspidal; the
    smooth locus carries an elliptic, multiplicative or additive group law
    respectively.  On the singular kinds from_canonical maps the canonical
    model onto the curve and to_canonical back, as 3x3 matrices of raws.
    On a nodal curve kappa is the raw product of the parameters of three
    collinear points: 1 when the origin is an inflection."""

    def __init__(
        self,
        poly: Poly3,
        kind: str,
        origin: ProjectivePoint,
        singular_point: ProjectivePoint | None = None,
        from_canonical: Mat3 | None = None,
        relaxed_origin: bool = False,
        kappa=None,
    ):
        self.field = poly.field
        self.poly = poly
        self.kind = kind
        self.origin = origin
        self.singular_point = singular_point
        self.from_canonical = from_canonical
        self.to_canonical = (
            None if from_canonical is None else mat3_inverse(from_canonical, self.field)
        )
        self.relaxed_origin = relaxed_origin
        self.kappa = self.field._one if kappa is None else kappa
        self._forms = [poly] + [poly.partial(i) for i in range(3)]
        self._layers: dict[tuple, RestrictionLayer] = {}  # see restriction_layer

    @property
    def group(self) -> str:
        return {"smooth": "elliptic", "nodal": "multiplicative", "cuspidal": "additive"}[
            self.kind
        ]

    def _jet(self, xs) -> list:
        """[F, F_x, F_y, F_z] at the raw coordinates xs, from one power table."""
        powers = power_table(self.field, xs, 3)
        return [g.evaluate_table(powers) for g in self._forms]

    # -- point predicates ----------------------------------------------------

    def contains(self, p: ProjectivePoint) -> bool:
        return self.poly.evaluate_raw(p.raw) == self.field._zero

    def smooth_point(self, p) -> SmoothPoint:
        if isinstance(p, SmoothPoint):
            if p.frame is self.weierstrass:
                return p
            p = p.point
        zero = self.field._zero
        value, *grad = self._jet(p.raw)
        if value != zero:
            raise DomainError(f"{p} is not on the curve")
        if all(g == zero for g in grad):
            raise DomainError(f"{p} is a singular point of the curve")
        if self.kind != "smooth":
            return SmoothPoint(p, self._parameter(p.raw))
        frame = self.weierstrass
        if frame is None:
            return SmoothPoint(p)
        return SmoothPoint(p, w=frame.lift(p.raw), frame=frame)

    # -- parameters on singular curves ----------------------------------------

    def parameter(self, p: ProjectivePoint) -> FieldElement:
        if self.kind == "smooth":
            raise DomainError("smooth cubics are not rational: no parameter")
        return FieldElement(self.field, self._parameter(p.raw))

    def _parameter(self, xs):
        """The raw parameter of the point with raw coordinates xs."""
        field = self.field
        zero, mul, inv = field._zero, field._mul, field._inv
        x, y, _ = mat3_apply(self.to_canonical, xs, field)
        if self.kind == "cuspidal":
            if y == zero:
                raise DomainError("the cusp has no parameter")
            return mul(x, inv(y))
        den = field._sub(y, x)
        if den == zero:
            raise DomainError("the node has no parameter")
        t = mul(field._add(y, x), inv(den))
        if t == zero:
            raise DomainError("the node has no parameter")
        return t

    def point_from_parameter(self, t) -> SmoothPoint:
        return self._point_at(self.field(t).raw)

    def _point_at(self, r) -> SmoothPoint:
        """The smooth point with raw parameter r."""
        field = self.field
        zero, one, mul = field._zero, field._one, field._mul
        if self.kind == "cuspidal":
            q = (r, one, mul(mul(r, r), r))
        elif self.kind == "nodal":
            if r == zero:
                raise DomainError("0 is not a parameter value on a split node")
            # (4 (r^2 - r) : 4 (r^2 + r) : r^3 - 3 (r^2 - r) - kappa) lies on
            # 8 (y^2 z - x^3 - x^2 z) = (1 - kappa) (y - x)^3, the canonical
            # node when kappa = 1, and has parameter (y + x)/(y - x) = r
            sub, r2 = field._sub, mul(r, r)
            d = sub(r2, r)
            four = field._from_int(4)
            w = sub(sub(mul(r2, r), self.kappa), mul(field._from_int(3), d))
            q = (mul(four, d), mul(four, field._add(r2, r)), w)
        else:
            raise DomainError("smooth cubics are not parametrized")
        pt = ProjectivePoint.from_raw(field, mat3_apply(self.from_canonical, q, field))
        return SmoothPoint(pt, r)

    # -- chord-tangent geometry ------------------------------------------------

    def third_intersection(
        self, a: ProjectivePoint, b: ProjectivePoint
    ) -> ProjectivePoint:
        """Residual intersection of the line through a and b (the tangent
        when a == b) with the curve.  Both inputs must be smooth points on
        the curve; a chord of smooth points never meets the singular point,
        so the result is smooth as well."""
        return ProjectivePoint.from_raw(self.field, self._third(a.raw, b.raw))

    def _third(self, a: tuple, b: tuple) -> list:
        """third_intersection on normalized raw coordinates, unnormalized.

        On the line s a + u b the cubic restricts to its Taylor form
        F(a) s^3 + (b . grad F(a)) s^2 u + (a . grad F(b)) s u^2 + F(b) u^3,
        valid in every characteristic.  With F(a) = F(b) = 0 the residual
        root is (s : u) = (-(a . grad F(b)) : b . grad F(a)); a tangent
        takes b on the tangent line, where b . grad F(a) = 0 too."""
        field = self.field
        zero, mul, add, sub = field._zero, field._mul, field._add, field._sub
        fa, *ga = self._jet(a)
        if a == b:
            if fa != zero or all(g == zero for g in ga):
                raise DomainError("tangent construction requires a smooth curve point")
            b = _second_point_on_line(field, ga, a)
            fb, *gb = self._jet(b)
            s, u = sub(zero, fb), dot(a, gb, field)
        else:
            fb, *gb = self._jet(b)
            if fa != zero or fb != zero:
                raise DomainError("chord endpoints must lie on the curve")
            s, u = sub(zero, dot(a, gb, field)), dot(b, ga, field)
        if s == zero and u == zero:
            raise ReducibleCurveError("a line lies on the cubic")
        return [add(mul(s, x), mul(u, y)) for x, y in zip(a, b)]

    # -- group law ---------------------------------------------------------------

    @cached_property
    def weierstrass(self) -> WeierstrassFrame | None:
        """The Weierstrass frame of a smooth cubic whose origin is an
        inflection, built on first use; None for the other models."""
        if self.kind != "smooth" or self.relaxed_origin:
            return None
        return WeierstrassFrame(self.poly, self.origin)

    @cached_property
    def line_class(self) -> SmoothPoint:
        """The restriction of the line class: the third intersection of the
        tangent at the origin, so zero when the origin is an inflection."""
        if not self.relaxed_origin:
            return self.zero()
        return self.smooth_point(self.third_intersection(self.origin, self.origin))

    def zero(self) -> SmoothPoint:
        if self.kind == "smooth":
            return SmoothPoint(self.origin, frame=self.weierstrass)
        field = self.field
        return SmoothPoint(self.origin, field._zero if self.kind == "cuspidal" else field._one)

    def add(self, a: SmoothPoint, b: SmoothPoint) -> SmoothPoint:
        field = self.field
        if self.kind == "cuspidal":
            return self._point_at(field._add(a.t, b.t))
        if self.kind == "nodal":
            return self._point_at(field._mul(a.t, b.t))
        frame = self.weierstrass
        if frame is not None:
            w = frame.add(frame.coordinates(a), frame.coordinates(b))
            return SmoothPoint(None, w=w, frame=frame)
        chord = normalized(field, self._third(a.point.raw, b.point.raw))
        return SmoothPoint(ProjectivePoint.from_raw(field, self._third(self.origin.raw, chord)))

    def negate(self, a: SmoothPoint) -> SmoothPoint:
        field = self.field
        if self.kind == "cuspidal":
            return self._point_at(field._sub(field._zero, a.t))
        if self.kind == "nodal":
            return self._point_at(field._inv(a.t))
        frame = self.weierstrass
        if frame is not None:
            return SmoothPoint(None, w=frame.negate(frame.coordinates(a)), frame=frame)
        return SmoothPoint(self.third_intersection(self.line_class.point, a.point))

    def scalar(self, n: int, a: SmoothPoint) -> SmoothPoint:
        """n * a by double-and-add from the top bit down."""
        if n < 0:
            return self.scalar(-n, self.negate(a))
        if n == 0:
            return self.zero()
        acc = a
        for bit in bin(n)[3:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, a)
        return acc

    def chord_add(self, a: SmoothPoint, b: SmoothPoint) -> SmoothPoint:
        """Group law evaluated geometrically, bypassing parameters and
        Weierstrass coordinates; used to cross-check the parametric laws on
        singular curves and the Weierstrass law on smooth ones."""
        chord = self.third_intersection(a.point, b.point)
        pt = self.third_intersection(self.origin, chord)
        return self.smooth_point(pt)

    def __repr__(self):
        return f"CubicCurveModel({self.kind} over {self.field})"


# ---------------------------------------------------------------------------
# classification


def classify_cubic(f: Poly3) -> CubicCurveModel:
    """Classify a reduced, geometrically irreducible plane cubic and build
    its group model.  Raises ReducibleCurveError or UnsupportedCurveError
    when the input is outside that scope.  It decides from d, the dimension of
    the singular scheme's degree-4 part (see the module docstring); a cusp
    has d = 2, or d = 4 in characteristic 2 and d = 3 in characteristic 3."""
    if f.is_zero() or not f.is_homogeneous() or f.degree() != 3:
        raise CurveError("input must be a nonzero homogeneous cubic")

    shortcut = _recognize_canonical(f)
    if shortcut is not None:
        return shortcut

    field = f.field
    zero = field._zero
    partials = [f.partial(i) for i in range(3)]
    scheme = _singular_scheme(f, partials)
    if not scheme:
        return _build_smooth_model(f)
    if len(scheme) == 1:
        # w(m) = m(P) up to scale: P = (w(v^3 x) : w(v^3 y) : w(v^3 z)) once w(v^4) != 0
        (w,) = scheme
        v3 = next(c for c in ((3, 0, 0), (0, 3, 0), (0, 0, 3)) if w[_times(c, c.index(3))] != zero)
        node = [w[_times(v3, j)] for j in range(3)]
        return _classify_singular(f, ProjectivePoint.from_raw(field, node))
    if len(scheme) == 2:
        return _classify_singular(f, _cusp_on_line(f, partials, scheme))
    g = next((g for g in partials if g.terms), None)
    sing = [] if g is None else [
        p for p in _common_rational_points(f, g)
        if all(h.evaluate_raw(p.raw) == zero for h in partials)
    ]
    # the second partials at a singular point have rank 2 exactly at a node
    if len(sing) == 1 and matrix_rank(
        [[h.partial(j).evaluate_raw(sing[0].raw) for j in range(3)] for h in partials], field
    ) < 2:
        return _classify_singular(f, sing[0])
    raise ReducibleCurveError(
        f"a singular scheme of degree {len(scheme)} without exactly one rational singular "
        "point that is not a node: the cubic is reducible"
    )


def _times(k: tuple, i: int) -> tuple:
    """The exponents of the monomial with exponents k times variable i."""
    return tuple(a + (j == i) for j, a in enumerate(k))


def _singular_scheme(f: Poly3, partials: list[Poly3]) -> list[dict]:
    """The kernel of M, the matrix of the degree-4 multiples of f and its
    partials over the quartic monomials, as functionals keyed by exponents.
    f is among the forms since Euler's relation fails in characteristic 3."""
    field = f.field
    keys = monomial_exponents(4)
    column = {k: i for i, k in enumerate(keys)}
    rows = []
    for g in (f, *partials):
        for shift in monomial_exponents(4 - g.degree()) if g.terms else ():
            row = [field._zero] * len(keys)
            for k, v in g.terms.items():
                row[column[tuple(a + b for a, b in zip(k, shift))]] = v
            rows.append(row)
    return [dict(zip(keys, w)) for w in kernel_basis(rows, field)]


def _cusp_on_line(f: Poly3, partials: list[Poly3], scheme: list[dict]) -> ProjectivePoint:
    """The singular point when the singular scheme has degree 2.  The linear
    forms l with w(l m) = 0 for both functionals w and every cubic monomial
    m cut out the line L through the scheme.  If f vanishes on L the cubic
    is reducible; otherwise L is the cuspidal tangent and f restricts to it
    as a cube, whose root the Taylor form of `_third` gives: on s p + u q,
    c0 (s - r u)^3 has (r : 1) = (-c1 : 3 c0)."""
    field = f.field
    zero, mul, sub = field._zero, field._mul, field._sub
    rows = [[w[_times(m, i)] for i in range(3)] for w in scheme for m in monomial_exponents(3)]
    line = kernel_basis(rows, field)[0]
    p = _second_point_on_line(field, line, None)
    q = _second_point_on_line(field, line, p)
    (c0, *gp), (c3, *gq) = ([h.evaluate_raw(x) for h in (f, *partials)] for x in (p, q))
    c1, c2 = dot(q, gp, field), dot(p, gq, field)
    if c0 == c1 == c2 == c3 == zero:
        raise ReducibleCurveError("the line through the two singular points lies on the cubic")
    if c0 == zero:
        return ProjectivePoint.from_raw(field, p)
    c0x3 = mul(field._from_int(3), c0)
    return ProjectivePoint.from_raw(field, [sub(mul(c0x3, y), mul(c1, x)) for x, y in zip(p, q)])


def _recognize_canonical(f: Poly3) -> CubicCurveModel | None:
    """Accept the two canonical singular shapes verbatim, in any
    characteristic.  This keeps the canonical models usable over
    characteristics 2 and 3, where the general normalization machinery
    bows out."""
    field = f.field
    one, zero, add = field._one, field._zero, field._add
    terms = f.terms
    keys = set(terms)
    c = terms.get((0, 2, 1))
    cusp = keys == {(0, 2, 1), (3, 0, 0)}
    node = keys == {(0, 2, 1), (3, 0, 0), (2, 0, 1)} and add(terms[2, 0, 1], c) == zero
    if not ((cusp or node) and add(terms[3, 0, 0], c) == zero):
        return None
    if node and field.char == 2:
        raise UnsupportedCurveError("the split-node model degenerates in characteristic 2")
    o = ProjectivePoint.from_raw(field, (zero, one, zero))
    s = ProjectivePoint.from_raw(field, (zero, zero, one))
    id3 = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    return CubicCurveModel(f, "nodal" if node else "cuspidal", o, s, id3)


def _classify_singular(f: Poly3, s: ProjectivePoint) -> CubicCurveModel:
    field = f.field
    zero = field._zero
    frame = frame_with_last_column(s)
    g = f.compose_linear(frame)  # the singular point is now (0:0:1)
    if any(k in g.terms for k in ((0, 0, 3), (1, 0, 2), (0, 1, 2))):
        raise AssertionError("frame change lost the singularity")
    qa, qb, qc = (g.terms.get(k, zero) for k in ((2, 0, 1), (1, 1, 1), (0, 2, 1)))
    if qa == qb == qc == zero:
        raise ReducibleCurveError("triple point: the cubic is three concurrent lines")
    split = _binary_quadratic_split(field, qa, qb, qc)
    if split[0] == "nonsplit":
        raise UnsupportedCurveError(
            "node with conjugate tangents (non-split torus) is not supported"
        )

    # g = z q(x, y) + c(x, y).  A tangent line at (0:0:1) runs to a point d
    # at infinity with q(d) = 0, so g restricts to it as c(d) u^3: the line
    # is a component iff g(d) = c(d) = 0
    dirs = [_direction_point(field, line) for line in split[1:]]
    if split[0] == "double":
        if g.evaluate_raw(dirs[0]) == zero:
            raise ReducibleCurveError(
                "the tangent line is a component (line plus tangent conic)"
            )
        if field.char in (2, 3):
            raise UnsupportedCurveError(
                f"cuspidal normalization is unavailable in characteristic {field.char} "
                "unless the curve is already in canonical form"
            )
        # a second direction off the tangent line
        d1 = (zero, field._one, zero) if split[1][0] == zero else (field._one, zero, zero)
        return _build_cuspidal_model(f, s, g, frame, dirs[0], d1)

    if any(g.evaluate_raw(d) == zero for d in dirs):
        raise ReducibleCurveError("a nodal tangent line is a component of the cubic")
    if field.char == 2:
        raise UnsupportedCurveError(
            "split-node normalization is unavailable in characteristic 2"
        )
    # the parameter tends to 0 along the first tangent by `_point_key`
    d1, d2 = sorted(
        dirs,
        key=lambda d: _point_key(ProjectivePoint.from_raw(field, mat3_apply(frame, d, field))),
        reverse=True,
    )
    return _build_nodal_model(f, s, g, frame, d1, d2)


def _binary_quadratic_split(field: Field, qa, qb, qc):
    """Factor A x^2 + B xy + C y^2, raws, over the coefficient field.

    Returns ('double', (alpha, beta)), ('split', L1, L2) with L = (alpha,
    beta) meaning alpha*x + beta*y, or ('nonsplit',).  Uniform over every
    characteristic: the distinct roots of the dehomogenized quadratic
    decide, one distinct root meaning a repeated factor.
    """
    one, zero, sub = field._one, field._zero, field._sub
    if qa == zero:
        if qb == zero:
            return ("double", (zero, one))  # C y^2
        return ("split", (zero, one), (qb, qc))  # y (B x + C y)
    rts = roots_in_field(field, [qc, qb, qa])
    if not rts:
        return ("nonsplit",)
    return ("double" if len(rts) == 1 else "split", *((one, sub(zero, r)) for r in rts))


def _direction_point(field: Field, line) -> tuple:
    """The point at infinity, as raws, of the singular chart cut out by the
    tangent-cone factor alpha*x + beta*y."""
    alpha, beta = line
    return (field._sub(field._zero, beta), alpha, field._zero)


# The builders below parametrize the curve through its singular point.  In
# g = z q(x, y) + c(x, y) the line from (0:0:1) to the point w at infinity
# meets the curve again at (q(w) w_x : q(w) w_y : -c(w)).  In a basis u, v
# of directions, w = x u + y v, c is the binary cubic with coefficients
# c(u), v . grad c(u), u . grad c(v), c(v) of x^3, x^2 y, x y^2, y^3 (its
# Taylor form).  A line missing (0:0:1) meets the curve where a binary
# cubic in the slope x/y vanishes whose x^3 and y^3 coefficients, or x^3
# and x^2 y coefficients for a cusp, are those of -c times one scalar; so
# the product, or sum, of the three slopes is read off c.


def _binary_cubic(g: Poly3, u: tuple, v: tuple) -> tuple:
    """The coefficients of c(x u + y v) for c = g(x, y, 0), directions u, v."""
    field = g.field
    grad = [g.partial(i) for i in range(2)]
    du = [h.evaluate_raw(u) for h in grad] + [field._zero]
    dv = [h.evaluate_raw(v) for h in grad] + [field._zero]
    return g.evaluate_raw(u), dot(v, du, field), dot(u, dv, field), g.evaluate_raw(v)


def _quadratic_part(g: Poly3, w: tuple):
    """q(w) for a direction w: g(w + (0:0:1)) - g(w)."""
    field = g.field
    return field._sub(g.evaluate_raw((w[0], w[1], field._one)), g.evaluate_raw(w))


def _chart_point(field: Field, frame: Mat3, a, u: tuple, b, v: tuple, z) -> tuple:
    """frame (a u + b v + z (0:0:1)) on raws, for directions u and v."""
    mul, add = field._mul, field._add
    w = (add(mul(a, u[0]), mul(b, v[0])), add(mul(a, u[1]), mul(b, v[1])), z)
    return mat3_apply(frame, w, field)


def _build_cuspidal_model(
    f: Poly3, cusp: ProjectivePoint, g: Poly3, frame: Mat3, d0: tuple, d1: tuple
) -> CubicCurveModel:
    """The cusp's tangent runs in the direction d0.  In the basis d0, d1 of
    directions q = A y^2, and the line of slope lam = x/y meets the curve
    again at P(lam) = (A lam : A : -c(lam, 1)).  Three such points are
    collinear iff their slopes sum to tau = -c1/c0, so the one inflection is
    P(lam0), lam0 = tau/3.  With lam = lam0 + k t, c(lam, 1) has no t^2
    term, so the canonical point (t : 1 : t^3) maps to P(lam) linearly, by
    the columns k (A d0 - c'(lam0) (0:0:1)), P(lam0) and k^3 (0, 0, -c0).
    The scale k is the one that normalizes the first two columns."""
    field = f.field
    zero, mul, add, sub, inv = field._zero, field._mul, field._add, field._sub, field._inv
    c0, c1, c2, c3 = _binary_cubic(g, d0, d1)
    a = _quadratic_part(g, d1)
    lam = sub(zero, mul(c1, inv(mul(field._from_int(3), c0))))
    slope = add(mul(c1, lam), c2)  # 3 c0 lam0^2 + 2 c1 lam0 + c2
    value = add(mul(add(mul(add(mul(c0, lam), c1), lam), c2), lam), c3)
    u1 = _chart_point(field, frame, a, d0, zero, d1, sub(zero, slope))
    u2 = _chart_point(field, frame, mul(a, lam), d0, a, d1, sub(zero, value))
    l1, l2 = _last_nonzero(field, u1), _last_nonzero(field, u2)
    k3 = sub(zero, mul(mul(mul(l2, l2), c0), inv(mul(mul(l1, l1), l1))))
    cols = [normalized(field, u1), normalized(field, u2), [mul(k3, x) for x in cusp.raw]]
    origin = ProjectivePoint.from_raw(field, cols[1])
    return CubicCurveModel(f, "cuspidal", origin, cusp, mat3_from_columns(cols))


def _build_nodal_model(
    f: Poly3, node: ProjectivePoint, g: Poly3, frame: Mat3, d1: tuple, d2: tuple
) -> CubicCurveModel:
    """The node's tangents run in the directions d1 and d2.  In that basis
    q = A x y, and the line of slope s = x/y meets the curve again at P(s) =
    (A s^2 : A s : -c(s, 1)).  Three such points are collinear iff the
    product of their slopes is kappa = -c3/c0, so the inflections are P(s)
    for the rational cube roots s of kappa.  The origin is the first of them
    by `_point_key` or, when there is none, the relaxed origin P(1).  The
    parameter is t = s/s0 for the origin's slope s0, so three collinear
    points have product kappa/s0^3.  P(s0 t) and the canonical point of
    parameter t (see `CubicCurveModel._point_at`) are both linear in t^2, t
    and t^3 - kappa/s0^3, which gives the frame."""
    field = f.field
    zero, one, mul, add, sub, inv = (
        field._zero, field._one, field._mul, field._add, field._sub, field._inv
    )
    c0, c1, c2, c3 = _binary_cubic(g, d1, d2)
    a = _quadratic_part(g, (add(d1[0], d2[0]), add(d1[1], d2[1]), zero))
    kappa = sub(zero, mul(c3, inv(c0)))

    def point(s) -> ProjectivePoint:
        c = add(mul(add(mul(add(mul(c0, s), c1), s), c2), s), c3)
        xs = _chart_point(field, frame, mul(a, mul(s, s)), d1, mul(a, s), d2, sub(zero, c))
        return ProjectivePoint.from_raw(field, xs)

    flexes = [(point(s), s) for s in roots_in_field(field, [sub(zero, kappa), zero, zero, one])]
    origin, s0 = min(flexes, key=lambda ps: _point_key(ps[0])) if flexes else (point(one), one)
    s2 = mul(s0, s0)
    c0s3 = mul(c0, mul(s2, s0))
    c1s2, c2s = mul(c1, s2), mul(c2, s0)
    # the frame on the chart, times -8 c0 s0^3: columns (A s0^2, -A s0, c2 s0
    # - c1 s0^2 - 6 c0 s0^3), (A s0^2, A s0, -c1 s0^2 - c2 s0), (0, 0, -8 c0 s0^3)
    scale = inv(sub(zero, mul(field._from_int(8), c0s3)))
    a2, a1 = mul(scale, mul(a, s2)), mul(scale, mul(a, s0))
    z1 = mul(scale, sub(sub(c2s, c1s2), mul(field._from_int(6), c0s3)))
    z2 = mul(scale, sub(zero, add(c1s2, c2s)))
    cols = [
        _chart_point(field, frame, a2, d1, sub(zero, a1), d2, z1),
        _chart_point(field, frame, a2, d1, a1, d2, z2),
        node.raw,
    ]
    return CubicCurveModel(
        f, "nodal", origin, node, mat3_from_columns(cols),
        relaxed_origin=not flexes, kappa=mul(kappa, inv(mul(s2, s0))),
    )


def _last_nonzero(field: Field, xs: tuple):
    return next(x for x in reversed(xs) if x != field._zero)


def _build_smooth_model(f: Poly3) -> CubicCurveModel:
    inflections = _rational_inflections(f)
    if inflections:
        return CubicCurveModel(f, "smooth", inflections[0])
    p = _first_rational_point(f)
    if p is None:
        raise UnsupportedCurveError(
            "no rational point found in the deterministic scan; the group model "
            "needs an origin"
        )
    return CubicCurveModel(f, "smooth", p, relaxed_origin=True)


# ---------------------------------------------------------------------------
# rational common zeros of two forms, by resultant elimination


def _common_rational_points(f: Poly3, g: Poly3) -> list[ProjectivePoint]:
    """Rational common zeros of two nonzero forms, sorted by `_point_key`:
    every one when the forms are coprime, and otherwise some of them.

    The x-coordinates of the affine zeros are roots of the eliminant: the
    x-polynomial of a form constant in y, the gcd of two such, or else the
    resultant in y of the two forms.  The lines x = x0 over its rational
    roots and the line z = 0 are then searched alike, and (1:0:0)
    directly."""
    field = f.field
    one, zero = field._one, field._zero
    points: set[ProjectivePoint] = set()
    charts = [_poly3_chart(f), _poly3_chart(g)]
    eliminants = [c[0] for c in charts if len(c) == 1] or [_resultant_y(*charts, field)]
    elim = polys.gcd(field, eliminants[0], eliminants[-1])
    roots = roots_in_field(field, elim) if len(elim) > 1 else []
    lines = [(x0, [_evaluate_chart_at_x(c, x0, field) for c in charts]) for x0 in roots]
    lines.append((None, [_restrict_to_infinity(f), _restrict_to_infinity(g)]))
    for x0, restrictions in lines:
        # a common root is a common zero, since a zero restriction vanishes on
        # the whole line; when both do, the line lies in the locus: not searched
        h = polys.gcd(field, *restrictions)
        for t in roots_in_field(field, h) if h else ():
            xs = (t, one, zero) if x0 is None else (x0, t, one)
            points.add(ProjectivePoint.from_raw(field, xs))
    e100 = (one, zero, zero)
    if f.evaluate_raw(e100) == zero == g.evaluate_raw(e100):
        points.add(ProjectivePoint.from_raw(field, e100))
    return sorted(points, key=_point_key)


def _evaluate_chart_at_x(chart: list[Poly], x0, field: Field) -> Poly:
    """A chart (see _poly3_chart) at x = x0: g(x0, y, 1) as a polynomial in y."""
    return polys.trim(field, [polys.evaluate(field, cy, x0) for cy in chart])


def _poly3_chart(g: Poly3) -> list[Poly]:
    """Chart z = 1 of a form as a polynomial in y whose coefficients are
    polynomials in x, indexed by y-degree.  The form is homogeneous, so
    (a, b) fixes each term."""
    field = g.field
    by_y: dict[int, dict] = {}
    for (a, b, _), v in g.terms.items():
        by_y.setdefault(b, {})[a] = v
    return [_dense(field, by_y.get(j, {})) for j in range(max(by_y, default=-1) + 1)]


def _restrict_to_infinity(g: Poly3) -> Poly:
    """g(x, 1, 0): a homogeneous form on the line z = 0, as a polynomial in x."""
    return _dense(g.field, {a: v for (a, _, c), v in g.terms.items() if c == 0})


def _dense(field: Field, coeffs: dict) -> Poly:
    """The polynomial with the given nonzero raw coefficients by degree."""
    zero = field._zero
    return [coeffs.get(i, zero) for i in range(max(coeffs, default=-1) + 1)]


def _resultant_y(ca: list[Poly], cb: list[Poly], field: Field) -> Poly:
    """Resultant in y of two chart polynomials (coefficients in K[x]) with
    nonzero top y-coefficients, not both constant in y: the Sylvester
    resultant, sign included, from the m x m Bezout matrix.  With a of
    y-degree m >= n first (the swap costs (-1)^(mn)) and b padded to m,
    B_ij = sum_k [a_(j+k+1) b_(i-k) - a_(i-k) b_(j+k+1)] over
    0 <= k <= min(i, m-1-j), and Res(a, b) = (-1)^(m(m-1)/2) det B / lc(a)^(m-n),
    the division exact in K[x].  The census's charts have y-degree <= 3, so
    B is at most 3x3 and its cofactor expansion is exact and cheap."""
    m, n, sign = len(ca) - 1, len(cb) - 1, 1
    if m < n:
        ca, cb, m, n, sign = cb, ca, n, m, (-1) ** (m * n)
    cb = cb + [[]] * (m - n)

    def bracket(u, v):  # a_u b_v - a_v b_u
        return polys.sub(field, polys.mul(field, ca[u], cb[v]), polys.mul(field, ca[v], cb[u]))

    brackets = {(u, v): bracket(u, v) for u in range(m + 1) for v in range(u)}
    rows = [[[] for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            entry: Poly = []
            for k in range(min(i, m - 1 - j) + 1):  # j + k + 1 > i - k here
                entry = polys.add(field, entry, brackets[j + k + 1, i - k])
            rows[i][j] = rows[j][i] = entry
    det = _poly_det(rows, field)
    for _ in range(m - n):
        det = polys.divmod_poly(field, det, ca[-1])[0]
    return det if sign * (-1) ** (m * (m - 1) // 2) > 0 else polys.sub(field, [], det)


def _poly_det(rows: list[list[Poly]], field: Field) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return polys.sub(
            field,
            polys.mul(field, rows[0][0], rows[1][1]),
            polys.mul(field, rows[0][1], rows[1][0]),
        )
    det: Poly = []
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = polys.mul(field, rows[0][j], _poly_det(minor, field))
        det = polys.add(field, det, term) if j % 2 == 0 else polys.sub(field, det, term)
    return det


# ---------------------------------------------------------------------------
# inflections, tangents, deterministic scans


def _rational_inflections(f: Poly3) -> list[ProjectivePoint]:
    """Rational common zeros of f and its Hessian, sorted by `_point_key`:
    the rational inflections when f is smooth (on a singular cubic the
    singular point is among them).  Empty when the Hessian route is
    unavailable (characteristic 2, or an identically vanishing Hessian)."""
    if f.field.char == 2:
        return []
    h = mat3_det([[f.partial(i).partial(j) for j in range(3)] for i in range(3)])
    if h.is_zero():
        return []
    return _common_rational_points(f, h)


def _second_point_on_line(field: Field, line, avoid: tuple | None) -> tuple:
    """A point of the line other than avoid, as normalized raws."""
    one, zero = field._one, field._zero
    for e in ((one, zero, zero), (zero, one, zero), (zero, zero, one)):
        c = cross(line, e, field)
        if any(x != zero for x in c):
            pt = normalized(field, c)
            if pt != avoid:
                return pt
    raise AssertionError("a projective line always has two points")


def _point_key(p: ProjectivePoint):
    return tuple(raw if isinstance(raw, tuple) else (raw,) for raw in p.raw)


def _first_rational_point(f: Poly3) -> ProjectivePoint | None:
    field = f.field
    chart = _poly3_chart(f)
    one, zero = field._one, field._zero
    for x0 in itertools.islice(field._raws(), _SCAN_LIMIT):
        u = _evaluate_chart_at_x(chart, x0, field)
        if not u:
            continue
        rts = roots_in_field(field, u)
        if rts:
            return ProjectivePoint.from_raw(field, (x0, rts[0], one))
    u = _restrict_to_infinity(f)
    if u:
        rts = roots_in_field(field, u)
        if rts:
            return ProjectivePoint.from_raw(field, (rts[0], one, zero))
    if f.evaluate_raw((one, zero, zero)) == zero:
        return ProjectivePoint.from_raw(field, (one, zero, zero))
    return None


# ---------------------------------------------------------------------------
# restriction of lattice classes to the curve, in explicit group coordinates


class RestrictionLayer:
    """The restriction homomorphism from the canonical complement k^perp to
    the smooth-locus group, for one tuple of marked points.

    The images of the simple roots are given integer coordinates, once, in
    an explicit finite abelian group A = Z/d_1 + ... + Z/d_r: ``moduli``
    holds the d_j and ``columns[j]`` the j-th coordinates of the images of
    alpha_0, ..., alpha_{n-1}.  ``folded[j]`` folds the change to simple-root
    coordinates into that column, so a class of k^perp restricts by one dot
    product per group coordinate on its own coordinates (d, -m_1, ..., -m_n).
    In characteristic 0 the images need not be torsion; then both are None.
    """

    def __init__(self, model: CubicCurveModel, points: tuple):
        self.group = model.group
        self.n = n = len(points)
        basis = [model.line_class] + [model.smooth_point(p) for p in points]
        roots = [a.coords for a in simple_roots(n)]
        self.moduli, self.columns = _coordinates(model, basis, roots)
        li = root_basis_left_inverse(n)
        self.folded = None if self.columns is None else [
            tuple(sum(x * row[k] for x, row in zip(col, li)) % d for k in range(n + 1))
            for col, d in zip(self.columns, self.moduli)
        ]

    def image(self, coords) -> "RestrictionImage":
        """The image of the class of k^perp with these geometric coordinates."""
        if 3 * coords[0] + sum(coords[1:]):
            raise ValueError("vector is not orthogonal to the canonical vector")
        return RestrictionImage(self, tuple(self._group_coordinates(coords)))

    def restricts_to_zero(self, coords) -> bool:
        """Does this class of k^perp, not checked for membership, restrict to
        zero?  Stops at the first nonzero group coordinate."""
        return not any(self._group_coordinates(coords))

    def _group_coordinates(self, coords):
        """The class's group coordinates, lazily, one dot product each."""
        if self.folded is None:
            raise DomainError("the simple-root images are not torsion: no group coordinates")
        cols = zip(self.folded, self.moduli)
        return (sum(c * w for c, w in zip(coords, col)) % d for col, d in cols)


class RestrictionImage:
    """Image of a lattice class in the smooth-locus group, as coordinates
    in its layer's group A = Z/d_1 + ... + Z/d_r."""

    __slots__ = ("layer", "coords")

    def __init__(self, layer: RestrictionLayer, coords: tuple[int, ...]):
        self.layer = layer
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, RestrictionImage):
            return NotImplemented
        return self.layer is other.layer and self.coords == other.coords

    def __repr__(self):
        return f"RestrictionImage({self.layer.group}, {self.coords} mod {self.layer.moduli})"


def _group_sum(model: CubicCurveModel, terms) -> SmoothPoint:
    """sum c * P over the (c, P) pairs, by the group law."""
    acc, origin = None, model.zero().key
    for c, pt in terms:
        if not c or pt.key == origin:
            continue
        term = pt if c == 1 else model.negate(pt) if c == -1 else model.scalar(c, pt)
        acc = term if acc is None else model.add(acc, term)
    return model.zero() if acc is None else acc


def _coordinates(model: CubicCurveModel, basis: list[SmoothPoint], roots: list[tuple]):
    """(moduli, columns): coordinates of the images of the simple roots,
    given by their coordinates in the basis (line class, marked points), in
    an explicit finite abelian group, one column per group coordinate.  The
    only step that depends on the curve kind:

    * additive over GF(p^e): the F_p digits of the parameter, A = (Z/p)^e;
    * multiplicative over F_q: discrete logs to one primitive root,
      A = Z/(q - 1);
    * elliptic, and every kind in characteristic 0: the subgroup the images
      generate, by coset enumeration; (None, None) when an image is not
      torsion.

    The first two coordinate maps are homomorphisms, so they are taken on
    the basis, and each root's entry is its integer combination of the
    basis coordinates, reduced mod the moduli.
    """
    field = model.field
    if field.char and model.group == "additive":
        coords = [pt.t for pt in basis]
        coords = [c if isinstance(c, tuple) else (c,) for c in coords]
        moduli = (field.char,) * len(coords[0])
    elif field.char and model.group == "multiplicative":
        coords = [(x,) for x in _discrete_logs([pt.t for pt in basis], field)]
        moduli = (field.order - 1,)
    else:
        images = [_group_sum(model, zip(a, basis)) for a in roots]
        return _enumerated_coordinates(model, images)
    columns = [
        tuple(sum(c * x[j] for c, x in zip(a, coords)) % d for a in roots)
        for j, d in enumerate(moduli)
    ]
    return moduli, columns


def _discrete_logs(xs: list, field: Field) -> list[int]:
    """Logs of the units xs, raws, to one primitive root of the finite
    field: by Pohlig-Hellman over the factorization of q - 1, with a
    baby-step giant-step search in each subgroup of prime order."""
    n = field.order - 1
    primes = factor(n)
    one, mul, pw = field._one, field._mul, field._pow
    g = next(
        x
        for x in field._raws()
        if x != field._zero and all(pw(x, n // r) != one for r in primes)
    )
    logs = [0] * len(xs)
    done = 1  # the logs are known modulo done
    for r, e in primes.items():
        re = r**e
        base = pw(g, n // re)  # order r^e
        base_inv = field._inv(base)
        gamma = pw(base, re // r)  # order r
        step = math.isqrt(r - 1) + 1
        baby: dict = {}
        acc = one
        for j in range(step):
            baby.setdefault(acc, j)
            acc = mul(acc, gamma)
        giant = field._inv(pw(gamma, step))
        for i, x in enumerate(xs):
            h = pw(x, n // re)
            log = 0
            for k in range(e):
                y = pw(mul(h, pw(base_inv, log)), re // r ** (k + 1))
                t = 0
                while y not in baby:
                    y = mul(y, giant)
                    t += 1
                log += (t * step + baby[y]) * r**k
            logs[i] += done * ((log - logs[i]) * pow(done, -1, re) % re)
        done *= re
    return logs


def _enumerated_coordinates(model: CubicCurveModel, images: list[SmoothPoint]):
    """Coordinates in the subgroup H the images generate.  With H_i spanned
    by the first i images, the first multiple k g_i that lands in H_i, say
    on h, gives the relation k e_i - c(h), where c(h) expresses h in
    g_0..g_{i-1}; these n relations present H, and their Smith form gives
    its invariant factors.  A plane cubic over Q has rational torsion of
    order at most 12, so in characteristic 0 an image with no relation by
    then is not torsion."""
    n = len(images)
    bound = 12 if model.field.char == 0 else None
    zero = model.zero()
    members = {zero.key: (zero, (0,) * n)}  # key -> (element, c)
    relations = []
    for i, g in enumerate(images):
        acc, k = g, 1
        while acc.key not in members:
            if k == bound:
                return None, None
            k += 1
            if k * len(members) > _SUBGROUP_CAP:
                raise BudgetError("image subgroup exceeds the enumeration cap")
            acc = model.add(acc, g)
        rel = [-c for c in members[acc.key][1]]
        rel[i] += k
        relations.append(rel)
        if i < n - 1:
            coset = list(members.values())
            for j in range(1, k):
                coset = [(model.add(s, g), c[:i] + (j,) + c[i + 1 :]) for s, c in coset]
                members.update((s.key, (s, c)) for s, c in coset)
    _, d, v = smith_normal_form(relations, u_cols=0)
    keep = [j for j in range(n) if d[j][j] != 1]
    moduli = tuple(d[j][j] for j in keep)
    return moduli, [tuple(v[i][j] % d[j][j] for i in range(n)) for j in keep]


def _as_point_list(points) -> list[ProjectivePoint]:
    return list(getattr(points, "points", points))


def restriction_layer(model: CubicCurveModel, points) -> RestrictionLayer:
    """The restriction layer for these points, built once per model and
    point tuple."""
    key = tuple(_as_point_list(points))
    layer = model._layers.get(key)
    if layer is None:
        layer = model._layers[key] = RestrictionLayer(model, key)
    return layer


def restriction_hom(model: CubicCurveModel, points, cls: LatticeVector) -> RestrictionImage:
    """Restrict the class d e_0 - sum m_i e_i of k^perp to the curve: d
    times the line-section class minus the weighted sum of the marked
    points, as an element of the smooth-locus group.

    With an inflection origin the line-section class is zero (line sections
    have parameter sum 0 and parameter product 1 on the singular models);
    with a relaxed origin it is the third intersection of the tangent at
    the origin, which keeps the map a homomorphism in every case.
    """
    pts = _as_point_list(points)
    if cls.n != len(pts):
        raise ValueError(f"class indexes {cls.n} points, {len(pts)} given")
    return restriction_layer(model, pts).image(cls.coords)


def image_order(img: RestrictionImage) -> int:
    """Exact order of the image in the smooth-locus group."""
    return math.lcm(*(d // math.gcd(d, x) for d, x in zip(img.layer.moduli, img.coords)))


# ---------------------------------------------------------------------------
# pencil index, torsion and kernel verdicts


def halphen_index_check(model: CubicCurveModel, points, m: int) -> bool:
    """Does the anticanonical class restrict to an element of exact order m
    on these nine points?"""
    pts = _as_point_list(points)
    if len(pts) != 9:
        raise DomainError("the pencil-index check takes nine points")
    if m < 1:
        raise ValueError("the index must be positive")
    return image_order(restriction_hom(model, pts, -canonical_vector(9))) == m


def torsion_set_check(model: CubicCurveModel, points) -> tuple[bool, int | None]:
    """(all generator images torsion, least exponent killing all of them):
    the lcm over the group coordinates of d_j / gcd(d_j, column j)."""
    layer = restriction_layer(model, points)
    if layer.columns is None:
        return False, None
    cols = zip(layer.columns, layer.moduli)
    return True, math.lcm(*(d // math.gcd(d, *col) for col, d in cols))


def harbourne_check(model: CubicCurveModel, points) -> tuple[bool, dict]:
    """For a cuspidal curve over GF(p^e): the restriction kernel equals p
    times the canonical complement iff the generator images, viewed as
    vectors over F_p, have full rank.

    Returns (verdict, description); on failure the description carries
    F_p-kernel generators in simple-root coordinates.
    """
    if model.kind != "cuspidal" or model.field.char == 0:
        raise DomainError("this kernel test applies to cuspidal curves over finite fields")
    layer = restriction_layer(model, points)
    p = model.field.char
    fp = PrimeField(p)
    rows = [[x % p for x in col] for col in layer.columns]
    rank = matrix_rank(rows, fp)
    if rank == layer.n:
        return True, {"kernel": f"{p} * (canonical complement)", "rank": rank}
    return False, {
        "kernel": "strictly larger",
        "rank": rank,
        "kernel_generators_mod_p": [list(v) for v in kernel_basis(rows, fp)],
    }


def kernel_submodule_generators(
    model: CubicCurveModel, points, m: int
) -> list[tuple[int, ...]]:
    """Generators, in simple-root coordinates mod m, of the residues of the
    restriction kernel: all x with sum of x_i times image(alpha_i) zero in
    the group.  m must be a multiple of the images' exponent; the implicit
    m * (everything) is not listed."""
    if m < 1:
        raise DomainError(f"the modulus must be positive, not {m}")
    torsion, exponent = torsion_set_check(model, points)
    if not torsion or m % exponent:
        raise DomainError(f"the simple-root images do not all have order dividing {m}")
    layer = restriction_layer(model, points)
    n, moduli = layer.n, layer.moduli
    # x is a relation iff x . column_j + d_j y_j = 0 for some integers y_j
    aug = [
        list(col) + [d if i == j else 0 for i in range(len(moduli))]
        for j, (col, d) in enumerate(zip(layer.columns, moduli))
    ] or [[0] * n]
    return [tuple(v[i] % m for i in range(n)) for v in integer_kernel(aug)]


def unnodal_by_kernel(
    model: CubicCurveModel, points
) -> tuple[bool, LatticeVector | None, dict]:
    """No root class restricts to zero, decided as far as the certificates
    reach.  Trivial kernel residues give a complete proof (a root congruent
    to 0 mod m would make m^2 divide -2).  Otherwise the layer tests each
    root of a bounded catalog; mod-2 exclusion then completes a proof, or
    the certificate records the catalog's bound and incompleteness.

    Returns (verdict, witness_root, certificate).
    """
    from .catalog import enumerate_roots
    from .residue import ResidueModule

    pts = _as_point_list(points)
    n = len(pts)
    is_torsion, m = torsion_set_check(model, pts)
    if not is_torsion:
        raise DomainError("generator images are not torsion; no kernel modulus exists")
    if m == 1:
        witness = simple_roots(n)[1]
        return False, witness, {
            "certificate": "all-classes-degenerate",
            "modulus": 1,
            "complete": True,
        }
    gens = kernel_submodule_generators(model, pts, m)
    nontrivial = [g for g in gens if any(c % m for c in g)]
    if not nontrivial:
        return True, None, {"certificate": "kernel-trivial", "modulus": m, "complete": True}

    layer = restriction_layer(model, pts)
    for root in enumerate_roots(n, _CATALOG_BOUND):
        if layer.restricts_to_zero(root.coords):
            return False, root, {
                "certificate": "catalog-root",
                "modulus": m,
                "bound": _CATALOG_BOUND,
                "complete": True,
            }

    # q(r) = -1 for a root, so a kernel root needs a residue mod 2 with q = 1
    if m % 2 == 0 and ResidueModule(2, n).is_totally_singular(nontrivial):
        return True, None, {
            "certificate": "mod-2-exclusion",
            "modulus": m,
            "complete": True,
        }

    return True, None, {
        "certificate": "bounded-search",
        "modulus": m,
        "bound": _CATALOG_BOUND,
        "complete": False,
    }
