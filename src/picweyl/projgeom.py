"""Projective plane over an exact field: points, 3x3 transforms, ternary
forms, and generic Gaussian elimination.

Everything here stores raws, the field's own canonical values (see
``fields``): point coordinates, form coefficients, and 3x3 matrices, which
are tuples of rows passed together with their field.  ``FieldElement``
appears only where a public accessor hands a value out: a point's
``coords``, ``p[i]`` and ``to_json``, and a form's ``coefficient`` and
``evaluate``.

Points normalize their last nonzero coordinate to 1, so equality of
projective points is plain tuple equality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .fields import Field, FieldElement


class ProjectivePoint:
    """A point of the plane, stored as its normalized raw coordinates.
    `coords`, indexing and `to_json` box them on demand."""

    __slots__ = ("field", "raw")

    def __init__(self, field: Field, coords: Sequence):
        raws = [field(c).raw for c in coords]
        if len(raws) != 3:
            raise ValueError("points live in the projective plane")
        self.field = field
        self.raw = normalized(field, raws)

    @classmethod
    def from_raw(cls, field: Field, raws: Sequence) -> "ProjectivePoint":
        """The point with these three raw coordinates, not yet normalized."""
        pt = cls.__new__(cls)
        pt.field = field
        pt.raw = normalized(field, raws)
        return pt

    @property
    def coords(self) -> tuple:
        return tuple(FieldElement(self.field, c) for c in self.raw)

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.raw == other.raw
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.raw)

    def __getitem__(self, i: int) -> FieldElement:
        return FieldElement(self.field, self.raw[i])

    def __repr__(self):
        return "(" + " : ".join(repr(c) for c in self.raw) + ")"

    def to_json(self):
        return [self.field.raw_to_json(c) for c in self.raw]

    @classmethod
    def from_json(cls, field: Field, data) -> "ProjectivePoint":
        return cls(field, [field.element_from_json(c) for c in data])


def normalized(field: Field, raws: Sequence) -> tuple:
    """Raw projective coordinates scaled to 1 in the last nonzero place."""
    zero = field._zero
    for last in (2, 1, 0):
        if raws[last] != zero:
            break
    else:
        raise ValueError("(0:0:0) is not a projective point")
    if raws[last] == field._one:
        return tuple(raws)
    inv, mul = field._inv(raws[last]), field._mul
    return tuple(mul(c, inv) for c in raws)


# ---------------------------------------------------------------------------
# 3-vectors and 3x3 matrices on raws.  A matrix is a tuple of three rows of
# raws, passed with its field like the rows of `kernel_basis`.

Mat3 = tuple


def dot(u: Sequence, v: Sequence, field: Field):
    mul, add = field._mul, field._add
    return add(add(mul(u[0], v[0]), mul(u[1], v[1])), mul(u[2], v[2]))


def cross(u: Sequence, v: Sequence, field: Field) -> tuple:
    """u x v: the line through two points, or the point on two lines."""
    mul, sub = field._mul, field._sub
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def mat3_from_columns(cols) -> Mat3:
    return tuple(zip(*cols))


def mat3_mul(a: Mat3, b: Mat3, field: Field) -> Mat3:
    cols = list(zip(*b))
    return tuple(tuple(dot(row, col, field) for col in cols) for row in a)


def mat3_apply(m: Mat3, xs: Sequence, field: Field) -> tuple:
    """M x on the raw coordinates xs, unnormalized."""
    return tuple(dot(row, xs, field) for row in m)


def mat3_det(m):
    """Cofactor expansion over entries with ring operators, Poly3s or ints.
    Over a field the determinant of raws is dot(m[0], cross(m[1], m[2]));
    here raw ints would give the integer determinant, which can be nonzero
    where the determinant mod p is zero."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat3_inverse(m: Mat3, field: Field) -> Mat3:
    """The rows of the inverse are the cross products of pairs of columns,
    divided by the determinant."""
    c0, c1, c2 = zip(*m)
    rows = (cross(c1, c2, field), cross(c2, c0, field), cross(c0, c1, field))
    det = dot(c0, rows[0], field)
    if det == field._zero:
        raise ZeroDivisionError("matrix is singular")
    inv, mul = field._inv(det), field._mul
    return tuple(tuple(mul(x, inv) for x in row) for row in rows)


def frame_transform(
    p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint, p4: ProjectivePoint
) -> Mat3:
    """The transform sending the standard frame e1, e2, e3, (1:1:1) to the
    four given points.  Exists iff no three of them are collinear."""
    field = p1.field
    cols = (p1.raw, p2.raw, p3.raw)
    lam = linear_solve([list(row) for row in zip(*cols)], list(p4.raw), field)
    if lam is None or field._zero in lam:
        raise ValueError("points are not in general position")
    mul = field._mul
    return mat3_from_columns([[mul(l, c) for c in col] for l, col in zip(lam, cols)])


def frame_with_last_column(p: ProjectivePoint) -> Mat3:
    """Invertible matrix whose last column is p; the first two columns are
    standard basis vectors chosen off p's support.  Its determinant is, up
    to sign, the coordinate of p the choice tests, so it is nonzero."""
    one, zero = p.field._one, p.field._zero
    e = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    x = p.raw
    if x[2] != zero:
        return mat3_from_columns([e[0], e[1], x])
    if x[1] != zero:
        return mat3_from_columns([e[0], e[2], x])
    return mat3_from_columns([e[1], e[2], x])


# ---------------------------------------------------------------------------
# exact Gaussian elimination on raws


def extend_echelon(
    basis: list[tuple[int, list]], rows: Iterable[list], field: Field
) -> list[tuple[int, list]]:
    """A forward echelon basis of the span of basis and rows, raws of field:
    (pivot, row) pairs in pivot order, each row 1 at its pivot and 0 left
    of it.  basis, in that form, is left untouched and its rows are shared
    with the result, so a caller can keep it and extend it again.  Every
    elimination over a field in the package runs here."""
    out = list(basis)
    for row in rows:
        if len(out) == len(row):
            break  # full rank: nothing further is independent
        field.reduce_into(out, row)
    return out


def echelon_kernel(basis: list[tuple[int, list]], ncols: int, field: Field) -> list[tuple]:
    """Basis of the right kernel of the first ncols columns of a forward
    echelon basis, in the form `extend_echelon` gives, as raw tuples: per
    free column f, the vector that is 1 at f and 0 at the other free
    columns, by back-substitution from the last pivot up.  That vector is
    unique, so a reduced echelon form gives the same basis; every kernel
    in the package is read off here."""
    zero, sub, dot = field._zero, field._sub, field.dot
    pivots = {c for c, _ in basis}
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[f] = field._one
        for c, row in reversed(basis):
            v[c] = sub(zero, dot(row[c + 1 : ncols], v[c + 1 :]))
        out.append(tuple(v))
    return out


def row_reduce(rows: list[list], field: Field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form of rows, raws of field, as new rows, and
    the pivot columns.  Back-substitution is a second forward pass over the
    echelon rows from the last pivot up: each row then meets only rows
    already cleared at their pivots, so it comes out cleared at all of them."""
    forward = extend_echelon([], rows, field)
    reduced = extend_echelon([], [row for _, row in reversed(forward)], field)
    zero = field._zero
    ncols = len(rows[0]) if rows else 0
    m = [row for _, row in reduced] + [[zero] * ncols for _ in range(len(rows) - len(reduced))]
    return m, [c for c, _ in reduced]


def matrix_rank(rows: list[list], field: Field) -> int:
    """The rank of rows, raws of field.  A square matrix of size at most 3
    with a nonzero determinant has full rank without an elimination."""
    k, zero = len(rows), field._zero
    if k == 3 == len(rows[0]):
        det = dot(rows[0], cross(rows[1], rows[2], field), field)
    elif k == 2 == len(rows[0]):
        (a, b), (c, d) = rows
        det = field._sub(field._mul(a, d), field._mul(b, c))
    else:
        det = rows[0][0] if k == 1 == len(rows[0]) else zero
    return k if det != zero else len(extend_echelon([], rows, field))


def kernel_basis(rows: list[list], field: Field) -> list[tuple]:
    """Basis of the right kernel, as raw tuples.  rows must be nonempty so
    that the number of columns is known."""
    if not rows:
        raise ValueError("cannot infer the number of columns")
    return echelon_kernel(extend_echelon([], rows, field), len(rows[0]), field)


def two_sided_kernels(
    rows: list[list], field: Field
) -> tuple[list[tuple], list[list], list[list | None]]:
    """For the n nonempty rows of a matrix R: its right kernel K, as from
    `kernel_basis`; a basis of its left kernel L, as lists of length n; and
    per row i a vector v with R v = e_i, or None when some vector of L is
    nonzero at i.  One forward elimination of [R | I] gives all three: its
    rows whose R part vanished span L, and where L is zero at i, the
    others give the v that is 0 at R's free columns, the one a reduced
    form gives, by back-substitution against column i of their I part."""
    n, ncols, zero, one = len(rows), len(rows[0]), field._zero, field._one
    sub, dot = field._sub, field.dot
    augmented = [row + [one if j == i else zero for j in range(n)] for i, row in enumerate(rows)]
    echelon = extend_echelon([], augmented, field)
    top = [(c, row) for c, row in echelon if c < ncols]
    left = [row[ncols:] for c, row in echelon if c >= ncols]
    solutions: list[list | None] = []
    for i in range(n):
        v = None
        if all(u[i] == zero for u in left):
            v = [zero] * ncols
            for c, row in reversed(top):
                v[c] = sub(row[ncols + i], dot(row[c + 1 : ncols], v[c + 1 :]))
        solutions.append(v)
    return echelon_kernel(top, ncols, field), left, solutions


def linear_solve(rows: list[list], rhs: list, field: Field):
    """One solution of rows @ x = rhs on raws, or None."""
    ncols = len(rows[0])
    red, pivots = row_reduce([row + [b] for row, b in zip(rows, rhs)], field)
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [field._zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


# ---------------------------------------------------------------------------
# ternary forms


class Poly3:
    """Polynomial in three variables as a sparse exponent map.

    Keys are (a, b, c) exponent triples; values are nonzero raws of field.
    `coefficient` and `evaluate` box what they return.
    The geometry code only ever feeds homogeneous forms to the projective
    routines, but the representation does not insist on it.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms = {}
        if terms:
            zero = field._zero
            for k, v in terms.items():
                v = field(v).raw
                if v != zero:
                    self.terms[tuple(k)] = v

    @classmethod
    def from_raw(cls, field: Field, raws: dict) -> "Poly3":
        """The form with these raw coefficients; zero ones are dropped."""
        f = cls.__new__(cls)
        f.field = field
        zero = field._zero
        f.terms = {k: v for k, v in raws.items() if v != zero}
        return f

    @classmethod
    def zero(cls, field: Field) -> "Poly3":
        return cls(field)

    @classmethod
    def monomial(cls, field: Field, key, coeff=1) -> "Poly3":
        return cls(field, {tuple(key): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(k) for k in self.terms}
        return len(degs) <= 1

    def coefficient(self, key) -> FieldElement:
        return FieldElement(self.field, self.terms.get(tuple(key), self.field._zero))

    def _combine(self, other: "Poly3", op) -> "Poly3":
        out = dict(self.terms)
        zero = self.field._zero
        for k, v in other.terms.items():
            out[k] = op(out.get(k, zero), v)
        return Poly3.from_raw(self.field, out)

    def __add__(self, other: "Poly3") -> "Poly3":
        return self._combine(other, self.field._add)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return self._combine(other, self.field._sub)

    def __mul__(self, other: "Poly3") -> "Poly3":
        return Poly3.from_raw(self.field, _raw_product(self.field, self.terms, other.terms))

    def evaluate(self, coords) -> FieldElement:
        field = self.field
        return FieldElement(field, self.evaluate_raw([field(c).raw for c in coords]))

    def evaluate_raw(self, xs: Sequence):
        """The value at the raw coordinates xs, as a raw."""
        return self.evaluate_table(power_table(self.field, xs, self.degree()))

    def evaluate_table(self, powers):
        """The value, as a raw, at the point whose `power_table` is powers;
        the table must reach every exponent of the form.  One
        multiplication per nonzero exponent of each term."""
        field = self.field
        mul, add = field._mul, field._add
        px, py, pz = powers
        acc = field._zero
        for (a, b, c), v in self.terms.items():
            if a:
                v = mul(v, px[a])
            if b:
                v = mul(v, py[b])
            if c:
                v = mul(v, pz[c])
            acc = add(acc, v)
        return acc

    def partial(self, i: int) -> "Poly3":
        field = self.field
        out: dict = {}
        for k, v in self.terms.items():
            if k[i]:
                nk = list(k)
                nk[i] -= 1
                out[tuple(nk)] = field._mul(v, field._from_int(k[i]))
        return Poly3.from_raw(field, out)

    def compose_linear(self, m: Mat3) -> "Poly3":
        """F(M x): substitute each variable by the linear form from M's rows,
        raws of the form's field."""
        field = self.field
        mul, add, zero = field._mul, field._add, field._zero
        max_exp = [max((k[i] for k in self.terms), default=0) for i in range(3)]
        powers = []  # powers of each row's linear form, as raw term maps
        for row, top in zip(m, max_exp):
            form = {k: x for k, x in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if x != zero}
            cache = [{(0, 0, 0): field._one}]
            for _ in range(top):
                cache.append(_raw_product(field, cache[-1], form))
            powers.append(cache)
        out: dict = {}
        for (a, b, c), v in self.terms.items():
            term = _raw_product(field, powers[0][a], powers[1][b])
            term = _raw_product(field, term, powers[2][c])
            for k, x in term.items():
                out[k] = add(out.get(k, zero), mul(x, v))
        return Poly3.from_raw(field, out)

    @classmethod
    def from_coeff_map(cls, field: Field, data: dict) -> "Poly3":
        terms = {}
        for key, val in data.items():
            k = tuple(int(ch) for ch in key)
            if len(k) != 3:
                raise ValueError(f"bad monomial key {key!r}")
            if isinstance(val, (int, FieldElement)):
                terms[k] = field(val)
            else:
                terms[k] = field.element_from_json(val)
        return cls(field, terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly3)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "Poly3(0)"
        bits = []
        for k in sorted(self.terms, reverse=True):
            bits.append(f"{self.terms[k]!r}*x^{k[0]}y^{k[1]}z^{k[2]}")
        return "Poly3(" + " + ".join(bits) + ")"


def power_table(field: Field, xs: Sequence, d: int) -> list[list]:
    """x^0, ..., x^d on raws for each coordinate x in xs."""
    mul = field._mul
    table = []
    for x in xs:
        row = [field._one, x][: d + 1]
        while len(row) <= d:
            row.append(mul(row[-1], x))
        table.append(row)
    return table


def _raw_product(field: Field, f: dict, g: dict) -> dict:
    """The product of two forms given as raw term maps; zero terms may stay."""
    mul, add, zero = field._mul, field._add, field._zero
    out: dict = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            k = (a + d, b + e, c + h)
            out[k] = add(out.get(k, zero), mul(x, y))
    return out


@lru_cache(maxsize=None)
def monomial_exponents(d: int) -> tuple[tuple[int, int, int], ...]:
    """All (a, b, c) with a+b+c = d, lexicographically descending; one
    tuple per degree, shared by every caller."""
    return tuple((a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1))
