"""Projective plane over an exact field: points, 3x3 transforms, ternary
forms, and generic Gaussian elimination.

Points normalize their last nonzero coordinate to 1, so equality of
projective points is plain tuple equality.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import Field, FieldElement


class ProjectivePoint:
    __slots__ = ("field", "raw", "coords")

    def __init__(self, field: Field, coords: Sequence):
        raws = [field(c).raw for c in coords]
        if len(raws) != 3:
            raise ValueError("points live in the projective plane")
        self._set(field, raws)

    @classmethod
    def from_raw(cls, field: Field, raws: Sequence) -> "ProjectivePoint":
        """The point with these three raw coordinates, not yet normalized."""
        pt = cls.__new__(cls)
        pt._set(field, raws)
        return pt

    def _set(self, field: Field, raws: Sequence) -> None:
        self.field = field
        self.raw = normalized(field, raws)
        self.coords = tuple(FieldElement(field, c) for c in self.raw)

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.raw == other.raw
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.raw)

    def __getitem__(self, i: int) -> FieldElement:
        return self.coords[i]

    def __repr__(self):
        return "(" + " : ".join(repr(c) for c in self.raw) + ")"

    def to_json(self):
        return [c.to_json() for c in self.coords]

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
# 3x3 matrices as row tuples of FieldElement

Mat3 = tuple


def mat3(field: Field, rows) -> Mat3:
    return tuple(tuple(field(x) for x in row) for row in rows)


def mat3_identity(field: Field) -> Mat3:
    o, z = field.one(), field.zero()
    return ((o, z, z), (z, o, z), (z, z, o))


def mat3_from_columns(cols) -> Mat3:
    return tuple(zip(*cols))


def mat3_mul(a: Mat3, b: Mat3) -> Mat3:
    bt = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), row[0].field.zero()) for col in bt)
        for row in a
    )


def mat3_apply(m: Mat3, p: ProjectivePoint) -> ProjectivePoint:
    return ProjectivePoint.from_raw(p.field, mat3_apply_raw(m, p.raw, p.field))


def mat3_apply_raw(m: Mat3, xs: Sequence, field: Field) -> list:
    """M x on the raw coordinates xs, unnormalized."""
    mul, add = field._mul, field._add
    return [
        add(add(mul(a.raw, xs[0]), mul(b.raw, xs[1])), mul(c.raw, xs[2]))
        for a, b, c in m
    ]


def mat3_det(m):
    """Cofactor expansion; the entries may be field elements, Poly3s or ints."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat3_inverse(m: Mat3) -> Mat3:
    d = mat3_det(m)
    if not d:
        raise ZeroDivisionError("matrix is singular")
    dinv = d.inverse()
    c = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]) * dinv
            for i in range(3)
        ]
        for j in range(3)
    ]
    return tuple(tuple(row) for row in c)


def frame_transform(
    p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint, p4: ProjectivePoint
) -> Mat3:
    """The transform sending the standard frame e1, e2, e3, (1:1:1) to the
    four given points.  Exists iff no three of them are collinear."""
    field = p1.field
    # the matrix [p1 p2 p3] by rows, as raws
    rows = [[c.raw for c in row] for row in zip(p1.coords, p2.coords, p3.coords)]
    lam = linear_solve(rows, [c.raw for c in p4.coords], field)
    if lam is None or field._zero in lam:
        raise ValueError("points are not in general position")
    lam = [FieldElement(field, l) for l in lam]
    return mat3_from_columns(
        [tuple(l * c for c in p.coords) for l, p in zip(lam, (p1, p2, p3))]
    )


def frame_with_last_column(p: ProjectivePoint) -> Mat3:
    """Invertible matrix whose last column is p; the first two columns are
    standard basis vectors chosen off p's support."""
    field = p.field
    o, z = field.one(), field.zero()
    e = [(o, z, z), (z, o, z), (z, z, o)]
    if p.coords[2]:
        cols = [e[0], e[1], p.coords]
    elif p.coords[1]:
        cols = [e[0], e[2], p.coords]
    else:
        cols = [e[1], e[2], p.coords]
    m = mat3_from_columns(cols)
    assert mat3_det(m)
    return m


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
    return len(extend_echelon([], rows, field))


def kernel_basis(rows: list[list], field: Field) -> list[tuple]:
    """Basis of the right kernel, as raw tuples.  rows must be nonempty so
    that the number of columns is known."""
    if not rows:
        raise ValueError("cannot infer the number of columns")
    ncols = len(rows[0])
    red, pivots = row_reduce(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    zero, sub = field._zero, field._sub
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = field._one
        for r, pc in enumerate(pivots):
            v[pc] = sub(zero, red[r][fc])
        basis.append(tuple(v))
    return basis


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

    Keys are (a, b, c) exponent triples; values are nonzero field elements.
    The geometry code only ever feeds homogeneous forms to the projective
    routines, but the representation does not insist on it.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = field(v)
                if v:
                    self.terms[tuple(k)] = v

    @classmethod
    def zero(cls, field: Field) -> "Poly3":
        return cls(field)

    @classmethod
    def monomial(cls, field: Field, key, coeff=1) -> "Poly3":
        return cls(field, {tuple(key): coeff})

    @classmethod
    def linear_form(cls, field: Field, coeffs) -> "Poly3":
        return cls(field, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(k) for k in self.terms}
        return len(degs) <= 1

    def coefficient(self, key) -> FieldElement:
        return self.terms.get(tuple(key), self.field.zero())

    @classmethod
    def _from_raw(cls, field: Field, raws: dict) -> "Poly3":
        """The form with these raw coefficients; zero ones are dropped."""
        f = cls.__new__(cls)
        f.field = field
        zero = field._zero
        f.terms = {k: FieldElement(field, v) for k, v in raws.items() if v != zero}
        return f

    def _raw_terms(self) -> dict:
        return {k: v.raw for k, v in self.terms.items()}

    def _combine(self, other: "Poly3", op) -> "Poly3":
        out = self._raw_terms()
        zero = self.field._zero
        for k, v in other.terms.items():
            out[k] = op(out.get(k, zero), v.raw)
        return Poly3._from_raw(self.field, out)

    def __add__(self, other: "Poly3") -> "Poly3":
        return self._combine(other, self.field._add)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return self._combine(other, self.field._sub)

    def scaled(self, c) -> "Poly3":
        c, mul = self.field(c).raw, self.field._mul
        return Poly3._from_raw(self.field, {k: mul(v.raw, c) for k, v in self.terms.items()})

    def __mul__(self, other: "Poly3") -> "Poly3":
        return Poly3._from_raw(
            self.field, _raw_product(self.field, self._raw_terms(), other._raw_terms())
        )

    def evaluate(self, coords) -> FieldElement:
        field = self.field
        raws = [field(c).raw for c in coords]
        return FieldElement(field, self.evaluate_raw(power_table(field, raws, self.degree())))

    def evaluate_point(self, p: ProjectivePoint) -> FieldElement:
        return self.evaluate(p.coords)

    def evaluate_raw(self, powers):
        """The value, as a raw, at the point whose `power_table` is powers;
        the table must reach every exponent of the form.  One
        multiplication per nonzero exponent of each term."""
        field = self.field
        mul, add = field._mul, field._add
        px, py, pz = powers
        acc = field._zero
        for (a, b, c), v in self.terms.items():
            v = v.raw
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
                out[tuple(nk)] = field._mul(v.raw, field.from_int(k[i]).raw)
        return Poly3._from_raw(field, out)

    def compose_linear(self, m: Mat3) -> "Poly3":
        """F(M x): substitute each variable by the linear form from M's rows."""
        field = self.field
        mul, add, zero = field._mul, field._add, field._zero
        max_exp = [max((k[i] for k in self.terms), default=0) for i in range(3)]
        powers = []  # powers of each row's linear form, as raw term maps
        for row, top in zip(m, max_exp):
            form = {k: x.raw for k, x in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if x}
            cache = [{(0, 0, 0): field._one}]
            for _ in range(top):
                cache.append(_raw_product(field, cache[-1], form))
            powers.append(cache)
        out: dict = {}
        for (a, b, c), v in self.terms.items():
            term = _raw_product(field, powers[0][a], powers[1][b])
            term = _raw_product(field, term, powers[2][c])
            for k, x in term.items():
                out[k] = add(out.get(k, zero), mul(x, v.raw))
        return Poly3._from_raw(field, out)

    def to_coeff_map(self) -> dict:
        out = {}
        for k in sorted(self.terms, reverse=True):
            out["".join(str(d) for d in k)] = self.terms[k].to_json()
        return out

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
            bits.append(f"{self.terms[k].raw!r}*x^{k[0]}y^{k[1]}z^{k[2]}")
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


def monomial_exponents(d: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a+b+c = d, lexicographically descending."""
    out = [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
    return out
