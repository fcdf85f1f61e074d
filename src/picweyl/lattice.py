"""Hyperbolic lattice Z^{1,n} with the geometric basis of a blown-up plane.

The lattice has basis e_0, e_1, ..., e_n with e_0^2 = 1, e_i^2 = -1 and all
mixed products zero.  Vectors are stored as integer coordinate tuples in this
basis, index 0 first.  Everything here is exact integer arithmetic.

The change to the simple-root basis lives here, in closed form; this module
imports no other picweyl module, so every layer can use it.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator


def inner(u: "LatticeVector", v: "LatticeVector") -> int:
    """Signature (1, n) pairing: u_0*v_0 - sum_{i>=1} u_i*v_i."""
    if len(u.coords) != len(v.coords):
        raise ValueError(f"mixed ranks: {len(u.coords) - 1} vs {len(v.coords) - 1}")
    a, b = u.coords, v.coords
    return a[0] * b[0] - sum(map(operator.mul, a[1:], b[1:]))


class _Immutable:
    """Slotted value objects that __init__ fills with object.__setattr__
    and nothing changes afterwards.  Plain classes rather than frozen
    dataclasses: importing dataclasses loads inspect and ast, about 1 MB of
    memory in every process."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


# the decimal strings of small coordinates, built once: every to_json list
# shares them, so a kept certificate holds no string of its own for them
_DECIMALS = tuple(str(c) for c in range(-64, 65))


class LatticeVector(_Immutable):
    """Immutable integer vector in the geometric basis.

    coords[0] is the coefficient of e_0 (the degree for a curve class);
    coords[i] the coefficient of e_i.  A class d*e_0 - sum m_i*e_i therefore
    has coords (d, -m_1, ..., -m_n).
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        if len(coords) < 2:
            raise ValueError("need at least e_0 and e_1")
        if not all(isinstance(c, int) for c in coords):
            raise TypeError("coordinates must be ints")
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is not LatticeVector:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __reduce__(self):
        return LatticeVector, (self.coords,)

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def degree(self) -> int:
        return self.coords[0]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """(m_1, ..., m_n) with the class written d*e_0 - sum m_i e_i."""
        return tuple(-c for c in self.coords[1:])

    def dot(self, other: "LatticeVector") -> int:
        return inner(self, other)

    def is_root(self, canonical: "LatticeVector") -> bool:
        """Self-intersection -2 and orthogonal to the canonical vector."""
        return self.dot(self) == -2 and self.dot(canonical) == 0

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "LatticeVector":
        if not isinstance(k, int):
            return NotImplemented
        return LatticeVector(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def to_json(self) -> list[str]:
        """Decimal strings, index 0 = e_0 coefficient."""
        return [_DECIMALS[c + 64] if -64 <= c <= 64 else str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "LatticeVector":
        return cls(tuple(int(s) for s in data))

    def __repr__(self) -> str:
        return f"LatticeVector({self.coords})"


def vector(*coords: int) -> LatticeVector:
    """Shorthand constructor used all over the tests."""
    return LatticeVector(tuple(coords))


def basis_vector(i: int, n: int) -> LatticeVector:
    """e_i inside Z^{1,n} (0 <= i <= n)."""
    if not 0 <= i <= n:
        raise ValueError(f"index {i} outside 0..{n}")
    return LatticeVector(tuple(1 if j == i else 0 for j in range(n + 1)))


def canonical_vector(n: int) -> LatticeVector:
    """-3*e_0 + e_1 + ... + e_n, the anticanonical's negative on n points.

    Its self-intersection is 9 - n.
    """
    if n < 3:
        raise ValueError("need n >= 3 for the root system to exist")
    return LatticeVector((-3,) + (1,) * n)


@lru_cache(maxsize=None)
def simple_roots(n: int) -> tuple[LatticeVector, ...]:
    """The n simple roots spanning the orthogonal complement of canonical_vector(n).

    alpha_0 = e_0 - e_1 - e_2 - e_3 and alpha_i = e_i - e_{i+1} for
    1 <= i <= n-1.  Their intersection graph is the T-shaped tree with
    alpha_0 hanging off alpha_3.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    roots = []
    a0 = [1, -1, -1, -1] + [0] * (n - 3)
    roots.append(LatticeVector(tuple(a0)))
    for i in range(1, n):
        c = [0] * (n + 1)
        c[i] = 1
        c[i + 1] = -1
        roots.append(LatticeVector(tuple(c)))
    return tuple(roots)


@lru_cache(maxsize=None)
def root_basis_left_inverse(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix taking v = sum c_i alpha_i to (c_0, ..., c_{n-1}), read
    off coordinate by coordinate: c_0 = v_0, and c_i = min(i, 3) v_0 + v_1 +
    ... + v_i for 0 < i < n."""
    if n < 3:
        raise ValueError("need n >= 3")
    return tuple(
        (max(1, min(i, 3)),) + tuple(int(j <= i) for j in range(1, n + 1))
        for i in range(n)
    )


def root_basis_coordinates(v: LatticeVector) -> tuple[int, ...]:
    """Coordinates of v in the simple-root basis.  The simple roots are a
    Z-basis of the canonical complement, so 3 v_0 + v_1 + ... + v_n = 0 (the
    last coordinate v_n = -c_{n-1}) is the whole membership check."""
    c = v.coords
    li = root_basis_left_inverse(len(c) - 1)
    if 3 * c[0] + sum(c[1:]) != 0:
        raise ValueError("vector is not orthogonal to the canonical vector")
    return mat_vec(li, c)


def gram_matrix(vectors: Iterable[LatticeVector]) -> tuple[tuple[int, ...], ...]:
    cs = [v.coords for v in vectors]
    for c in cs:
        if len(c) != len(cs[0]):
            raise ValueError(f"mixed ranks: {len(cs[0]) - 1} vs {len(c) - 1}")
    # u.v = u_0 v_0 - sum_{i>=1} u_i v_i = 2 u_0 v_0 - sum_i u_i v_i
    return tuple(
        tuple(2 * a[0] * b[0] - sum(map(operator.mul, a, b)) for b in cs) for a in cs
    )


class HyperbolicLattice:
    """Z^{1,n} bundled with its geometric basis and canonical vector."""

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("need n >= 3")
        self.n = n
        self.dim = n + 1
        self.canonical = canonical_vector(n)
        self.simple_roots = simple_roots(n)

    def e(self, i: int) -> LatticeVector:
        return basis_vector(i, self.n)

    def zero(self) -> LatticeVector:
        return LatticeVector((0,) * self.dim)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Gram matrix of the simple roots: -2 on the diagonal, 1 for edges
        of the T-shaped intersection tree, 0 otherwise."""
        return gram_matrix(self.simple_roots)

    def __repr__(self) -> str:
        return f"HyperbolicLattice(n={self.n})"


# ---------------------------------------------------------------------------
# small integer-matrix helpers shared with the Weyl-group module


def mat_identity(dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


def mat_vec(a, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def mat_transpose(a) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*a))


class LatticeIsometry(_Immutable):
    """Integer matrix preserving the (1, n) form, acting on column vectors.

    Validation happens on construction: rows must satisfy G^t J G = J where
    J is the signature matrix.  Inverses are exact and integral because
    G^{-1} = J G^t J for any such G.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix not square")
        # (G^t J G)[a][b] is the pairing of columns a and b; it is symmetric
        cols = mat_transpose(rows)
        for a, u in enumerate(cols):
            for b in range(a, dim):
                v = cols[b]
                pairing = u[0] * v[0] - sum(map(operator.mul, u[1:], v[1:]))
                if pairing != (0 if a != b else 1 if a == 0 else -1):
                    raise ValueError("matrix does not preserve the (1,n) form")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    def apply(self, v: LatticeVector) -> LatticeVector:
        if len(v.coords) != self.dim:
            raise ValueError("dimension mismatch")
        return LatticeVector(mat_vec(self.rows, v.coords))

    def __matmul__(self, other: "LatticeIsometry") -> "LatticeIsometry":
        """(a @ b).apply(v) == a.apply(b.apply(v))."""
        return LatticeIsometry(mat_mul(self.rows, other.rows))

    def inverse(self) -> "LatticeIsometry":
        j = _sig(self.dim)
        return LatticeIsometry(mat_mul(mat_mul(j, mat_transpose(self.rows)), j))

    def fixes(self, v: LatticeVector) -> bool:
        return self.apply(v) == v

    @classmethod
    def identity(cls, n: int) -> "LatticeIsometry":
        return cls(mat_identity(n + 1))

    def __eq__(self, other):
        if other.__class__ is not LatticeIsometry:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash((self.rows,))

    def __reduce__(self):
        return LatticeIsometry, (self.rows,)

    def __repr__(self) -> str:
        return f"LatticeIsometry(n={self.n})"


def _sig(dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(dim))
        for i in range(dim)
    )
