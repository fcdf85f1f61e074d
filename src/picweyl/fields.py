"""Exact coefficient fields: GF(p), GF(p^e) and Q.

The library computes on raws, which are canonical: ints in [0, p) for prime
fields, coefficient tuples of length e for extensions, Fraction for Q.  A
field's ``_add``, ``_sub``, ``_mul``, ``_inv`` and ``_pow`` act on them,
``_from_int`` makes one from an integer, ``_raws`` walks them in the one
fixed order every search uses, and every layer below the public API calls
those directly.  ``FieldElement`` boxes one raw with its field and
overloads the operators; it is the type the public API takes and hands
back, for callers to compute with.

Extension fields are built on a fixed modulus: the minimal monic irreducible
of degree e over F_p, "minimal" meaning smallest when the non-leading
coefficients are read as a base-p integer with the constant term least
significant.  That makes every GF(p^e) here reproducible byte for byte.
The polynomial work behind an extension field (the inverse of an element
modulo the modulus, the irreducibility test that picks the modulus) is
``polys`` run over the base field GF(p) on these same raws.
"""

from __future__ import annotations

import itertools
import json
import operator
from bisect import insort
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from typing import Iterator

from . import polys
from .smith import is_prime


class FieldElement:
    __slots__ = ("field", "raw")

    def __init__(self, field: "Field", raw):
        self.field = field
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(f"mixed fields: {self.field} vs {other.field}")
            return other.raw
        if isinstance(other, int):
            return self.field._from_int(other)
        return None

    def __add__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.raw, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(self.raw, r))

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field._sub(r, self.raw))

    def __mul__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.raw, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.raw, self.field._inv(r)))

    def __rtruediv__(self, other):
        r = self._coerce(other)
        if r is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(r, self.field._inv(self.raw)))

    def __neg__(self):
        return FieldElement(self.field, self.field._sub(self.field._zero, self.raw))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        field = self.field
        if n < 0:
            return FieldElement(field, field._pow(field._inv(self.raw), -n))
        return FieldElement(field, field._pow(self.raw, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.raw))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.field._from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return self.raw != self.field._zero

    def __repr__(self):
        return f"{self.raw!r} in {self.field}"

    def to_json(self):
        return self.field.raw_to_json(self.raw)


class Field:
    """Common interface; see PrimeField, ExtensionField, RationalField."""

    char: int
    order: int | None  # None means infinite

    _zero = _one = None  # canonical raw zero and one, set by subclasses

    def zero(self) -> FieldElement:
        return FieldElement(self, self._zero)

    def one(self) -> FieldElement:
        return FieldElement(self, self._one)

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element of a different field")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        return self.element(value)

    def element(self, raw) -> FieldElement:
        raise NotImplementedError

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int(n))

    def elements(self) -> Iterator[FieldElement]:
        """Every element once, in `_raws` order; finite fields of at most
        2^20 elements only."""
        if self.order is None or self.order > 1 << 20:
            raise ValueError(f"refusing to enumerate {self}")
        return (FieldElement(self, raw) for raw in self._raws())

    def _raws(self) -> Iterator:
        """The field's raws, each once, in a fixed order: 0, 1, 2, ... over
        GF(p), the base-p codes with the constant digit least significant
        over GF(p^e), and over Q the finite walk of fractions num/den in
        lowest terms, |num| <= 24 and den <= 12, by denominator, then numerator."""
        raise NotImplementedError

    def random_element(self, rng) -> FieldElement:
        raise NotImplementedError

    def raw_to_json(self, raw):
        raise NotImplementedError

    def element_from_json(self, data) -> FieldElement:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def _from_int(self, n: int):
        """The raw of the integer n: n times one."""
        raise NotImplementedError

    def _pow(self, a, n: int):
        """a^n on raws for n >= 0, by square-and-multiply."""
        result = self._one
        while n:
            if n & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            n >>= 1
        return result

    def reduce_into(self, basis: list[tuple[int, list]], row: list) -> bool:
        """Forward elimination step.  basis holds (pivot, row) pairs in
        pivot order, each row 1 at its pivot and 0 left of it.  Reduce a
        copy of row against basis, insert what is left, scaled to 1 at its
        first nonzero column, in pivot order, and say whether row was
        independent.  The rows already in basis are never changed."""
        zero, sub, mul = self._zero, self._sub, self._mul
        row = row[:]
        for c, b in basis:
            f = row[c]
            if f != zero:
                row[c:] = [sub(x, mul(f, y)) for x, y in zip(row[c:], b[c:])]
        for lead, x in enumerate(row):
            if x != zero:
                break
        else:
            return False
        if x != self._one:
            inv = self._inv(x)
            row[lead:] = [mul(y, inv) for y in row[lead:]]
        insort(basis, (lead, row))  # pivots are distinct: rows are never compared
        return True

    def dot(self, u: list, v: list):
        """The sum of u_i v_i, on raws."""
        return reduce(self._add, map(self._mul, u, v), self._zero)


class PrimeField(Field):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self._zero, self._one = 0, 1

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def _pow(self, a, n: int):
        return pow(a, n, self.p)

    def reduce_into(self, basis: list[tuple[int, list[int]]], row: list[int]) -> bool:
        """Field.reduce_into with the arithmetic inlined on ints mod p."""
        p = self.p
        row = row[:]
        for c, b in basis:
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], b[c:])]
        for lead, x in enumerate(row):
            if x:
                break
        else:
            return False
        if x != 1:
            inv = pow(x, -1, p)
            row[lead:] = [y * inv % p for y in row[lead:]]
        insort(basis, (lead, row))
        return True

    def dot(self, u: list[int], v: list[int]) -> int:
        """Field.dot with one reduction mod p, at the end."""
        return sum(map(operator.mul, u, v)) % self.p

    def element(self, raw) -> FieldElement:
        return FieldElement(self, int(raw) % self.p)

    def _from_int(self, n: int):
        return n % self.p

    def _raws(self) -> Iterator[int]:
        return iter(range(self.p))

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, rng.randrange(self.p))

    def raw_to_json(self, raw):
        return str(raw)

    def element_from_json(self, data) -> FieldElement:
        if isinstance(data, list):
            raise ValueError(f"expected a scalar in {self}, got a list; "
                             "pass --e for an extension field")
        return FieldElement(self, _json_int(data) % self.p)

    def descriptor(self) -> dict:
        return {"p": self.p, "e": 1}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField(Field):
    char = 0
    order = None
    _zero, _one = Fraction(0), Fraction(1)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def element(self, raw) -> FieldElement:
        return FieldElement(self, Fraction(raw))

    def _from_int(self, n: int):
        return Fraction(n)

    def _raws(self) -> Iterator[Fraction]:
        return (Fraction(n, d) for d in range(1, 13) for n in range(-24, 25) if gcd(n, d) == 1)

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, Fraction(rng.randint(-20, 20), rng.randint(1, 12)))

    def raw_to_json(self, raw: Fraction):
        return str(raw)  # "a" or "a/b"

    def element_from_json(self, data) -> FieldElement:
        return FieldElement(self, Fraction(str(data)))

    def descriptor(self) -> dict:
        return {"rational": True}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class ExtensionField(Field):
    """GF(p^e) as F_p[x] modulo a fixed irreducible.  Raw elements are
    coefficient tuples of length e, constant term first."""

    def __init__(self, p: int, e: int):
        self._base = PrimeField(p)  # raises ValueError unless p is prime
        if e < 2:
            raise ValueError("use PrimeField for e = 1")
        if e > 12:
            raise ValueError("extension degree capped at 12")
        self.p = p
        self.e = e
        self.char = p
        self.order = p**e
        self.modulus = smallest_irreducible(p, e)[:-1]  # non-leading part
        self._zero, self._one = (0,) * e, (1,) + (0,) * (e - 1)

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        p, e = self.p, self.e
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        # reduce x^k = -modulus_tail * x^(k-e) for k >= e
        for k in range(2 * e - 2, e - 1, -1):
            c = conv[k] % p
            if c:
                base = k - e
                for j, mj in enumerate(self.modulus):
                    conv[base + j] -= c * mj
            conv[k] = 0
        return tuple(c % p for c in conv[:e])

    def _inv(self, a):
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero")
        base = self._base
        inv = polys.inverse_mod(base, polys.trim(base, list(a)), [*self.modulus, 1])
        return tuple(inv) + (0,) * (self.e - len(inv))

    def element(self, raw) -> FieldElement:
        cs = [int(c) % self.p for c in raw]
        if len(cs) > self.e:
            raise ValueError("coefficient list longer than the degree")
        cs += [0] * (self.e - len(cs))
        return FieldElement(self, tuple(cs))

    def _from_int(self, n: int):
        return (n % self.p,) + self._zero[1:]

    def _raws(self) -> Iterator[tuple[int, ...]]:
        return _digit_tuples(self.p, self.e)

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, tuple(rng.randrange(self.p) for _ in range(self.e)))

    def raw_to_json(self, raw):
        return [str(c) for c in raw]

    def element_from_json(self, data) -> FieldElement:
        if isinstance(data, list):
            return self.element([_json_int(c) for c in data])
        return self.from_int(_json_int(data))

    def descriptor(self) -> dict:
        return {"p": self.p, "e": self.e}

    def __eq__(self, other):
        # the modulus is a function of (p, e)
        return isinstance(other, ExtensionField) and other.p == self.p and other.e == self.e

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.e))

    def __repr__(self):
        return f"GF({self.p}^{self.e})"


def field_from_descriptor(desc: dict) -> Field:
    if desc.get("rational"):
        return QQ
    p = int(desc["p"])
    e = int(desc.get("e", 1))
    return PrimeField(p) if e == 1 else ExtensionField(p, e)


def _json_int(x) -> int:
    """A JSON integer, or a string holding one; bools, floats, lists and objects are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{json.dumps(x)} is not an integer")
    return int(x)


# ---------------------------------------------------------------------------
# the default modulus of GF(p^e)


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over F_p with the smallest non-leading
    part in the base-p encoding (constant digit least significant).
    Returns ascending coefficients, length e + 1."""
    base = PrimeField(p)
    for tail in _digit_tuples(p, e):
        f = [*tail, 1]
        if polys.is_irreducible(base, f):
            return tuple(f)
    raise AssertionError("no irreducible found, which cannot happen")


def _digit_tuples(p: int, e: int) -> Iterator[tuple[int, ...]]:
    """The base-p digits of 0, 1, ..., p^e - 1, least significant first."""
    return (digits[::-1] for digits in itertools.product(range(p), repeat=e))
