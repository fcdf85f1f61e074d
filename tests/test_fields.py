"""Prime fields, extension fields, rationals.

The fixed moduli asserted below were frozen from a sympy scan picking the
monic irreducible of each degree whose low coefficients are smallest
(coefficient vector read as a base-p integer, constant term fastest).
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from picweyl import ExtensionField, FieldElement, PrimeField, RationalField
from picweyl.fields import field_from_descriptor


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 91):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(2), PrimeField(97), PrimeField(101)


def test_prime_field_basic_arithmetic():
    F = PrimeField(101)
    a, b = F(45), F(77)
    assert (a + b).raw == (45 + 77) % 101
    assert (a - b).raw == (45 - 77) % 101
    assert (a * b).raw == (45 * 77) % 101
    assert (a / b) * b == a
    assert (-a) + a == F.zero()
    assert a ** 0 == F.one()
    assert a ** (-1) == a.inverse()
    assert (a ** 100).raw == pow(45, 100, 101) == 1


def test_division_by_zero():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ZeroDivisionError):
        F(0).inverse()


@given(st.integers(0, 100), st.integers(1, 100))
def test_prime_field_inverse_property(a, b):
    F = PrimeField(101)
    x, y = F(a), F(b)
    assert (x * y) / y == x
    assert y * y.inverse() == F.one()


def test_int_coercion_in_expressions():
    F = PrimeField(13)
    a = F(7)
    assert a + 6 == F.zero()
    assert 1 - a == F(-6)
    assert 2 * a == a * 2
    assert 1 / a == a.inverse()


def test_elements_enumeration():
    F = PrimeField(7)
    assert sorted(e.raw for e in F.elements()) == list(range(7))
    K = ExtensionField(2, 2)
    assert len(list(K.elements())) == 4
    # one walk per field: elements() boxes the raws in their order, the
    # constant digit fastest
    K = ExtensionField(3, 2)
    assert [e.raw for e in K.elements()][:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert [e.raw for e in K.elements()] == list(K._raws())
    for infinite_or_huge in (RationalField(), ExtensionField(5, 9)):
        with pytest.raises(ValueError):
            infinite_or_huge.elements()


FROZEN_MODULI = {
    (2, 4): (1, 1, 0, 0),
    (3, 2): (1, 0),
    (7, 3): (2, 0, 0),
    (5, 12): (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("pe,tail", sorted(FROZEN_MODULI.items()))
def test_frozen_default_moduli(pe, tail):
    p, e = pe
    assert ExtensionField(p, e).modulus == tail


def test_extension_field_arithmetic_vs_hand_reduction():
    # GF(9) with modulus x^2 + 1: (x)(x) = -1 = 2
    K = ExtensionField(3, 2)
    x = K.element((0, 1))
    assert (x * x).raw == (2, 0)
    assert (x ** 4).raw == (1, 0)  # (-1)^2
    # frobenius sanity: a^9 = a for every element
    for a in K.elements():
        assert a ** 9 == a


def test_extension_field_inverse_and_order():
    K = ExtensionField(5, 12)
    x = K.element((0, 1) + (0,) * 10)
    assert x * x.inverse() == K.one()
    # the multiplicative group has order 5^12 - 1
    assert x ** (5 ** 12 - 1) == K.one()
    assert x ** (5 ** 6 - 1) != K.one()


def test_extension_elements_have_char_p():
    K = ExtensionField(5, 12)
    a = K.from_int(3)
    assert a + a + a + a + a == K.zero()


def test_rational_field():
    Q = RationalField()
    a = Q(Fraction(2, 3))
    b = Q.from_int(4)
    assert (a * b).raw == Fraction(8, 3)
    assert (a / b).raw == Fraction(1, 6)
    assert Q.descriptor() == {"rational": True}
    with pytest.raises(ZeroDivisionError):
        a / Q.zero()


def test_cross_field_operations_rejected():
    with pytest.raises((TypeError, ValueError)):
        PrimeField(5)(1) + PrimeField(7)(1)


def test_element_json_round_trip():
    F = PrimeField(101)
    K = ExtensionField(5, 3)
    for field, raw in [(F, 87), (K, (1, 4, 2))]:
        el = field.element(raw)
        blob = json.dumps(el.to_json())
        back = field.element_from_json(json.loads(blob))
        assert back == el


def test_random_element_is_deterministic_per_seed():
    K = ExtensionField(5, 12)
    a = K.random_element(random.Random(42))
    b = K.random_element(random.Random(42))
    assert a == b


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert ExtensionField(3, 2) == ExtensionField(3, 2)
    assert ExtensionField(3, 2) != ExtensionField(3, 3)
    assert len({PrimeField(5), PrimeField(5), PrimeField(7)}) == 2


def test_element_repr_mentions_field():
    K = ExtensionField(2, 2)
    assert "GF(2^2)" in repr(K.element((0, 1)))


def test_descriptor_shapes():
    assert PrimeField(101).descriptor() == {"p": 101, "e": 1}
    assert ExtensionField(5, 12).descriptor() == {"p": 5, "e": 12}
    for field in (PrimeField(101), ExtensionField(3, 2), ExtensionField(5, 12), RationalField()):
        assert field_from_descriptor(field.descriptor()) == field


def test_bool_and_hash_of_elements():
    F = PrimeField(3)
    assert not F.zero()
    assert F.one()
    assert len({F(1), F(1), F(2)}) == 2
    assert isinstance(F(1), FieldElement)
