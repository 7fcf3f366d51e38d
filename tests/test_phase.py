"""Exact root-of-unity arithmetic."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import IMAG, MINUS_IMAG, MINUS_ONE, ONE, IrrationalPhase, Phase


def test_constructor_reduces_mod_one():
    assert Phase(5, 4) == Phase(1, 4)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(2, 4) == Phase(1, 2)
    assert Phase(6, 3) == ONE
    # negative denominator folds into the numerator
    assert Phase(1, -4) == Phase(3, 4)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Phase(1, 0)


def test_bool_exponent_rejected():
    # True is an int subclass, and was read as 1/2
    with pytest.raises(ValueError, match="True"):
        Phase(True, 2)


def test_float_exponent_rejected():
    with pytest.raises(ValueError, match="1.5"):
        Phase(1.5, 2)


def test_float_power_rejected():
    with pytest.raises(ValueError, match="1.5"):
        Phase(1, 2) ** 1.5


def test_bool_power_rejected():
    # True used to be read as the exponent 1
    with pytest.raises(ValueError, match="power must be an integer, got True"):
        Phase(1, 2) ** True


def test_bool_root_index_rejected():
    with pytest.raises(ValueError, match="root index must be an integer, got True"):
        Phase(1, 4).root(True)


def test_float_root_index_is_named_in_the_message():
    # the message used to name the product 1/6.0, not the index
    with pytest.raises(ValueError, match=r"root index must be an integer, got 1\.5"):
        Phase(1, 4).root(1.5)


def test_numpy_integer_powers_and_roots_are_taken():
    assert Phase(1, 4) ** np.int64(3) == MINUS_IMAG
    assert Phase(1, 2).root(np.int32(2)) == IMAG


def test_numpy_integers_are_stored_as_int():
    p = Phase(np.int64(6), np.int32(8))
    assert p == Phase(3, 4) and type(p.num) is int and type(p.den) is int


def test_from_fraction():
    assert Phase.from_fraction(Fraction(7, 3)) == Phase(1, 3)
    assert Phase.from_fraction(2) == ONE
    assert Phase.from_fraction(Fraction(-1, 6)) == Phase(5, 6)


def test_exponent_and_order():
    assert Phase(2, 6).exponent == Fraction(1, 3)
    assert Phase(2, 6).order == 3
    assert ONE.order == 1
    assert MINUS_ONE.order == 2
    assert Phase(3, 8).order == 8


def test_is_one():
    assert ONE.is_one()
    assert not MINUS_ONE.is_one()
    assert Phase(4, 4).is_one()


def test_group_operations():
    w = Phase(1, 8)
    assert w * Phase(7, 8) == ONE
    assert w**8 == ONE
    assert w**-1 == w.inverse()
    assert w**3 / w == Phase(2, 8)
    assert (w**5).conjugate() == Phase(3, 8)
    assert IMAG * IMAG == MINUS_ONE
    assert MINUS_IMAG == IMAG.inverse()


def test_pow_matches_repeated_product():
    w = Phase(2, 7)
    acc = ONE
    for k in range(1, 15):
        acc = acc * w
        assert w**k == acc


def test_principal_root():
    assert MINUS_ONE.root(2) == IMAG
    assert Phase(1, 2).root(2) == Phase(1, 4)
    assert ONE.root(3) == ONE
    assert Phase(1, 3).root(2) == Phase(1, 6)
    with pytest.raises(ValueError):
        ONE.root(0)


def test_root_is_inverted_by_power():
    for num in range(12):
        for k in (1, 2, 3, 5):
            p = Phase(num, 12)
            assert p.root(k) ** k == p


def test_to_complex_quarter_turns_bit_exact():
    assert ONE.to_complex() == 1 + 0j
    assert MINUS_ONE.to_complex() == -1 + 0j
    assert IMAG.to_complex() == 1j
    assert MINUS_IMAG.to_complex() == -1j
    assert complex(Phase(1, 2)) == -1 + 0j


def test_to_complex_matches_exponential():
    for num in range(1, 30):
        for den in (3, 5, 7, 9, 11, 30):
            z = Phase(num, den).to_complex()
            ref = cmath.exp(2j * math.pi * (Fraction(num, den) % 1))
            assert abs(z - ref) < 1e-14


def test_from_complex_snaps_to_rational_angle():
    assert Phase.from_complex(cmath.exp(2j * math.pi * 3 / 7)) == Phase(3, 7)
    assert Phase.from_complex(1 + 0j) == ONE
    assert Phase.from_complex(-1j) == MINUS_IMAG


def test_from_complex_rejects_bad_input():
    with pytest.raises(IrrationalPhase):
        Phase.from_complex(0.5 + 0j)
    with pytest.raises(IrrationalPhase):
        Phase.from_complex(cmath.exp(2j * math.pi / math.sqrt(2)))


@pytest.mark.parametrize(
    "z", [complex("nan"), complex(1, float("nan")), complex("inf"), complex(float("-inf"), 1)]
)
def test_from_complex_rejects_non_finite_input(z):
    with pytest.raises(IrrationalPhase, match="is not 1"):
        Phase.from_complex(z)


def test_str_forms():
    assert str(ONE) == "1"
    assert str(MINUS_ONE) == "-1"
    assert str(IMAG) == "i"
    assert str(MINUS_IMAG) == "-i"
    assert str(Phase(1, 3)) == "exp(2i*pi*1/3)"


def test_hashable_and_frozen():
    seen = {Phase(1, 4): "a", Phase(5, 4): "b"}
    assert len(seen) == 1
    with pytest.raises(AttributeError):
        ONE.num = 3


# ---------------------------------------------------------------------------
# group laws on arbitrary phases

phases = st.builds(Phase, st.integers(-10**6, 10**6), st.integers(1, 10**4))
powers = st.integers(-40, 40)


@settings(max_examples=200, database=None)
@given(phases, phases, phases)
def test_product_is_associative_and_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=200, database=None)
@given(phases)
def test_identity_and_inverse(a):
    assert a * ONE == a == ONE * a
    assert a * a.inverse() == ONE == a.inverse() * a
    assert a / a == ONE and ONE / a == a.inverse()


@settings(max_examples=200, database=None)
@given(phases, powers)
def test_power_is_a_repeated_product(a, k):
    base = a if k >= 0 else a.inverse()
    acc = ONE
    for _ in range(abs(k)):
        acc = acc * base
    assert a**k == acc


@settings(max_examples=200, database=None)
@given(phases, st.integers(1, 50))
def test_root_then_power_gives_back_the_phase(a, k):
    assert a.root(k) ** k == a


@settings(max_examples=200, database=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(1, 10**6))
def test_equality_and_hash_ignore_a_common_factor(num, den, m):
    a, b, c = Phase(num, den), Phase(num * m, den * m), Phase(-num * m, -den * m)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a == Phase(num + den * m, den)
