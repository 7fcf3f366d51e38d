"""Monomial matrix mechanics against dense numpy oracles."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import (
    DenominatorOverflow,
    DimensionMismatch,
    GcaError,
    MonomialMatrix,
    ONE,
    Phase,
    max_abs_diff,
    to_dense,
    weyl_word,
)
from gcakit.matrices import phase_sum
from gcakit.weylpairs import clock, shift


def random_monomial(rng, dim, max_den=12):
    target = tuple(int(x) for x in rng.permutation(dim))
    phase = tuple(
        Phase(int(rng.integers(0, max_den)), int(rng.integers(1, max_den + 1)))
        for _ in range(dim)
    )
    return MonomialMatrix(dim, target, phase)


def test_constructor_validation():
    with pytest.raises(DimensionMismatch):
        MonomialMatrix(2, (0,), (ONE, ONE))
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 0), (ONE, ONE))
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 2), (ONE, ONE))


def test_identity_and_diagonal():
    assert np.array_equal(to_dense(MonomialMatrix.identity(3)), np.eye(3))
    d = MonomialMatrix.diagonal((ONE, Phase(1, 2)))
    assert np.array_equal(to_dense(d), np.diag([1, -1]).astype(complex))


def test_product_matches_dense():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 5, 6):
        for _ in range(20):
            a = random_monomial(rng, dim)
            b = random_monomial(rng, dim)
            got = to_dense(a @ b)
            want = to_dense(a) @ to_dense(b)
            assert max_abs_diff(got, want) < 1e-14


def test_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        MonomialMatrix.identity(2) @ MonomialMatrix.identity(3)


def test_adjoint_and_inverse():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_monomial(rng, 5)
        assert max_abs_diff(to_dense(a.adjoint()), to_dense(a).conj().T) < 1e-14
        assert (a @ a.inverse()).is_identity()
        assert (a.inverse() @ a).is_identity()


def test_power():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_monomial(rng, 6)
        dense = to_dense(a)
        assert (a**0).is_identity()
        for k in (1, 2, 3, 7):
            assert max_abs_diff(to_dense(a**k), np.linalg.matrix_power(dense, k)) < 1e-13
        assert a**-1 == a.inverse()
        assert max_abs_diff(
            to_dense(a**-3), np.linalg.matrix_power(to_dense(a.inverse()), 3)
        ) < 1e-13


def test_tensor_matches_kron():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_monomial(rng, 3)
        b = random_monomial(rng, 4)
        assert max_abs_diff(to_dense(a.tensor(b)), np.kron(to_dense(a), to_dense(b))) < 1e-14


def test_tensor_square_against_dense_power():
    big = shift(3).tensor(clock(3))
    dense = np.kron(to_dense(shift(3)), to_dense(clock(3)))
    assert big.dim == 9
    assert max_abs_diff(to_dense(big @ big), np.linalg.matrix_power(dense, 2)) < 1e-14


def test_scale_and_scalar_phase():
    a = MonomialMatrix.identity(4).scale(Phase(1, 4))
    assert a.scalar_phase() == Phase(1, 4)
    assert shift(3).scalar_phase() is None
    mixed = MonomialMatrix.diagonal((ONE, Phase(1, 2)))
    assert mixed.scalar_phase() is None
    assert MonomialMatrix.identity(2).is_identity()
    assert not a.is_identity()


def test_trace_exact():
    assert MonomialMatrix.identity(5).trace_exact() == 5
    assert clock(4).trace_exact() == 0
    assert shift(4).trace_exact() == 0
    assert clock(3).trace_exact() == 0


def test_phase_sum_full_orbit_cancels_exactly():
    for n in range(2, 13):
        assert phase_sum([Phase(k, n) for k in range(n)]) == 0
    assert phase_sum([ONE] * 3) == 3


def test_phase_sum_matches_float_sum():
    rng = np.random.default_rng(2)
    for _ in range(25):
        phases = [
            Phase(int(rng.integers(0, 36)), int(rng.integers(1, 37))) for _ in range(8)
        ]
        ref = sum(p.to_complex() for p in phases)
        assert abs(phase_sum(phases) - ref) < 1e-12


def test_word_gram_orthogonality_exact():
    n = 4
    for k in range(n):
        for l in range(n):
            for m in range(n):
                for p in range(n):
                    g = (weyl_word(n, k, l).adjoint() @ weyl_word(n, m, p)).trace_exact()
                    assert g == (n if (k, l) == (m, p) else 0)


def test_random_word_closure_against_dense():
    rng = np.random.default_rng(13)
    n = 6
    a, b = shift(n), clock(n)
    for _ in range(20):
        k1, l1, k2, l2 = (int(x) for x in rng.integers(0, n, size=4))
        word = ((a**k1) @ (b**l1)).scale(Phase(int(rng.integers(0, 2 * n)), 2 * n))
        other = (a**k2) @ (b**l2)
        assert (
            max_abs_diff(to_dense(word @ other), to_dense(word) @ to_dense(other))
            < 1e-12
        )


# ---------------------------------------------------------------------------
# the integer-array core against pure-Python and dense numpy oracles

PROPERTY = settings(max_examples=60, deadline=None, database=None)
BIG_P, BIG_Q = 2**40 + 15, 2**40 + 27  # their lcm passes 2**62


@st.composite
def monomials(draw, dim=None, max_den=12):
    dim = draw(st.integers(1, 6)) if dim is None else dim
    target = draw(st.permutations(range(dim)))
    phase = [
        Phase(draw(st.integers(-max_den, max_den)), draw(st.integers(1, max_den)))
        for _ in range(dim)
    ]
    return MonomialMatrix(dim, tuple(target), tuple(phase))


def same_dim_monomials(count):
    return st.integers(1, 6).flatmap(lambda d: st.tuples(*[monomials(dim=d)] * count))


def oracle(m):
    """(target, exponents mod 1) read off the public views."""
    return tuple(m.target), tuple(p.exponent for p in m.phase)


def oracle_mul(a, b):
    at, af = a
    bt, bf = b
    return tuple(at[c] for c in bt), tuple((af[c] + f) % 1 for c, f in zip(bt, bf))


def oracle_dense(m):
    out = np.zeros((m.dim, m.dim), dtype=complex)
    for c, (row, p) in enumerate(zip(m.target, m.phase)):
        out[row, c] = np.exp(2j * np.pi * p.num / p.den)
    return out


@PROPERTY
@given(same_dim_monomials(3))
def test_product_is_associative_and_matches_oracles(abc):
    a, b, c = abc
    assert (a @ b) @ c == a @ (b @ c)
    assert oracle(a @ b) == oracle_mul(oracle(a), oracle(b))
    assert max_abs_diff(to_dense(a @ b), oracle_dense(a) @ oracle_dense(b)) < 1e-12


@PROPERTY
@given(monomials())
def test_adjoint_is_the_inverse(a):
    assert a.adjoint() == a.inverse()
    assert (a @ a.adjoint()).is_identity() and (a.adjoint() @ a).is_identity()
    assert max_abs_diff(to_dense(a.adjoint()), oracle_dense(a).conj().T) < 1e-12


@PROPERTY
@given(monomials(), st.integers(-7, 7))
def test_power_is_a_repeated_product(a, k):
    base = a if k >= 0 else a.inverse()
    want = reduce(lambda x, y: x @ y, [base] * abs(k), MonomialMatrix.identity(a.dim))
    assert a**k == want
    ref = oracle(MonomialMatrix.identity(a.dim))
    step = oracle(base)
    for _ in range(abs(k)):
        ref = oracle_mul(ref, step)
    assert oracle(a**k) == ref


def test_power_makes_no_square_past_the_last_set_bit(monkeypatch):
    products = []
    matmul = MonomialMatrix.__matmul__
    monkeypatch.setattr(MonomialMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    a = random_monomial(np.random.default_rng(17), 7)
    for k in range(-9, 10):
        products.clear()
        a**k
        m = abs(k)
        # squarings up to the top bit, plus one product per further set bit
        want = m.bit_length() - 1 + bin(m).count("1") - 1 if m else 0
        assert len(products) == want, k


@PROPERTY
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-3 * n, 3 * n), st.integers(-3 * n, 3 * n))
))
def test_weyl_word_is_the_closed_form_of_the_powers(nkl):
    n, k, l = nkl
    word = weyl_word(n, k, l)
    assert word == (shift(n) ** k) @ (clock(n) ** l)
    assert word == weyl_word(n, np.int64(k), np.int64(l))
    a = np.roll(np.eye(n), -1, axis=0)  # |c> -> |c-1 mod n>
    b = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    dense = np.linalg.matrix_power(a, k % n) @ np.linalg.matrix_power(b, l % n)
    assert max_abs_diff(to_dense(word), dense) < 1e-12


@PROPERTY
@given(same_dim_monomials(2), same_dim_monomials(2))
def test_tensor_mixed_product_law(ac, bd):
    a, c = ac
    b, d = bd
    assert a.tensor(b) @ c.tensor(d) == (a @ c).tensor(b @ d)
    assert max_abs_diff(to_dense(a.tensor(b)), np.kron(oracle_dense(a), oracle_dense(b))) < 1e-12


@PROPERTY
@given(monomials(), st.integers(-30, 30), st.integers(1, 30))
def test_scale_multiplies_every_entry(a, num, den):
    z = Phase(num, den)
    got = a.scale(z)
    assert oracle(got) == (tuple(a.target), tuple((p.exponent + z.exponent) % 1 for p in a.phase))
    assert max_abs_diff(to_dense(got), z.to_complex() * oracle_dense(a)) < 1e-12
    assert got.scale(z.inverse()) == a


@PROPERTY
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(st.permutations(range(d)), st.lists(st.integers(0, 3), min_size=d, max_size=d))
    ),
    st.integers(2, 7),
)
def test_equality_ignores_the_stored_denominator(data, factor):
    target, exp = data
    over_4 = MonomialMatrix.from_exponents(target, exp, 4)
    over_more = MonomialMatrix.from_exponents(target, [factor * e for e in exp], 4 * factor)
    from_phases = MonomialMatrix(len(target), tuple(target), tuple(Phase(e, 4) for e in exp))
    assert over_4 == over_more == from_phases
    assert hash(over_4) == hash(over_more) == hash(from_phases)
    bumped = MonomialMatrix.from_exponents(target, [factor * e + (c == 0) for c, e in enumerate(exp)], 4 * factor)
    assert bumped != over_4


def test_equality_over_den_4_and_12():
    a = MonomialMatrix.from_exponents([1, 2, 0], [1, 2, 3], 4)
    b = MonomialMatrix.from_exponents([1, 2, 0], [3, 6, 9], 12)
    assert a == b and hash(a) == hash(b)
    assert a.target == (1, 2, 0)
    assert a.phase == b.phase == (Phase(1, 4), Phase(1, 2), Phase(3, 4))
    assert {a: 1}[b] == 1


def test_from_exponents_validation():
    with pytest.raises(ValueError):
        MonomialMatrix.from_exponents([0, 0], [0, 0], 2)
    with pytest.raises(DimensionMismatch):
        MonomialMatrix.from_exponents([0, 1], [0], 2)
    with pytest.raises(ValueError):
        MonomialMatrix.from_exponents([0], [0], 0)
    with pytest.raises(DenominatorOverflow):
        MonomialMatrix.from_exponents([0], [1], 2**62 + 1)


@pytest.mark.parametrize("target, exp", [
    ([1.7, 0.2], [0, 1]),
    ([1.0, 0.0], [0, 1]),
    ([True, False], [0, 1]),
    ([1, 0], [0.5, 1.9]),
    ([1, 0], [1.0, 0.0]),
    ([1, 0], [True, False]),
])
def test_from_exponents_rejects_entries_that_are_not_integers(target, exp):
    with pytest.raises(ValueError, match="must hold integers"):
        MonomialMatrix.from_exponents(target, exp, 2)
    with pytest.raises(ValueError, match="must hold integers"):
        MonomialMatrix.from_exponents(np.array(target), np.array(exp), 2)


@pytest.mark.parametrize("den", [2.0, 2.5, True])
def test_from_exponents_rejects_a_denominator_that_is_not_an_integer(den):
    with pytest.raises(ValueError, match="denominator must be an integer"):
        MonomialMatrix.from_exponents([1, 0], [0, 1], den)


@pytest.mark.parametrize("target, phase", [
    ((1.7, 0.2), (ONE, ONE)),
    ((1.0, 0.0), (ONE, ONE)),
    ((True, False), (ONE, ONE)),
    ((1, 0), (0.5, 0.0)),
    ((1, 0), (1.0, 0.0)),
    ((1, 0), (True, False)),
])
def test_constructor_rejects_entries_that_are_not_integers(target, phase):
    with pytest.raises(ValueError, match="must hold integers|must be Phase"):
        MonomialMatrix(2, target, phase)


def test_matrices_are_immutable():
    a = shift(3)
    with pytest.raises(AttributeError):
        a.dim = 4


def test_from_exponents_does_not_share_the_callers_arrays():
    target, exp = np.array([1, 2, 0], dtype=np.int64), np.array([1, 2, 3], dtype=np.int64)
    a = MonomialMatrix.from_exponents(target, exp, 4)
    key = {a: 1}
    target[:] = (0, 1, 2)
    exp[:] = 0
    assert a.target == (1, 2, 0) and a.phase == (Phase(1, 4), Phase(1, 2), Phase(3, 4))
    assert key[MonomialMatrix.from_exponents([1, 2, 0], [1, 2, 3], 4)] == 1


def test_denominator_past_2_62_is_rejected_not_wrapped():
    p, q = Phase(1, BIG_P), Phase(1, BIG_Q)
    # the scalar type stays exact at any size
    assert p * q == Phase(BIG_P + BIG_Q, BIG_P * BIG_Q)
    with pytest.raises(DenominatorOverflow):
        MonomialMatrix(2, (0, 1), (p, q))
    a, b = MonomialMatrix.diagonal((p,)), MonomialMatrix.diagonal((q,))
    for op in (lambda: a @ b, lambda: a.tensor(b), lambda: a.scale(q)):
        with pytest.raises(GcaError):
            op()
    # a large denominator that reduces away is not an overflow
    trivial = a.scale(p.inverse())
    assert trivial.is_identity()
    assert trivial @ b == b
