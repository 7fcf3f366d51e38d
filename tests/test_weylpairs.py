"""Clock/shift pairs and their dense companions."""

import numpy as np
import pytest

from gcakit import (
    BadOrder,
    DegenerateBlock,
    Phase,
    clock,
    hermitian_logs,
    max_abs_diff,
    shift,
    sylvester,
    sylvester_inverse,
    symmetric_pair,
    to_dense,
    weyl_pair_for,
    weyl_word,
)


def test_two_dimensional_pair_is_pauli():
    assert np.array_equal(to_dense(shift(2)), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(to_dense(clock(2)), np.diag([1, -1]).astype(complex))


def test_shift_moves_each_column_up_one_row():
    # orientation fixed by a b = w b a with b the clock
    for n in (2, 3, 5, 8):
        dense = to_dense(shift(n))
        for c in range(n):
            col = np.zeros(n)
            col[(c - 1) % n] = 1
            assert np.array_equal(dense[:, c], col.astype(complex))


def test_clock_spectrum():
    n = 6
    dense = to_dense(clock(n))
    want = np.diag([np.exp(2j * np.pi * c / n) for c in range(n)])
    assert max_abs_diff(dense, want) < 1e-15


def test_commutation_and_orders_exact():
    for n in range(2, 33):
        a, b = shift(n), clock(n)
        assert a @ b == (b @ a).scale(Phase(1, n))
        assert (a**n).is_identity()
        assert (b**n).is_identity()


@pytest.mark.parametrize("order", [0, -3, 4.0, 2.5, True])
def test_words_reject_an_order_that_is_not_a_positive_integer(order):
    for make in (shift, clock, lambda n: weyl_word(n, 1, 1)):
        with pytest.raises(BadOrder):
            make(order)


def test_weyl_pair_plain():
    p = weyl_pair_for(1, 5)
    assert p.order == 5
    assert p.tau == 1
    assert p.commutator_phase() == Phase(1, 5)
    assert p.a @ p.b == (p.b @ p.a).scale(Phase(1, 5))


def test_weyl_pair_reduces_by_gcd():
    p = weyl_pair_for(2, 6)
    assert p.order == 3 and p.tau == 1
    assert p.commutator_phase() == Phase(2, 6)
    q = weyl_pair_for(3, 6)
    assert q.order == 2 and q.tau == 1
    r = weyl_pair_for(4, 6)
    assert r.order == 3 and r.tau == 2
    assert r.commutator_phase() == Phase(4, 6)
    assert r.a @ r.b == (r.b @ r.a).scale(Phase(4, 6))


def test_weyl_pair_degenerate_handling():
    with pytest.raises(DegenerateBlock):
        weyl_pair_for(0, 4)
    with pytest.raises(DegenerateBlock):
        weyl_pair_for(8, 4)
    with pytest.raises(BadOrder):
        weyl_pair_for(1, 1)


def test_symmetric_pair_balanced_spectrum():
    for nu in (0, 1, 2, 3):
        d = 2 * nu + 1
        p = symmetric_pair(nu)
        assert p.order == d
        diag = np.diag(to_dense(p.b))
        want = np.array([np.exp(2j * np.pi * (c - nu) / d) for c in range(d)])
        assert max_abs_diff(np.diag(diag), np.diag(want)) < 1e-15
        assert p.a @ p.b == (p.b @ p.a).scale(Phase(1, d))
        assert (p.b**d).is_identity()
    with pytest.raises(BadOrder):
        symmetric_pair(-1)


def test_sylvester_conjugates_clock_into_shift():
    for n in (2, 3, 4, 7):
        s = sylvester(n)
        assert max_abs_diff(s @ to_dense(clock(n)), to_dense(shift(n)) @ s) < 1e-12
        assert max_abs_diff(s @ sylvester_inverse(n), np.eye(n)) < 1e-13
        # columns scale to a unitary
        assert max_abs_diff(s.conj().T @ s, n * np.eye(n)) < 1e-12
    with pytest.raises(BadOrder):
        sylvester(0)


def expm_unitary(h, angle):
    """exp(1j*angle*h) for Hermitian h, through its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


def test_hermitian_logs_exponentiate_to_the_pair():
    for n in (2, 3, 4, 5):
        q, p = hermitian_logs(n)
        assert max_abs_diff(q, q.conj().T) < 1e-12
        assert max_abs_diff(p, p.conj().T) < 1e-12
        angle = 2 * np.pi / n
        assert max_abs_diff(expm_unitary(q, angle), to_dense(clock(n))) < 1e-10
        assert max_abs_diff(expm_unitary(p, angle), to_dense(shift(n))) < 1e-10


@pytest.mark.parametrize("k, l", [(1.5, 0), (1, 0.5), (2.0, 1), (True, 0), (0, False), ("1", 0)])
def test_words_reject_exponents_that_are_not_integers(k, l):
    # k = 1.5 used to give the target [2.5, 3.5, 0.5, 1.5]; l = 0.5 float exponents
    with pytest.raises(ValueError, match="word exponents must be integers"):
        weyl_word(4, k, l)


def test_words_take_numpy_integer_exponents_as_ints():
    assert weyl_word(4, np.int64(-3), np.int32(6)) == weyl_word(4, -3, 6)


def test_sylvester_inverse_rejects_order_zero_like_sylvester():
    for make in (sylvester, sylvester_inverse):
        with pytest.raises(BadOrder, match="order must be >= 1, got 0"):
            make(0)
