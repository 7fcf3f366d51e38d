"""Linear combinations of generators: power law and diagonalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import (
    BadOrder,
    DimensionMismatch,
    EvenGeneratorCount,
    GcaSpec,
    GcaError,
    LSpec,
    NotFinite,
    NotReal,
    ZeroVector,
    clifford_generators,
    diagonalize_l,
    family_order,
    family_rep,
    l_matrix,
    max_abs_diff,
    nth_power_check,
    ordered_gca_generators,
    sigma_operation,
    to_dense,
    validate_tmatrix,
    build_representation,
)


def test_lspec_coerces_and_validates():
    rep = clifford_generators(3)
    spec = LSpec((1, 2, 3), rep)
    assert spec.lam == (1 + 0j, 2 + 0j, 3 + 0j)
    with pytest.raises(DimensionMismatch):
        LSpec((1, 2), rep)


def test_l_matrix_is_the_plain_sum():
    rep = clifford_generators(3)
    lam = (0.3, -1.2, 2.5)
    want = sum(c * to_dense(g) for c, g in zip(lam, rep.gens))
    assert max_abs_diff(l_matrix(LSpec(lam, rep)), want) == 0


def test_three_four_five_square():
    spec = LSpec((3, 4, 0), clifford_generators(3))
    L = l_matrix(spec)
    assert max_abs_diff(L @ L, 25 * np.eye(2)) < 1e-12
    r = nth_power_check(spec)
    assert r.passed and r.order == 2 and abs(r.scalar - 25) < 1e-12


def test_cubic_power_law():
    spec = LSpec((1, 1), ordered_gca_generators(2, 3))
    r = nth_power_check(spec)
    assert r.passed and r.order == 3 and abs(r.scalar - 2) < 1e-12
    L = l_matrix(spec)
    assert max_abs_diff(np.linalg.matrix_power(L, 3), 2 * np.eye(3)) < 1e-12


def test_power_law_random_complex_coefficients():
    rng = np.random.default_rng(17)
    for n, order in ((3, 2), (4, 3), (3, 4), (5, 2)):
        rep = ordered_gca_generators(n, order)
        for _ in range(5):
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            r = nth_power_check(LSpec(lam, rep))
            assert r.passed, (n, order, r.deviation)
            # direct matrix-power oracle
            want = sum(x**order for x in lam) * np.eye(rep.dim)
            got = np.linalg.matrix_power(l_matrix(LSpec(lam, rep)), order)
            assert max_abs_diff(got, want) < 1e-9 * (1 + abs(r.scalar))


def test_family_order_detection():
    assert family_order(clifford_generators(4)) == 2
    assert family_order(ordered_gca_generators(3, 5)) == 5
    # a spec with mixed commutation exponents is not the standard family
    t = validate_tmatrix([[0, 2], [-2, 0]], 4)
    rep = build_representation(GcaSpec(t, (4, 4)))
    assert family_order(rep) is None
    with pytest.raises(BadOrder):
        nth_power_check(LSpec((1, 1), rep))


def test_family_rep_matches_builders():
    assert family_rep(3, 2).gens == clifford_generators(3).gens
    assert family_rep(3, 4).gens == ordered_gca_generators(3, 4).gens


def test_diagonalize_simple_rotation():
    rep = clifford_generators(3)
    d = diagonalize_l(LSpec((1, 0, 0), rep))
    assert max_abs_diff(d.u, np.array([[1, 1], [1, -1]]) / np.sqrt(2)) < 1e-12
    assert d.axis == 1
    assert not d.used_fallback
    assert abs(d.big_lambda - 1.0) < 1e-12


def diag_invariants(lam, rep, d):
    L = l_matrix(LSpec(lam, rep))
    t = d.u @ L @ d.u.conj().T
    assert max_abs_diff(d.u @ d.u.conj().T, np.eye(rep.dim)) < 1e-10
    assert max_abs_diff(t, d.big_lambda * to_dense(rep.gens[d.axis])) < 1e-9
    assert np.allclose(np.sort(d.eig), np.sort(np.linalg.eigvalsh(L)), atol=1e-9)


def test_diagonalize_random_real_vectors():
    rng = np.random.default_rng(29)
    for n in (2, 3, 4, 5, 6):
        rep = clifford_generators(n)
        for _ in range(8):
            lam = tuple(rng.normal(size=n))
            d = diagonalize_l(LSpec(lam, rep))
            diag_invariants(lam, rep, d)


def test_diagonalize_degenerate_axis_uses_fallback():
    rep = clifford_generators(3)
    lam = (0.0, -1.0, 0.0)
    d = diagonalize_l(LSpec(lam, rep))
    assert d.used_fallback
    diag_invariants(lam, rep, d)


def test_diagonalize_near_degenerate_axis():
    rep = clifford_generators(4)
    lam = (1e-9, -1.0, 0.0, 1e-9)
    d = diagonalize_l(LSpec(lam, rep))
    diag_invariants(lam, rep, d)


def test_diagonalize_single_generator():
    rep = clifford_generators(1)
    d = diagonalize_l(LSpec((2.5,), rep))
    assert d.u.shape == (1, 1)
    assert abs(d.u[0, 0] - 1) < 1e-12
    assert np.allclose(d.eig, [2.5])


def test_diagonalize_rejects_bad_input():
    rep = clifford_generators(3)
    with pytest.raises(NotReal):
        diagonalize_l(LSpec((1j, 0, 0), rep))
    with pytest.raises(ZeroVector):
        diagonalize_l(LSpec((0, 0, 0), rep))
    with pytest.raises(BadOrder):
        diagonalize_l(LSpec((1, 1), ordered_gca_generators(2, 3)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(1, float("nan"))])
def test_lspec_rejects_non_finite_coefficients(bad):
    with pytest.raises(NotFinite, match="coefficients must be finite"):
        LSpec((bad, 1, 0), clifford_generators(3))


def test_diagonalize_rejects_an_overflowing_lambda():
    # each coefficient is finite, but Lambda = sqrt(sum lam_j^2) is past the float range
    with pytest.raises(NotFinite, match="Lambda = inf is not finite"):
        diagonalize_l(LSpec((1.7e308, 1.7e308), clifford_generators(2)))
    # Lambda is finite, but the conjugated diagonal rounds one ulp past it
    lam = (5.487171886756104e307, 5.3022948936270797e306, 1.0199172700654137e308, -1.3738876894023941e308)
    with pytest.raises(NotFinite, match="an eigenvalue of L is not finite"):
        diagonalize_l(LSpec(lam, clifford_generators(4)))


def test_diagonalize_fails_a_nan_deviation(monkeypatch):
    # a NaN compares false both ways: the gate must fail it, not pass it
    from gcakit import lmatrix

    monkeypatch.setattr(lmatrix, "max_abs_diff", lambda a, b: float("nan"))
    with pytest.raises(GcaError, match="conjugation check failed, deviation nan"):
        diagonalize_l(LSpec((1, 2, 2), clifford_generators(3)))


def test_power_check_rejects_an_overflowing_scalar():
    with pytest.raises(NotFinite, match="overflows the float range"):
        nth_power_check(LSpec((1e200, 1e200), clifford_generators(2)))


# ---------------------------------------------------------------------------
# the recursion that grows an odd family by two generators


def test_sigma_operation_appends_coefficients():
    inner = LSpec((1.0, 2.0, 3.0), family_rep(3, 2))
    out = sigma_operation(inner, (0.5, -1.0, 2.0))
    assert out.lam == (1 + 0j, 2 + 0j, 0.5 + 0j, -1 + 0j, 2 + 0j)
    assert len(out.rep.gens) == 5
    assert out.rep.dim == 4


def test_sigma_operation_block_structure():
    """Growing by two generators substitutes a block for the tail generator.

    With the inner tail generator t, the grown combination equals
    sum_j lam_j (e_j tensor I) + t tensor (three-term combination of the
    new coefficients on the base one-pair family).
    """
    lam = (1.0, -2.0, 0.5)
    lam_new = (0.25, 1.5, -1.0)
    for order in (2, 3):
        inner = LSpec(lam, family_rep(3, order))
        out = sigma_operation(inner, lam_new)
        block = np.eye(out.rep.dim // inner.rep.dim)
        want = np.zeros((out.rep.dim, out.rep.dim), dtype=complex)
        for coeff, g in zip(lam[:-1], inner.rep.gens[:-1]):
            want += coeff * np.kron(to_dense(g), block)
        sub = l_matrix(LSpec(lam_new, family_rep(3, order)))
        want += np.kron(to_dense(inner.rep.gens[-1]), sub)
        assert max_abs_diff(l_matrix(out), want) < 1e-12
        r = nth_power_check(out)
        assert r.passed


COEFFS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.sampled_from([1, 3, 5]),
    st.sampled_from([2, 3, 4]),
    st.lists(COEFFS, min_size=8, max_size=8),
)
def test_sigma_operation_is_block_substitution(n, order, coeffs):
    # L(grown) = sum_(j<n-1) lam_j (e_j x I) + e_(n-1) x L3(lam_new); grown dim <= 4**3
    lam, lam_new = tuple(coeffs[:n]), tuple(coeffs[n:n + 3])
    inner = LSpec(lam, family_rep(n, order))
    out = sigma_operation(inner, lam_new)
    assert out.rep.dim == order * inner.rep.dim <= 256
    want = np.zeros((out.rep.dim, out.rep.dim), dtype=complex)
    for coeff, g in zip(lam[:-1], inner.rep.gens[:-1]):
        want += coeff * np.kron(to_dense(g), np.eye(order))
    want += np.kron(to_dense(inner.rep.gens[-1]), l_matrix(LSpec(lam_new, family_rep(3, order))))
    scale = 1.0 + max(abs(z) for z in lam + lam_new)
    assert max_abs_diff(l_matrix(out), want) <= 1e-12 * scale


def test_sigma_operation_preserves_power_law():
    rng = np.random.default_rng(3)
    for order in (2, 3, 4):
        inner = LSpec(tuple(rng.normal(size=3)), family_rep(3, order))
        out = sigma_operation(inner, tuple(rng.normal(size=3)))
        r = nth_power_check(out)
        assert r.passed
        assert abs(r.scalar - sum(x**order for x in out.lam)) < 1e-9


def test_sigma_operation_rejects_bad_input():
    with pytest.raises(EvenGeneratorCount):
        sigma_operation(LSpec((1, 1), family_rep(2, 2)), (1, 1, 1))
    with pytest.raises(DimensionMismatch):
        sigma_operation(LSpec((1, 1, 1), family_rep(3, 2)), (1, 1))
    t = validate_tmatrix([[0, 2, 0], [-2, 0, 2], [0, -2, 0]], 4)
    rep = build_representation(GcaSpec(t, (4, 4, 4)))
    with pytest.raises(BadOrder):
        sigma_operation(LSpec((1, 1, 1), rep), (1, 1, 1))
