"""Word expansions, the discrete phase-space transform pair, canonical
changes of the clock/shift pair, and magnetic translations."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcakit import (
    BadDeterminant,
    BadOrder,
    CanonicalParams,
    DimensionMismatch,
    EvenDimension,
    GcaError,
    IrrationalFlux,
    MagneticLattice,
    NotFinite,
    NotHermitian,
    NotReal,
    ONE,
    Phase,
    SchwingerCoeffs,
    WignerTable,
    bloch_phase,
    canonical_intertwiner,
    canonical_pair,
    clock,
    compose_params,
    diagonal_slice_decomposition,
    magnetic_translation_rep,
    max_abs_diff,
    schwinger_coeffs,
    schwinger_reconstruct,
    shift,
    symmetric_pair,
    to_dense,
    weyl_word,
    wigner_forward,
    wigner_inverse,
)
from gcakit.phasespace import _gauss_table


# ---------------------------------------------------------------------------
# expansion over the words A^k B^l


def test_weyl_word_basics():
    assert weyl_word(4, 0, 0).is_identity()
    assert weyl_word(4, 1, 0) == shift(4)
    assert weyl_word(4, 0, 1) == clock(4)
    got = to_dense(weyl_word(5, 2, 3))
    want = np.linalg.matrix_power(to_dense(shift(5)), 2) @ np.linalg.matrix_power(
        to_dense(clock(5)), 3
    )
    assert max_abs_diff(got, want) < 1e-13


def test_single_word_expands_to_a_delta():
    sc = schwinger_coeffs(to_dense(weyl_word(5, 2, 1)))
    want = np.zeros((5, 5))
    want[2, 1] = 1
    assert max_abs_diff(sc.coeffs, want) < 1e-12


def test_expansion_round_trip():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5, 7):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sc = schwinger_coeffs(m)
        assert sc.order == n
        assert max_abs_diff(schwinger_reconstruct(sc), m) < 1e-10


def test_expansion_input_validation():
    with pytest.raises(DimensionMismatch):
        schwinger_coeffs(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        schwinger_coeffs(np.eye(3), order=4)


def test_diagonal_slices_agree_with_direct_expansion():
    rng = np.random.default_rng(8)
    for n in (2, 4, 6):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        direct = schwinger_coeffs(m)
        sliced = diagonal_slice_decomposition(m)
        assert max_abs_diff(sliced.coeffs, direct.coeffs) < 1e-11


def test_diagonal_slices_structure():
    rng = np.random.default_rng(15)
    n = 5
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = diagonal_slice_decomposition(m)
    # r really holds the cyclic diagonals
    for k in range(n):
        for j in range(n):
            assert d.r[k, j] == m[k, (k + j) % n]
    # each slice column solves r[:, j] = S c[:, j] for the character matrix
    s = np.array([[np.exp(2j * np.pi * k * l / n) for l in range(n)] for k in range(n)])
    assert max_abs_diff(d.r, s @ d.c) < 1e-10
    # and the two coefficient layouts are tied by the cross relation
    w = np.exp(2j * np.pi / n)
    for k in range(n):
        for l in range(n):
            assert abs(d.coeffs[k, l] - w ** (-k * l) * d.c[l, k]) < 1e-10


def test_reconstruction_from_slices():
    rng = np.random.default_rng(21)
    n = 6
    m = rng.normal(size=(n, n))
    d = diagonal_slice_decomposition(m)
    rebuilt = sum(
        d.coeffs[k, l] * to_dense(weyl_word(n, k, l))
        for k in range(n)
        for l in range(n)
    )
    assert max_abs_diff(rebuilt, m) < 1e-10


# ---------------------------------------------------------------------------
# the odd-dimension phase-space transform pair


def test_wigner_table_validation():
    with pytest.raises(DimensionMismatch):
        WignerTable(nu=1, w=np.ones((2, 2)))
    with pytest.raises(NotReal):
        WignerTable(nu=1, w=np.ones((3, 3)) * (1 + 1j))
    # a merely-noisy imaginary part is tolerated and dropped
    t = WignerTable(nu=1, w=np.ones((3, 3)) + 1e-13j * np.ones((3, 3)))
    assert t.w.dtype == float


@pytest.mark.parametrize("nu", [1.5, 1.0, True])
def test_wigner_table_nu_must_be_an_integer(nu):
    # nu = 1.5 used to accept a 4 x 4 table, an even dimension
    d = int(2 * nu + 1)
    with pytest.raises(BadOrder, match="nu must be an integer"):
        WignerTable(nu=nu, w=np.ones((d, d)))


def test_flat_table_collapses_to_identity():
    for nu in (0, 1, 2):
        d = 2 * nu + 1
        h = wigner_forward(WignerTable(nu=nu, w=np.ones((d, d))))
        assert max_abs_diff(h, d * np.eye(d)) < 1e-10


def test_identity_operator_gives_flat_table():
    for nu in (1, 2):
        d = 2 * nu + 1
        t = wigner_inverse(np.eye(d))
        assert max_abs_diff(t.w, np.full((d, d), 1 / d)) < 1e-10


def test_round_trip_both_ways():
    rng = np.random.default_rng(12)
    for nu in (0, 1, 2, 3):
        d = 2 * nu + 1
        w = rng.normal(size=(d, d))
        h = wigner_forward(WignerTable(nu=nu, w=w))
        assert max_abs_diff(h, h.conj().T) < 1e-11
        back = wigner_inverse(h)
        assert max_abs_diff(back.w, w) < 1e-9


def test_forward_of_projector_round_trips():
    h = np.diag([1.0, 0.0, 0.0]).astype(complex)
    t = wigner_inverse(h)
    assert max_abs_diff(wigner_forward(t), h) < 1e-9
    assert abs(np.sum(t.w) - 1.0) < 1e-9  # unit trace spreads over the table


def test_inverse_input_validation():
    with pytest.raises(DimensionMismatch):
        wigner_inverse(np.ones((3, 4)))
    with pytest.raises(EvenDimension):
        wigner_inverse(np.eye(4))
    with pytest.raises(NotHermitian):
        wigner_inverse(np.triu(np.ones((3, 3))))


def trace_route_coeffs(m):
    """mu_kl = Tr[(A^k B^l)^dag M] / N, one dense word at a time."""
    n = m.shape[0]
    return np.array(
        [[np.trace(to_dense(weyl_word(n, k, l)).conj().T @ m) / n for l in range(n)] for k in range(n)]
    )


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_coefficients_match_the_trace_route(n):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    want = trace_route_coeffs(m)
    assert max_abs_diff(schwinger_coeffs(m).coeffs, want) < 1e-12
    assert max_abs_diff(diagonal_slice_decomposition(m).coeffs, want) < 1e-12


def wigner_forward_oracle(table):
    """H = sum v[xe, eta] w^(xe eta/2) B_s^xe A^eta, summed word by word from
    dense matrix powers of the symmetric pair, with v = F table F / d."""
    d = table.shape[0]
    nu = (d - 1) // 2
    pair = symmetric_pair(nu)
    a, b = to_dense(pair.a), to_dense(pair.b)
    j = np.arange(d)
    f = np.exp(-2j * np.pi * np.outer(j, j) / d)
    v = f @ table @ f / d
    half = (d + 1) // 2  # 1/2 mod d
    h = np.zeros((d, d), dtype=complex)
    for xe in range(d):
        for eta in range(d):
            twist = np.exp(2j * np.pi * (xe * eta * half % d) / d)
            word = np.linalg.matrix_power(b, xe) @ np.linalg.matrix_power(a, eta)
            h += v[xe, eta] * twist * word
    return h


@pytest.mark.parametrize("d", [1, 3, 5, 9])
def test_forward_matches_the_dense_word_sum(d):
    table = np.random.default_rng(d).normal(size=(d, d))
    want = wigner_forward_oracle(table)
    got = wigner_forward(WignerTable(nu=(d - 1) // 2, w=table))
    assert max_abs_diff(got, want) < 1e-10
    assert max_abs_diff(wigner_inverse(want).w, table) < 1e-10


def test_non_finite_input_is_rejected_without_warnings():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    # finite parts but |z| = inf: every tolerance scale would be infinite
    big = np.array([[1.5e308 + 1.5e308j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(NotFinite):
                wigner_inverse(np.full((3, 3), value))
            with pytest.raises(NotFinite):
                WignerTable(nu=1, w=np.full((3, 3), value))
        with pytest.raises(NotFinite):
            WignerTable(nu=0, w=big)
        for entry in (schwinger_coeffs, diagonal_slice_decomposition, wigner_inverse):
            for m in (bad, bad * 1j, big):
                with pytest.raises(NotFinite):
                    entry(m)


def test_overflowing_transforms_raise_not_finite_without_warnings():
    huge = np.full((3, 3), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (schwinger_coeffs, diagonal_slice_decomposition, wigner_inverse):
            with pytest.raises(NotFinite):
                entry(huge)
        with pytest.raises(NotFinite):
            wigner_forward(WignerTable(nu=1, w=huge))
        with pytest.raises(NotFinite):
            schwinger_reconstruct(SchwingerCoeffs(order=3, coeffs=huge))


def test_empty_matrix_is_rejected():
    for entry in (schwinger_coeffs, diagonal_slice_decomposition, wigner_inverse):
        with pytest.raises(DimensionMismatch):
            entry(np.zeros((0, 0)))


PROPERTY = settings(max_examples=60, deadline=None, database=None)
finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def square_matrices(draw, sizes):
    n = draw(sizes)
    real = draw(hnp.arrays(float, (n, n), elements=st.floats(-1e3, 1e3, **finite)))
    imag = draw(hnp.arrays(float, (n, n), elements=st.floats(-1e3, 1e3, **finite)))
    return real + 1j * imag


@PROPERTY
@given(square_matrices(st.integers(1, 24)))
def test_word_expansion_round_trips(m):
    scale = 1.0 + np.max(np.abs(m))
    sc = schwinger_coeffs(m)
    assert max_abs_diff(schwinger_reconstruct(sc), m) < 1e-12 * scale
    assert max_abs_diff(diagonal_slice_decomposition(m).coeffs, sc.coeffs) < 1e-12 * scale


@PROPERTY
@given(
    st.integers(0, 12).flatmap(
        lambda nu: hnp.arrays(float, (2 * nu + 1,) * 2, elements=st.floats(-1e3, 1e3, **finite))
    )
)
def test_wigner_round_trips(table):
    nu = (table.shape[0] - 1) // 2
    back = wigner_inverse(wigner_forward(WignerTable(nu=nu, w=table)))
    assert back.nu == nu
    assert max_abs_diff(back.w, table) < 1e-11 * (1.0 + np.max(np.abs(table)))


@PROPERTY
@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
    )
)
def test_single_word_expands_to_its_delta(nkl):
    n, k, l = nkl
    word = to_dense(weyl_word(n, k, l))
    delta = np.zeros((n, n))
    delta[k, l] = 1
    assert max_abs_diff(schwinger_coeffs(word).coeffs, delta) < 1e-12
    assert max_abs_diff(diagonal_slice_decomposition(word).coeffs, delta) < 1e-12


# ---------------------------------------------------------------------------
# canonical changes of the pair


def test_params_validation():
    with pytest.raises(BadOrder):
        CanonicalParams(k=1, l=0, m=0, n=1, order=3)
    with pytest.raises(BadDeterminant):
        CanonicalParams(k=1, l=1, m=1, n=1, order=4)
    p = CanonicalParams(k=5, l=0, m=0, n=5, order=4)
    assert (p.k, p.n) == (1, 1)  # entries live mod the order


@pytest.mark.parametrize("name", ["k", "l", "m", "n"])
@pytest.mark.parametrize("value", [1.0, 0.5, True, "1"])
def test_params_entries_must_be_integers(name, value):
    # k = 1.0 used to pass and make canonical_pair fail inside Phase
    entries = {"k": 1, "l": 0, "m": 0, "n": 1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
        CanonicalParams(**entries, order=2)


@pytest.mark.parametrize("order", [4.0, True, "4"])
def test_params_order_must_be_an_integer(order):
    with pytest.raises(BadOrder, match="order must be an integer"):
        CanonicalParams(k=1, l=0, m=0, n=1, order=order)


def test_numpy_integer_params_are_stored_as_ints():
    p = CanonicalParams(k=np.int64(5), l=np.int32(0), m=np.int64(0), n=np.int64(1), order=np.int64(4))
    assert all(type(x) is int for x in (p.k, p.l, p.m, p.n, p.order))
    assert repr(p) == "CanonicalParams(k=1, l=0, m=0, n=1, order=4)"
    assert p == CanonicalParams(k=1, l=0, m=0, n=1, order=4)


def test_identity_params_change_nothing():
    p = CanonicalParams(k=1, l=0, m=0, n=1, order=6)
    ap, bp = canonical_pair(p)
    assert ap == shift(6)
    assert bp == clock(6)


def test_swap_params_exchange_the_pair():
    p = CanonicalParams(k=0, l=1, m=1, n=0, order=2)
    ap, bp = canonical_pair(p)
    assert ap == clock(2)
    assert bp == shift(2)


def test_transformed_pair_keeps_the_algebra():
    # canonical_pair does not re-check its output: every determinant-1 tuple
    # up to order 10, m = 0 included, is checked here
    for order in (2, 4, 6, 8, 10):
        for k, l, m, n in itertools.product(range(order), repeat=4):
            if (k * n - l * m) % order != 1:
                continue
            ap, bp = canonical_pair(CanonicalParams(k=k, l=l, m=m, n=n, order=order))
            assert (ap**order).is_identity()
            assert (bp**order).is_identity()
            assert ap @ bp == (bp @ ap).scale(Phase(1, order))


def valid_tuples(order):
    out = []
    for k, l, m, n in itertools.product(range(order), repeat=4):
        if (k * n - l * m) % order == 1:
            out.append(CanonicalParams(k=k, l=l, m=m, n=n, order=order))
    return out


def intertwining_residuals(p, res):
    a, b = to_dense(shift(p.order)), to_dense(clock(p.order))
    ap, bp = (to_dense(x) for x in canonical_pair(p))
    ra = max_abs_diff(res.s @ a, res.zeta_a * (ap @ res.s))
    rb = max_abs_diff(res.s @ b, res.zeta_b * (bp @ res.s))
    return max(ra, rb)


def test_two_dimensional_swap_matches_hand_computation():
    res = canonical_intertwiner(CanonicalParams(k=0, l=1, m=1, n=0, order=2))
    assert np.array_equal(res.s, np.array([[1, 1], [1, -1]], dtype=complex))
    assert res.zeta_a == 1 and res.zeta_b == 1
    assert res.report.overall


def test_identity_intertwiner_is_identity():
    res = canonical_intertwiner(CanonicalParams(k=1, l=0, m=0, n=1, order=4))
    assert np.array_equal(res.s, np.eye(4))


def test_shear_case_with_doubled_entries():
    res = canonical_intertwiner(CanonicalParams(k=1, l=2, m=2, n=1, order=4))
    assert res.report.overall
    assert intertwining_residuals(CanonicalParams(k=1, l=2, m=2, n=1, order=4), res) < 1e-9


def test_every_valid_tuple_is_supported_at_order_four():
    for p in valid_tuples(4):
        res = canonical_intertwiner(p)
        assert res.report.overall, (p, str(res.report))
        assert intertwining_residuals(p, res) < 1e-9
        assert abs(abs(res.zeta_a) - 1) < 1e-12
        assert abs(abs(res.zeta_b) - 1) < 1e-12


def test_scalar_only_transform_needs_identity_triple():
    res = canonical_intertwiner(CanonicalParams(k=1, l=0, m=0, n=1, order=2))
    assert np.array_equal(res.s, np.eye(2))
    # m = 0 beyond the identity: a dilation, one unit entry per column
    s = canonical_intertwiner(CanonicalParams(k=3, l=0, m=0, n=3, order=4)).s
    assert np.count_nonzero(s, axis=0).tolist() == [1] * 4
    assert np.allclose(np.abs(s.sum(axis=0)), 1, rtol=0, atol=1e-12)


def q_scan_oracle(p):
    """The table the intertwiner took before the corner rule: the identity
    at m = 0, else the first unit column q whose Gauss table is invertible,
    found by one SVD per q."""
    if p.m == 0:
        return np.eye(p.order, dtype=complex)
    for q in range(p.order):
        cand = _gauss_table(p, q)
        top = float(np.max(np.abs(cand)))
        if top > 0.5 and np.linalg.svd(cand, compute_uv=False)[-1] > 1e-8 * top:
            return cand
    raise AssertionError(f"no invertible table for {p}")


def test_every_tuple_up_to_order_twelve_is_intertwined():
    """Every determinant-1 tuple at even N <= 12, m = 0 included.  S is a
    multiple of a unitary normalized to S[0, q] = 1; m = 0 gives a monomial
    S; for m a unit and for the identity S is the q-scan's table, bit for bit."""
    for order in (2, 4, 6, 8, 10, 12):
        eye = np.eye(order)
        for p in valid_tuples(order):
            res = canonical_intertwiner(p)
            s = res.s
            assert res.report.overall, (p, str(res.report))
            assert intertwining_residuals(p, res) < 1e-9
            assert abs(res.zeta_a - 1) < 1e-12 and abs(res.zeta_b - 1) < 1e-12
            assert np.min(np.abs(s[0] - 1)) < 1e-12
            gram = s.conj().T @ s
            assert max_abs_diff(gram, gram[0, 0] * eye) < 1e-9 * abs(gram[0, 0])
            if p.m == 0:
                assert np.count_nonzero(s, axis=0).tolist() == [1] * order, p
            if math.gcd(p.m, order) == 1 or (p.k, p.l, p.m, p.n) == (1, 0, 0, 1):
                assert np.array_equal(s, q_scan_oracle(p)), p


def test_composition_parameters_multiply():
    p1 = CanonicalParams(k=1, l=2, m=2, n=1, order=4)
    p2 = CanonicalParams(k=3, l=2, m=1, n=1, order=4)
    p3 = compose_params(p1, p2)
    g1 = np.array([[p1.k, p1.m], [p1.l, p1.n]])
    g2 = np.array([[p2.k, p2.m], [p2.l, p2.n]])
    g3 = np.array([[p3.k, p3.m], [p3.l, p3.n]])
    assert np.array_equal((g1 @ g2) % 4, g3)
    with pytest.raises(DimensionMismatch):
        compose_params(p1, CanonicalParams(k=1, l=0, m=0, n=1, order=6))


def fit_scalar(lhs, rhs):
    z = np.vdot(rhs, lhs)
    if abs(z) < 1e-12:
        return None, np.inf
    c = z / np.vdot(rhs, rhs)
    return c, float(np.max(np.abs(lhs - c * rhs)))


def test_composed_intertwiners_match_up_to_sign_words():
    """S1 S2 carries the pair onto (+-A', +-B') of the composed parameters,
    and equals S3 times a half-period word up to one global scalar.

    Entry reduction mod N and the determinant's mod-N slack both flip signs,
    so plain proportionality between S1 S2 and S3 only holds when the two
    signs come out positive; the word correction A^r B^s with r, s in
    {0, N/2} covers the rest.
    """
    rng = np.random.default_rng(6)
    for order in (2, 4, 6):
        tuples = valid_tuples(order)
        a, b = to_dense(shift(order)), to_dense(clock(order))
        plain_seen = False
        for _ in range(12):
            p1 = tuples[rng.integers(len(tuples))]
            p2 = tuples[rng.integers(len(tuples))]
            p3 = compose_params(p1, p2)
            t = canonical_intertwiner(p1).s @ canonical_intertwiner(p2).s
            s3 = canonical_intertwiner(p3).s
            ap, bp = (to_dense(x) for x in canonical_pair(p3))
            t_inv = np.linalg.inv(t)
            za, ra = fit_scalar(t @ a @ t_inv, ap)
            zb, rb = fit_scalar(t @ b @ t_inv, bp)
            assert ra < 1e-9 and rb < 1e-9
            sa = round(za.real)
            sb = round(zb.real)
            assert abs(za - sa) < 1e-9 and abs(zb - sb) < 1e-9
            assert sa in (-1, 1) and sb in (-1, 1)
            best = np.inf
            for r in (0, order // 2):
                for s_exp in (0, order // 2):
                    word = to_dense(weyl_word(order, r, s_exp))
                    _, res = fit_scalar(t, s3 @ word)
                    best = min(best, res)
            assert best < 1e-9
            if sa == 1 and sb == 1:
                _, res = fit_scalar(t, s3)
                assert res < 1e-9
                plain_seen = True
        assert plain_seen


# ---------------------------------------------------------------------------
# magnetic translations


def test_flux_coercion_and_rejection():
    lat = MagneticLattice("1/3", (1, 4), 0)
    assert lat.fluxes() == (Fraction(1, 3), Fraction(1, 4), Fraction(0))
    assert MagneticLattice(Fraction(2, 5), 0, 0).f12 == Fraction(2, 5)
    with pytest.raises(IrrationalFlux):
        MagneticLattice(0.333, 0, 0)


@pytest.mark.parametrize("flux", [(2.7, 3), (1, 3.0), (True, 3), ("1", "3"), (Fraction(1, 2), 3), True])
def test_flux_pairs_and_scalars_must_be_integers(flux):
    # (2.7, 3) used to become 2/3 through int()
    with pytest.raises(IrrationalFlux):
        MagneticLattice(flux, 0, 0)


@pytest.mark.parametrize("flux", [(1, 0), "1/0", [np.int64(2), 0]])
def test_zero_flux_denominator_is_irrational_flux(flux):
    # both used to raise a bare ZeroDivisionError from Fraction
    with pytest.raises(IrrationalFlux, match="denominator must be nonzero"):
        MagneticLattice(flux, 0, 0)


@pytest.mark.parametrize("steps", [(1.5, 2, 0), (True, 2, 0), (1, 2, np.float64(0))])
def test_bloch_steps_must_be_integers(steps):
    # (1.5, 2, 0) used to be read as (1, 2, 0)
    with pytest.raises(ValueError, match="steps must be integers"):
        bloch_phase(MagneticLattice((1, 3), (1, 4), 0), steps)


def test_bloch_steps_take_numpy_integers():
    lat = MagneticLattice((1, 3), (1, 4), 0)
    assert bloch_phase(lat, (np.int64(1), np.int32(2), 3)) == bloch_phase(lat, (1, 2, 3))


def test_numpy_integer_flux_reads_as_int():
    lat = MagneticLattice((np.int64(1), np.int32(3)), np.int64(2), 0)
    assert lat.fluxes() == (Fraction(1, 3), Fraction(2), Fraction(0))


def test_zero_field_is_trivial():
    m = magnetic_translation_rep(MagneticLattice(0, 0, 0))
    assert m.rep.dim == 1
    assert all(g.is_identity() for g in m.rep.gens)


def test_single_third_flux():
    m = magnetic_translation_rep(MagneticLattice((1, 3), 0, 0))
    assert m.nhat == 3
    assert m.rep.dim == 3
    t1, t2, t3 = m.rep.gens
    com = t1 @ t2 @ t1.inverse() @ t2.inverse()
    assert com.scalar_phase() == Phase.from_fraction(Fraction(-1, 3))
    assert t3.is_identity()
    assert (t1 @ t3) == (t3 @ t1)


def assert_magnetic_commutators(lat, m):
    """Oracle: tau_j tau_k tau_j^-1 tau_k^-1 = e^(-2 pi i f_jk), re-derived from the generators."""
    gens = m.rep.gens
    for (j, k), f in zip(((0, 1), (0, 2), (1, 2)), lat.fluxes()):
        com = gens[j] @ gens[k] @ gens[j].inverse() @ gens[k].inverse()
        assert com.scalar_phase() == Phase.from_fraction(-f)
    # the build's own exact verification covered the same identities
    assert m.rep.report is not None and m.rep.report.overall


def test_two_plane_flux():
    lat = MagneticLattice((1, 4), (1, 2), 0)
    m = magnetic_translation_rep(lat)
    assert m.nhat == 4
    assert_magnetic_commutators(lat, m)


def test_commutators_for_random_fluxes():
    rng = np.random.default_rng(19)
    for _ in range(10):
        fluxes = tuple(
            Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 7)))
            for _ in range(3)
        )
        lat = MagneticLattice(*fluxes)
        assert_magnetic_commutators(lat, magnetic_translation_rep(lat))


@pytest.mark.parametrize("dens", [(2, 3, 5), (2, 3, 7), (3, 4, 5), (11, 12, 7)])
def test_commutators_for_coprime_flux_denominators(dens):
    for p in range(1, 3):
        lat = MagneticLattice(*((p, q) for q in dens))
        m = magnetic_translation_rep(lat)
        assert m.rep.dim == m.nhat
        assert_magnetic_commutators(lat, m)


def test_loop_phases():
    lat = MagneticLattice((1, 3), 0, 0)
    assert bloch_phase(lat, (1, 0, 0)) == ONE
    assert bloch_phase(lat, (1, 1, 0)) == Phase(1, 3)
    assert bloch_phase(MagneticLattice((1, 4), 0, 0), (2, 3, 0)) == Phase(1, 2)
    mixed = MagneticLattice((1, 4), (1, 2), (2, 3))
    # exponent 1*1*(1/4) + 1*1*(1/2) + 1*1*(2/3) = 17/12
    assert bloch_phase(mixed, (1, 1, 1)) == Phase(5, 12)
    # exponent 2*(1/4) + 3*(1/2) + 6*(2/3) = 6, a whole number of turns
    assert bloch_phase(mixed, (1, 2, 3)) == ONE
