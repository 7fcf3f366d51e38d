"""Block-diagonalization of antisymmetric integer matrices."""

from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import (
    BadModulus,
    DimensionMismatch,
    NotAntisymmetric,
    SkewNormalForm,
    int_det,
    skew_normal_form,
    validate_tmatrix,
    verify_congruence,
)


def random_tmatrix(rng, n, nhat):
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = int(rng.integers(-2 * nhat, 2 * nhat + 1))
            raw[k][j] = -raw[j][k]
    return validate_tmatrix(raw, nhat)


def anticommuting_tmatrix(n):
    """All commutation exponents one: every pair anticommutes at nhat = 2."""
    raw = [[0 if j == k else (1 if k > j else -1) for k in range(n)] for j in range(n)]
    return validate_tmatrix(raw, 2)


def hand_reduced_u(n):
    """Unimodular transform for the anticommuting matrix, worked by hand.

    Rows come in pairs: the generators of pair k take (1, 0) / (0, 1) on
    block m-k+1 and (-1, 1) on every later block; an odd trailing row takes
    (-1, 1) everywhere plus a single 1 in the unpaired final column.
    """
    m = n // 2
    u = [[0] * n for _ in range(n)]
    for k in range(1, m + 1):
        ra, rb = 2 * k - 2, 2 * k - 1
        for j in range(m - k + 2, m + 1):
            for r in (ra, rb):
                u[r][2 * j - 2] = -1
                u[r][2 * j - 1] = 1
        j0 = m - k + 1
        u[ra][2 * j0 - 2] = 1
        u[rb][2 * j0 - 1] = 1
    if n % 2:
        for j in range(1, m + 1):
            u[n - 1][2 * j - 2] = -1
            u[n - 1][2 * j - 1] = 1
        u[n - 1][n - 1] = 1
    return tuple(tuple(row) for row in u)


def test_validate_rejects_bad_modulus():
    with pytest.raises(BadModulus):
        validate_tmatrix([[0]], 1)
    with pytest.raises(BadModulus):
        validate_tmatrix([[0]], 0)


def test_validate_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        validate_tmatrix([[0, 1]], 4)
    with pytest.raises(DimensionMismatch):
        validate_tmatrix([[0, 1], [1, 0], [0, 0]], 4)


def test_validate_rejects_asymmetry():
    with pytest.raises(NotAntisymmetric):
        validate_tmatrix([[0, 1], [1, 0]], 4)
    with pytest.raises(NotAntisymmetric):
        validate_tmatrix([[1, 0], [0, 0]], 4)


def test_validate_accepts_congruent_residues():
    # 1 and -5 agree mod 6, so this pair is antisymmetric mod the modulus
    t = validate_tmatrix([[0, 5], [1, 0]], 6)
    assert t.entry(0, 1) == -t.entry(1, 0)
    assert t.entry(0, 1) % 6 == 5


def test_entry_accessor():
    t = validate_tmatrix([[0, 3], [-3, 0]], 8)
    assert t.entry(0, 1) == 3
    assert t.entry(1, 0) == -3


def test_int_det_matches_numpy():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            m = rng.integers(-4, 5, size=(n, n))
            got = int_det([[int(x) for x in row] for row in m])
            want = round(float(np.linalg.det(m.astype(float))))
            assert got == want


def test_zero_matrix_gives_empty_form():
    t = validate_tmatrix([[0] * 3 for _ in range(3)], 5)
    f = skew_normal_form(t)
    assert f.s == 0
    assert f.t_inv == ()
    assert all(all(x == 0 for x in row) for row in f.tcal())
    assert verify_congruence(t, f).overall


def test_anticommuting_matrix_reduces_to_unit_blocks():
    for n in (2, 3, 4, 5, 6, 7):
        t = anticommuting_tmatrix(n)
        f = skew_normal_form(t)
        assert f.s == n // 2
        assert f.t_inv == (1,) * (n // 2)
        assert verify_congruence(t, f).overall


def test_hand_reduced_transforms_accepted():
    for n in range(2, 8):
        t = anticommuting_tmatrix(n)
        f = SkewNormalForm(n=n, s=n // 2, t_inv=(1,) * (n // 2), u=hand_reduced_u(n))
        assert abs(int_det(f.u)) == 1
        report = verify_congruence(t, f)
        assert report.overall, str(report)


def test_congruence_detects_wrong_transform():
    t = anticommuting_tmatrix(4)
    f = skew_normal_form(t)
    bad_u = [list(row) for row in f.u]
    bad_u[0][0] += 1
    bad_u[0][1] += 1
    bad = SkewNormalForm(n=f.n, s=f.s, t_inv=f.t_inv, u=tuple(tuple(r) for r in bad_u))
    assert not verify_congruence(t, bad).overall


def test_congruence_detects_dimension_mismatch():
    t = anticommuting_tmatrix(4)
    f = skew_normal_form(anticommuting_tmatrix(6))
    assert not verify_congruence(t, f).overall


def test_transform_is_exact_integer_congruence():
    rng = np.random.default_rng(42)
    t = random_tmatrix(rng, 5, 6)
    f = skew_normal_form(t)
    u = np.array(f.u, dtype=object)
    rec = u @ np.array(f.tcal(), dtype=object) @ u.T
    diff = (rec - np.array(t.t, dtype=object)) % 6
    assert not diff.any()


def test_random_round_trips():
    rng = np.random.default_rng(9)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        nhat = int(rng.integers(2, 13))
        t = random_tmatrix(rng, n, nhat)
        f = skew_normal_form(t)
        assert 2 * f.s <= n
        assert abs(int_det(f.u)) == 1
        report = verify_congruence(t, f)
        assert report.overall, str(report)


# ---------------------------------------------------------------------------
# properties on arbitrary antisymmetric matrices

sizes = st.tuples(st.integers(1, 7), st.integers(2, 30))


@st.composite
def antisymmetric_tmatrices(draw):
    n, nhat = draw(sizes)
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = draw(st.integers(-2 * nhat, 2 * nhat))
            raw[k][j] = -raw[j][k]
    return validate_tmatrix(raw, nhat)


@st.composite
def unimodular(draw, n):
    """Row additions, sign flips and a row permutation of the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-2, -1, 1, 2]))
    for i, j, c in draw(st.lists(steps, max_size=3 * n)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    u = [[-a for a in row] if flip else row for row, flip in zip(u, flips)]
    return [u[p] for p in draw(st.permutations(range(n)))]


def assert_reduces(t):
    f = skew_normal_form(t)
    report = verify_congruence(t, f)
    assert report.overall, str(report)
    assert abs(int_det(f.u)) == 1
    return f


@settings(max_examples=150, deadline=None, database=None)
@given(antisymmetric_tmatrices())
def test_any_antisymmetric_matrix_reduces(t):
    assert_reduces(t)


@settings(max_examples=150, deadline=None, database=None)
@given(sizes, st.data())
def test_matrix_congruent_to_blocks_reduces(size, data):
    # T = U Tcal U^T: the form's representation dimension is that of the designed blocks
    n, nhat = size
    blocks = data.draw(st.lists(st.integers(1, nhat - 1), max_size=n // 2))
    u = data.draw(unimodular(n))
    assert abs(int_det(u)) == 1
    tcal = np.zeros((n, n), dtype=object)
    for j, b in enumerate(blocks):
        tcal[2 * j, 2 * j + 1], tcal[2 * j + 1, 2 * j] = b, -b
    ua = np.array(u, dtype=object).reshape(n, n)
    f = assert_reduces(validate_tmatrix((ua @ tcal @ ua.T).tolist(), nhat))
    assert prod(nhat // gcd(x, nhat) for x in f.t_inv) == prod(nhat // gcd(b, nhat) for b in blocks)


@pytest.mark.parametrize("entry", [1.5, 2.0, True, "1", None])
def test_validate_rejects_entries_that_are_not_integers(entry):
    # 1.5 used to pass, and skew_normal_form returned t_inv = (1.5,)
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        validate_tmatrix([[0, entry], [-1, 0]], 4)


@pytest.mark.parametrize("nhat", [4.0, True, "4"])
def test_validate_rejects_a_modulus_that_is_not_an_integer(nhat):
    with pytest.raises(BadModulus, match="nhat must be an integer"):
        validate_tmatrix([[0, 1], [-1, 0]], nhat)


def test_validate_takes_numpy_integers():
    raw = np.array([[0, 3], [-3, 0]])
    assert validate_tmatrix(raw, np.int64(4)).t == validate_tmatrix([[0, 3], [-3, 0]], 4).t


def _brute_first_mismatch(t, f):
    """The n^4 scan the congruence check used to run."""
    tcal, n = f.tcal(), t.n
    for j in range(n):
        for k in range(n):
            rec = sum(f.u[j][a] * tcal[a][b] * f.u[k][b] for a in range(n) for b in range(n))
            if (rec - t.t[j][k]) % t.nhat:
                return (j, k)
    return None


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(1, 8), st.integers(2, 12), st.data())
def test_congruence_reports_the_brute_force_first_mismatch(n, nhat, data):
    t = random_tmatrix(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, nhat)
    f = skew_normal_form(t)
    u = [list(row) for row in f.u]
    for _ in range(data.draw(st.integers(0, 3))):  # break u on purpose
        u[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += data.draw(st.integers(-3, 3))
    broken = SkewNormalForm(n=f.n, s=f.s, t_inv=f.t_inv, u=tuple(tuple(r) for r in u))
    bad = _brute_first_mismatch(t, broken)
    check = verify_congruence(t, broken).checks[1]
    assert check.name == "congruence" and check.passed == (bad is None)
    assert check.detail == ("t = u tcal u^T mod nhat" if bad is None else f"first mismatch at {bad}")
