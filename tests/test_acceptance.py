"""End-to-end acceptance gate.

Ten criteria, each with a fixed numeric tolerance and a wall-clock budget.
Every test prints exactly one ``[PASS]``/``[FAIL]`` line on the real stdout
so the verdicts stay visible even under pytest's output capture.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from gcakit import (
    CanonicalParams,
    FactorSet,
    GcaSpec,
    LSpec,
    MagneticLattice,
    MonomialMatrix,
    Phase,
    SkewNormalForm,
    WignerTable,
    bloch_phase,
    build_representation,
    canonical_intertwiner,
    canonical_pair,
    clifford_generators,
    clock,
    diagonal_slice_decomposition,
    diagonalize_l,
    int_det,
    l_matrix,
    magnetic_translation_rep,
    max_abs_diff,
    nth_power_check,
    ordered_gca_generators,
    projective_rep,
    schwinger_coeffs,
    schwinger_reconstruct,
    shift,
    skew_normal_form,
    to_dense,
    validate_tmatrix,
    verify_congruence,
    verify_gca,
    weyl_word,
    wigner_forward,
    wigner_inverse,
)

# ---------------------------------------------------------------------------
# harness


def run_criterion(label, budget_s, body, capsys):
    """Run one criterion, enforce its time budget, print one verdict line."""

    def announce(line):
        with capsys.disabled():
            print(line, flush=True)

    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        announce(f"[FAIL] {label}")
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget_s
    announce(f"[{'PASS' if ok else 'FAIL'}] {label} ({dt:.2f}s, budget {budget_s:g}s)")
    assert ok, f"{label}: runtime {dt:.2f}s exceeded the {budget_s}s budget"


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


# independent 2x2 blocks for the dense anticommuting-family oracle
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def anticommuting_words_oracle(n):
    """Dense tensor words the anticommuting family must reproduce."""
    m = n // 2
    eye = np.eye(2, dtype=complex)
    words = []
    for k in range(1, m + 1):
        pre = [S2] * (k - 1)
        post = [eye] * (m - k)
        words.append(kron_chain(pre + [S1] + post))
        words.append(kron_chain(pre + [S3] + post))
    if n % 2:
        words.append(kron_chain([S2] * m) if m else np.array([[1.0 + 0j]]))
    return words[:n]


def random_tmatrix(rng, n, nhat):
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = int(rng.integers(-2 * nhat, 2 * nhat + 1))
            raw[k][j] = -raw[j][k]
    return validate_tmatrix(raw, nhat)


def anticommuting_tmatrix(n):
    raw = [[0 if j == k else (1 if k > j else -1) for k in range(n)] for j in range(n)]
    return validate_tmatrix(raw, 2)


def hand_reduced_transform(n):
    """Unimodular congruence transform for the anticommuting matrix.

    Hand-reduced golden data: rows come in pairs, pair k takes (1, 0) and
    (0, 1) on block m-k+1 and (-1, 1) on every later block; an odd trailing
    row takes (-1, 1) on every block plus a single 1 in the last column.
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


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_anticommuting_family_reproduction(capsys):
    def body():
        for n in range(2, 8):
            rep = clifford_generators(n)
            assert rep.dim == 2 ** (n // 2)
            assert len(rep.gens) == n
            for g, w in zip(rep.gens, anticommuting_words_oracle(n)):
                assert isinstance(g, MonomialMatrix)
                assert np.array_equal(to_dense(g), w)  # bit-exact
            report = verify_gca(rep)  # exact: no tolerance anywhere
            assert report.overall, str(report)

    run_criterion("01 anticommuting-family reproduction", 1.0, body, capsys)


def test_criterion_02_uniformly_commuting_family(capsys):
    def body():
        for n in range(1, 6):
            for order in range(2, 7):
                rep = ordered_gca_generators(n, order)
                assert verify_gca(rep).overall
                omega = Phase(1, order)
                for j, g in enumerate(rep.gens):
                    assert (g**order).is_identity()
                    for h in rep.gens[j + 1 :]:
                        assert g @ h == (h @ g).scale(omega)
            # at order two the family degenerates to the anticommuting one
            assert ordered_gca_generators(n, 2).gens == clifford_generators(n).gens

    run_criterion("02 uniformly-commuting family", 5.0, body, capsys)


def test_criterion_03_skew_normal_congruence(capsys):
    def body():
        rng = np.random.default_rng(303)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            nhat = int(rng.integers(2, 13))
            t = random_tmatrix(rng, n, nhat)
            f = skew_normal_form(t)
            assert abs(int_det(f.u)) == 1
            assert verify_congruence(t, f).overall
        # golden fixtures: the hand-reduced transforms must be accepted
        for n in range(2, 8):
            t = anticommuting_tmatrix(n)
            f = SkewNormalForm(
                n=n, s=n // 2, t_inv=(1,) * (n // 2), u=hand_reduced_transform(n)
            )
            assert abs(int_det(f.u)) == 1
            assert verify_congruence(t, f).overall

    run_criterion("03 skew-normal congruence", 10.0, body, capsys)


def test_criterion_04_general_builder(capsys):
    def body():
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            nhat = int(rng.integers(2, 9))
            t = random_tmatrix(rng, n, nhat)
            orders = tuple(nhat * int(rng.integers(1, 3)) for _ in range(n))
            rep = build_representation(GcaSpec(t, orders))
            assert verify_gca(rep).overall
            # independent exact re-check of every relation
            for j, g in enumerate(rep.gens):
                assert (g ** orders[j]).is_identity()
                for k in range(j + 1, n):
                    w = Phase(t.t[j][k] % nhat, nhat)
                    assert g @ rep.gens[k] == (rep.gens[k] @ g).scale(w)

    run_criterion("04 general builder", 30.0, body, capsys)


def test_criterion_05_projective_representations(capsys):
    def body():
        for orders, exp, omega in (
            ((2, 2), "1/2", -1.0 + 0j),
            ((3, 3), "1/3", np.exp(2j * np.pi / 3)),
        ):
            fs = FactorSet.bilinear(orders, [[0, exp], [0, 0]])
            pr = projective_rep(fs)
            assert pr.dim == orders[0]
            d = pr.dmap
            for g in fs.elements():
                for h in fs.elements():
                    lhs = d[g] @ d[h]
                    rhs = fs.phi(g, h).to_complex() * d[fs.mul(g, h)]
                    assert max_abs_diff(lhs, rhs) < 1e-9
            c1 = tuple(int(i == 0) for i in range(len(orders)))
            c2 = tuple(int(i == 1) for i in range(len(orders)))
            assert max_abs_diff(d[c1] @ d[c2], omega * (d[c2] @ d[c1])) < 1e-9
        # trivial multipliers: one-dimensional and exactly 1
        pr = projective_rep(FactorSet.trivial((2, 3)))
        assert pr.dim == 1
        for mat in pr.dmap.values():
            assert mat.shape == (1, 1) and mat[0, 0] == 1

    run_criterion("05 projective representations", 5.0, body, capsys)


def test_criterion_06_linear_combination_powers(capsys):
    def body():
        rng = np.random.default_rng(606)
        # anticommuting family: squares collapse to sum of squared coefficients
        for _ in range(50):
            n = int(rng.integers(2, 6))
            rep = clifford_generators(n)
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            big_l = sum(c * to_dense(g) for c, g in zip(lam, rep.gens))
            scalar = complex(np.sum(lam**2))
            dev = max_abs_diff(big_l @ big_l, scalar * np.eye(rep.dim))
            assert dev < 1e-9 * (1 + abs(scalar))
            assert nth_power_check(LSpec(tuple(lam), rep), tol=1e-9).passed
        # uniformly-commuting family: order-N powers collapse the same way
        for _ in range(50):
            n = int(rng.integers(2, 6))
            order = int(rng.integers(3, 7))
            rep = ordered_gca_generators(n, order)
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            big_l = sum(c * to_dense(g) for c, g in zip(lam, rep.gens))
            scalar = complex(np.sum(lam**order))
            power = np.linalg.matrix_power(big_l, order)
            dev = max_abs_diff(power, scalar * np.eye(rep.dim))
            assert dev < 1e-9 * (1 + abs(scalar))
            assert nth_power_check(LSpec(tuple(lam), rep), tol=1e-9).passed
        # diagonalization: unitary conjugation onto a single scaled generator
        cases = [tuple(rng.normal(size=int(rng.integers(2, 7)))) for _ in range(20)]
        cases += [(0.0, -1.0, 0.0), (0.0, 1.0), (0.0, 0.0, 2.0, 0.0)]  # fallback
        saw_fallback = False
        for lam in cases:
            rep = clifford_generators(len(lam))
            d = diagonalize_l(LSpec(lam, rep))
            saw_fallback = saw_fallback or d.used_fallback
            big_l = l_matrix(LSpec(lam, rep))
            assert max_abs_diff(d.u @ d.u.conj().T, np.eye(rep.dim)) < 1e-10
            target = d.big_lambda * to_dense(rep.gens[d.axis])
            assert max_abs_diff(d.u @ big_l @ d.u.conj().T, target) < 1e-10
        assert saw_fallback

    run_criterion("06 linear-combination powers and diagonalization", 10.0, body, capsys)


def test_criterion_07_basis_decomposition(capsys):
    def body():
        rng = np.random.default_rng(707)
        for order in range(2, 9):
            words = [
                [weyl_word(order, k, l) for l in range(order)] for k in range(order)
            ]
            dense_words = [[to_dense(x) for x in row] for row in words]
            w = np.exp(2j * np.pi / order)
            twist = np.array(
                [[w ** (-(k * l)) for l in range(order)] for k in range(order)]
            )
            for _ in range(50):
                m = rng.normal(size=(order, order)) + 1j * rng.normal(
                    size=(order, order)
                )
                sc = schwinger_coeffs(m)
                assert max_abs_diff(schwinger_reconstruct(sc), m) < 1e-10
                sliced = diagonal_slice_decomposition(m)
                rebuilt = sum(
                    sliced.coeffs[k, l] * dense_words[k][l]
                    for k in range(order)
                    for l in range(order)
                )
                assert max_abs_diff(rebuilt, m) < 1e-10
                # the two coefficient layouts are tied by a root-of-unity twist
                assert max_abs_diff(sc.coeffs, twist * sliced.c.T) < 1e-10
            # orthogonality of the word basis, checked in exact arithmetic
            for k, l, p, q in itertools.product(range(order), repeat=4):
                lhs = words[k][l].adjoint() @ words[p][q]
                want = order if (k, l) == (p, q) else 0
                assert lhs.trace_exact() == want

    run_criterion("07 unitary-word basis decomposition", 10.0, body, capsys)


def test_criterion_08_wigner_round_trip(capsys):
    def body():
        rng = np.random.default_rng(808)
        for nu in (0, 1, 2, 3):
            d = 2 * nu + 1
            for _ in range(50):
                table = WignerTable(nu, rng.normal(size=(d, d)))
                h = wigner_forward(table)
                assert max_abs_diff(h, h.conj().T) < 1e-12  # hermitian output
                back = wigner_inverse(h)
                assert max_abs_diff(back.w, table.w) < 1e-9
            flat = wigner_forward(WignerTable(nu, np.ones((d, d))))
            assert max_abs_diff(flat, d * np.eye(d)) < 1e-12

    run_criterion("08 phase-space table round trip", 5.0, body, capsys)


def test_criterion_09_canonical_transformations(capsys):
    def body():
        # hand-computed two-dimensional swap
        res = canonical_intertwiner(CanonicalParams(k=0, l=1, m=1, n=0, order=2))
        assert np.array_equal(res.s, np.array([[1, 1], [1, -1]], dtype=complex))
        assert res.zeta_a == 1 and res.zeta_b == 1

        for order in (2, 4, 6):
            a, b = to_dense(shift(order)), to_dense(clock(order))
            omega = Phase(1, order)
            for k, l, m, n in itertools.product(range(order), repeat=4):
                if (k * n - l * m) % order != 1:
                    continue
                p = CanonicalParams(k=k, l=l, m=m, n=n, order=order)
                ap, bp = canonical_pair(p)
                # transformed pair satisfies the original algebra exactly
                assert (ap**order).is_identity() and (bp**order).is_identity()
                assert ap @ bp == (bp @ ap).scale(omega)
                # every tuple, m = 0 included, is intertwined
                res = canonical_intertwiner(p)
                assert abs(abs(res.zeta_a) - 1) < 1e-12
                assert abs(abs(res.zeta_b) - 1) < 1e-12
                ra = max_abs_diff(res.s @ a, res.zeta_a * (to_dense(ap) @ res.s))
                rb = max_abs_diff(res.s @ b, res.zeta_b * (to_dense(bp) @ res.s))
                assert max(ra, rb) < 1e-9, (order, (k, l, m, n), ra, rb)
                assert res.report.overall

    run_criterion("09 canonical transformations", 20.0, body, capsys)


def test_criterion_10_magnetic_translations(capsys):
    def body():
        rng = np.random.default_rng(1010)
        zero = magnetic_translation_rep(MagneticLattice(0, 0, 0))
        assert zero.rep.dim == 1
        assert all(g.is_identity() for g in zero.rep.gens)
        for _ in range(20):
            fluxes = tuple(
                Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 13)))
                for _ in range(3)
            )
            rep = magnetic_translation_rep(MagneticLattice(*fluxes)).rep
            pairs = ((0, 1), (0, 2), (1, 2))
            for (j, k), f in zip(pairs, MagneticLattice(*fluxes).fluxes()):
                com = rep.gens[j] @ rep.gens[k] @ rep.gens[j].inverse() @ rep.gens[
                    k
                ].inverse()
                assert com.scalar_phase() == Phase.from_fraction(-f)

    run_criterion("10 magnetic translation phases", 2.0, body, capsys)
