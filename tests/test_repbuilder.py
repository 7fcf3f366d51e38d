"""Construction of generator families and projective representations."""

import dataclasses
import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import (
    BadOrder,
    CATALOG_NAMES,
    DenominatorOverflow,
    DimensionMismatch,
    FactorSet,
    GcaSpec,
    IMAG,
    InconsistentOrders,
    InvalidFactorSet,
    MINUS_ONE,
    ONE,
    Phase,
    UnknownName,
    build_representation,
    catalog,
    clifford_generators,
    clock,
    max_abs_diff,
    ordered_gca_generators,
    ordered_mu,
    projective_rep,
    shift,
    skew_normal_form,
    to_dense,
    validate_tmatrix,
    verify_gca,
    verify_relations,
    weyl_pair_for,
)
from gcakit.matrices import MonomialMatrix
from gcakit.repbuilder import sigma1, sigma2, sigma3
from gcakit.report import Check, VerificationReport
from gcakit import repbuilder

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def anticommuting_t(n, nhat=2):
    raw = [[0 if j == k else (1 if k > j else -1) for k in range(n)] for j in range(n)]
    return validate_tmatrix(raw, nhat)


def random_spec(rng, n, nhat):
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = int(rng.integers(-2 * nhat, 2 * nhat + 1))
            raw[k][j] = -raw[j][k]
    return GcaSpec(validate_tmatrix(raw, nhat), (nhat,) * n)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_wrong_order_count():
    with pytest.raises(DimensionMismatch):
        GcaSpec(anticommuting_t(3), (2, 2))


def test_spec_rejects_nonpositive_order():
    with pytest.raises(BadOrder):
        GcaSpec(anticommuting_t(2), (2, 0))


def test_spec_rejects_inconsistent_orders():
    # phase of order 4 cannot live on generators of order 2
    t = validate_tmatrix([[0, 1], [-1, 0]], 4)
    with pytest.raises(InconsistentOrders):
        GcaSpec(t, (2, 2))
    GcaSpec(t, (4, 4))  # and the compatible choice is accepted
    GcaSpec(t, (4, 8))


# ---------------------------------------------------------------------------
# the anticommuting family


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def anticommuting_words_oracle(n):
    """Independent dense construction from explicit 2x2 blocks."""
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


def test_anticommuting_family_matches_dense_oracle():
    for n in (1, 2, 3, 4, 5):
        rep = clifford_generators(n)
        oracle = anticommuting_words_oracle(n)
        assert rep.dim == 2 ** (n // 2)
        for g, w in zip(rep.gens, oracle):
            assert max_abs_diff(to_dense(g), w) < 1e-15


def test_anticommuting_family_relations_exact():
    for n in range(1, 8):
        rep = clifford_generators(n)
        for j, g in enumerate(rep.gens):
            assert (g @ g).is_identity()
            for h in rep.gens[j + 1 :]:
                assert g @ h == (h @ g).scale(MINUS_ONE)
        report = verify_gca(rep)
        assert report.overall
        assert all(c.deviation == 0.0 for c in report.checks)


def test_odd_tail_word():
    rep = clifford_generators(5)
    assert max_abs_diff(to_dense(rep.gens[4]), kron_chain([S2, S2])) < 1e-15


def clifford_sigma_chain(n):
    """The anticommuting family built directly from Pauli chains, without
    the order-N clock/shift construction."""
    m = n // 2
    ident = MonomialMatrix.identity(2)

    def chain(factors):
        out = factors[0]
        for f in factors[1:]:
            out = out.tensor(f)
        return out

    gens, mus = [], []
    for k in range(1, m + 1):
        left, right = [sigma2] * (k - 1), [ident] * (m - k)
        gens.append(chain(left + [sigma1] + right))
        gens.append(chain(left + [sigma3] + right))
        mus += [IMAG ** (k - 1)] * 2
    if n % 2 == 1:
        gens.append(chain([sigma2] * m) if m else MonomialMatrix.identity(1))
        mus.append(IMAG**m)
    spec = GcaSpec(anticommuting_t(n), (2,) * n)
    return spec, 2**m, tuple(gens), tuple(mus)


def test_anticommuting_family_matches_the_sigma_chain_oracle():
    for n in range(1, 14):
        rep = clifford_generators(n)
        assert (rep.spec, rep.dim, rep.gens, rep.mu) == clifford_sigma_chain(n)


# ---------------------------------------------------------------------------
# the order-N family


def test_ordered_at_two_equals_anticommuting():
    for n in range(1, 8):
        assert ordered_gca_generators(n, 2).gens == clifford_generators(n).gens


def test_ordered_mu_values():
    assert ordered_mu(2) == Phase(1, 4)
    assert ordered_mu(3) == Phase(4, 6)
    assert ordered_mu(4) == Phase(1, 8)
    assert ordered_mu(5) == Phase(6, 10)


def test_ordered_family_matches_dense_oracle():
    for n, order in ((3, 3), (4, 3), (3, 4), (5, 3)):
        a = to_dense(shift(order))
        b = to_dense(clock(order))
        w = ordered_mu(order).to_complex() * (np.linalg.inv(a) @ b)
        eye = np.eye(order, dtype=complex)
        m = n // 2
        oracle = []
        for k in range(1, m + 1):
            pre, post = [w] * (k - 1), [eye] * (m - k)
            oracle.append(kron_chain(pre + [a] + post))
            oracle.append(kron_chain(pre + [b] + post))
        if n % 2:
            oracle.append(kron_chain([w] * m) if m else np.array([[1.0 + 0j]]))
        rep = ordered_gca_generators(n, order)
        assert rep.dim == order ** (n // 2)
        for g, want in zip(rep.gens, oracle[:n]):
            assert max_abs_diff(to_dense(g), want) < 1e-12


def test_ordered_family_relations_exact():
    for n in range(1, 6):
        for order in range(2, 7):
            rep = ordered_gca_generators(n, order)
            omega = Phase(1, order)
            for j, g in enumerate(rep.gens):
                assert (g**order).is_identity()
                for h in rep.gens[j + 1 :]:
                    assert g @ h == (h @ g).scale(omega)


def test_ordered_rejects_bad_order():
    with pytest.raises(BadOrder):
        ordered_gca_generators(3, 1)
    with pytest.raises(BadOrder):
        clifford_generators(0)


@pytest.mark.parametrize("n, order", [(True, 3), (4.0, 3), (4, 3.0), (4, True), (np.float64(2), 2)])
def test_ordered_family_sizes_must_be_integers(n, order):
    # n = True used to build a one-generator family; n = 4.0 raised a bare TypeError
    with pytest.raises(BadOrder, match="integer"):
        ordered_gca_generators(n, order)


@pytest.mark.parametrize("n", [2.7, 2.0, True])
def test_clifford_family_size_must_be_an_integer(n):
    with pytest.raises(BadOrder, match="n must be an integer"):
        clifford_generators(n)


def test_numpy_integer_family_sizes_read_as_ints():
    rep = ordered_gca_generators(np.int64(3), np.int32(3))
    assert rep == ordered_gca_generators(3, 3)
    assert type(rep.dim) is int and all(type(x) is int for x in rep.spec.orders)


# ---------------------------------------------------------------------------
# the general builder


def test_builder_on_random_specs():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        nhat = int(rng.integers(2, 9))
        spec = random_spec(rng, n, nhat)
        rep = build_representation(spec)
        report = verify_gca(rep)
        assert report.overall, str(report)
        assert all(c.deviation == 0.0 for c in report.checks)


def test_builder_commuting_spec_is_one_dimensional():
    spec = GcaSpec(validate_tmatrix([[0] * 3 for _ in range(3)], 4), (1, 1, 1))
    rep = build_representation(spec)
    assert rep.dim == 1
    assert all(g.is_identity() for g in rep.gens)


def test_builder_respects_individual_orders():
    # one anticommuting pair, with a 4th root asked of the first generator
    t = validate_tmatrix([[0, 2], [-2, 0]], 4)
    spec = GcaSpec(t, (4, 4))
    rep = build_representation(spec)
    for g, order in zip(rep.gens, spec.orders):
        assert (g**order).is_identity()


def test_builder_normalization_power_identity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = random_spec(rng, 4, 6)
        rep = build_representation(spec)
        for g, order, mu in zip(rep.gens, spec.orders, rep.mu):
            assert (g**order).is_identity()
            assert (mu**order) is not None  # scalar stays an exact root


# ---------------------------------------------------------------------------
# verification report behavior


def test_verify_relations_dense_pass_and_fail():
    rep = clifford_generators(3)
    dense = [to_dense(g) for g in rep.gens]
    t = anticommuting_t(3)
    assert verify_relations(dense, t, (2, 2, 2)).overall
    bad = [dense[0] * np.exp(1j * 1e-3)] + dense[1:]
    report = verify_relations(bad, t, (2, 2, 2))
    assert not report.overall
    assert any(c.deviation > 1e-4 for c in report.failed())


def test_verify_relations_tolerance_is_respected():
    rep = clifford_generators(2)
    dense = [to_dense(g) for g in rep.gens]
    bad = [dense[0] * np.exp(1j * 1e-12), dense[1]]
    t = anticommuting_t(2)
    assert verify_relations(bad, t, (2, 2), tol=1e-8).overall
    assert not verify_relations(bad, t, (2, 2), tol=1e-14).overall


# ---------------------------------------------------------------------------
# projective representations of products of cyclic groups


def test_factor_set_validation():
    fs = FactorSet.trivial((2, 2))
    fs.validate()
    with pytest.raises(InvalidFactorSet):
        FactorSet((2,), {((0,), (0,)): ONE})  # missing pairs
    broken = dict(FactorSet.trivial((2,)).table)
    broken[((0,), (1,))] = MINUS_ONE  # breaks phi(e, g) = 1
    with pytest.raises(InvalidFactorSet):
        FactorSet((2,), broken).validate()


def test_bilinear_factor_set_phases():
    fs = FactorSet.bilinear((2, 2), [[0, "1/2"], [0, 0]])
    assert fs.phi((1, 0), (0, 1)) == MINUS_ONE
    assert fs.phi((0, 1), (1, 0)) == ONE
    fs.validate()


def test_bilinear_exponents_are_exact_near_the_denominator_bound():
    # sum_jk a_jk g_j h_k over den = 2**61 - 1 passes 2**63 before the reduction
    den, orders = 2**61 - 1, (4, 4, 4)
    rng = np.random.default_rng(53)
    nums = [[int(rng.integers(den - 2**20, den)) for _ in orders] for _ in orders]
    fs = FactorSet.bilinear(orders, [[Fraction(x, den) for x in row] for row in nums])
    assert fs.den == den
    for g in fs.elements():
        for h in fs.elements():
            e = sum(nums[j][k] * g[j] * h[k] for j in range(3) for k in range(3)) % den
            assert fs.phi(g, h) == Phase(e, den)


def test_projective_rep_two_by_two():
    fs = FactorSet.bilinear((2, 2), [[0, "1/2"], [0, 0]])
    pr = projective_rep(fs)
    assert pr.dim == 2
    d = pr.dmap
    for g in fs.elements():
        for h in fs.elements():
            lhs = d[g] @ d[h]
            rhs = fs.phi(g, h).to_complex() * d[fs.mul(g, h)]
            assert max_abs_diff(lhs, rhs) < 1e-12
    # the generators anticommute
    c1, c2 = (1, 0), (0, 1)
    assert max_abs_diff(d[c1] @ d[c2], -(d[c2] @ d[c1])) < 1e-12


def test_projective_rep_three_by_three():
    fs = FactorSet.bilinear((3, 3), [[0, "1/3"], [0, 0]])
    pr = projective_rep(fs)
    assert pr.dim == 3
    d = pr.dmap
    for g in fs.elements():
        for h in fs.elements():
            lhs = d[g] @ d[h]
            rhs = fs.phi(g, h).to_complex() * d[fs.mul(g, h)]
            assert max_abs_diff(lhs, rhs) < 1e-12
    w = np.exp(2j * np.pi / 3)
    c1, c2 = (1, 0), (0, 1)
    assert max_abs_diff(d[c1] @ d[c2], w * (d[c2] @ d[c1])) < 1e-12


def test_projective_rep_trivial_factor_set_is_one_dimensional():
    pr = projective_rep(FactorSet.trivial((2, 3)))
    assert pr.dim == 1
    for g, mat in pr.dmap.items():
        assert mat.shape == (1, 1)
        assert abs(mat[0, 0] - 1) < 1e-12


def test_projective_rep_identity_normalized():
    fs = FactorSet.bilinear((2, 2), [[0, "1/2"], [0, 0]])
    pr = projective_rep(fs)
    assert max_abs_diff(pr.dmap[(0, 0)], np.eye(pr.dim)) < 1e-12


# ---------------------------------------------------------------------------
# the named catalog


def test_catalog_names_and_unknown():
    assert set(CATALOG_NAMES) == {
        "pauli",
        "quaternion",
        "dirac",
        "dirac_positive_energy",
    }
    with pytest.raises(UnknownName):
        catalog("nosuch")


def test_catalog_pauli():
    c = catalog("pauli")
    assert np.array_equal(to_dense(c["sigma1"]), S1)
    assert np.array_equal(to_dense(c["sigma2"]), S2)
    assert np.array_equal(to_dense(c["sigma3"]), S3)
    assert c["sigma1"] @ c["sigma2"] == c["sigma3"].scale(IMAG)


def test_catalog_quaternion():
    c = catalog("quaternion")
    one, i, j, k = c["one"], c["i"], c["j"], c["k"]
    assert one.is_identity()
    for u in (i, j, k):
        assert (u @ u).scalar_phase() == MINUS_ONE
    assert i @ j == k
    assert j @ k == i
    assert k @ i == j
    assert j @ i == k.scale(MINUS_ONE)


def test_catalog_dirac_algebra():
    for name in ("dirac", "dirac_positive_energy"):
        c = catalog(name)
        mats = list(c.values())
        assert all(m.dim == 4 for m in mats)
        for a, m in enumerate(mats):
            assert (m @ m).is_identity()
            assert max_abs_diff(to_dense(m), to_dense(m).conj().T) < 1e-15
            for other in mats[a + 1 :]:
                assert m @ other == (other @ m).scale(MINUS_ONE)


def test_catalog_dirac_explicit_words():
    c = catalog("dirac")
    assert np.array_equal(to_dense(c["alpha_x"]), np.kron(S1, S1))
    assert np.array_equal(to_dense(c["alpha_y"]), np.kron(S1, S2))
    assert np.array_equal(to_dense(c["alpha_z"]), np.kron(S1, S3))
    assert np.array_equal(to_dense(c["beta"]), np.kron(S3, np.eye(2)))


# ---------------------------------------------------------------------------
# verify once: the build's report travels with the representation


def test_build_attaches_its_verification_report():
    rng = np.random.default_rng(41)
    for _ in range(5):
        rep = build_representation(random_spec(rng, 4, 6))
        assert rep.report is not None and rep.report.overall
        assert rep.report == verify_gca(rep)
    assert clifford_generators(3).report is None


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(1, 5), st.integers(2, 12), st.data())
def test_build_verifies_any_spec_congruent_to_blocks(n, nhat, data):
    # T = U Tcal U^T for a random unimodular U, the way the benchmark draws specs
    blocks = data.draw(st.lists(st.integers(1, nhat - 1), max_size=n // 2))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-2, -1, 1, 2]))
    for i, j, c in data.draw(st.lists(steps, max_size=2 * n)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    tcal = np.zeros((n, n), dtype=object)
    for j, b in enumerate(blocks):
        tcal[2 * j, 2 * j + 1], tcal[2 * j + 1, 2 * j] = b, -b
    ua = np.array(u, dtype=object).reshape(n, n)
    rep = build_representation(GcaSpec(validate_tmatrix((ua @ tcal @ ua.T).tolist(), nhat), (nhat,) * n))
    assert rep.report.overall and rep.report == verify_gca(rep)
    assert rep.dim == prod(nhat // gcd(b, nhat) for b in blocks)


def test_report_is_excluded_from_equality():
    rep = build_representation(random_spec(np.random.default_rng(43), 3, 4))
    bare = type(rep)(spec=rep.spec, dim=rep.dim, gens=rep.gens, mu=rep.mu)
    assert bare.report is None and bare == rep


def test_replaced_generators_carry_no_report():
    rep = build_representation(random_spec(np.random.default_rng(45), 3, 4))
    g0 = rep.gens[0]
    flipped = type(g0)(g0.dim, g0.target, (g0.phase[0] * MINUS_ONE,) + g0.phase[1:])
    other = dataclasses.replace(rep, gens=(flipped,) + rep.gens[1:])
    assert rep.report.overall and other.report is None
    assert not verify_gca(other).overall
    with pytest.raises(TypeError):
        type(rep)(spec=rep.spec, dim=rep.dim, gens=rep.gens, mu=rep.mu, report=rep.report)


# ---------------------------------------------------------------------------
# factor sets: integer arrays against Phase-level oracles


def phi_word_closed(fs, g):
    """Closed form of the peeling recursion's word coefficient."""
    n = len(fs.orders)
    acc = ONE
    for j in range(n):
        cj = tuple(int(i == j) for i in range(n))
        for p in range(1, g[j] + 1):
            tail = tuple(
                0 if i < j else ((g[j] - p) % fs.orders[j] if i == j else g[i])
                for i in range(n)
            )
            acc = acc * fs.phi(cj, tail).inverse()
    return acc


def bilinear_exponents(draw, orders):
    # denominators dividing gcd(N_j, N_k) make the bilinear form a cocycle
    n = len(orders)
    return [[Fraction(draw(), gcd(orders[j], orders[k])) for k in range(n)] for j in range(n)]


def random_bilinear(rng, orders):
    return FactorSet.bilinear(orders, bilinear_exponents(lambda: int(rng.integers(0, 12)), orders))


@pytest.mark.parametrize(
    "orders", [(2,), (2, 2), (3, 3), (2, 2, 2), (2, 3, 4), (4, 4), (3, 3, 3), (9, 9), (3, 3, 3, 3)]
)
def test_word_coefficients_closed_form_matches_recursion(orders):
    rng = np.random.default_rng(sum(orders) * 101 + len(orders))
    for _ in range(3):
        fs = random_bilinear(rng, orders)
        coeff = projective_rep(fs).phi_coeffs
        assert all(phi_word_closed(fs, g) == coeff[g] for g in fs.elements())


@pytest.mark.parametrize(
    "orders", [(2,), (2, 2), (3, 3), (2, 2, 2), (2, 3, 4), (4, 4), (3, 3, 3), (9, 9), (3, 3, 3, 3)]
)
def test_peeled_words_match_generator_powers(orders):
    # D(g) = phi(g) * prod_j D(c_j)^(g_j) with each power taken on its own,
    # not by peeling one generator at a time
    rng = np.random.default_rng(sum(orders) * 103 + len(orders))
    for _ in range(2):
        pr = projective_rep(random_bilinear(rng, orders))
        for g, dense in pr.dmap.items():
            word = MonomialMatrix.identity(pr.dim)
            for j, mj in enumerate(g):
                if mj:
                    word = word @ (pr.gens[j] ** mj)
            assert np.array_equal(dense, to_dense(word.scale(pr.phi_coeffs[g])))


def validate_reference(orders, table):
    """First failure of the triple loop over Phase products, or None."""
    elems = list(itertools.product(*(range(nj) for nj in orders)))
    e = elems[0]

    def mul(g, h):
        return tuple((a + b) % nj for a, b, nj in zip(g, h, orders))

    for g in elems:
        if not table[(e, g)].is_one() or not table[(g, e)].is_one():
            return f"normalization fails at {g}"
    for g in elems:
        for h in elems:
            for l in elems:
                lhs = table[(g, h)] * table[(mul(g, h), l)]
                rhs = table[(g, mul(h, l))] * table[(h, l)]
                if lhs != rhs:
                    return f"associativity identity fails at {(g, h, l)}"
    return None


def validate_outcome(fs):
    try:
        fs.validate()
    except InvalidFactorSet as exc:
        return str(exc)
    return None


group_orders = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda o: int(np.prod(o)) <= 16
)


@settings(max_examples=40, deadline=None, database=None)
@given(group_orders, st.data())
def test_validate_agrees_with_triple_loop(orders, data):
    exps = bilinear_exponents(lambda: data.draw(st.integers(0, 11)), orders)
    table = FactorSet.bilinear(orders, exps).table
    # a coboundary f(g) f(h) / f(gh) with f(E) = 1 keeps the table a normalized cocycle
    elems = list(itertools.product(*(range(nj) for nj in orders)))
    f = {g: Phase(data.draw(st.integers(0, 7)), 8) for g in elems}
    f[elems[0]] = ONE
    mul = FactorSet.trivial(orders).mul
    table = {(g, h): p * f[g] * f[h] / f[mul(g, h)] for (g, h), p in table.items()}
    assert validate_reference(orders, table) is None
    assert validate_outcome(FactorSet(orders, table)) is None

    key = data.draw(st.sampled_from(sorted(table)))
    table[key] = table[key] * Phase(data.draw(st.integers(1, 5)), 6)
    assert validate_outcome(FactorSet(orders, table)) == validate_reference(orders, table)


@settings(max_examples=30, deadline=None, database=None)
@given(group_orders, st.data())
def test_bilinear_cocycles_give_projective_representations(orders, data):
    fs = FactorSet.bilinear(orders, bilinear_exponents(lambda: data.draw(st.integers(0, 11)), orders))
    fs.validate()
    pr = projective_rep(fs)
    d = pr.dmap
    assert sorted(d) == sorted(fs.elements())
    for g in fs.elements():
        for h in fs.elements():
            assert max_abs_diff(d[g] @ d[h], fs.phi(g, h).to_complex() * d[fs.mul(g, h)]) < 1e-12


def test_projective_rep_accepts_factors_of_order_one():
    # the generator of Z_1 is the identity (0,), not (1,)
    assert projective_rep(FactorSet.trivial((1,))).dim == 1
    pr = projective_rep(FactorSet.bilinear((2, 1, 2), [[0, 0, "1/2"], [0, 0, 0], [0, 0, 0]]))
    assert pr.dim == 2 and len(pr.dmap) == 4
    assert pr.commutators[1] == (ONE, ONE, ONE)


def test_factor_set_table_round_trips():
    fs = random_bilinear(np.random.default_rng(47), (2, 3))
    again = FactorSet(fs.orders, fs.table)
    assert again.den == fs.den and np.array_equal(again.exp, fs.exp)
    assert all(again.phi(g, h) == p for (g, h), p in fs.table.items())


def test_factor_set_denominator_past_2_62_is_rejected():
    table = FactorSet.trivial((2,)).table
    table[((1,), (0,))] = Phase(1, 2**40 + 15)
    table[((1,), (1,))] = Phase(1, 2**40 + 27)
    with pytest.raises(DenominatorOverflow):
        FactorSet((2,), table)


# ---------------------------------------------------------------------------
# row-batched exact verification against the per-pair loop it replaced


def verify_relations_pairwise(gens, t, orders):
    """The per-pair monomial verification, seven matrix operations a pair."""
    n, nhat = t.n, t.nhat
    checks = []
    for j in range(n):
        for k in range(j + 1, n):
            want = Phase(t.t[j][k], nhat)
            lhs = gens[j] @ gens[k]
            rhs = gens[k] @ gens[j]
            measured = (lhs @ rhs.inverse()).scalar_phase()
            ok = lhs == rhs.scale(want)
            detail = (
                f"measured {measured}, want {want}"
                if measured is not None
                else "commutator is not scalar"
            )
            checks.append(Check(f"commute[{j},{k}]", ok, detail))
    for j in range(n):
        ok = (gens[j] ** orders[j]).is_identity()
        checks.append(Check(f"order[{j}]", ok, f"e_{j}^{orders[j]} = 1"))
    return VerificationReport(tuple(checks))


def random_t(draw, n, nhat):
    raw = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            raw[j][k] = draw(st.integers(-nhat, nhat))
            raw[k][j] = -raw[j][k]
    return validate_tmatrix(raw, nhat)


DENS = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 7, 30])


@st.composite
def monomial_generator_sets(draw):
    """(gens, t, orders): arbitrary monomials, clock/shift words or a family."""
    kind = draw(st.sampled_from(["random", "words", "clifford", "ordered"]))
    if kind == "clifford":
        rep = clifford_generators(draw(st.integers(1, 7)))
        gens, t = list(rep.gens), rep.spec.t
    elif kind == "ordered":
        rep = ordered_gca_generators(draw(st.integers(1, 5)), draw(st.integers(2, 5)))
        gens, t = list(rep.gens), rep.spec.t
    else:
        n, dim = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        gens = []
        for _ in range(n):
            den = draw(DENS)
            if kind == "random":
                # small dims make scalar commutators likely, right or wrong
                target = draw(st.permutations(range(dim)))
                exp = draw(st.lists(st.integers(0, den - 1), min_size=dim, max_size=dim))
                gens.append(MonomialMatrix.from_exponents(target, exp, den))
            else:
                word = shift(dim) ** draw(st.integers(0, dim)) @ clock(dim) ** draw(st.integers(0, dim))
                gens.append(word.scale(Phase(draw(st.integers(0, den - 1)), den)))
        t = None
    if t is None or draw(st.booleans()):
        # commutation data of the right shape, mostly wrong for these generators
        t = random_t(draw, len(gens), draw(st.sampled_from([2, 3, 4, 6, 12, 60])))
    orders = draw(st.lists(st.integers(1, 12), min_size=len(gens), max_size=len(gens)))
    return gens, t, orders


@settings(max_examples=300, deadline=None, database=None)
@given(monomial_generator_sets())
def test_batched_verification_matches_the_pairwise_loop(case):
    gens, t, orders = case
    assert verify_relations(gens, t, orders) == verify_relations_pairwise(gens, t, orders)


def test_blocks_of_pair_rows_give_the_same_report(monkeypatch):
    # a bound of 8 entries splits clifford(7)'s 21 pairs at dim 8 into one row per block
    gens = list(clifford_generators(7).gens)
    gens[3] = gens[3].scale(IMAG)
    t = anticommuting_t(7, 4)
    want = verify_relations(gens, t, (4,) * 7)
    monkeypatch.setattr(repbuilder, "_BLOCK_ENTRIES", 8)
    assert verify_relations(gens, t, (4,) * 7) == want == verify_relations_pairwise(gens, t, (4,) * 7)
    monkeypatch.setattr(repbuilder, "_BLOCK_ENTRIES", 24)
    assert verify_relations(gens, t, (4,) * 7) == want


def test_batched_verification_reports_each_kind_of_failure():
    a, b = shift(4), clock(4)
    gens = [a, b, a, MonomialMatrix(4, (1, 0, 2, 3), (ONE,) * 4)]
    t = validate_tmatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 4)
    got = verify_relations(gens, t, (4, 4, 4, 2))
    assert got == verify_relations_pairwise(gens, t, (4, 4, 4, 2))
    assert got.checks[:6] == (
        Check("commute[0,1]", True, "measured i, want i"),
        Check("commute[0,2]", True, "measured 1, want 1"),
        Check("commute[0,3]", False, "commutator is not scalar"),
        Check("commute[1,2]", False, "measured -i, want 1"),
        Check("commute[1,3]", False, "commutator is not scalar"),
        Check("commute[2,3]", False, "commutator is not scalar"),
    )


def test_generator_set_denominator_past_2_62_is_rejected():
    # every pair stays under the bound; the whole set, or the set with nhat, does not
    p, q, r = 2**21 + 1, 2**21 + 3, 2**21 + 5
    assert lcm(p, q) <= 2**62 and lcm(p, r) <= 2**62 and lcm(q, r) <= 2**62 < lcm(p, q, r)
    gens = [MonomialMatrix.diagonal((Phase(1, d),)) for d in (p, q, r)]
    t = validate_tmatrix([[0] * 3 for _ in range(3)], 2)
    with pytest.raises(DenominatorOverflow):
        verify_relations(gens, t, (1, 1, 1))
    nhat = 2097161
    assert lcm(p, q) <= 2**62 < lcm(nhat, p, q)
    t = validate_tmatrix([[0, 0], [0, 0]], nhat)
    with pytest.raises(DenominatorOverflow):
        verify_relations(gens[:2], t, (1, 1))
    # the same generators over a denominator that fits pass as before
    assert verify_relations(gens[:2], validate_tmatrix([[0, 0], [0, 0]], 2), (p, q)).overall
    # a stored denominator counts in lowest terms: 1 over 2**62 is the identity
    one = MonomialMatrix.from_exponents([0], [0], 2**62)
    gens = [one, MonomialMatrix.diagonal((Phase(1, 3),))]
    assert verify_relations(gens, validate_tmatrix([[0, 0], [0, 0]], 3), (1, 3)).overall


def test_generators_of_mixed_dimension_are_rejected():
    gens = [shift(2), clock(2), shift(2).tensor(clock(2))]
    with pytest.raises(DimensionMismatch, match="dims 2 != 4"):
        verify_relations(gens, anticommuting_t(3), (2, 2, 2))


# ---------------------------------------------------------------------------
# one order validator for specs and verification


@pytest.mark.parametrize("orders", [(0, 0), (2.9, -2), (-2, 2), (True, 2), (2.0, 2), ("2", 2), (None, 2)])
def test_bad_orders_are_rejected_by_spec_and_verifier(orders):
    t = anticommuting_t(2)
    with pytest.raises(BadOrder):
        GcaSpec(t, orders)
    with pytest.raises(BadOrder):
        verify_relations(clifford_generators(2).gens, t, orders)


@pytest.mark.parametrize("orders", [(2.9, 2), (True, 2), (2.0,), (0, 2), (-3,), ("2",)])
def test_bad_factor_set_orders_are_rejected(orders):
    table = FactorSet.trivial((2, 2)).table
    with pytest.raises(BadOrder):
        FactorSet.trivial(orders)
    with pytest.raises(BadOrder):
        FactorSet.bilinear(orders, [[0] * len(orders)] * len(orders))
    with pytest.raises(BadOrder):
        FactorSet(orders, table)


def test_factor_set_table_length_is_checked_before_enumeration():
    # 10**6 elements would be 10**12 pairs to list; the count fails first
    with pytest.raises(InvalidFactorSet, match=r"^table has 0 entries, need 1000000000000$"):
        FactorSet((1000, 1000), {})
    table = FactorSet.trivial((2, 2)).table
    table[((2, 0), (0, 0))] = ONE  # every entry, plus one key outside the group
    with pytest.raises(InvalidFactorSet, match=r"^table has 17 entries, need 16$"):
        FactorSet((2, 2), table)
    del table[((1, 1), (1, 1))]  # the right count, but one entry replaced by the stray key
    with pytest.raises(InvalidFactorSet, match="missing table entry"):
        FactorSet((2, 2), table)


def test_numpy_integer_orders_are_accepted_as_ints():
    t = anticommuting_t(2)
    spec = GcaSpec(t, np.array([2, 4]))
    assert spec.orders == (2, 4) and all(type(x) is int for x in spec.orders)
    assert spec == GcaSpec(t, [2, 4])
    assert verify_relations(clifford_generators(2).gens, t, np.array([2, 2])).overall


# ---------------------------------------------------------------------------
# the tensor-chain builder and the exponent-table set-up against the routes
# they replaced: full-dimension pair embeddings and Phase products on tuples


def slot_embed(mat, slot, dims):
    # slot 0 is the leftmost (slowest) tensor factor
    factors = [mat if i == slot else MonomialMatrix.identity(d) for i, d in enumerate(dims)]
    return reduce(lambda a, b: a.tensor(b), factors)


def build_by_embedding(spec):
    """(dim, gens, mu) with e_j = mu_j * eps_1^(u_j1) ... eps_2s^(u_j,2s) at full dimension."""
    f = skew_normal_form(spec.t)
    pairs = [weyl_pair_for(tj, spec.nhat) for tj in f.t_inv]
    dims = [pairs[i].order for i in reversed(range(f.s))]
    eps = []
    for i, pair in enumerate(pairs):
        eps += [slot_embed(pair.a, f.s - 1 - i, dims), slot_embed(pair.b, f.s - 1 - i, dims)]
    gens, mus = [], []
    for j in range(spec.n):
        word = MonomialMatrix.identity(prod(dims))
        for k in range(2 * f.s):
            if f.u[j][k]:
                word = word @ (eps[k] ** f.u[j][k])
        inv = (word ** spec.orders[j]).scalar_phase().inverse()
        mus.append(Phase(inv.num, inv.den * spec.orders[j]))
        gens.append(word.scale(mus[-1]))
    return prod(dims), tuple(gens), tuple(mus)


@st.composite
def congruent_specs(draw, max_dim=256):
    """T = U Tcal U^T for a random unimodular U, with s = 0 and zero-tail blocks drawn."""
    n = draw(st.integers(1, 7))
    nhat = draw(st.integers(2, 30))
    blocks, dim = [], 1
    for _ in range(draw(st.integers(0, n // 2))):
        # the block's pair order d divides nhat; the product of the orders stays small
        orders = [d for d in range(2, nhat + 1) if nhat % d == 0 and dim * d <= max_dim]
        if not orders:
            break
        d = draw(st.sampled_from(orders))
        tau = draw(st.sampled_from([x for x in range(1, d) if gcd(x, d) == 1]))
        blocks.append(tau * (nhat // d))
        dim *= d
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([-2, -1, 1, 2]))
    for i, j, c in draw(st.lists(steps, max_size=2 * n)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    tcal = np.zeros((n, n), dtype=object)
    for j, b in enumerate(blocks):
        tcal[2 * j, 2 * j + 1], tcal[2 * j + 1, 2 * j] = b, -b
    ua = np.array(u, dtype=object).reshape(n, n)
    return GcaSpec(validate_tmatrix((ua @ tcal @ ua.T).tolist(), nhat), (nhat,) * n)


@settings(max_examples=150, deadline=None, database=None)
@given(congruent_specs())
def test_tensor_chain_matches_the_embedded_pair_words(spec):
    rep = build_representation(spec)
    assert (rep.dim, rep.gens, rep.mu) == build_by_embedding(spec)


def test_tensor_chain_matches_the_embedded_pair_words_on_fixed_specs():
    # s = 0, one block with a zero tail, and the anticommuting and ordered families
    specs = [GcaSpec(validate_tmatrix([[0]], 5), (1,)),
             GcaSpec(validate_tmatrix([[0, 0], [0, 0]], 4), (4, 2)),
             GcaSpec(validate_tmatrix([[0, 3, 0], [-3, 0, 0], [0, 0, 0]], 12), (12, 12, 12))]
    specs += [GcaSpec(anticommuting_t(n), (2,) * n) for n in range(1, 8)]
    specs += [random_spec(np.random.default_rng(seed), 5, nhat) for seed in range(3) for nhat in (6, 12)]
    for spec in specs:
        rep = build_representation(spec)
        assert (rep.dim, rep.gens, rep.mu) == build_by_embedding(spec)


def projective_setup_by_phases(fs):
    """(commutators, D(c_j)) from Phase products over element tuples."""
    n = len(fs.orders)
    cgen = [tuple(int(i == j) % fs.orders[i] for i in range(n)) for j in range(n)]
    omega = [[fs.phi(cgen[j], cgen[k]) / fs.phi(cgen[k], cgen[j]) for k in range(n)] for j in range(n)]
    nhat = 1
    for j in range(n):
        for k in range(n):
            nhat = lcm(nhat, omega[j][k].den)
    nhat = max(nhat, 2)
    raw = [[omega[j][k].num * (nhat // omega[j][k].den) for k in range(n)] for j in range(n)]
    _, gens, _ = build_by_embedding(GcaSpec(validate_tmatrix(raw, nhat), fs.orders))
    dgens = []
    for j in range(n):
        acc = ONE
        for p in range(1, fs.orders[j] + 1):
            power = tuple(((fs.orders[j] - p) if i == j else 0) % fs.orders[i] for i in range(n))
            acc = acc * fs.phi(cgen[j], power).inverse()
        dgens.append(gens[j].scale(acc.root(fs.orders[j]).inverse()))
    return tuple(tuple(row) for row in omega), tuple(dgens)


def twisted(fs, f):
    """fs times the coboundary f(g) f(h) / f(gh), with f(E) = 1."""
    table = {(g, h): p * f[g] * f[h] / f[fs.mul(g, h)] for (g, h), p in fs.table.items()}
    return FactorSet(fs.orders, table)


@settings(max_examples=60, deadline=None, database=None)
@given(group_orders, st.data())
def test_exponent_table_set_up_matches_the_phase_loop(orders, data):
    fs = FactorSet.bilinear(orders, bilinear_exponents(lambda: data.draw(st.integers(0, 11)), orders))
    if data.draw(st.booleans()):
        # a coboundary keeps the cocycle but makes phi(c_j, c_j^p) other than bilinear
        elems = list(fs.elements())
        f = {g: Phase(data.draw(st.integers(0, 9)), 10) for g in elems}
        f[fs.identity] = ONE
        fs = twisted(fs, f)
    pr = projective_rep(fs)
    assert (pr.commutators, pr.gens) == projective_setup_by_phases(fs)


def test_exponent_table_set_up_sums_exponents_past_int64():
    # a coboundary on Z_5 over a denominator near 2**62 whose phi(c, c^p),
    # p = 1..4, each have exponent ~0.75 den: their sum 3 den passes int64
    den = 5 * (2**62 // 5)
    f, want = [0, den // 5], 3 * den // 4 + 2
    for _ in range(3):  # f(c^(p+1)) = f(c) f(c^p) / phi(c, c^p)
        f.append((f[1] + f[-1] - want) % den)
    fs = twisted(FactorSet.trivial((5,)), {(k,): Phase(f[k], den) for k in range(5)})
    assert fs.den == den and sum(fs.exp.tolist()[1]) == 3 * den >= 2**63
    pr = projective_rep(fs)
    assert (pr.commutators, pr.gens) == projective_setup_by_phases(fs)


@pytest.mark.parametrize("exp", [0.1, 0.5, np.float64(0.25), True])
def test_bilinear_rejects_exponents_that_are_not_exact(exp):
    # 0.1 used to be read as a phase over 2**55
    with pytest.raises(ValueError, match="bilinear exponents must be exact rationals"):
        FactorSet.bilinear((2, 2), [[exp, 0], [0, 0]])


def test_bilinear_takes_ints_fractions_strings_and_numpy_integers():
    one = FactorSet.bilinear((2, 2), [[0, "1/2"], [np.int64(0), 0]])
    two = FactorSet.bilinear((2, 2), [[0, Fraction(1, 2)], [0, 0]])
    assert one.table == two.table
