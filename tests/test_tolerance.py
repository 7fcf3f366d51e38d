"""One tolerance rule for every dense gate: matrices.within_tol.

A dense gate passes when its deviation is at most tol times the size of what
it compares.  Scaling the input by 2^k is exact in binary floating point, so
every homogeneous gate gives the same verdict at every such scale; the same
rule fails inputs that an absolute floor let through at small scale.  An ast
check keeps the rule in that one helper.
"""

import ast
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcakit
from gcakit import (
    CanonicalParams,
    LSpec,
    NotHermitian,
    NotReal,
    UnsupportedTransform,
    WignerTable,
    canonical_intertwiner,
    clifford_generators,
    family_rep,
    nth_power_check,
    ordered_gca_generators,
    to_dense,
    verify_relations,
    wigner_inverse,
)
from gcakit import phasespace
from gcakit.cli import run
from gcakit.matrices import within_tol
from gcakit.weylpairs import sigma1
from gcakit.serialize import matrix_to_doc
from gcakit.skewnormal import validate_tmatrix
from gcakit.weylpairs import clock, shift

SRC = Path(gcakit.__file__).parent

SCALED = settings(max_examples=40, deadline=None, database=None)
SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.integers(-60, 60)
# relative perturbations on both sides of the default tolerance, 1e-10
EPS = st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 5e-11, 1e-10, 3e-10, 1e-9, 1e-6])


def rand_complex(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_within_tol_is_relative_and_fails_nan_and_overflow():
    assert within_tol(1e-11, 1.0, 1e-10) and not within_tol(1e-9, 1.0, 1e-10)
    assert within_tol(1e-31, 1e-20, 1e-10) and not within_tol(1e-29, 1e-20, 1e-10)
    # an exact zero is compared exactly
    assert within_tol(0.0, 0.0, 1e-10) and not within_tol(5e-324, 0.0, 1e-10)
    assert not within_tol(math.nan, 1.0, 1e-10) and not within_tol(0.0, math.nan, 1e-10)
    assert not within_tol(0.0, math.inf, 1e-10)
    assert type(within_tol(np.float64(0.0), np.float64(1.0), 1e-10)) is bool


# ---------------------------------------------------------------------------
# inputs that an absolute floor passed at small scale


def test_a_tiny_non_hermitian_operator_is_rejected():
    # with 1e-11 at (0, 1) a table came back; scaled by 1e11 it did not
    h = np.zeros((3, 3))
    h[0, 1] = 1e-11
    for x in (h, h * 1e11):
        with pytest.raises(NotHermitian):
            wigner_inverse(x)


def test_tiny_identities_do_not_anticommute():
    # 1e-6 I passed commute[0,1] as an anticommuting pair
    t = validate_tmatrix([[0, 1], [-1, 0]], 2)
    for x in (1e-6, 1e-12, 1.0):
        report = verify_relations([x * np.eye(2)] * 2, t, (2, 2))
        assert report.checks[0].name == "commute[0,1]" and not report.checks[0].passed
        assert report.checks[0].deviation == 2 * x * x  # still the absolute deviation


def walsh_hadamard(dim: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < dim:
        h = np.kron(h, [[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    return h


def test_a_dense_unitary_of_high_order_is_held_to_its_power():
    # the clock/shift pair of order 16 conjugated by a Walsh-Hadamard matrix:
    # dense, unitary, max-row-sum norms above 2
    h = walsh_hadamard(16)
    a, b = (h @ to_dense(g) @ h for g in (shift(16), clock(16)))
    assert min(np.linalg.norm(g, np.inf) for g in (a, b)) > 2
    t = validate_tmatrix([[0, 1], [-1, 0]], 16)
    assert verify_relations([a, b], t, (16, 16)).overall
    # move one eigenvalue of b so that b^16 = I + 1e-6 v v^T, v a column of h
    w = np.diag(to_dense(clock(16))).copy()
    w[0] *= (1 + 1e-6) ** (1 / 16)
    checks = verify_relations([a, h @ np.diag(w) @ h], t, (16, 16)).checks
    order = {c.name: c for c in checks if c.name.startswith("order")}
    assert order["order[0]"].passed and not order["order[1]"].passed
    assert order["order[1]"].deviation == pytest.approx(1e-6 / 16, rel=1e-3)


def test_an_overflowing_dense_power_fails_its_order_check():
    t = validate_tmatrix([[0, 1], [-1, 0]], 2)
    checks = verify_relations([2 * np.eye(2), np.eye(2)], t, (1100, 2)).checks
    assert [c.name for c in checks if not c.passed] == ["commute[0,1]", "order[0]"]
    # gcakit verify reports the failed check, with a null deviation, and exits 1
    doc = {"nhat": 2, "t": [[0, 1], [-1, 0]], "orders": [1100, 2],
           "gens": [matrix_to_doc(2 * np.eye(2)), matrix_to_doc(np.eye(2))]}
    out, err = io.StringIO(), io.StringIO()
    assert run(["verify", json.dumps(doc)], stdout=out, stderr=err) == 1 and err.getvalue() == ""
    assert json.loads(out.getvalue())["checks"][1]["deviation"] is None


def power_law(lam, order: int):
    return nth_power_check(LSpec(lam, family_rep(len(lam), order)))


@pytest.mark.parametrize("lam, order, k", [
    ((1 + 1j, 2 - 1j), 2, -525),  # lam ~ 1e-158: lam^2 is subnormal
    ((1 - 3j, 2j), 2, 510),  # lam ~ 3e153: sum lam^2 ~ 1e308, |L|^2 past the float range
    ((1 + 1j, 3, -2j), 3, -350),  # lam ~ 4e-106: lam^3 is subnormal
    ((0.3 - 0.2j, 1.1 + 0.4j, 0.7j, -1), 4, -250),
])
def test_the_power_law_deviation_does_not_depend_on_scale(lam, order, k):
    # the relative deviation is computed on lam scaled to sum |lam_j| in [1/2, 1)
    ref = power_law(lam, order)
    r = power_law([x * 2.0**k for x in lam], order)
    assert r.passed and ref.passed and r.deviation == ref.deviation


def test_a_broken_family_fails_the_power_law_at_every_scale():
    # (sigma1, sigma1): L^2 = 4 x^2 I against 2 x^2, judged against |L|^2 = 4 x^2
    bad = dataclasses.replace(clifford_generators(2), gens=(sigma1, sigma1))
    for x in (1e-158, 1e-6, 1e-12, 1.0, 1e150):
        r = nth_power_check(LSpec((x, x), bad))
        assert not r.passed and r.deviation == 0.5


def test_a_zeroed_reconstruction_fails_decompose_at_tiny_scale(monkeypatch):
    monkeypatch.setattr(phasespace, "schwinger_reconstruct", lambda sc: np.zeros_like(sc.coeffs))
    out, err = io.StringIO(), io.StringIO()
    assert run(["decompose", "[[1e-12, 2e-12], [3e-12, 4e-12]]"], stdout=out, stderr=err) == 1
    doc = json.loads(out.getvalue())
    assert doc["passed"] is False and doc["reconstruction_deviation"] == 4e-12


def test_tiny_complex_tables_are_not_real():
    with pytest.raises(NotReal):
        WignerTable(nu=1, w=1e-12 * (1 + 1j) * np.ones((3, 3)))
    # an imaginary part far below the fixed 1e-9 is still dropped
    assert WignerTable(nu=1, w=1e-12 * (1 + 1e-13j) * np.ones((3, 3))).w.dtype == float


def nearly_hermitian(seed: int, nu: int, eps: float) -> np.ndarray:
    """The identity plus eps times a random anti-hermitian matrix."""
    rng = np.random.default_rng(seed)
    d = 2 * nu + 1
    x = rand_complex(rng, d)
    return np.eye(d) + eps * (x - x.conj().T)


def test_wigner_inverse_rejects_a_tiny_complex_residue():
    # hermitian within tol, but its table's imaginary part is not
    for scale in (1.0, 1e-12):
        with pytest.raises(NotReal):
            wigner_inverse(scale * nearly_hermitian(1, 4, 1e-11))


def test_a_tiny_perturbed_intertwiner_fails_its_relations(monkeypatch):
    p = CanonicalParams(k=0, l=1, m=3, n=0, order=4)
    table = phasespace._gauss_table
    monkeypatch.setattr(phasespace, "_gauss_table", lambda p, q: 1e-12 * (table(p, q) + 1e-6))
    with pytest.raises(UnsupportedTransform) as exc:
        canonical_intertwiner(p)
    assert [c.passed for c in exc.value.report.checks] == [False, False, True]


# ---------------------------------------------------------------------------
# every homogeneous gate gives one verdict at every power-of-two scale


def wigner_inverse_verdict(h) -> str:
    try:
        wigner_inverse(h)
    except (NotHermitian, NotReal) as exc:
        return type(exc).__name__
    return "ok"


@SCALED
@given(SEEDS, st.integers(0, 4), EPS, SCALES)
@example(1, 4, 1e-11, -60)  # reaches the NotReal gate
def test_hermiticity_and_realness_verdicts_do_not_depend_on_scale(seed, nu, eps, k):
    h = nearly_hermitian(seed, nu, eps)
    assert wigner_inverse_verdict(h * 2.0**k) == wigner_inverse_verdict(h)


def table_verdict(nu, w) -> str:
    try:
        WignerTable(nu=nu, w=w)
    except NotReal:
        return "NotReal"
    return "ok"


@SCALED
@given(SEEDS, st.integers(0, 4), st.sampled_from([0.0, 1e-12, 1e-10, 5e-10, 1e-9, 3e-9, 1e-6]), SCALES)
def test_table_realness_verdict_does_not_depend_on_scale(seed, nu, eps, k):
    rng = np.random.default_rng(seed)
    d = 2 * nu + 1
    w = rng.normal(size=(d, d)) + 1j * eps * rng.normal(size=(d, d))
    assert table_verdict(nu, w * 2.0**k) == table_verdict(nu, w)


def commute_verdicts(gens, rep) -> list[bool]:
    report = verify_relations(gens, rep.spec.t, rep.spec.orders)
    return [c.passed for c in report.checks if c.name.startswith("commute")]


@SCALED
@given(SEEDS, st.integers(2, 4), st.sampled_from([2, 3]), EPS, st.lists(SCALES, min_size=4, max_size=4))
def test_commutation_verdicts_do_not_depend_on_scale(seed, n, order, eps, ks):
    # commute[j,k] is homogeneous in e_j and in e_k, so each generator takes its own scale
    rng = np.random.default_rng(seed)
    rep = ordered_gca_generators(n, order)
    gens = [to_dense(g) + eps * rand_complex(rng, rep.dim) for g in rep.gens]
    scaled = [g * 2.0**k for g, k in zip(gens, ks)]
    assert commute_verdicts(scaled, rep) == commute_verdicts(gens, rep)


def decompose_code(m: np.ndarray, wrong: np.ndarray) -> int:
    """gcakit decompose's exit code when the reconstruction is off by wrong."""
    with pytest.MonkeyPatch.context() as mp:
        reconstruct = phasespace.schwinger_reconstruct
        mp.setattr(phasespace, "schwinger_reconstruct", lambda sc: reconstruct(sc) + wrong)
        return run(["decompose", json.dumps(matrix_to_doc(m))], stdout=io.StringIO(), stderr=io.StringIO())


@SCALED
@given(SEEDS, st.integers(1, 6), EPS, SCALES)
def test_reconstruction_verdict_does_not_depend_on_scale(seed, n, eps, k):
    rng = np.random.default_rng(seed)
    m = rand_complex(rng, n)
    wrong = eps * rand_complex(rng, n)
    assert decompose_code(m * 2.0**k, wrong * 2.0**k) == decompose_code(m, wrong)


MAGNITUDES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
COEFFS = st.builds(complex, MAGNITUDES, MAGNITUDES)


@SCALED
@given(st.lists(COEFFS, min_size=2, max_size=4), st.sampled_from([2, 3, 4]), st.booleans(), EPS, SCALES)
def test_power_law_verdict_does_not_depend_on_scale(lam, order, broken, eps, k):
    rep = family_rep(len(lam), order)
    if broken:
        # the last generator repeats the first, with eps times its coefficient
        rep = dataclasses.replace(rep, gens=rep.gens[:-1] + rep.gens[:1])
        lam[-1] *= eps
    want = nth_power_check(LSpec(lam, rep)).passed
    assert nth_power_check(LSpec([x * 2.0**k for x in lam], rep)).passed == want


CANONICAL = [
    (k, l, m, n, order)
    for order in (2, 4, 6)
    for k in range(order) for l in range(order) for m in range(order) for n in range(order)
    if (k * n - l * m) % order == 1
]


def canonical_verdicts(p, noise, scale) -> list[bool]:
    """Check verdicts when the Gauss table is perturbed by noise and scaled."""
    table = phasespace._gauss_table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phasespace, "_gauss_table", lambda p, q: (table(p, q) + noise) * scale)
        try:
            report = canonical_intertwiner(p).report
        except UnsupportedTransform as exc:
            report = exc.report
    return [c.passed for c in report.checks]


@SCALED
@given(st.sampled_from(CANONICAL), SEEDS, EPS, SCALES)
def test_canonical_relation_verdicts_do_not_depend_on_scale(params, seed, eps, k):
    p = CanonicalParams(*params)
    noise = eps * rand_complex(np.random.default_rng(seed), p.order)
    assert canonical_verdicts(p, noise, 2.0**k) == canonical_verdicts(p, noise, 1.0)


# ---------------------------------------------------------------------------
# the rule lives in one place


TOL_NAMES = {"tol", "DEFAULT_TOL"}
# (file, function) where a tolerance may be compared or computed with: the
# helper itself, the CLI's check that --tol is finite and positive, and the
# unit-circle snap of Phase.from_complex
EXEMPT = {("matrices.py", "within_tol"), ("cli.py", "run"), ("phase.py", "from_complex")}


def _is_tol(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in TOL_NAMES) or (
        isinstance(node, ast.Attribute) and node.attr in TOL_NAMES
    )


def tolerance_uses(source: str, filename: str) -> list[str]:
    """Comparisons and arithmetic, min and max included, that take a tolerance
    outside the exempt functions, as 'file:line function'."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        operands = []
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        elif isinstance(node, ast.UnaryOp):
            operands = [node.operand]
        elif isinstance(node, ast.AugAssign):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            operands = node.args
        if any(map(_is_tol, operands)) and (filename, func) not in EXEMPT:
            found.append(f"{filename}:{node.lineno} {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source, filename), None)
    return found


def test_the_checker_finds_hand_written_tolerance_formulas():
    src = (
        "def gate(dev, tol, args):\n"
        "    a = dev <= tol * (1 + dev)\n"
        "    b = dev <= max(tol, 1e-9 * dev)\n"
        "    c = dev > args.tol\n"
        "    d = -DEFAULT_TOL\n"
        "    return within_tol(dev, dev, tol)\n"
    )
    assert tolerance_uses(src, "x.py") == ["x.py:2 gate", "x.py:3 gate", "x.py:4 gate", "x.py:5 gate"]
    assert tolerance_uses("def run(args):\n    return args.tol <= 0\n", "cli.py") == []


def test_every_dense_gate_decides_through_within_tol():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += tolerance_uses(path.read_text(encoding="utf-8"), path.name)
    assert found == []
