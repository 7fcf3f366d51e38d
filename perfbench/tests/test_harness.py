"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Checks that tiny runs of every workload complete, that every oracle rejects
a deliberately corrupted output, that the per-layer counts each workload is
listed for are nonzero and repeat exactly, and that an untraced run leaves
every gcakit binding untouched.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gcakit  # noqa: E402
import gcakit.cli  # noqa: E402,F401
import cli_docs  # noqa: E402
import exact_build  # noqa: E402
import phase_space  # noqa: E402
import worker  # noqa: E402
from common import MIN_CALLS  # noqa: E402
from gcakit import MonomialMatrix, Phase  # noqa: E402
from tracer import LAYER_MODULES, LEAF_METHODS, SPAN_METHODS, Tracer  # noqa: E402

WORKLOADS = ("exact_build", "phase_space", "cli_docs")

# per-layer metrics the benchmark lists for each workload; each must be nonzero
LISTED = {
    "exact_build": [
        "phase.new_calls", "phase.mul_calls", "phase.self_s", "matrices.matmul_calls",
        "matrices.matmul_cols", "matrices.pow_calls", "matrices.tensor_calls", "matrices.self_s",
        "skewnormal.snf_calls", "skewnormal.self_s", "weylpairs.pair_self_s",
        "repbuilder.build_self_s", "repbuilder.verify_calls", "repbuilder.verify_self_s",
        "repbuilder.verify_per_rep", "repbuilder.factorset_validate_s",
        "repbuilder.projective_self_s", "phasespace.magnetic_self_s",
    ],
    "phase_space": [
        "phase.to_complex_calls", "phase.self_s", "matrices.phase_sum_calls",
        "matrices.to_dense_calls", "weylpairs.dense_self_s", "phasespace.decompose_self_s",
        "phasespace.wigner_self_s", "phasespace.canonical_self_s", "lmatrix.self_s",
    ],
    "cli_docs": [
        "matrices.matmul_calls", "matrices.pow_calls", "matrices.tensor_calls",
        "matrices.phase_sum_calls", "matrices.to_dense_calls", "repbuilder.build_self_s",
        "repbuilder.verify_calls", "repbuilder.verify_self_s", "repbuilder.verify_per_rep",
        "repbuilder.factorset_validate_s", "repbuilder.projective_self_s",
        "phasespace.decompose_self_s", "phasespace.wigner_self_s", "serialize.emit_self_s",
        "serialize.emit_bytes", "serialize.parse_self_s", "serialize.parse_bytes", "cli.self_s",
    ],
}


def run_worker(*args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_completes(name):
    res = run_worker("--workload", name, "--seed", "5", "--seconds", "0.01", "--tiny")
    assert res["attempted"] >= MIN_CALLS and res["beyond_p90"] >= 10
    assert res["failed_unexpected"] == 0, res["failures"]
    assert res["throughput_ops_s"] > 0 and res["latency_p90_ms"] >= res["latency_p50_ms"] > 0


def test_run_prints_contract_line():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           "phase_space", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(line["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert line["correct"] and line["failed"] == 0
    assert all(m["value"] > 0 for m in line["metrics"].values())


# ---------------------------------------------------------------------------
# corrupted outputs

def flip(m: MonomialMatrix) -> MonomialMatrix:
    """The same matrix with the phase exponent of column 0 negated-and-shifted by 1/2."""
    p = m.phase[0]
    return MonomialMatrix(m.dim, m.target, (Phase(2 * p.num + p.den, 2 * p.den),) + m.phase[1:])


def flip_rep(rep):
    return dataclasses.replace(rep, gens=(flip(rep.gens[0]),) + rep.gens[1:])


def bump(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    out.flat[0] += 1e-3
    return out


def corrupt(kind: str, out):
    if kind == "build_representation":
        return flip_rep(out)
    if kind in ("clifford+verify", "ordered+verify"):
        return flip_rep(out[0]), out[1]
    if kind == "magnetic_translation_rep":
        return dataclasses.replace(out, rep=flip_rep(out.rep))
    if kind == "skew_normal_form+verify":
        f, report = out
        u = tuple(tuple(r) for r in f.u)
        u = ((u[0][0] + 1,) + u[0][1:],) + u[1:]
        return dataclasses.replace(f, u=u), report
    if kind == "projective_rep":
        return dataclasses.replace(out, dmap={g: 1.001 * d for g, d in out.dmap.items()})
    if kind in ("schwinger_coeffs", "diagonal_slice_decomposition"):
        return dataclasses.replace(out, coeffs=bump(out.coeffs))
    if kind in ("schwinger_reconstruct", "wigner_forward", "sylvester"):
        return bump(out)
    if kind == "wigner_inverse":
        return dataclasses.replace(out, w=bump(out.w))
    if kind == "hermitian_logs":
        return out[0], bump(out[1])
    if kind == "canonical_intertwiner":
        return dataclasses.replace(out, s=bump(out.s))
    if kind == "nth_power_check":
        return dataclasses.replace(out, scalar=out.scalar + 1e-3)
    if kind == "diagonalize_l":
        return dataclasses.replace(out, u=bump(out.u))
    if kind == "sigma_operation":
        return gcakit.LSpec((out.lam[0] + 1e-3,) + out.lam[1:], out.rep)
    raise AssertionError(f"no corruption for {kind}")


@pytest.mark.parametrize("module", [exact_build, phase_space])
def test_every_library_oracle_rejects_a_corrupted_output(module):
    ops = module.make_round(np.random.default_rng(7), tiny=False)
    kinds = set()
    for op in ops:
        out = op.call()
        assert op.check(out), op.kind
        assert rejects(op, corrupt(op.kind, out)), op.kind
        kinds.add(op.kind)
    assert len(kinds) >= 6


def rejects(op, out) -> bool:
    """The oracle's verdict as the loop sees it: raising counts as rejecting."""
    try:
        return not op.check(out)
    except Exception:
        return True


def alter(value, kinds=(int, float)):
    """Copy of a parsed JSON value with its first leaf of the given kinds changed."""
    if isinstance(value, bool):
        return value, False
    if isinstance(value, kinds):
        return value + (1 if not isinstance(value, str) else "x"), True
    if isinstance(value, list):
        for i, v in enumerate(value):
            new, done = alter(v, kinds)
            if done:
                return value[:i] + [new] + value[i + 1:], True
    if isinstance(value, dict):
        for k, v in value.items():
            new, done = alter(v, kinds)
            if done:
                return {**value, k: new}, True
    return value, False


def altered(value):
    new, done = alter(value)
    if not done:
        new, done = alter(value, (str,))
    assert done
    return new


def test_every_cli_oracle_rejects_an_altered_field():
    wl = cli_docs.Workload(0)
    wl.warm_up()
    checked = 0
    for op in wl.round(0):
        code, stdout, stderr = out = op.call()
        if op.known_defect:
            assert rejects(op, out)
            continue
        assert op.check(out), op.sizes
        assert rejects(op, (3 - code if code != 1 else 0, stdout, stderr))
        if code != 0 or not stdout.startswith("{"):
            continue
        doc = json.loads(stdout)
        fields = [f for f in (*cli_docs.EXACT_FIELDS, "coeffs", "operator", "table", "power_scalar",
                              "eig", "checks", "elements") if f in doc]
        assert fields, op.sizes
        for f in fields:
            bad = {**doc, f: altered(doc[f])}
            assert rejects(op, (code, json.dumps(bad), stderr)), (op.sizes, f)
            checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# tracing

def traced(name: str) -> dict:
    return run_worker("--workload", name, "--seed", "9", "--seconds", "1", "--trace", "1", "--tiny")


@pytest.mark.parametrize("name", WORKLOADS)
def test_listed_per_layer_metrics_are_nonzero_and_repeat(name):
    first, second = traced(name), traced(name)
    pl = first["per_layer"]
    zero = [m for m in LISTED[name] if not pl[m] > 0]
    assert not zero, zero
    assert pl["trace.overhead_ratio"] > 0
    assert pl["trace.layer_coverage"] >= 0.9
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert listed == set(pl)
    counts = [m for m in pl if not m.endswith(("_s", "ratio", "coverage"))]
    assert {m: pl[m] for m in counts} == {m: second["per_layer"][m] for m in counts}


def bindings() -> dict:
    snap = {}
    for k, mod in sys.modules.items():
        if k == "gcakit" or k.startswith("gcakit."):
            for attr, val in vars(mod).items():
                if callable(val):
                    snap[(k, attr)] = val
    for table in (LEAF_METHODS, SPAN_METHODS):
        for (layer, clsname), attrs in table.items():
            cls = getattr(sys.modules[LAYER_MODULES[layer]], clsname)
            for attr in attrs:
                snap[(clsname, attr)] = cls.__dict__[attr]
    return snap


def test_untraced_run_keeps_every_original_binding():
    before = bindings()
    wl = exact_build.Workload(3, tiny=True)
    wl.warm_up()
    res = worker.untraced(wl, 0.01)
    assert res["failed"] == 0
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_uninstall_restores_every_binding():
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert gcakit.cli.build_representation is not before[("gcakit.cli", "build_representation")]
        assert Phase.__dict__["__mul__"] is not before[("Phase", "__mul__")]
        gcakit.build_representation(gcakit.GcaSpec(gcakit.validate_tmatrix([[0, 1], [-1, 0]], 3), (3, 3)))
    finally:
        tracer.uninstall()
    after = bindings()
    assert all(after[k] is before[k] for k in before)
    assert tracer.counts["build_representation"] == 1 and tracer.counts["Phase.__post_init__"] > 0
