"""The command-line entry point, driven in-process.

The digests in golden_cli.json are re-recorded, only by a change that means
to alter the documents, with

    PYTHONPATH=src python tests/test_cli.py --record
"""

import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gcakit
from gcakit import FactorSet, MagneticLattice, max_abs_diff
from gcakit.cli import run
from gcakit.serialize import emit_json, factor_set_to_doc, flux_to_doc, matrix_to_doc
from gcakit.repbuilder import clifford_generators
from gcakit.matrices import to_dense
from gcakit.report import Check, VerificationReport


def call(argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env and monkeypatch:
        for key, val in env.items():
            monkeypatch.setenv(key, val)
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_clifford_json_output():
    code, out, err = call(["clifford", "3"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert len(doc["gens"]) == 3
    assert doc["verify"]["overall"] is True


def test_output_is_byte_identical_across_runs():
    one = call(["clifford", "4"])
    two = call(["clifford", "4"])
    assert one == two
    st1 = call(["selftest"])
    st2 = call(["selftest"])
    assert st1 == st2 and st1[0] == 0


def test_pretty_rendering():
    code, out, _ = call(["clifford", "2", "--pretty"])
    assert code == 0
    # one line per column, "column -> row  phase", with phase strings
    assert "gens[1]: monomial, dim 2\n  0 -> 0  1\n  1 -> 1  -1\n" in out
    assert "{" not in out.splitlines()[0]


def test_snf_inline_json():
    t = [[0, 1, 0], [-1, 0, 2], [0, -2, 0]]
    code, out, _ = call(["snf", json.dumps(t), "--nhat", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"]["overall"] is True
    assert doc["s"] >= 1


def test_rep_from_file_with_orders(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps([[0, 1], [-1, 0]]))
    code, out, _ = call(["rep", str(path), "--nhat", "4", "--orders", "4,8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["orders"] == [4, 8]
    assert doc["verify"]["overall"] is True


def test_ordered_command():
    code, out, _ = call(["ordered", "3", "3"])
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_clifford_prints_the_order_two_family():
    for n in range(1, 13):
        for extra in ([], ["--pretty"]):
            clifford = call(["clifford", str(n)] + extra)
            assert clifford[0] == 0 and clifford[2] == ""
            assert clifford == call(["ordered", str(n), "2"] + extra)


def test_projrep_rejects_a_short_table_before_listing_the_group():
    # |G|**2 = 10**20 pairs: the count is checked before any element is listed
    code, out, err = call(["projrep", '{"orders":[100000,100000],"table":[]}'])
    assert code == 2 and out == ""
    assert err == "error: bad factor set: table has 0 entries, need 100000000000000000000\n"


def test_projrep_rejects_a_repeated_pair():
    rows = [{"g": [a], "h": [b], "num": 0, "den": 1} for a in range(2) for b in range(2)]
    # a fifth row with another phase, and four rows that repeat one pair and omit another
    for table, pair in ((rows + [{"g": [1], "h": [1], "num": 1, "den": 2}], "((1,), (1,))"),
                        (rows[:-1] + rows[:1], "((0,), (0,))")):
        code, out, err = call(["projrep", json.dumps({"orders": [2], "table": table})])
        assert (code, out, err) == (2, "", f"error: table has a second entry for {pair}\n")


def test_projrep_from_stdin_style_file(tmp_path):
    fs = FactorSet.bilinear((2, 2), [[0, "1/2"], [0, 0]])
    path = tmp_path / "fs.json"
    path.write_text(emit_json(factor_set_to_doc(fs)))
    code, out, _ = call(["projrep", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2


def test_lmat_reports_power_scalar():
    code, out, _ = call(["lmat", "--lam", "3,4,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert abs(doc["power_scalar"]["re"] - 25) < 1e-9
    assert doc["power_passed"] is True


def decode_dense(doc):
    rows, cols = doc["dim_rows"], doc["dim_cols"]
    flat = doc["entries"]
    return np.array([e["re"] + 1j * e["im"] for e in flat]).reshape(rows, cols)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ldiag", "--lam", "nan,1"], "error: coefficients must be finite, got (nan+0j)\n"),
        (["ldiag", "--lam", "1,-inf"], "error: coefficients must be finite, got (-inf+0j)\n"),
        (["ldiag", "--lam", "1.7e308,1.7e308"], "error: Lambda = inf is not finite\n"),
        (["lmat", "--lam", "nan,1"], "error: coefficients must be finite, got (nan+0j)\n"),
        (["lmat", "--lam", "1e200,1e200"], "error: the sum of lam_j^2 overflows the float range\n"),
    ],
)
def test_non_finite_coefficients_exit_two_with_one_line(argv, message):
    for extra in ([], ["--pretty"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = call(argv + extra)
        assert (code, out, err) == (2, "", message)
        assert caught == []


@pytest.mark.parametrize("x", [1e-160, 1e-200, 1e200])
def test_ldiag_keeps_tiny_and_huge_coefficients(x):
    # Lambda = sqrt(2) x, although x * x underflows or overflows
    code, out, err = call(["ldiag", "--lam", f"{x},{x}"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert abs(doc["big_lambda"] - math.sqrt(2) * x) <= 1e-15 * math.sqrt(2) * x
    assert all(abs(abs(e) - doc["big_lambda"]) <= 1e-12 * doc["big_lambda"] for e in doc["eig"])


def test_ldiag_subnormal_eigenvalues_are_plus_minus_lambda():
    code, out, err = call(["ldiag", "--lam", "5e-324,0"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["big_lambda"] == 5e-324
    assert doc["eig"] == [5e-324, -5e-324]


def test_ldiag_produces_unitary():
    code, out, _ = call(["ldiag", "--lam", "1,0,0"])
    assert code == 0
    doc = json.loads(out)
    u = decode_dense(doc["u"])
    assert max_abs_diff(u @ u.conj().T, np.eye(u.shape[0])) < 1e-9


def test_decompose_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4))
    path = tmp_path / "m.json"
    path.write_text(emit_json(matrix_to_doc(m)))
    code, out, _ = call(["decompose", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_wigner_forward_and_inverse():
    table = [[1.0] * 3 for _ in range(3)]
    code, out, _ = call(["wigner", "fwd", json.dumps(table)])
    assert code == 0
    doc = json.loads(out)
    h = decode_dense(doc["operator"])
    assert max_abs_diff(h, 3 * np.eye(3)) < 1e-9
    code, out, _ = call(["wigner", "inv", json.dumps(np.eye(3).tolist())])
    assert code == 0
    back = json.loads(out)
    assert np.allclose(decode_dense(back["table"]).real, 1 / 3)


def test_canonical_swap():
    code, out, _ = call(["canonical", "0", "1", "1", "0", "--order", "2"])
    assert code == 0
    doc = json.loads(out)
    s = decode_dense(doc["s"])
    assert np.array_equal(s, np.array([[1, 1], [1, -1]], dtype=complex))
    assert doc["verify"]["overall"] is True
    assert doc["a_prime"]["kind"] == "monomial"


def test_canonical_unsupported_is_exit_one(monkeypatch):
    # m = 0 is intertwined too, so the exit-1 path needs a failing report
    code, out, err = call(["canonical", "3", "0", "0", "3", "--order", "4"])
    assert code == 0 and err == ""
    assert json.loads(out)["verify"]["overall"] is True

    def failing(p, tol):
        raise gcakit.UnsupportedTransform(VerificationReport((Check("relation A", False, "residual 1"),)))

    monkeypatch.setattr("gcakit.phasespace.canonical_intertwiner", failing)
    code, out, err = call(["canonical", "3", "0", "0", "3", "--order", "4"])
    assert code == 1
    assert out.startswith("unsupported transform\n") and "relation A" in out
    assert err == ""


def test_magnetic_with_loop_steps(tmp_path):
    path = tmp_path / "flux.json"
    path.write_text(emit_json(flux_to_doc(MagneticLattice((1, 3), 0, 0))))
    code, out, _ = call(["magnetic", str(path), "--steps", "1,1,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["nhat"] == 3
    assert doc["dim"] == 3
    assert doc["bloch"] == {"num": 1, "den": 3}


def test_catalog_listing_and_lookup():
    code, out, _ = call(["catalog"])
    assert code == 0
    assert set(json.loads(out)["names"]) == {
        "pauli",
        "quaternion",
        "dirac",
        "dirac_positive_energy",
    }
    code, out, _ = call(["catalog", "pauli"])
    assert code == 0
    assert "sigma1" in json.loads(out)["gens"]
    code, _, err = call(["catalog", "nosuch"])
    assert code == 2
    assert err.startswith("error:")


def test_verify_pass_and_fail(tmp_path):
    rep = clifford_generators(2)
    doc = {
        "nhat": 2,
        "t": [[0, 1], [-1, 0]],
        "orders": [2, 2],
        "gens": [matrix_to_doc(g) for g in rep.gens],
    }
    path = tmp_path / "rep.json"
    path.write_text(emit_json(doc))
    code, out, _ = call(["verify", str(path)])
    assert code == 0
    assert json.loads(out)["overall"] is True

    bad = dict(doc)
    bad["gens"] = [matrix_to_doc(to_dense(rep.gens[0]) * 1.001), matrix_to_doc(rep.gens[1])]
    path.write_text(emit_json(bad))
    code, out, _ = call(["verify", str(path)])
    assert code == 1
    assert json.loads(out)["overall"] is False


def test_malformed_input_is_exit_two():
    code, _, err = call(["snf", "{not json", "--nhat", "2"])
    assert code == 2 and err.startswith("error:")
    code, _, err = call(["rep", "[[0,1],[1,0]]", "--nhat", "4"])
    assert code == 2 and err.startswith("error:")  # not antisymmetric
    code, _, err = call(["canonical", "1", "1", "1", "1", "--order", "4"])
    assert code == 2 and err.startswith("error:")  # determinant breaks
    code, _, err = call(["wigner", "inv", json.dumps(np.eye(4).tolist())])
    assert code == 2 and err.startswith("error:")  # even dimension
    code, _, err = call(["magnetic", '{"f12": [1, 3]}'])
    assert code == 2 and err.startswith("error:")


FLUX = '{"f12": [1, 3], "f13": [0, 1], "f23": [0, 1]}'
T2 = "[[0, 1], [-1, 0]]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decompose", "no-such-file.json"], "no such file and not inline JSON: 'no-such-file.json'"),
        (["snf", "[]", "--nhat", "3"], "integer matrix must be a nonempty list of rows"),
        (["snf", "[1, 2]", "--nhat", "3"], "integer matrix rows must be lists"),
        (["rep", T2, "--nhat", "3", "--orders", "3,x"], "--orders must be comma-separated integers: '3,x'"),
        (["lmat", "--lam", "1,x"], "--lam must be comma-separated numbers: '1,x'"),
        (["decompose", "[1, 2]"], "bare matrix must be 2d, got shape (2,)"),
        (["decompose", "-"], "matrix argument must be an object or an array"),  # stdin holds 3
        (["wigner", "fwd", "[[1, 2, 3]]"], "table must be square, got shape (1, 3)"),
        (["wigner", "fwd", "[[1, 0], [0, 1]]"], "table dimension must be odd, got 2"),
        (["magnetic", FLUX, "--steps", "1,2"], "--steps takes exactly three integers"),
        (["verify", "[1]"], "verify takes an object document"),
        (["verify", '{"nhat": "3"}'], "document field 'nhat' must be an integer, got '3'"),
        (["verify", '{"nhat": 2, "t": ' + T2 + ', "orders": 2}'], "document field 'orders' must be a list"),
    ],
)
def test_each_argument_check_exits_two_with_its_message(argv, message, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("3"))
    assert call(argv) == (2, "", f"error: {message}\n")


def test_argparse_errors_pass_through(capsys):
    assert call([])[0] == 2
    assert call(["nosuchcommand"])[0] == 2
    assert call(["clifford"])[0] == 2
    for argv in ([], ["nosuchcommand"], ["clifford"], ["clifford", "x"], ["bogus"],
                 ["rep", "[[0,1],[-1,0]]"], ["snf", "[[0,1],[-1,0]]", "--nhat"]):
        code, out, err = call(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert "invalid int value: 'x'" in call(["clifford", "x"])[2]
    assert "required: --nhat" in call(["rep", "[[0,1],[-1,0]]"])[2]
    # help goes to the stream that was passed in
    for argv in (["--help"], ["clifford", "--help"], ["verify", "-h"]):
        code, out, err = call(argv)
        assert code == 0 and err == "" and out.startswith("usage: gcakit"), argv
    # nothing reached the process streams
    assert capsys.readouterr() == ("", "")


def fresh_process(script: str) -> str:
    """What script prints in a new interpreter that imports this gcakit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gcakit.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


def test_parser_is_built_once_per_process():
    script = (
        "import io\n"
        "import gcakit.cli as cli\n"
        "before = cli._build_parser.cache_info().misses\n"
        "for argv in (['catalog'], ['clifford', 'x'], ['--help'], ['clifford', '3']) * 10:\n"
        "    cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())\n"
        "info = cli._build_parser.cache_info()\n"
        "print(before, info.misses, info.hits)\n"
    )
    # importing builds no parser; forty calls build it once
    assert fresh_process(script).split() == ["0", "1", "39"]


def test_exact_subcommands_load_no_dense_layer():
    script = (
        "import io, sys\n"
        "import gcakit\n"
        "print(' '.join(m for m in sys.modules if m.startswith('gcakit.')) or '-')\n"
        "import gcakit.cli\n"
        "gcakit.cli.run(['catalog', 'pauli'], stdout=io.StringIO())\n"
        "gcakit.cli.run(['rep', '[[0,1],[-1,0]]', '--nhat', '4'], stdout=io.StringIO())\n"
        "print(' '.join(m for m in sys.modules if m.startswith('gcakit.')))\n"
    )
    after_import, after_run = fresh_process(script).splitlines()
    assert after_import == "-"
    assert "gcakit.weylpairs" in after_run.split()
    assert {"gcakit.lmatrix", "gcakit.phasespace"}.isdisjoint(after_run.split())


def test_package_names_resolve_on_first_use():
    names = {}
    exec("from gcakit import *", names)
    assert set(gcakit.__all__) <= names.keys()
    assert set(gcakit.__all__) <= set(dir(gcakit))
    with pytest.raises(AttributeError, match="no_such_name"):
        gcakit.no_such_name


def test_usage_errors_and_help_leave_the_parser_unchanged():
    t = "[[0,1,2],[-1,0,3],[-2,-3,0]]"
    calls = (["rep", t, "--nhat", "6", "--pretty"], ["clifford", "3", "--tol", "1e-3"])
    first = [call(argv) for argv in calls]
    # half-parsed options, a bad value, unknown commands and help in between
    for argv in (["rep", t, "--orders", "3,3,3", "--pretty"], ["rep", t, "--nhat", "x"],
                 ["clifford", "--tol", "1e-3"], ["bogus"], [], ["--help"], ["rep", "--help"]):
        call(argv)
    assert [call(argv) for argv in calls] == first
    # --orders from the half-parsed call did not stick
    assert json.loads(call(["rep", t, "--nhat", "6"])[1])["orders"] == [6, 6, 6]


def test_tolerance_environment(monkeypatch):
    code, _, err = call(["clifford", "2"], env={"GCAKIT_TOL": "banana"}, monkeypatch=monkeypatch)
    assert code == 2 and "GCAKIT_TOL" in err
    code, _, _ = call(["clifford", "2"], env={"GCAKIT_TOL": "1e-14"}, monkeypatch=monkeypatch)
    assert code == 0
    code, _, err = call(["clifford", "2", "--tol", "-1"])
    assert code == 2


IDENTITIES_DECLARED_TO_ANTICOMMUTE = json.dumps({
    "nhat": 2, "t": [[0, 1], [-1, 0]], "orders": [2, 2],
    "gens": [matrix_to_doc(np.eye(2))] * 2,
})


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "Infinity", "NaN"])
def test_tolerance_must_be_finite(value, monkeypatch):
    # with the default tolerance the dense check fails, as it should
    assert call(["verify", IDENTITIES_DECLARED_TO_ANTICOMMUTE])[0] == 1
    for argv in (
        ["verify", IDENTITIES_DECLARED_TO_ANTICOMMUTE, f"--tol={value}"],
        ["decompose", "[[1,2],[3,4]]", f"--tol={value}"],
    ):
        assert call(argv) == (2, "", f"error: tolerance must be finite, got {float(value)}\n")
    with monkeypatch.context() as mp:
        for argv in (["verify", IDENTITIES_DECLARED_TO_ANTICOMMUTE], ["decompose", "[[1,2],[3,4]]"]):
            code, out, err = call(argv, env={"GCAKIT_TOL": value}, monkeypatch=mp)
            assert (code, out) == (2, "")
            assert err == f"error: tolerance must be finite, got {float(value)}\n"


def test_out_writes_file(tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = call(["clifford", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dim"] == 2


def test_selftest_seeded():
    code, out, _ = call(["selftest", "--seed", "7"])
    assert code == 0
    assert out.strip().endswith("overall: pass")
    assert "[ok]" in out and "[BAD]" not in out


def test_rep_verifies_exactly_once(monkeypatch):
    import gcakit.cli
    import gcakit.repbuilder

    calls = []
    original = gcakit.repbuilder.verify_relations

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gcakit.repbuilder, "verify_relations", counting)
    monkeypatch.setattr(gcakit.cli, "verify_relations", counting)
    for argv in (
        ["rep", "[[0,1,2],[-1,0,3],[-2,-3,0]]", "--nhat", "6"],
        ["rep", "[[0,1],[-1,0]]", "--nhat", "4", "--orders", "4,4", "--pretty"],
    ):
        calls.clear()
        code, _, _ = call(argv)
        assert code == 0 and len(calls) == 1


def test_verify_rejects_a_denominator_past_2_62():
    p, q = 2**40 + 15, 2**40 + 27
    one = {"num": 0, "den": 1}
    # two phases in one matrix: the common denominator of its columns overflows
    doc = {
        "nhat": 2,
        "t": [[0, 1], [-1, 0]],
        "gens": [
            {"kind": "monomial", "dim": 2, "target": [1, 0], "phase": [{"num": 1, "den": p}, {"num": 1, "den": q}]},
            {"kind": "monomial", "dim": 2, "target": [0, 1], "phase": [one, {"num": 1, "den": 2}]},
        ],
    }
    code, out, err = call(["verify", json.dumps(doc)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2**62" in err
    # one denominator per matrix: their product overflows while checking
    doc["gens"] = [
        {"kind": "monomial", "dim": 1, "target": [0], "phase": [{"num": 1, "den": p}]},
        {"kind": "monomial", "dim": 1, "target": [0], "phase": [{"num": 1, "den": q}]},
    ]
    code, out, err = call(["verify", json.dumps(doc)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2**62" in err


def _dense_doc(first):
    """matrix_to_doc(identity(2)) with its first entry's real part replaced."""
    doc = matrix_to_doc(np.eye(2))
    doc["entries"][0]["re"] = first
    return doc


def _verify_doc(first) -> str:
    """A verify document, written with json's NaN/Infinity literals where needed."""
    return json.dumps({"nhat": 2, "t": [[0, 1], [-1, 0]], "orders": [2, 2],
                       "gens": [_dense_doc(first), matrix_to_doc(np.eye(2))]})


NON_FINITE_ARGV = [
    ["wigner", "inv", "[[NaN,0,0],[0,1,0],[0,0,1]]"],
    ["wigner", "fwd", "[[NaN,0,0],[0,1,0],[0,0,1]]"],
    ["decompose", "[[Infinity,0],[0,1]]"],
    ["decompose", "[[1e308,1e308],[1e308,1e308]]"],
    ["wigner", "fwd", json.dumps(np.full((3, 3), 1e308).tolist())],
    ["decompose", "[[1" + "0" * 400 + ",0],[0,1]]"],
    ["decompose", json.dumps(_dense_doc(10**400))],
    ["decompose", json.dumps(_dense_doc(-10**400))],
    ["verify", _verify_doc(float("nan"))],
    ["verify", _verify_doc(float("nan")), "--pretty"],
    ["verify", _verify_doc(float("inf"))],
    ["verify", _verify_doc(-float("inf")), "--pretty"],
    ["lmat", "--lam", "1e154,1e154"],
    ["lmat", "--lam", "1e154,1e154", "--pretty"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGV)
def test_non_finite_matrices_exit_two_with_one_line(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = call(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # rejected at the boundary, not by the serializer after the transform
    assert "must be finite" in err or "float range" in err
    assert caught == []


@pytest.mark.parametrize("orders", [[0, 0], [2.9, -2], [-2, 2], [True, 2], [2.0, 2], ["2", 2]])
def test_verify_rejects_orders_that_are_not_positive_integers(orders):
    doc = {"nhat": 2, "t": [[0, 1], [-1, 0]], "orders": orders,
           "gens": [matrix_to_doc(g) for g in clifford_generators(2).gens]}
    code, out, err = call(["verify", json.dumps(doc)])
    assert code == 2 and out == ""
    assert err.startswith("error: generator order must be") and err.count("\n") == 1


def test_verify_orders_default_to_nhat():
    doc = {"nhat": 4, "t": [[0, 2], [-2, 0]],
           "gens": [matrix_to_doc(g) for g in clifford_generators(2).gens]}
    code, out, _ = call(["verify", json.dumps(doc)])
    assert code == 0
    assert [c["detail"] for c in json.loads(out)["checks"]][1:] == ["e_0^4 = 1", "e_1^4 = 1"]


GOLDEN_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# the README examples; each is recorded as given and in its --pretty form
README_EXAMPLES = [
    (["clifford", "3"], None),
    (["snf", "[[0,1],[-1,0]]", "--nhat", "4"], None),
    (["ordered", "3", "4"], None),
    (["lmat", "--lam", "3,4", "--order", "2"], None),
    (["canonical", "0", "1", "1", "0", "--order", "2"], None),
    (["decompose", "[[1,2],[3,4]]"], None),
    (["magnetic", '{"f12":[1,3],"f13":[0,1],"f23":[0,1]}', "--steps", "1,1,0"], None),
    (["rep", "-", "--nhat", "6"], "[[0,1],[-1,0]]\n"),
]


def _bilinear_doc(orders, k, m):
    """Factor-set document of phi(g, h) = e^(2*pi*i * g_k h_m / N_k), written out row by row."""
    elems = list(itertools.product(*(range(nj) for nj in orders)))
    rows = [{"g": list(g), "h": list(h), "num": g[k] * h[m] % orders[k], "den": orders[k]}
            for g in elems for h in elems]
    return json.dumps({"orders": list(orders), "table": rows}, separators=(",", ":"))


# the builder paths on inputs with more than one pair: rep on multi-block T
# (the nhat 12 one has a commuting generator), magnetic with three nonzero
# fluxes, and projrep with and without a factor of order 1
BUILDER_EXAMPLES = [
    (["rep", "[[0,2,1,3],[-2,0,3,0],[-1,-3,0,2],[-3,0,-2,0]]", "--nhat", "6"], None),
    (["rep", "[[0,2,4,6,1],[-2,0,2,4,6],[-4,-2,0,2,4],[-6,-4,-2,0,2],[-1,-6,-4,-2,0]]",
      "--nhat", "8"], None),
    (["rep", "[[0,4,6,0,2],[-4,0,2,0,6],[-6,-2,0,0,4],[0,0,0,0,0],[-2,-6,-4,0,0]]",
      "--nhat", "12"], None),
    (["rep", "[[0,6,10,15],[-6,0,5,12],[-10,-5,0,20],[-15,-12,-20,0]]", "--nhat", "30"], None),
    (["magnetic", '{"f12":[1,2],"f13":[1,3],"f23":[1,4]}', "--steps", "1,2,3"], None),
    (["projrep", _bilinear_doc((2, 2), 0, 1)], None),
    (["projrep", _bilinear_doc((3, 1, 3), 0, 2)], None),
]


def _golden_cases():
    return [
        {"argv": argv + extra, "stdin": stdin}
        for argv, stdin in README_EXAMPLES + BUILDER_EXAMPLES
        for extra in ([], ["--pretty"])
    ]


def _run_case(case):
    saved = sys.stdin
    if case["stdin"] is not None:
        sys.stdin = io.StringIO(case["stdin"])
    try:
        code, out, err = call(case["argv"])
    finally:
        sys.stdin = saved
    return code, hashlib.sha256(out.encode()).hexdigest(), err


def test_readme_examples_print_the_recorded_bytes():
    with open(GOLDEN_CLI, encoding="utf-8") as fh:
        golden = json.load(fh)["cases"]
    assert [{"argv": c["argv"], "stdin": c["stdin"]} for c in golden] == _golden_cases()
    for case in golden:
        assert _run_case(case) == (case["code"], case["sha256"], ""), case["argv"]


@pytest.mark.parametrize(
    "argv, stdin",
    README_EXAMPLES + BUILDER_EXAMPLES
    + [([a for a in argv if a != "--pretty"], None) for argv in NON_FINITE_ARGV],
)
def test_pretty_exits_like_the_document(argv, stdin):
    plain = _run_case({"argv": argv, "stdin": stdin})
    pretty = _run_case({"argv": argv + ["--pretty"], "stdin": stdin})
    assert pretty[0] == plain[0]


@pytest.mark.parametrize(
    "argv, stdin",
    README_EXAMPLES + BUILDER_EXAMPLES + [
        (["ldiag", "--lam", "0.3,-0.7,0.1"], None),
        (["wigner", "fwd", "[[1,2,3],[4,5,6],[7,8,9]]"], None),
        (["wigner", "inv", "[[1,0,0],[0,2,0],[0,0,3]]"], None),
        (["catalog"], None),
        (["catalog", "dirac"], None),
    ],
)
def test_pretty_shows_every_field_under_its_key(argv, stdin, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    doc = json.loads(call(argv)[1])
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    pretty = call(argv + ["--pretty"])[1]
    starts = {line.split(" ")[0].split("[")[0].rstrip(":") for line in pretty.splitlines()}
    assert set(doc) <= starts


@pytest.mark.parametrize("doc", [{"x": float("nan")}, {"z": {"re": 1.0, "im": -float("inf")}}])
def test_pretty_refuses_the_values_the_json_writer_refuses(doc):
    from gcakit.cli import _lines

    for write in (emit_json, lambda d: list(_lines(d))):
        with pytest.raises(ValueError, match="cannot serialize non-finite value"):
            write(doc)


def test_pretty_monomial_text_grows_with_dim():
    # dim 1,600: a dim x dim grid would print over 100 MB
    code, out, err = call(["ordered", "4", "40", "--pretty"])
    assert (code, err) == (0, "")
    assert len(out.encode()) < 1_000_000
    assert out.count(" -> ") == 4 * 1600


def _record():
    cases = []
    for case in _golden_cases():
        code, digest, err = _run_case(case)
        if err:
            raise SystemExit(f"{case['argv']}: {err}")
        cases.append({**case, "code": code, "sha256": digest})
    with open(GOLDEN_CLI, "w", encoding="utf-8") as fh:
        json.dump({"about": "sha256 of the stdout of gcakit for the README and builder examples",
                   "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(cases)} cases in {GOLDEN_CLI}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        raise SystemExit("usage: python tests/test_cli.py --record")
