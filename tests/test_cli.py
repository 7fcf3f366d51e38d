"""The command-line entry point, driven in-process."""

import io
import json

import numpy as np
import pytest

from gcakit import FactorSet, MagneticLattice, max_abs_diff
from gcakit.cli import run
from gcakit.serialize import emit_json, factor_set_to_doc, flux_to_doc, matrix_to_doc
from gcakit.repbuilder import clifford_generators
from gcakit.matrices import to_dense


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
    assert "." in out and "-1" in out  # aligned grid with phase strings
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


def test_canonical_unsupported_is_exit_one():
    code, out, err = call(["canonical", "3", "0", "0", "3", "--order", "4"])
    assert code == 1
    assert "unsupported transform" in out
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


def test_argparse_errors_pass_through():
    assert call([])[0] == 2
    assert call(["nosuchcommand"])[0] == 2
    assert call(["clifford"])[0] == 2


def test_tolerance_environment(monkeypatch):
    code, _, err = call(["clifford", "2"], env={"GCAKIT_TOL": "banana"}, monkeypatch=monkeypatch)
    assert code == 2 and "GCAKIT_TOL" in err
    code, _, _ = call(["clifford", "2"], env={"GCAKIT_TOL": "1e-14"}, monkeypatch=monkeypatch)
    assert code == 0
    code, _, err = call(["clifford", "2", "--tol", "-1"])
    assert code == 2


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
