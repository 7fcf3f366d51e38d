"""cli_docs: in-process ``gcakit.cli.run`` over a fixed corpus of documents.

The corpus (35 entries, an odd count that is 5 mod 10 for the reason given
in exact_build) covers all 14 subcommands and is re-issued round-robin, so
the inputs repeat heavily.  About half the calls write exact documents and the
other half read documents back (verify, decompose, wigner).  The seed fixes
the order of the corpus inside a round.  The verify inputs are the writers'
own documents, produced once during set-up.

Exact fields are compared, as parsed JSON, with digests recorded at the seed
commit in golden/cli_docs.json; record them again with

    python3 perfbench/cli_docs.py --record
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

from common import Op, close, wigner_operator, word_coeffs

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_docs.json")
EXACT_FIELDS = ("gens", "mu", "t_inv", "u", "commutators", "bloch", "a_prime", "b_prime", "names")

ZERO_ORDER_DEFECT = "ROADMAP item 5: verify accepts orders [0, 0]"


def _j(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _dense_doc(m: np.ndarray) -> dict:
    return {
        "kind": "dense", "dim_rows": m.shape[0], "dim_cols": m.shape[1],
        "entries": [{"re": float(z.real), "im": float(z.imag)} for z in m.ravel()],
    }


def _bilinear_doc(orders, exps) -> dict:
    n = len(orders)
    rows = []
    for a in np.ndindex(*orders):
        for b in np.ndindex(*orders):
            f = sum(exps[j][k] * a[j] * b[k] for j in range(n) for k in range(n)) % 1
            rows.append({"g": list(a), "h": list(b), "num": f.numerator, "den": f.denominator})
    return {"orders": list(orders), "table": rows}


def _flux_t(flux: dict) -> tuple[int, list[list[int]]]:
    fr = [Fraction(*flux[k]) for k in ("f12", "f13", "f23")]
    nhat = 1
    for f in fr:
        nhat = nhat * f.denominator // np.gcd(nhat, f.denominator)
    nhat = max(2, int(nhat))
    t = [[0] * 3 for _ in range(3)]
    for (j, k), f in zip(((0, 1), (0, 2), (1, 2)), fr):
        t[j][k] = -f.numerator * (nhat // f.denominator)
        t[k][j] = -t[j][k]
    return nhat, t


def _ordered_t(n: int) -> list[list[int]]:
    return [[(j < k) - (j > k) for k in range(n)] for j in range(n)]


T3 = [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]
T5 = [[0, 1, 0, 3, 2], [-1, 0, 2, 0, 1], [0, -2, 0, 1, 4], [-3, 0, -1, 0, 2], [-2, -1, -4, -2, 0]]
FLUX_A = {"f12": [1, 3], "f13": [1, 4], "f23": [1, 5]}
FLUX_B = {"f12": [1, 2], "f13": [2, 3], "f23": [3, 7]}
SIGMA1 = {"kind": "monomial", "dim": 2, "target": [1, 0], "phase": [{"num": 0, "den": 1}] * 2}
SIGMA3 = {"kind": "monomial", "dim": 2, "target": [0, 1],
          "phase": [{"num": 0, "den": 1}, {"num": 1, "den": 2}]}

# writer name -> (argv, (nhat, t, orders) for the verify document built from it)
WRITERS = {
    "rep_n3": (["rep", _j(T3), "--nhat", "6"], (6, T3, None)),
    "rep_n5": (["rep", _j(T5), "--nhat", "8"], (8, T5, None)),
    "clifford_8": (["clifford", "8"], (2, _ordered_t(8), [2] * 8)),
    "clifford_11": (["clifford", "11"], (2, _ordered_t(11), [2] * 11)),
    "ordered_4_5": (["ordered", "4", "5"], (5, _ordered_t(4), None)),
    "ordered_5_7": (["ordered", "5", "7"], (7, _ordered_t(5), None)),
    "ordered_4_15": (["ordered", "4", "15"], (15, _ordered_t(4), None)),
    "magnetic_a": (["magnetic", _j(FLUX_A)], _flux_t(FLUX_A) + (None,)),
    "magnetic_b": (["magnetic", _j(FLUX_B), "--steps", "1,2,3"], _flux_t(FLUX_B) + (None,)),
    "projrep_2x2": (["projrep", _j(_bilinear_doc((2, 2), [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(1, 2)]]))], None),
    "projrep_3x3": (["projrep", _j(_bilinear_doc((3, 3), [[Fraction(1, 3), Fraction(2, 3)], [Fraction(0), Fraction(1, 3)]]))], None),
}
VERIFY_FROM = ["rep_n3", "clifford_11", "ordered_5_7", "ordered_4_15", "magnetic_a", "rep_n5"]


def _fixed_inputs():
    rng = np.random.default_rng(20100523)
    dec = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (8, 24)]
    bare = rng.normal(size=(16, 16))
    tables = [rng.normal(size=(d, d)) for d in (9,)]
    inv_tables = [rng.normal(size=(d, d)) for d in (11, 21)]
    return dec, bare, tables, inv_tables


def corpus_entries(verify_docs: dict) -> list[dict]:
    """The fixed corpus.  Each entry: name, argv, expected exit code, checks."""
    dec, bare, tables, inv_tables = _fixed_inputs()
    out = [{"name": n, "argv": a, "code": 0, "json": True} for n, (a, _) in WRITERS.items()]
    for name in VERIFY_FROM:
        n = len(verify_docs[name]["t"])
        names = [f"commute[{j},{k}]" for j in range(n) for k in range(j + 1, n)]
        out.append({"name": f"verify_{name}", "argv": ["verify", _j(verify_docs[name])],
                    "code": 0, "json": True, "verify_checks": names + [f"order[{j}]" for j in range(n)]})
    for m in dec:
        out.append({"name": f"decompose_dense_{m.shape[0]}", "argv": ["decompose", _j(_dense_doc(m))],
                    "code": 0, "json": True, "coeffs": word_coeffs(m)})
    out.append({"name": "decompose_bare_16", "argv": ["decompose", _j(bare.tolist())],
                "code": 0, "json": True, "coeffs": word_coeffs(bare.astype(complex))})
    for t in tables:
        out.append({"name": f"wigner_fwd_{t.shape[0]}", "argv": ["wigner", "fwd", _j(t.tolist())],
                    "code": 0, "json": True, "operator": wigner_operator(t)})
    for t in inv_tables:
        h = wigner_operator(t)
        out.append({"name": f"wigner_inv_{t.shape[0]}", "argv": ["wigner", "inv", _j(_dense_doc(h))],
                    "code": 0, "json": True, "table": t})
    out += [
        {"name": "snf_n5", "argv": ["snf", _j(T5), "--nhat", "30"], "code": 0, "json": True},
        {"name": "lmat_3", "argv": ["lmat", "--lam", "1,2,3", "--order", "3"], "code": 0, "json": True,
         "power": (36, 3)},
        {"name": "ldiag", "argv": ["ldiag", "--lam", "1,2,2"], "code": 0, "json": True, "big_lambda": 3.0},
        {"name": "canonical_swap", "argv": ["canonical", "0", "1", "1", "0", "--order", "2"], "code": 0, "json": True},
        {"name": "canonical_8", "argv": ["canonical", "1", "1", "1", "2", "--order", "8"], "code": 0, "json": True},
        {"name": "catalog", "argv": ["catalog"], "code": 0, "json": True},
        {"name": "catalog_dirac", "argv": ["catalog", "dirac"], "code": 0, "json": True},
        {"name": "selftest", "argv": ["selftest", "--seed", "3"], "code": 0, "json": False},
        {"name": "bad_not_antisymmetric", "argv": ["rep", "[[0,1],[1,0]]", "--nhat", "3"], "code": 2},
        {"name": "bad_ragged_matrix", "argv": ["decompose", "[[1,2],[3]]"], "code": 2},
        {"name": "bad_verify_no_gens", "argv": ["verify", '{"nhat":4,"t":[[0,1],[-1,0]]}'], "code": 2},
        {"name": "verify_zero_orders", "code": 2, "known_defect": ZERO_ORDER_DEFECT,
         "argv": ["verify", _j({"nhat": 2, "t": [[0, 1], [-1, 0]], "orders": [0, 0],
                                "gens": [SIGMA1, SIGMA3]})]},
    ]
    return out


def invoke(argv):
    from gcakit.cli import run

    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _verify_doc(name: str, stdout: str) -> dict:
    nhat, t, orders = WRITERS[name][1]
    gens = json.loads(stdout)["gens"]
    return {"nhat": nhat, "t": t, "orders": orders or [nhat] * len(t), "gens": gens}


def exact_fields(doc: dict) -> dict:
    got = {f: digest(doc[f]) for f in EXACT_FIELDS if f in doc}
    if "elements" in doc:
        got["phi"] = digest([[e["g"], e["phi"]] for e in doc["elements"]])
    return got


def make_check(entry: dict, golden: dict):
    def check(out) -> bool:
        code, stdout, stderr = out
        if code != entry["code"]:
            return False
        if code == 2:
            return stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1
        if not entry["json"]:
            return stdout.rstrip().splitlines()[-1] == "overall: pass"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False
        if not isinstance(doc, dict):
            return False
        if exact_fields(doc) != golden.get(entry["name"], {}):
            return False
        if "verify" in doc and not doc["verify"]["overall"]:
            return False
        if "verify_checks" in entry:
            # exact path: every check passes with zero deviation
            got = [(c["name"], c["pass"], c["deviation"]) for c in doc["checks"]]
            return doc["overall"] is True and got == [(c, True, 0.0) for c in entry["verify_checks"]]
        if "coeffs" in entry:
            return doc["passed"] is True and close(_parse_dense(doc["coeffs"]), entry["coeffs"])
        if "operator" in entry:
            return close(_parse_dense(doc["operator"]), entry["operator"])
        if "table" in entry:
            return close(_parse_dense(doc["table"]), entry["table"])
        if "power" in entry:
            want, order = entry["power"]
            got = complex(doc["power_scalar"]["re"], doc["power_scalar"]["im"])
            return doc["power_passed"] is True and doc["order"] == order and abs(got - want) <= 1e-9 * want
        if "big_lambda" in entry:
            lam = entry["big_lambda"]
            return abs(doc["big_lambda"] - lam) <= 1e-12 and all(abs(abs(x) - lam) <= 1e-9 for x in doc["eig"])
        return True

    return check


def _parse_dense(doc: dict) -> np.ndarray:
    vals = np.array([complex(e["re"], e["im"]) for e in doc["entries"]])
    return vals.reshape(doc["dim_rows"], doc["dim_cols"])


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = "cli_docs"

    def __init__(self, seed: int, tiny: bool = False, golden: dict | None = None):
        self.seed = seed
        self.golden = load_golden() if golden is None else golden
        self.verify_docs: dict = {}
        self.entries: list[dict] = []

    def warm_up(self) -> None:
        # One pass over the writers: it warms the code paths and yields the
        # documents that the verify entries read back.
        for name in VERIFY_FROM:
            code, stdout, _ = invoke(WRITERS[name][0])
            if code != 0:
                raise RuntimeError(f"writer {name} exited {code} during set-up")
            self.verify_docs[name] = _verify_doc(name, stdout)
        self.entries = corpus_entries(self.verify_docs)
        order = np.random.default_rng(self.seed).permutation(len(self.entries))
        self.ops = [self._op(self.entries[i]) for i in order]

    def _op(self, entry: dict) -> Op:
        argv = list(entry["argv"])
        doc_bytes = sum(len(a) for a in argv if a[:1] in "[{")
        return Op(f"cli:{argv[0]}", {"entry": entry["name"], "doc_bytes": doc_bytes},
                  lambda: invoke(argv), make_check(entry, self.golden),
                  known_defect=entry.get("known_defect"))

    def round(self, k: int) -> list[Op]:
        return self.ops


def record() -> None:
    wl = Workload(0, golden={})
    wl.warm_up()
    golden = {}
    for e in wl.entries:
        code, stdout, stderr = invoke(e["argv"])
        if code != e["code"] and not e.get("known_defect"):
            raise SystemExit(f"{e['name']}: exit {code}, expected {e['code']}: {stderr}")
        if code == 0 and e.get("json"):
            fields = exact_fields(json.loads(stdout))
            if fields:
                golden[e["name"]] = fields
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} entries in {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        raise SystemExit("usage: python3 perfbench/cli_docs.py --record")
