"""Command line front end.

Every subcommand prints a deterministic JSON document on stdout (or, with
--pretty, a human-readable rendering of the same document) and exits 0 on
success, 1 when a verification report fails, 2 on malformed input.  Matrix, factor-set and
flux arguments accept a file path, '-' for stdin, or an inline JSON string.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import GcaError, NotFinite, UnsupportedTransform
from .lmatrix import LSpec, diagonalize_l, family_rep, l_matrix, nth_power_check
from .matrices import DEFAULT_TOL, MonomialMatrix, max_abs_diff
from .phase import Phase
from .phasespace import (
    CanonicalParams,
    MagneticLattice,
    WignerTable,
    bloch_phase,
    canonical_intertwiner,
    canonical_pair,
    magnetic_translation_rep,
    schwinger_coeffs,
    schwinger_reconstruct,
    wigner_forward,
    wigner_inverse,
)
from .repbuilder import (
    CATALOG_NAMES,
    GcaSpec,
    build_representation,
    catalog,
    clifford_generators,
    ordered_gca_generators,
    projective_rep,
    verify_gca,
    verify_relations,
)
from .report import report_lines
from .serialize import (
    doc_to_factor_set,
    doc_to_flux,
    doc_to_matrix,
    emit_json,
    matrix_to_doc,
)
from .skewnormal import skew_normal_form, validate_tmatrix, verify_congruence

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# argument helpers

def _read_json_arg(arg: str):
    if arg == "-":
        return json.loads(sys.stdin.read())
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return json.load(fh)
    stripped = arg.lstrip()
    if stripped[:1] in "[{":
        return json.loads(arg)
    raise ValueError(f"no such file and not inline JSON: {arg!r}")


def _int_matrix(doc) -> list[list[int]]:
    # validate_tmatrix, which every caller runs next, checks the entries
    if not isinstance(doc, list) or not doc:
        raise ValueError("integer matrix must be a nonempty list of rows")
    if not all(isinstance(row, list) for row in doc):
        raise ValueError("integer matrix rows must be lists")
    return doc


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be comma-separated integers: {text!r}") from exc


def _float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be comma-separated numbers: {text!r}") from exc


def _any_matrix(arg: str):
    """A matrix document, or a bare JSON array of (possibly complex-pair) rows."""
    doc = _read_json_arg(arg)
    if isinstance(doc, dict):
        return doc_to_matrix(doc)
    if isinstance(doc, list):
        arr = np.asarray(doc)
        if arr.ndim != 2:
            raise ValueError(f"bare matrix must be 2d, got shape {arr.shape}")
        try:
            return arr.astype(complex)
        except OverflowError:  # an integer past the float range
            raise NotFinite("matrix entries must be finite") from None
    raise ValueError("matrix argument must be an object or an array")


# ---------------------------------------------------------------------------
# --pretty: one text layout for every document

def _c_str(z: complex) -> str:
    re, im = z.real, z.imag
    if abs(im) < 5e-13 and abs(re) < 5e-13:
        return "0"
    if abs(im) < 5e-13:
        return f"{re:.6g}"
    if abs(re) < 5e-13:
        return f"{im:.6g}i"
    return f"{re:.6g}{im:+.6g}i"


def _finite(x):
    # emit_json refuses the same values, so both layouts exit alike
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return x


def _cell(v) -> str | None:
    """A scalar, {num, den}, {re, im} or a list of these as text; else None."""
    if isinstance(v, list):
        cells = [None if isinstance(x, list) else _cell(x) for x in v]
        return None if None in cells else f"[{', '.join(cells)}]"
    if isinstance(v, dict):
        if v.keys() == {"num", "den"}:
            return str(Phase(v["num"], v["den"]))
        if v.keys() == {"re", "im"}:
            return _c_str(complex(_finite(v["re"]), _finite(v["im"])))
        return None
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(_finite(v))


def _grid(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def _field(label: str, v, pad: str):
    """The lines of one field of a document, indented by pad."""
    cell = _cell(v)
    if cell is not None:
        yield f"{pad}{label} = {cell}"
    elif isinstance(v, list) and all(isinstance(row, list) for row in v):
        yield f"{pad}{label} ="
        yield from (pad + "  " + line for line in _grid([[_cell(x) for x in row] for row in v]))
    elif isinstance(v, list):
        for j, x in enumerate(v):
            yield from _field(f"{label}[{j}]", x, pad)
    elif v.get("kind") == "monomial":
        # one line per column, so the text grows with dim, not dim^2
        yield f"{pad}{label}: monomial, dim {v['dim']}"
        w = len(str(v["dim"] - 1))
        for c, (row, p) in enumerate(zip(v["target"], v["phase"])):
            yield f"{pad}  {c:>{w}} -> {row:>{w}}  {_cell(p)}"
    elif v.get("kind") == "dense":
        rows, cols = v["dim_rows"], v["dim_cols"]
        yield f"{pad}{label}: dense, {rows} x {cols}"
        cells = [_cell(z) for z in v["entries"]]
        yield from (pad + "  " + line for line in _grid([cells[r * cols:(r + 1) * cols] for r in range(rows)]))
    else:
        yield f"{pad}{label}:"
        yield from _lines(v, pad + "  ")


def _lines(doc: dict, pad: str = ""):
    """The --pretty lines of a document: each field once, under its key."""
    if doc.keys() == {"overall", "checks"}:
        checks = ((c["name"], c["pass"], c["detail"]) for c in doc["checks"])
        yield from (pad + line for line in report_lines(doc["overall"], checks))
    else:
        for key, v in doc.items():
            yield from _field(key, v, pad)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (document, exit_code), selftest (text, exit_code)

def _cmd_snf(args):
    t = validate_tmatrix(_int_matrix(_read_json_arg(args.tmatrix)), args.nhat)
    f = skew_normal_form(t)
    report = verify_congruence(t, f)
    return {
        "nhat": t.nhat,
        "n": t.n,
        "s": f.s,
        "t_inv": list(f.t_inv),
        "u": [list(row) for row in f.u],
        "tcal": [list(row) for row in f.tcal()],
        "verify": report.to_dict(),
    }, 0 if report.overall else 1


def _rep_doc(rep, report):
    return {
        "nhat": rep.spec.nhat,
        "orders": list(rep.spec.orders),
        "dim": rep.dim,
        "mu": [{"num": p.num, "den": p.den} for p in rep.mu],
        "gens": [matrix_to_doc(g) for g in rep.gens],
        "verify": report.to_dict(),
    }, 0 if report.overall else 1


def _cmd_rep(args):
    t = validate_tmatrix(_int_matrix(_read_json_arg(args.tmatrix)), args.nhat)
    orders = _int_list(args.orders, "--orders") if args.orders else (t.nhat,) * t.n
    rep = build_representation(GcaSpec(t, orders))
    return _rep_doc(rep, rep.report)


def _cmd_ordered(args):
    rep = ordered_gca_generators(args.n, args.order)
    return _rep_doc(rep, verify_gca(rep))


def _cmd_projrep(args):
    fs = doc_to_factor_set(_read_json_arg(args.factorset))
    pr = projective_rep(fs)
    return {
        "orders": list(pr.orders),
        "dim": pr.dim,
        "commutators": [
            [{"num": p.num, "den": p.den} for p in row] for row in pr.commutators
        ],
        "elements": [
            {
                "g": list(g),
                "phi": {"num": pr.phi_coeffs[g].num, "den": pr.phi_coeffs[g].den},
                "matrix": matrix_to_doc(pr.dmap[g]),
            }
            for g in sorted(pr.dmap)
        ],
    }, 0


def _cmd_lmat(args):
    lam = _float_list(args.lam, "--lam")
    rep = family_rep(len(lam), args.order)
    spec = LSpec(lam, rep)
    power = nth_power_check(spec, tol=args.tol)
    return {
        "order": power.order,
        "dim": rep.dim,
        "l": matrix_to_doc(l_matrix(spec)),
        "power_scalar": {"re": power.scalar.real, "im": power.scalar.imag},
        "power_deviation": power.deviation,
        "power_passed": power.passed,
    }, 0 if power.passed else 1


def _cmd_ldiag(args):
    lam = _float_list(args.lam, "--lam")
    spec = LSpec(lam, family_rep(len(lam), 2))
    res = diagonalize_l(spec, tol=args.tol)
    return {
        "axis": res.axis,
        "big_lambda": res.big_lambda,
        "used_fallback": res.used_fallback,
        "eig": [float(x) for x in res.eig],
        "u": matrix_to_doc(res.u),
    }, 0


def _cmd_decompose(args):
    m = _any_matrix(args.matrix)
    sc = schwinger_coeffs(m)
    recon = max_abs_diff(schwinger_reconstruct(sc), m)
    scale = 1.0 + float(np.max(np.abs(np.asarray(sc.coeffs))))
    passed = recon <= args.tol * scale
    return {
        "order": sc.order,
        "coeffs": matrix_to_doc(sc.coeffs),
        "reconstruction_deviation": float(recon),
        "passed": passed,
    }, 0 if passed else 1


def _cmd_wigner(args):
    m = _any_matrix(args.matrix)
    dense = m.to_dense() if isinstance(m, MonomialMatrix) else np.asarray(m, dtype=complex)
    if args.direction == "fwd":
        d = dense.shape[0]
        if dense.ndim != 2 or dense.shape != (d, d):
            raise ValueError(f"table must be square, got shape {dense.shape}")
        if d % 2 == 0:
            raise ValueError(f"table dimension must be odd, got {d}")
        table = WignerTable(nu=(d - 1) // 2, w=dense)
        return {"nu": table.nu, "operator": matrix_to_doc(wigner_forward(table))}, 0
    table = wigner_inverse(dense, tol=args.tol)
    return {"nu": table.nu, "table": matrix_to_doc(table.w)}, 0


def _cmd_canonical(args):
    p = CanonicalParams(k=args.k, l=args.l, m=args.m, n=args.n, order=args.order)
    ap, bp = canonical_pair(p)
    res = canonical_intertwiner(p, tol=args.tol)
    return {
        "params": {"k": p.k, "l": p.l, "m": p.m, "n": p.n, "order": p.order},
        "a_prime": matrix_to_doc(ap),
        "b_prime": matrix_to_doc(bp),
        "s": matrix_to_doc(res.s),
        "zeta_a": {"re": res.zeta_a.real, "im": res.zeta_a.imag},
        "zeta_b": {"re": res.zeta_b.real, "im": res.zeta_b.imag},
        "verify": res.report.to_dict(),
    }, 0


def _cmd_magnetic(args):
    lat = doc_to_flux(_read_json_arg(args.flux))
    mag = magnetic_translation_rep(lat)
    doc = {
        "nhat": mag.nhat,
        "dim": mag.rep.dim,
        "gens": [matrix_to_doc(g) for g in mag.rep.gens],
    }
    if args.steps:
        steps = _int_list(args.steps, "--steps")
        if len(steps) != 3:
            raise ValueError("--steps takes exactly three integers")
        ph = bloch_phase(lat, steps)
        doc["bloch"] = {"num": ph.num, "den": ph.den}
    return doc, 0


def _cmd_catalog(args):
    if not args.name:
        return {"names": list(CATALOG_NAMES)}, 0
    gens = catalog(args.name)
    return {"name": args.name, "gens": {label: matrix_to_doc(m) for label, m in gens.items()}}, 0


def _cmd_verify(args):
    doc = _read_json_arg(args.document)
    if not isinstance(doc, dict):
        raise ValueError("verify takes an object document")
    nhat = doc.get("nhat")
    if isinstance(nhat, bool) or not isinstance(nhat, int):
        raise ValueError("document field 'nhat' must be an integer")
    t = validate_tmatrix(_int_matrix(doc.get("t")), nhat)
    # verify_relations validates the entries
    orders = doc.get("orders")
    if orders is None:
        orders = (nhat,) * t.n
    elif not isinstance(orders, list):
        raise ValueError("document field 'orders' must be a list")
    gens_field = doc.get("gens")
    if not isinstance(gens_field, list):
        raise ValueError("document field 'gens' must be a list of matrix documents")
    gens = [doc_to_matrix(g) for g in gens_field]
    report = verify_relations(gens, t, orders, tol=args.tol)
    return report.to_dict(), 0 if report.overall else 1


def _cmd_selftest(args):
    rng = np.random.default_rng(args.seed)
    lines = []
    ok_all = True

    def record(name: str, ok: bool, detail: str = ""):
        nonlocal ok_all
        ok_all = ok_all and ok
        lines.append(f"[{'ok' if ok else 'BAD'}] {name}" + (f"  {detail}" if detail else ""))

    record("anticommuting family n=5", verify_gca(clifford_generators(5)).overall)
    record("order-3 family n=4", verify_gca(ordered_gca_generators(4, 3)).overall)

    nhat = 6
    raw = [[0] * 5 for _ in range(5)]
    for j in range(5):
        for k in range(j + 1, 5):
            raw[j][k] = int(rng.integers(-nhat, nhat + 1))
            raw[k][j] = -raw[j][k]
    t = validate_tmatrix(raw, nhat)
    record("random skew normal form", verify_congruence(t, skew_normal_form(t)).overall)

    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    sc = schwinger_coeffs(m)
    dev = max_abs_diff(schwinger_reconstruct(sc), m)
    record("word expansion round trip", dev <= args.tol * 100, f"deviation {dev:.3e}")

    w = rng.normal(size=(5, 5))
    table = WignerTable(nu=2, w=w)
    back = wigner_inverse(wigner_forward(table), tol=args.tol * 100)
    dev = max_abs_diff(back.w, w)
    record("phase-space round trip", dev <= args.tol * 100, f"deviation {dev:.3e}")

    try:
        res = canonical_intertwiner(CanonicalParams(k=0, l=1, m=1, n=0, order=2))
        record("canonical pair swap at order 2", res.report.overall)
    except UnsupportedTransform:
        record("canonical pair swap at order 2", False, "unsupported")

    mag = magnetic_translation_rep(MagneticLattice(0, 0, (1, 3)))
    record("magnetic translations, flux 1/3", mag.nhat == 3 and mag.rep.dim == 3)

    lines.append(f"overall: {'pass' if ok_all else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if ok_all else 1


# ---------------------------------------------------------------------------
# parser

class _ParserExit(Exception):
    """Raised where argparse would print and exit: code 0 carries the help
    text for stdout, code 2 the one-line usage error for stderr."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that writes nothing itself, so that run() can send
    help and usage errors to the streams it was given."""

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        first = message.partition("\n")[0]
        raise _ParserExit(2, f"error: {first}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first run() and reused for the process.

    Parsing leaves it unchanged: every call gets a fresh namespace.
    """
    parser = _Parser(
        prog="gcakit",
        description="construct and check generalized Clifford algebra representations",
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="numeric tolerance (default: GCAKIT_TOL env or 1e-10)",
    )
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    common.add_argument("--out", help="write the output to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", parents=[common], help="skew normal form of an integer matrix")
    p.add_argument("tmatrix", help="antisymmetric integer matrix (file, '-', or inline JSON)")
    p.add_argument("--nhat", type=int, required=True, help="phase modulus")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("rep", parents=[common], help="build generators for commutation data")
    p.add_argument("tmatrix", help="antisymmetric integer matrix (file, '-', or inline JSON)")
    p.add_argument("--nhat", type=int, required=True, help="phase modulus")
    p.add_argument("--orders", help="comma-separated generator orders (default: all nhat)")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("clifford", parents=[common], help="standard anticommuting family")
    p.add_argument("n", type=int, help="number of generators")
    p.set_defaults(func=_cmd_ordered, order=2)

    p = sub.add_parser("ordered", parents=[common], help="standard order-N family")
    p.add_argument("n", type=int, help="number of generators")
    p.add_argument("order", type=int, help="common generator order N")
    p.set_defaults(func=_cmd_ordered)

    p = sub.add_parser("projrep", parents=[common], help="projective representation from a multiplier table")
    p.add_argument("factorset", help="factor set document (file, '-', or inline JSON)")
    p.set_defaults(func=_cmd_projrep)

    p = sub.add_parser("lmat", parents=[common], help="generator combination and its power law")
    p.add_argument("--lam", required=True, help="comma-separated coefficients")
    p.add_argument("--order", type=int, default=2, help="family order N (default 2)")
    p.set_defaults(func=_cmd_lmat)

    p = sub.add_parser("ldiag", parents=[common], help="diagonalize a combination of anticommuting generators")
    p.add_argument("--lam", required=True, help="comma-separated real coefficients")
    p.set_defaults(func=_cmd_ldiag)

    p = sub.add_parser("decompose", parents=[common], help="expand a matrix over clock/shift words")
    p.add_argument("matrix", help="square matrix (file, '-', or inline JSON)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("wigner", parents=[common], help="phase-space transform in odd dimension")
    p.add_argument("direction", choices=("fwd", "inv"), help="table to operator, or back")
    p.add_argument("matrix", help="table or operator (file, '-', or inline JSON)")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("canonical", parents=[common], help="quadratic change of the clock/shift pair")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--order", type=int, required=True, help="pair order N (even)")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("magnetic", parents=[common], help="magnetic translations for rational flux")
    p.add_argument("flux", help="flux document (file, '-', or inline JSON)")
    p.add_argument("--steps", help="three comma-separated loop windings for the phase")
    p.set_defaults(func=_cmd_magnetic)

    p = sub.add_parser("catalog", parents=[common], help="named small generator sets")
    p.add_argument("name", nargs="?", help=f"one of {', '.join(CATALOG_NAMES)}")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", parents=[common], help="check matrices against commutation data")
    p.add_argument("document", help="object with nhat, t, orders, gens (file, '-', or inline JSON)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", parents=[common], help="run a quick built-in battery")
    p.add_argument("--seed", type=int, default=0, help="seed for the random cases")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except _ParserExit as exc:
        (stdout if exc.code == 0 else stderr).write(exc.text)
        return exc.code

    if args.tol is None:
        env = os.environ.get("GCAKIT_TOL")
        try:
            args.tol = float(env) if env is not None else DEFAULT_TOL
        except ValueError:
            print(f"error: GCAKIT_TOL is not a number: {env!r}", file=stderr)
            return 2
    if not math.isfinite(args.tol):
        print(f"error: tolerance must be finite, got {args.tol}", file=stderr)
        return 2
    if args.tol <= 0:
        print(f"error: tolerance must be positive, got {args.tol}", file=stderr)
        return 2

    try:
        doc, code = args.func(args)
        text = doc if isinstance(doc, str) else ("\n".join(_lines(doc)) + "\n" if args.pretty else emit_json(doc))
    except UnsupportedTransform as exc:
        stdout.write(f"unsupported transform\n{exc.report}\n")
        return 1
    except (GcaError, ValueError, KeyError, TypeError, OSError, ZeroDivisionError) as exc:
        msg = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"error: {msg}", file=stderr)
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
