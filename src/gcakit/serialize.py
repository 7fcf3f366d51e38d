"""JSON documents for matrices, multiplier tables, and flux triples.

Documents are emitted byte-deterministically: fixed key order, floats
rendered with %.17g (enough digits to round-trip a double), no dependence
on hash order.  Matrix documents come in two kinds:

    {"kind": "monomial", "dim": d, "target": [...],
     "phase": [{"num": a, "den": b}, ...]}

    {"kind": "dense", "dim_rows": r, "dim_cols": c,
     "entries": [{"re": x, "im": y}, ...]}        # row-major

Multiplier tables and flux triples:

    {"orders": [N1, ...],
     "table": [{"g": [...], "h": [...], "num": a, "den": b}, ...]}

    {"f12": [p, q], "f13": [p, q], "f23": [p, q]}

Parsers raise ValueError on malformed documents, and NotFinite on a dense
entry that is NaN, infinite or an integer past the float range.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NotFinite
from .matrices import MonomialMatrix
from .phase import Phase
from .phasespace import MagneticLattice
from .repbuilder import FactorSet

__all__ = [
    "emit_json",
    "matrix_to_doc",
    "doc_to_matrix",
    "factor_set_to_doc",
    "doc_to_factor_set",
    "flux_to_doc",
    "doc_to_flux",
]


_encode_str = json.encoder.encode_basestring_ascii


def _native(obj):
    """obj as a plain str, int, float, dict or list: the cases of a subclass
    or a numpy scalar."""
    if isinstance(obj, str):
        return str.__str__(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, dict):
        return dict(obj.items())
    if isinstance(obj, (list, tuple)):
        return list(obj)
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def _key(k) -> str:
    if not isinstance(k, str):
        raise ValueError(f"object keys must be strings, got {k!r}")
    return _encode_str(k)


def _encode(obj) -> str:
    """One compact JSON value."""
    t = type(obj)
    if t is int:
        return int.__repr__(obj)
    if t is str:
        return _encode_str(obj)
    if t is dict:
        return "{" + ",".join([_key(k) + ":" + _encode(v) for k, v in obj.items()]) + "}"
    if t is list or t is tuple:
        return "[" + ",".join([_encode(v) for v in obj]) + "]"
    if t is float:
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite value {obj}")
        return format(obj, ".17g")
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    return _encode(_native(obj))


def emit_json(obj) -> str:
    """Serialize with stable key order and %.17g floats; trailing newline."""
    return _encode(obj) + "\n"


def matrix_to_doc(m) -> dict:
    if isinstance(m, MonomialMatrix):
        return {
            "kind": "monomial",
            "dim": m.dim,
            "target": list(m.target),
            "phase": [{"num": a, "den": b} for a, b in zip(*m.phase_fractions())],
        }
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"need a 2d matrix, got shape {arr.shape}")
    return {
        "kind": "dense",
        "dim_rows": arr.shape[0],
        "dim_cols": arr.shape[1],
        "entries": [
            {"re": float(z.real), "im": float(z.imag)} for z in arr.ravel()
        ],
    }


def _need(doc: dict, field: str):
    if not isinstance(doc, dict) or field not in doc:
        raise ValueError(f"document is missing field {field!r}")
    return doc[field]


def _as_int(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _parse_phase(d, what: str) -> Phase:
    num = _as_int(_need(d, "num"), f"{what}.num")
    den = _as_int(_need(d, "den"), f"{what}.den")
    if den == 0:
        raise ValueError(f"{what}.den must be nonzero")
    return Phase(num, den)


def doc_to_matrix(doc: dict):
    """Inverse of matrix_to_doc; ValueError on anything malformed, NotFinite
    on a dense entry that is NaN, infinite or past the float range."""
    kind = _need(doc, "kind")
    if kind == "monomial":
        dim = _as_int(_need(doc, "dim"), "dim")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        target = _need(doc, "target")
        phase = _need(doc, "phase")
        if not isinstance(target, list) or not isinstance(phase, list):
            raise ValueError("target and phase must be lists")
        tgt = tuple(_as_int(x, "target entry") for x in target)
        ph = tuple(_parse_phase(p, "phase entry") for p in phase)
        try:
            return MonomialMatrix(dim, tgt, ph)
        except Exception as exc:
            raise ValueError(f"bad monomial document: {exc}") from exc
    if kind == "dense":
        rows = _as_int(_need(doc, "dim_rows"), "dim_rows")
        cols = _as_int(_need(doc, "dim_cols"), "dim_cols")
        entries = _need(doc, "entries")
        if rows < 1 or cols < 1:
            raise ValueError("dim_rows and dim_cols must be >= 1")
        if not isinstance(entries, list) or len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries")
        flat = []
        for e in entries:
            re = _need(e, "re")
            im = _need(e, "im")
            if isinstance(re, bool) or isinstance(im, bool):
                raise ValueError("entries must be numbers")
            if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                raise ValueError("entries must be numbers")
            try:
                flat.append(complex(re, im))
            except OverflowError:  # an integer past the float range
                raise NotFinite("matrix entries must be finite") from None
        arr = np.array(flat, dtype=complex)
        if not np.isfinite(arr).all():
            raise NotFinite("matrix entries must be finite")
        return arr.reshape(rows, cols)
    raise ValueError(f"unknown matrix kind {kind!r}")


def factor_set_to_doc(fs: FactorSet) -> dict:
    rows = []
    for g in fs.elements():
        for h in fs.elements():
            p = fs.phi(g, h)
            rows.append({"g": list(g), "h": list(h), "num": p.num, "den": p.den})
    return {"orders": list(fs.orders), "table": rows}


def doc_to_factor_set(doc: dict) -> FactorSet:
    orders = _need(doc, "orders")
    if not isinstance(orders, list) or not orders:
        raise ValueError("orders must be a nonempty list")
    orders = tuple(_as_int(x, "order") for x in orders)
    rows = _need(doc, "table")
    if not isinstance(rows, list):
        raise ValueError("table must be a list")
    table = {}
    for row in rows:
        g = _need(row, "g")
        h = _need(row, "h")
        if not isinstance(g, list) or not isinstance(h, list):
            raise ValueError("g and h must be lists of integers")
        gt = tuple(_as_int(x, "g entry") for x in g)
        ht = tuple(_as_int(x, "h entry") for x in h)
        if len(gt) != len(orders) or len(ht) != len(orders):
            raise ValueError("g and h must match the number of orders")
        if (gt, ht) in table:
            raise ValueError(f"table has a second entry for {(gt, ht)}")
        table[(gt, ht)] = _parse_phase(row, "table entry")
    try:
        return FactorSet(orders, table)
    except Exception as exc:
        raise ValueError(f"bad factor set: {exc}") from exc


def flux_to_doc(lat: MagneticLattice) -> dict:
    return {
        name: [getattr(lat, name).numerator, getattr(lat, name).denominator]
        for name in ("f12", "f13", "f23")
    }


def doc_to_flux(doc: dict) -> MagneticLattice:
    vals = []
    for name in ("f12", "f13", "f23"):
        pair = _need(doc, name)
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{name} must be [p, q]")
        p = _as_int(pair[0], f"{name} numerator")
        q = _as_int(pair[1], f"{name} denominator")
        if q == 0:
            raise ValueError(f"{name} denominator must be nonzero")
        vals.append((p, q))
    return MagneticLattice(*vals)
