"""Deterministic JSON emission and the document formats."""

import json
import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import (
    FactorSet,
    InvalidFactorSet,
    MagneticLattice,
    MonomialMatrix,
    NotFinite,
    Phase,
    max_abs_diff,
)
from gcakit.serialize import (
    doc_to_factor_set,
    doc_to_flux,
    doc_to_matrix,
    emit_json,
    factor_set_to_doc,
    flux_to_doc,
    matrix_to_doc,
)
from gcakit.weylpairs import clock, shift


def test_emit_is_valid_json_and_deterministic():
    obj = {"b": [1, 2.5, "x"], "a": {"nested": [True, False, None]}}
    one = emit_json(obj)
    two = emit_json(obj)
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == obj


def test_emit_preserves_insertion_order():
    assert emit_json({"z": 1, "a": 2}).index('"z"') < emit_json({"z": 1, "a": 2}).index('"a"')


def test_emit_floats_round_trip_exactly():
    values = [0.1, 1 / 3, math.pi, 1e-300, 123456789.123456789, -0.0, 2.0]
    text = emit_json(values)
    assert json.loads(text) == values


def test_emit_rejects_bad_values():
    with pytest.raises(ValueError):
        emit_json(float("nan"))
    with pytest.raises(ValueError):
        emit_json([float("inf")])
    with pytest.raises(ValueError):
        emit_json({1: "non-string key"})
    with pytest.raises(ValueError):
        emit_json({"x": object()})


def test_monomial_document_round_trip():
    m = (shift(4) @ clock(4)).scale(Phase(3, 8))
    doc = matrix_to_doc(m)
    assert doc["kind"] == "monomial"
    back = doc_to_matrix(doc)
    assert back == m
    # and the doc itself survives the emitter
    assert doc_to_matrix(json.loads(emit_json(doc))) == m


def test_dense_document_round_trip():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    doc = matrix_to_doc(m)
    assert doc["kind"] == "dense"
    back = doc_to_matrix(json.loads(emit_json(doc)))
    assert max_abs_diff(back, m) == 0


def test_matrix_document_validation():
    good = matrix_to_doc(shift(3))
    for broken in (
        {},
        {"kind": "nosuch"},
        {**good, "target": [0, 0, 1]},
        {**good, "target": [0, 1]},
        {**good, "phase": good["phase"][:2]},
        {**good, "dim": "three"},
    ):
        with pytest.raises(ValueError):
            doc_to_matrix(broken)
    dense = matrix_to_doc(np.eye(2))
    for broken in (
        {**dense, "entries": dense["entries"][:3]},
        {**dense, "dim_rows": -1},
        {**dense, "entries": [{"re": 0.0}] * 4},
    ):
        with pytest.raises(ValueError):
            doc_to_matrix(broken)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("part", ["re", "im"])
def test_dense_document_entries_must_be_finite(value, part):
    doc = matrix_to_doc(np.eye(2))
    doc["entries"][3][part] = value
    with pytest.raises(NotFinite, match="matrix entries must be finite"):
        doc_to_matrix(doc)


def test_factor_set_round_trip():
    fs = FactorSet.bilinear((2, 2), [[0, "1/2"], [0, 0]])
    doc = factor_set_to_doc(fs)
    back = doc_to_factor_set(json.loads(emit_json(doc)))
    assert back.orders == fs.orders
    for g in fs.elements():
        for h in fs.elements():
            assert back.phi(g, h) == fs.phi(g, h)


def test_factor_set_document_validation():
    doc = factor_set_to_doc(FactorSet.trivial((2,)))
    doc["table"] = doc["table"][:-1]
    with pytest.raises((ValueError, InvalidFactorSet)):
        doc_to_factor_set(doc)


def test_factor_set_document_rejects_a_repeated_pair():
    doc = factor_set_to_doc(FactorSet.trivial((2,)))
    # a fifth row for ((1,), (1,)) with another phase: the later row must not win
    extra = dict(doc, table=doc["table"] + [{"g": [1], "h": [1], "num": 1, "den": 2}])
    # one pair twice and another missing: four rows, but not the four pairs
    swapped = dict(doc, table=doc["table"][:-1] + [doc["table"][0]])
    for broken in (extra, swapped):
        with pytest.raises(ValueError, match=r"table has a second entry for \(\(\d+,\), \(\d+,\)\)"):
            doc_to_factor_set(broken)


def test_flux_round_trip():
    lat = MagneticLattice((1, 3), (2, 5), 0)
    doc = flux_to_doc(lat)
    back = doc_to_flux(json.loads(emit_json(doc)))
    assert back.fluxes() == (Fraction(1, 3), Fraction(2, 5), Fraction(0))


def test_flux_document_validation():
    with pytest.raises(ValueError):
        doc_to_flux({"f12": [1, 3]})
    with pytest.raises(ValueError):
        doc_to_flux({"f12": [1], "f13": [0, 1], "f23": [0, 1]})


def test_monomial_phases_are_emitted_in_lowest_terms():
    # stored over den 12, emitted as the reduced phases 1/4, 1/2 and 0
    m = MonomialMatrix.from_exponents([1, 2, 0], [3, 6, 0], 12)
    doc = matrix_to_doc(m)
    assert doc["target"] == [1, 2, 0]
    assert doc["phase"] == [{"num": 1, "den": 4}, {"num": 1, "den": 2}, {"num": 0, "den": 1}]
    assert doc["phase"] == [{"num": p.num, "den": p.den} for p in m.phase]
    assert doc_to_matrix(doc) == m


# ---------------------------------------------------------------------------
# the two-function emitter that the single-pass one replaced, kept as an oracle

def _emit(obj, out: list) -> None:
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite value {x}")
        text = format(x, ".17g")
        out.append(text)
    elif isinstance(obj, dict):
        _emit_items(obj.items(), out, "{", "}", key=True)
    elif isinstance(obj, (list, tuple)):
        _emit_items(obj, out, "[", "]", key=False)
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def _emit_items(items, out, opener, closer, key) -> None:
    items = list(items)
    if not items:
        out.append(opener + closer)
        return
    out.append(opener)
    for i, item in enumerate(items):
        if key:
            k, v = item
            if not isinstance(k, str):
                raise ValueError(f"object keys must be strings, got {k!r}")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(":")
            _emit(v, out)
        else:
            _emit(item, out)
        if i + 1 < len(items):
            out.append(",")
    out.append(closer)


def oracle_emit_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def _outcome(emit, obj):
    try:
        return emit(obj)
    except ValueError as exc:
        return ("ValueError", str(exc))


class Text(str):
    """A str subclass: encoded as its plain value, whatever its str()."""

    def __str__(self):
        return "not this"


class Count(int):
    def __str__(self):
        return "not this"


GOOD_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(Count)
    | st.text(max_size=4).map(Text)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(-(10**6), 10**6).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32)
    | st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e300, 2.0, 0.1])
    | st.text()
    | st.sampled_from(["", "\u00e9t\u00e9", "\u2191\U0001d53b", '"\\\n\t', "\x00\x7f"])
)
BAD_LEAVES = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf"),
     np.bool_(True), object(), b"bytes", {1, 2}, 1j, Fraction(1, 2)]
)


def _trees(leaves, keys):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(keys, kids, max_size=4)
        | st.dictionaries(keys, kids, max_size=4).map(OrderedDict),
        max_leaves=40,
    )


@settings(max_examples=150, deadline=None, database=None)
@given(_trees(GOOD_LEAVES, st.text(max_size=6) | st.text(max_size=3).map(Text)))
def test_emit_json_matches_the_two_function_oracle(tree):
    assert emit_json(tree) == oracle_emit_json(tree)


@settings(max_examples=150, deadline=None, database=None)
@given(_trees(GOOD_LEAVES | BAD_LEAVES, st.text(max_size=3) | st.integers() | st.none() | st.tuples(st.integers())))
def test_emit_json_fails_like_the_oracle(tree):
    assert _outcome(emit_json, tree) == _outcome(oracle_emit_json, tree)


@pytest.mark.parametrize(
    "obj, message",
    [
        (float("nan"), "cannot serialize non-finite value nan"),
        ([1, {"a": -float("inf")}], "cannot serialize non-finite value -inf"),
        ({"a": 1, 2: "b"}, "object keys must be strings, got 2"),
        ({"x": object()}, "cannot serialize object of type object"),
        ([np.bool_(False)], "cannot serialize object of type bool"),
    ],
)
def test_emit_error_messages(obj, message):
    with pytest.raises(ValueError) as info:
        emit_json(obj)
    assert str(info.value) == message


def test_emit_empty_containers():
    obj = {"a": [], "b": {}, "c": (1, (2.0, "\u00e9")), "d": {"e": None}}
    assert emit_json(obj) == '{"a":[],"b":{},"c":[1,[2,"\\u00e9"]],"d":{"e":null}}\n'
