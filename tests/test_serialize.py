"""Deterministic JSON emission and the document formats."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gcakit import (
    FactorSet,
    InvalidFactorSet,
    MagneticLattice,
    MonomialMatrix,
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
    pretty = emit_json(obj, pretty=True)
    assert json.loads(pretty) == obj
    assert pretty != one


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
