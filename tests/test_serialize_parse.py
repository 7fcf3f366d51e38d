"""Monomial and factor-set documents parse straight into exponent arrays.

The route that built one Phase per column (doc_to_matrix) and a dict of
|G|^2 Phases (doc_to_factor_set) is kept here as an oracle: every document
it accepts must parse to an equal object, and every document it rejects
must raise the same exception type with the same message.
"""

import copy
import io
import itertools
import json
import os
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcakit import FactorSet, MonomialMatrix, Phase
from gcakit.cli import run
from gcakit.matrices import _check_den
from gcakit.repbuilder import _generator_orders
from gcakit.errors import DimensionMismatch, InvalidFactorSet
from gcakit.serialize import doc_to_factor_set, doc_to_matrix, factor_set_to_doc, matrix_to_doc

GOLDEN_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


# ---------------------------------------------------------------------------
# the Phase route, as the parsers ran it before


def _need(doc, field):
    if not isinstance(doc, dict) or field not in doc:
        raise ValueError(f"document is missing field {field!r}")
    return doc[field]


def _as_int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _parse_phase(d, what):
    num = _as_int(_need(d, "num"), f"{what}.num")
    den = _as_int(_need(d, "den"), f"{what}.den")
    if den == 0:
        raise ValueError(f"{what}.den must be nonzero")
    return Phase(num, den)


def _phase_exponents(phases):
    den = _check_den(lcm(*{p.den for p in phases}))
    return np.array([p.num * (den // p.den) for p in phases], dtype=np.int64), den


def _phase_monomial(dim, target, phase):
    if len(target) != dim or len(phase) != dim:
        raise DimensionMismatch("target/phase length must equal dim")
    return MonomialMatrix.from_exponents(target, *_phase_exponents(phase))


def _phase_factor_set(orders, table):
    orders = _generator_orders(orders)
    table = dict(table)
    need = prod(orders) ** 2
    if len(table) != need:
        raise InvalidFactorSet(f"table has {len(table)} entries, need {need}")
    elems = list(itertools.product(*(range(nj) for nj in orders)))
    phases = []
    for g in elems:
        for h in elems:
            if (g, h) not in table:
                raise InvalidFactorSet(f"missing table entry for {(g, h)}")
            phases.append(table[(g, h)])
    exp, den = _phase_exponents(phases)
    return FactorSet._from_exponents(orders, exp.reshape(len(elems), len(elems)), den)


def oracle_doc_to_matrix(doc):
    """The monomial branch of the parser that built one Phase per column."""
    kind = _need(doc, "kind")
    if kind != "monomial":
        return doc_to_matrix(doc)  # the dense branch is unchanged
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
        return _phase_monomial(dim, tgt, ph)
    except Exception as exc:
        raise ValueError(f"bad monomial document: {exc}") from exc


def oracle_doc_to_factor_set(doc):
    """The parser that built a dict {(g, h): Phase} for the table."""
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
        return _phase_factor_set(orders, table)
    except Exception as exc:
        raise ValueError(f"bad factor set: {exc}") from exc


def oracle_factor_set_to_doc(fs):
    """The writer that read one Phase per table entry."""
    rows = []
    for g in fs.elements():
        for h in fs.elements():
            p = fs.phi(g, h)
            rows.append({"g": list(g), "h": list(h), "num": p.num, "den": p.den})
    return {"orders": list(fs.orders), "table": rows}


def _outcome(parse, doc):
    try:
        return parse(copy.deepcopy(doc))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return (type(exc), str(exc))


def assert_matrix_parse_agrees(doc):
    got, want = _outcome(doc_to_matrix, doc), _outcome(oracle_doc_to_matrix, doc)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, MonomialMatrix) and got == want
        assert matrix_to_doc(got) == matrix_to_doc(want)


def assert_factor_set_parse_agrees(doc):
    got, want = _outcome(doc_to_factor_set, doc), _outcome(oracle_doc_to_factor_set, doc)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, FactorSet)
        assert got.orders == want.orders and got.table == want.table
        assert factor_set_to_doc(got) == oracle_factor_set_to_doc(want)


# ---------------------------------------------------------------------------
# random documents

# near and past 2**62 (the bound on a common denominator) and 2**63 (int64)
BIG = [2**61, 2**62, 2**62 + 1, 3 * 2**61, 2**63, 2**64 + 1, 4611686018427387847, 2**31 - 1,
       2**31 + 11, 2**32 - 5, 6 * (2**31 - 1)]
DENS = st.integers(1, 64) | st.sampled_from(BIG)
NUMS = (st.integers(-100, 100) | st.integers(-(2**80), 2**80)
        | st.sampled_from([2**63, -(2**63), 2**63 - 1, -(2**64) - 3]))
# a common factor, so that an entry is stored unreduced, and a sign flip
SCALES = st.sampled_from([1, 1, 1, -1, 2, -6, 35, 2**40])


@st.composite
def monomial_docs(draw):
    dim = draw(st.integers(1, 64))
    pool = draw(st.lists(DENS, min_size=1, max_size=3))
    phase = []
    for num, den, scale in draw(st.lists(st.tuples(NUMS, st.sampled_from(pool), SCALES),
                                         min_size=dim, max_size=dim)):
        phase.append({"num": num * scale, "den": den * scale})
    target = draw(st.permutations(range(dim)))
    return {"kind": "monomial", "dim": dim, "target": list(target), "phase": phase}


@settings(max_examples=200, deadline=None, database=None)
@given(monomial_docs())
def test_monomial_documents_parse_like_the_phase_route(doc):
    assert_matrix_parse_agrees(doc)


def test_a_common_denominator_past_2_62_fails_like_the_phase_route():
    a, b = 2**31 - 1, 2**31 - 19  # coprime, and a * b is just under 2**62
    doc = {"kind": "monomial", "dim": 3, "target": [2, 0, 1],
           "phase": [{"num": 1, "den": a}, {"num": -1, "den": -b}, {"num": 3 * 2**70, "den": 3}]}
    assert doc_to_matrix(doc).den == a * b
    assert_matrix_parse_agrees(doc)
    doc["phase"][2]["num"] = 2**70
    with pytest.raises(ValueError, match=r"^bad monomial document: common phase denominator \d+ exceeds 2\*\*62$"):
        doc_to_matrix(doc)
    assert_matrix_parse_agrees(doc)


@st.composite
def factor_set_docs(draw):
    orders = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda o: prod(o) <= 12))
    n = len(orders)
    if draw(st.booleans()):
        fs = FactorSet.trivial(orders)
    else:
        exps = [[Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12))) for _ in range(n)]
                for _ in range(n)]
        fs = FactorSet.bilinear(orders, exps)
    doc = factor_set_to_doc(fs)
    rows = []
    # each row rewritten as an equal phase: shifted by whole turns, scaled, sign-flipped
    for row, turns, scale in zip(doc["table"], draw(st.lists(st.sampled_from([0, 0, 1, -2, 2**64]),
                                                              min_size=len(doc["table"]),
                                                              max_size=len(doc["table"]))),
                                 draw(st.lists(SCALES, min_size=len(doc["table"]),
                                               max_size=len(doc["table"])))):
        rows.append({**row, "num": (row["num"] + turns * row["den"]) * scale, "den": row["den"] * scale})
    return {"orders": doc["orders"], "table": draw(st.permutations(rows))}


@settings(max_examples=60, deadline=None, database=None)
@given(factor_set_docs())
def test_factor_set_documents_parse_like_the_phase_route(doc):
    assert_factor_set_parse_agrees(doc)


# ---------------------------------------------------------------------------
# mutations of the golden documents

RETYPED = [True, False, 1.5, 2.0, "1", None, [], {}, [1], {"num": 1}]


def _golden_documents():
    """The monomial documents the golden cases print, and the tables they read."""
    with open(GOLDEN_CLI, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    monomial, tables = [], []

    def walk(obj):
        if isinstance(obj, dict):
            if obj.get("kind") == "monomial":
                monomial.append(obj)
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    for case in cases:
        if "--pretty" in case["argv"] or case["stdin"] is not None:
            continue
        if case["argv"][0] == "projrep":
            tables.append(json.loads(case["argv"][1]))
        out = io.StringIO()
        assert run(case["argv"], stdout=out, stderr=io.StringIO()) == case["code"]
        walk(json.loads(out.getvalue()))
    # one small and one large of each, to keep the mutation count down
    monomial.sort(key=lambda d: d["dim"])
    return [monomial[0], monomial[-1]], tables


GOLDEN_MONOMIAL, GOLDEN_TABLES = _golden_documents()


def _field_mutations(doc):
    for field in list(doc):
        yield {k: v for k, v in doc.items() if k != field}
        for value in RETYPED:
            yield {**doc, field: value}


def monomial_mutations(doc):
    yield doc
    yield from _field_mutations(doc)
    dim, target, phase = doc["dim"], doc["target"], doc["phase"]
    for d in (0, -1, dim - 1, dim + 1, 2**64):
        yield {**doc, "dim": d}
    for i in {0, dim - 1}:
        for value in RETYPED + [dim, -1, 2**64, target[(i + 1) % dim]]:
            yield {**doc, "target": target[:i] + [value] + target[i + 1:]}
        yield {**doc, "target": target[:i] + target[i + 1:]}
        yield {**doc, "target": target + [target[i]]}
        yield {**doc, "phase": phase[:i] + phase[i + 1:]}
        yield {**doc, "phase": phase + [phase[i]]}
        for value in RETYPED:
            yield {**doc, "phase": phase[:i] + [value] + phase[i + 1:]}
        for field in ("num", "den"):
            entry = phase[i]
            yield {**doc, "phase": phase[:i] + [{k: v for k, v in entry.items() if k != field}] + phase[i + 1:]}
            for value in RETYPED + [0, -entry[field], 2**64, -(2**80)]:
                yield {**doc, "phase": phase[:i] + [{**entry, field: value}] + phase[i + 1:]}
    # two faults at once: the first one the old parser met must win
    yield {**doc, "target": [True] + target[1:], "phase": [{"num": 1.5, "den": 0}] + phase[1:]}
    yield {**doc, "phase": [{"num": 1, "den": 0}, {"den": 2.5}] + phase[2:]}
    yield {**doc, "phase": [{"num": "x"}] + phase[1:], "target": target[:-1]}


def table_mutations(doc):
    yield doc
    yield from _field_mutations(doc)
    orders, rows = doc["orders"], doc["table"]
    for value in RETYPED + [0, -1, 2**64]:
        yield {**doc, "orders": [value] + orders[1:]}
    yield {**doc, "orders": orders + [1]}
    for i in {0, len(rows) // 2, len(rows) - 1}:
        row = rows[i]
        yield {**doc, "table": rows[:i] + rows[i + 1:]}
        yield {**doc, "table": rows + [row]}
        yield {**doc, "table": rows[:i] + [rows[(i + 1) % len(rows)]] + rows[i + 1:]}
        for value in RETYPED:
            yield {**doc, "table": rows[:i] + [value] + rows[i + 1:]}
        for field in ("g", "h", "num", "den"):
            yield {**doc, "table": rows[:i] + [{k: v for k, v in row.items() if k != field}] + rows[i + 1:]}
            for value in RETYPED + [0, -1, 2**64]:
                yield {**doc, "table": rows[:i] + [{**row, field: value}] + rows[i + 1:]}
        for field in ("g", "h"):
            for value in RETYPED + [orders[0], -1, 2**70]:
                key = [value] + row[field][1:]
                yield {**doc, "table": rows[:i] + [{**row, field: key}] + rows[i + 1:]}
            yield {**doc, "table": rows[:i] + [{**row, field: row[field] + [0]}] + rows[i + 1:]}
    # an out-of-range pair in place of a valid one: the first missing pair is named
    yield {**doc, "table": rows[:-1] + [{**rows[-1], "g": [orders[0]] + rows[-1]["g"][1:]}]}


@pytest.mark.parametrize("index", range(len(GOLDEN_MONOMIAL)))
def test_mutated_golden_monomial_documents_fail_like_the_phase_route(index):
    for doc in monomial_mutations(GOLDEN_MONOMIAL[index]):
        assert_matrix_parse_agrees(doc)


@pytest.mark.parametrize("index", range(len(GOLDEN_TABLES)))
def test_mutated_golden_tables_fail_like_the_phase_route(index):
    for doc in table_mutations(GOLDEN_TABLES[index]):
        assert_factor_set_parse_agrees(doc)


def test_the_golden_documents_exist():
    assert GOLDEN_MONOMIAL and len(GOLDEN_TABLES) == 2


# ---------------------------------------------------------------------------
# no Phase at the boundary


def test_no_phase_is_built_while_documents_are_read_or_written(monkeypatch):
    mdoc = json.loads(json.dumps(GOLDEN_MONOMIAL[-1]))
    fdoc = json.loads(json.dumps(GOLDEN_TABLES[-1]))
    built = []
    post_init = Phase.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Phase, "__post_init__", counting)
    Phase(1, 3)
    assert len(built) == 1  # the counter sees a construction
    built.clear()
    mout = matrix_to_doc(doc_to_matrix(mdoc))
    fout = factor_set_to_doc(doc_to_factor_set(fdoc))
    assert built == []
    monkeypatch.undo()
    assert mout == mdoc
    # the golden tables write 0 as 0/N; the writer gives lowest terms
    assert [(r["g"], r["h"], Phase(r["num"], r["den"])) for r in fout["table"]] == [
        (r["g"], r["h"], Phase(r["num"], r["den"])) for r in fdoc["table"]
    ]
