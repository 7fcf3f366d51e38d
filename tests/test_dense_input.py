"""One rule for dense numbers that come from outside: matrices.to_dense.

Every dense boundary, in the library and on the command line, reads its
numbers through to_dense, so each gives the same answer for the same
entries: an int, a float or a complex (numpy scalars included) is read as
complex(x), bit for bit; a bool, a string, None or a list where a number
belongs raises ValueError (exit 2); an integer past the float range raises
NotFinite (exit 2).  NaN and infinity are numbers here, and each boundary
then rejects them as it rejected them before.
"""

import functools
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcakit import (
    LSpec,
    WignerTable,
    family_rep,
    schwinger_coeffs,
    to_dense,
    verify_relations,
    wigner_inverse,
)
from gcakit.cli import run
from gcakit.errors import GcaError, NotFinite
from gcakit.skewnormal import validate_tmatrix

T1 = validate_tmatrix([[0]], 2)

NUMBERS = st.one_of(
    st.integers(-2**70, 2**70),
    st.integers(2**1000, 2**1023).flatmap(lambda v: st.sampled_from([v, -v])),  # inside the float range
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.complex_numbers(),
    st.integers(-2**62, 2**62).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.complex_numbers().map(np.complex128),
)
NON_NUMBERS = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.sampled_from(["1", "2j", "nan", "-Infinity", "0x10", ""]),
    st.none(),
    st.builds(lambda a, b: [a, [b]], st.integers(-3, 3), st.integers(-3, 3)),  # a mixed, nested list
)
OUT_OF_RANGE = st.integers(2**1024, 2**1100).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def dense_inputs(draw):
    """d x d rows of numbers, some entries replaced; at d >= 2 possibly ragged."""
    d = draw(st.integers(1, 3))
    entries = draw(st.lists(NUMBERS, min_size=d * d, max_size=d * d))
    slots = st.lists(st.integers(0, d * d - 1), max_size=2)
    for i in draw(slots):
        entries[i] = draw(OUT_OF_RANGE)
    for i in draw(slots):
        entries[i] = draw(NON_NUMBERS)
    rows = [entries[r * d:(r + 1) * d] for r in range(d)]
    if d > 1 and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, d - 1))].pop()
    return rows


def _is_number(e) -> bool:
    return isinstance(e, (int, float, complex, np.number)) and not isinstance(e, bool)


def _kind(rows) -> str:
    entries = [e for row in rows for e in row]
    if len({len(row) for row in rows}) > 1 or not all(map(_is_number, entries)):
        return "non-number"
    if any(isinstance(e, int) and abs(e) >= 2**1024 for e in entries):
        return "out of range"
    return "number"


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype.str, a.tobytes()


def _flat(x):
    """A regular matrix as one vector of its entries; a ragged one as it is."""
    if isinstance(x, np.ndarray):
        return x.ravel()
    return [e for row in x for e in row] if len({len(row) for row in x}) == 1 else x


@functools.cache
def _family(n: int):
    return family_rep(n, 2)


LIBRARY = {
    "to_dense": lambda x: _bits(to_dense(x)),
    "schwinger_coeffs": lambda x: _bits(schwinger_coeffs(x).coeffs),
    "wigner_inverse": lambda x: _bits(wigner_inverse(x).w),
    "WignerTable": lambda x: _bits(WignerTable(nu=1, w=x).w),
    "LSpec": lambda x: _bits(LSpec(_flat(x), _family(len(_flat(x)))).lam),
    "verify_relations": lambda x: repr(verify_relations([x], T1, [2])),
}


def _outcome(boundary, x):
    try:
        return boundary(x)
    except GcaError as exc:  # NotFinite, NotHermitian, DimensionMismatch, ...
        return type(exc).__name__, str(exc)


def _rejection(rows) -> str:
    with pytest.raises(ValueError, match="^entries must be numbers, got ") as caught:
        to_dense(rows)
    return str(caught.value)


def _json(obj) -> str:
    return json.dumps(obj, default=lambda v: v.item())  # numpy scalars as Python numbers


def _dense_doc(rows) -> str:
    def pair(e):
        if isinstance(e, (complex, np.complexfloating)):
            return {"re": e.real, "im": e.imag}
        return {"re": e, "im": 0}

    d = len(rows)
    return _json({"kind": "dense", "dim_rows": d, "dim_cols": d,
                  "entries": [pair(e) for row in rows for e in row]})


def _decompose(text: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    code = run(["decompose", text], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _cli_routes(rows) -> dict:
    """gcakit decompose on a bare array (JSON holds no complex) and on a dense document."""
    routes = {}
    if not any(isinstance(e, (complex, np.complexfloating)) for row in rows for e in row):
        routes["bare array"] = _decompose(_json(rows))
    if len({len(row) for row in rows}) == 1:
        routes["dense document"] = _decompose(_dense_doc(rows))
    return routes


@settings(max_examples=150, deadline=None, database=None)
@given(dense_inputs())
@example([["1", "2j"], ["3", "4"]])
@example([[True, False], [False, True]])
@example([[True, 2.5], [0, 1]])
@example([["1"]])
@example([[None, 1], [1, 1]])
@example([[1, 2], [3]])
@example([[10**400, 0], [0, 1]])
@example([[-0.0, float("inf")], [float("nan"), 2**1023]])
def test_every_dense_boundary_reads_numbers_by_one_rule(rows):
    kind = _kind(rows)
    if kind == "number":
        canonical = np.array([[complex(e) for e in row] for row in rows], dtype=complex)
        for name, boundary in LIBRARY.items():
            assert _outcome(boundary, rows) == _outcome(boundary, canonical), name
        want = _decompose(_dense_doc(canonical.tolist()))
        for name, got in _cli_routes(rows).items():
            assert got == want, name
        return
    if kind == "out of range":
        for name, boundary in LIBRARY.items():
            with pytest.raises(NotFinite, match="must be finite"):
                boundary(rows)
        for name, got in _cli_routes(rows).items():
            assert got == (2, "", "error: matrix entries must be finite\n"), name
        return
    message = _rejection(rows)
    for name, boundary in LIBRARY.items():
        with pytest.raises(ValueError) as caught:
            boundary(rows)
        assert str(caught.value) == message, name
    routes = _cli_routes(rows)
    if "bare array" in routes:  # as JSON gives it back: np.bool_(False) is false
        assert routes["bare array"] == (2, "", f"error: {_rejection(json.loads(_json(rows)))}\n")
    if "dense document" in routes:
        code, out, err = routes["dense document"]
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["decompose", '[["1","2j"],["3","4"]]'],
    ["wigner", "fwd", '[["1"]]'],
    ["decompose", "[[true,false],[false,true]]"],
    ["decompose", "[[true,2.5],[0,1]]"],
    ["decompose", "[[null,1],[1,1]]"],
    ["decompose", '{"kind": "dense", "dim_rows": 1, "dim_cols": 1, "entries": [{"re": true, "im": 0}]}'],
])
def test_strings_booleans_and_null_exit_two(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdout=out, stderr=err) == 2
    assert out.getvalue() == "" and err.getvalue().startswith("error: entries must be numbers, got ")


@pytest.mark.parametrize("call, error", [
    (lambda: schwinger_coeffs([["1", "2"], ["3", "4"]]), ValueError),
    (lambda: schwinger_coeffs([[None, 1], [1, 1]]), ValueError),
    (lambda: wigner_inverse([["1"]]), ValueError),
    (lambda: LSpec(["1"], _family(1)), ValueError),
    (lambda: LSpec([True], _family(1)), ValueError),
    (lambda: LSpec((10**400,), _family(1)), NotFinite),
    (lambda: WignerTable(nu=0, w=[[True]]), ValueError),
    (lambda: WignerTable(nu=0, w=[["1"]]), ValueError),
    (lambda: WignerTable(nu=0, w=[[None]]), ValueError),
    (lambda: to_dense(np.array([[True, False]])), ValueError),
    (lambda: to_dense(np.array([["1.5"]])), ValueError),
])
def test_library_boundaries_reject_what_is_not_a_number(call, error):
    with pytest.raises(error):
        call()
