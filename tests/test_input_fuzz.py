"""Random input at the program's boundary: each call succeeds or raises a typed error.

The typed errors are the ones the CLI maps to exit 2 or 3; anything else
would leave it as a traceback.  A public function or record whose
precondition a caller's values break raises a library type too, never a bare
ValueError.
"""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from threeway import (
    BUILTIN_NAMES,
    DataError,
    DomainError,
    ExpressionError,
    Interval,
    PreconditionError,
    RegionBounds,
    RoughSetPair,
    builtin,
    check_bounds_ordering,
    coincides_with_pawlak,
    concept_from_column,
    expression_from_json_dict,
    expression_to_json_dict,
    from_attribute_table,
    is_increasing,
    load_table,
)
from threeway.cli import ConfigError, parse_decimal

TYPED = (ConfigError, ExpressionError, DomainError, DataError)
SEGMENT_FIELDS = ("lo", "hi", "lo_inclusive", "hi_inclusive", "form", "a", "d", "c")

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),  # floats include NaN and +-Infinity
    st.text(max_size=8), st.sampled_from(["0.5", "1e400", "nan", "const", "quad_up", "quad_down"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
CELLS = st.text(alphabet=st.sampled_from(["a", "b", "1", "0", " ", ",", '"', "\n", "\r", "\x00", "é"]),
                max_size=4)
TABLES = st.lists(st.lists(CELLS, max_size=4), max_size=5).map(
    lambda rows: "\n".join(",".join(row) for row in rows))
ROWS = st.lists(st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=3), max_size=4)
COLUMN = st.text(max_size=2)


def attempt(call, *args) -> None:
    try:
        call(*args)
    except TYPED:
        pass


@st.composite
def expression_documents(draw):
    """Any JSON value, a document of random segments, or a built-in with one field replaced."""
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(JSON_VALUES)
    if kind == 1:
        segment = st.dictionaries(st.sampled_from(SEGMENT_FIELDS), JSON_VALUES, max_size=8)
        return {"name": draw(JSON_VALUES), "segments": draw(st.lists(segment, max_size=3))}
    data = expression_to_json_dict(builtin(draw(st.sampled_from(BUILTIN_NAMES))))
    where = draw(st.sampled_from(["name", "segments", "declared_monotone", *SEGMENT_FIELDS]))
    if where in SEGMENT_FIELDS:
        data["segments"][draw(st.integers(0, len(data["segments"]) - 1))][where] = draw(JSON_VALUES)
    else:
        data[where] = draw(JSON_VALUES)
    return data


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=12), st.floats().map(str),
                 st.from_regex(r"\A[-+]?\d{0,3}\.?\d{0,3}(e[-+]?\d{1,4})?\Z")))
def test_parse_decimal(raw):
    attempt(parse_decimal, raw, "--alpha")


@settings(max_examples=120)
@given(expression_documents())
def test_expression_from_json_dict(data):
    attempt(expression_from_json_dict, data)


@settings(max_examples=150)
@given(st.one_of(st.binary(max_size=48),
                 st.tuples(TABLES, st.sampled_from(["utf-8", "latin-1"])).map(
                     lambda table: table[0].encode(table[1]))))
def test_load_table_then_read_columns(content):
    handle, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(content)
        try:
            rows = load_table(path)
        except TYPED:
            return
    finally:
        os.unlink(path)
    columns = list(rows[0])
    attempt(from_attribute_table, rows, columns[1:2])
    attempt(concept_from_column, rows, columns[-1])


@settings(max_examples=200)
@given(ROWS, st.lists(COLUMN, max_size=2), COLUMN, st.none() | COLUMN)
def test_rows_to_space_and_concept(rows, keys, column, id_column):
    attempt(from_attribute_table, rows, keys, id_column)
    attempt(concept_from_column, rows, column, id_column)


ALL_BOUNDS = RegionBounds(Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
NO_NEG = RegionBounds(None, Fraction(1, 4), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("call, error", [
    (lambda: Interval(Fraction(1), Fraction(0), False, False), PreconditionError),
    (lambda: check_bounds_ordering(ALL_BOUNDS, False), PreconditionError),
    (lambda: check_bounds_ordering(NO_NEG, True), PreconditionError),
    (lambda: coincides_with_pawlak(NO_NEG), PreconditionError),
    (lambda: is_increasing(builtin("not_small"), Fraction(1, 100)), ExpressionError),
    (lambda: RoughSetPair(frozenset("a"), frozenset()), PreconditionError),
], ids=["empty_interval", "ordering_not_increasing", "ordering_bound_absent", "pawlak_bound_absent",
        "grid_step", "lower_not_in_upper"])
def test_broken_precondition_raises_a_library_type(call, error):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is not ValueError
    assert type(caught.value) is error
