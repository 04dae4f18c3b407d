"""Random input at the program's boundary and through the public API: each call answers or raises a typed error.

At the boundary the typed errors are the ones the CLI maps to exit 2 or 3;
anything else would leave it as a traceback.  A public function or record
called with numbers or strings answers or raises one of the library's own
types, never a bare ValueError.  Arguments of the wrong Python type (a str
threshold, a list for a member set) are out of scope: those may raise
TypeError or anything else Python raises.  A CSV read into a table and the
same rows as dicts give equal spaces and concepts, or the same refusal.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from threeway import (
    BUILTIN_NAMES,
    Concept,
    DataError,
    DegenerateRegionsError,
    DomainError,
    ExpressionError,
    Interval,
    NonMonotoneExpressionError,
    PreconditionError,
    RegionBounds,
    RoughSetPair,
    Table,
    Thresholds,
    ThresholdError,
    builtin,
    check_bounds_ordering,
    coincides_with_pawlak,
    concept_from_column,
    explain_element,
    expression_from_json_dict,
    expression_to_json_dict,
    from_attribute_table,
    is_increasing,
    linguistic_regions,
    load_table,
)
from threeway.cli import ConfigError, parse_decimal

from conftest import community_instance, users

TYPED = (ConfigError, ExpressionError, DomainError, DataError)
LIBRARY = TYPED + (ThresholdError, PreconditionError, NonMonotoneExpressionError, DegenerateRegionsError)
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


def attempt(call, *args, typed=TYPED) -> None:
    try:
        call(*args)
    except typed:
        pass


def load(content: bytes) -> Table:
    """``load_table`` on a temporary file that holds ``content``."""
    handle, path = tempfile.mkstemp(suffix=".csv")
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(content)
        return load_table(path)
    finally:
        os.unlink(path)


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
    try:
        rows = load(content)
    except TYPED:
        return
    columns = list(rows[0])
    attempt(from_attribute_table, rows, columns[1:2])
    attempt(concept_from_column, rows, columns[-1])


@settings(max_examples=200)
@given(ROWS, st.lists(COLUMN, max_size=2), COLUMN, st.none() | COLUMN)
def test_rows_to_space_and_concept(rows, keys, column, id_column):
    attempt(from_attribute_table, rows, keys, id_column)
    attempt(concept_from_column, rows, column, id_column)


def reference_rows(text: str) -> Optional[list[dict[str, str]]]:
    """The csv module's rows of ``text`` as dicts, blank lines skipped; None where ``load_table`` refuses it."""
    try:
        header, *records = list(csv.reader(io.StringIO(text, newline=""))) or [None]
    except csv.Error:
        return None
    records = [fields for fields in records if fields]
    if header is None or len(set(header)) != len(header) or not records \
            or any(len(fields) != len(header) for fields in records):
        return None
    return [dict(zip(header, fields)) for fields in records]


def outcome(call, *args):
    """A space's elements, blocks and labels, a concept's label and members, or the refusal's message."""
    try:
        built = call(*args)
    except DataError as exc:
        return str(exc)
    if isinstance(built, Concept):
        return built.label, built.members
    return built.elements, built.blocks, built.labels


NAMED = st.integers(min_value=0, max_value=5)  # a column of the table by position; past its last, an unknown one


@settings(max_examples=200)
@given(TABLES, st.lists(NAMED, max_size=2), NAMED, st.none() | NAMED)
@example("id,x\na,1\na,0", [1], 1, None)  # a duplicate id
@example("id,x\na,1\nb,maybe", [1], 1, 0)  # a value that is not boolean
@example("id,x\na,1", [5], 5, 5)  # unknown columns
def test_a_table_and_its_row_dicts_read_alike(text, keys, column, id_column):
    expected = reference_rows(text)
    if expected is None:
        with pytest.raises(DataError):
            load(text.encode())
        return
    table = load(text.encode())
    assert table == expected
    names = [*table.header, "no such column"]
    keys = [names[min(i, len(names) - 1)] for i in keys]
    column = names[min(column, len(names) - 1)]
    id_column = None if id_column is None else names[min(id_column, len(names) - 1)]
    rows = [dict(row) for row in table]
    for call, args in ((from_attribute_table, (keys, id_column)), (concept_from_column, (column, id_column))):
        assert outcome(call, table, *args) == outcome(call, rows, *args)


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


# ints, Fractions and floats, NaN and the infinities among them
NUMBERS = st.one_of(st.integers(-2, 3), st.fractions(min_value=-1, max_value=2, max_denominator=12), st.floats())
BOUNDS = st.builds(RegionBounds, *[st.none() | NUMBERS] * 4)
IDS = st.sampled_from(users(1, 32)) | st.text(max_size=3)
EXPRESSIONS = st.sampled_from(BUILTIN_NAMES).map(builtin)


@settings(max_examples=200)
@given(NUMBERS, NUMBERS)
def test_thresholds(alpha, beta):
    attempt(Thresholds, alpha, beta, typed=LIBRARY)


@settings(max_examples=150)
@given(st.frozensets(IDS, max_size=4), EXPRESSIONS, NUMBERS, NUMBERS, IDS, st.text(max_size=3))
def test_regions_with_a_stray_member_then_explain_an_unknown_id(members, expr, alpha, beta, element, label):
    space, sport = community_instance()

    def regions_then_explain():
        thresholds = Thresholds(alpha, beta)
        attempt(linguistic_regions, space, Concept(sport.members | members), expr, thresholds, typed=LIBRARY)
        explain_element(linguistic_regions(space, sport, expr, thresholds), expr, element, label)

    attempt(regions_then_explain, typed=LIBRARY)


@settings(max_examples=100)
@given(EXPRESSIONS, NUMBERS.filter(lambda step: not 0 < step < 1e-4))
def test_is_increasing(expr, grid_step):
    # a step in (0, 1e-4) is accepted and scans over 10,000 points, so it is left out here
    attempt(is_increasing, expr, grid_step, typed=LIBRARY)


@settings(max_examples=200)
@given(NUMBERS, NUMBERS, st.booleans(), st.booleans(), BOUNDS,
       st.frozensets(st.sampled_from("abc")), st.frozensets(st.sampled_from("abc")))
def test_records_and_bound_checks(lo, hi, lo_open, hi_open, bounds, lower, upper):
    attempt(Interval, lo, hi, lo_open, hi_open, typed=LIBRARY)
    attempt(check_bounds_ordering, bounds, lo_open, typed=LIBRARY)
    attempt(coincides_with_pawlak, bounds, typed=LIBRARY)
    attempt(RoughSetPair, lower, upper, typed=LIBRARY)
