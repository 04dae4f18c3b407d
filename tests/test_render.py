"""Streamed CLI output against its reference bytes.

A report's JSON is ``json.dumps(to_json_dict(), indent=2, sort_keys=True)``
and a newline, its text ``to_text()``; a sweep's JSON is the same dump of its
``to_json_dict()``, and its text the pair table's lines.  ``emit`` must write
exactly those bytes, whatever the labels, ids, degrees and regions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import example, given, strategies as st

from threeway import ApproximationSpace, Concept, SweepResult, Thresholds, TriPartition, linguistic_regions
from threeway.cli import emit
from threeway.equivalence import (
    DegenerateRegionsError,
    NonMonotoneExpressionError,
    format_endpoint,
    intervals_of,
    sweep_of,
)
from threeway.explain import AnalysisReport
from threeway.regions import REGION_NAMES

#: Characters that need escaping, or that a text line cannot hold, and plain ones.
NAMES = st.text(alphabet=st.sampled_from('aZ09 é€😀"\\\n\r\t\x00 ,'), min_size=1, max_size=4)
FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=12)
DEGREES = st.one_of(FRACTIONS, st.floats(min_value=0, max_value=1), st.sampled_from([0, 1, 0.0, -0.0, math.nan]))


class Drawn:
    """A duck-typed expression: each ratio's degree is drawn, ``-0.0`` and NaN among them."""

    def __init__(self, name: str, degrees: dict):
        self.name, self.degrees = name, degrees

    def evaluate(self, x):
        return self.degrees[x]


def written(result, fmt: str) -> str:
    """What :func:`emit` writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(result, fmt)
    return out.getvalue()


@st.composite
def spaces(draw):
    """Up to 6 blocks of up to 3 elements, labels and ids drawn from :data:`NAMES`."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6))
    ids = draw(st.lists(NAMES, min_size=sum(sizes), max_size=sum(sizes), unique=True))
    labels = draw(st.lists(NAMES, min_size=len(sizes), max_size=len(sizes), unique=True))
    ends = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    blocks = [ids[lo:hi] for lo, hi in zip(ends, ends[1:])]
    return ApproximationSpace(ids, blocks, labels)


@st.composite
def block_tables(draw):
    """A tri-partition as a drawn block table: any ratios, degrees and regions.

    Half the draws cut the regions at two places in ratio order, so empty and
    coupled (empty boundary) regions with a characterization come up; the
    others draw each block's region on its own.
    """
    space = draw(spaces())
    n = len(space.blocks)
    ratios = tuple(draw(st.lists(FRACTIONS, min_size=n, max_size=n)))
    degrees = tuple(draw(st.lists(DEGREES, min_size=n, max_size=n)))
    if draw(st.booleans()):
        low, high = sorted(draw(st.lists(FRACTIONS, min_size=2, max_size=2)))
        regions = tuple("neg" if r < low else "pos" if r >= high else "bnd" for r in ratios)
    else:
        regions = tuple(draw(st.lists(st.sampled_from(REGION_NAMES), min_size=n, max_size=n)))
    return TriPartition(space, ratios, degrees, regions)


@st.composite
def evaluated_tables(draw):
    """A tri-partition built by :func:`linguistic_regions` through a :class:`Drawn` expression."""
    space = draw(spaces())
    members = frozenset(e for block in space.blocks for e in block if draw(st.booleans()))
    alpha, beta = sorted(draw(st.lists(FRACTIONS, min_size=2, max_size=2, unique=True)), reverse=True)
    ratios = set(space.block_ratios(Concept(members)).values())
    expr = Drawn(draw(NAMES), {r: draw(DEGREES) for r in sorted(ratios)})
    return linguistic_regions(space, Concept(members), expr, Thresholds(alpha, beta)), expr


def reports(tp: TriPartition, expr, label: str) -> list[AnalysisReport]:
    """The report of ``tp`` bare, with its bounds, and with its characterization when one exists."""
    thresholds = Thresholds(Fraction(4, 5), Fraction(1, 5))
    found = [AnalysisReport(tp, expr, thresholds, label), AnalysisReport(tp, expr, thresholds, label, tp.bounds)]
    try:
        equivalence = intervals_of(tp, expr)
    except (DegenerateRegionsError, NonMonotoneExpressionError):
        return found
    agrees = sweep_of(tp).agrees_with(equivalence)
    return found + [AnalysisReport(tp, expr, thresholds, label, tp.bounds, equivalence, agrees)]


def check_report(result: AnalysisReport) -> None:
    assert written(result, "json") == json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert written(result, "text") == result.to_text()


def check_sweep(result: SweepResult) -> None:
    assert written(result, "json") == json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    n = len(result.candidates)
    lines = [f"{n} candidate values, {n * (n - 1) // 2} pairs\n"] + [
        f"  {'=' if e.equivalent else 'x'} alpha'={format_endpoint(e.alpha)} beta'={format_endpoint(e.beta)}\n"
        for e in result.entries
    ]
    assert written(result, "text") == result.to_text() == "".join(lines)


class TestStreamedBytes:
    @given(block_tables(), NAMES)
    def test_report_on_a_drawn_block_table(self, tp, name):
        for result in reports(tp, Drawn(name, {}), name):
            check_report(result)

    @given(evaluated_tables(), NAMES)
    def test_report_through_a_duck_typed_expression(self, table, label):
        tp, expr = table
        for result in reports(tp, expr, label):
            check_report(result)

    @given(block_tables())
    def test_sweep_of_a_drawn_block_table(self, tp):
        check_sweep(sweep_of(tp))

    @given(st.lists(FRACTIONS, max_size=6, unique=True).flatmap(lambda c: st.tuples(
        st.just(tuple(sorted(c))),
        st.lists(st.booleans(), min_size=len(c), max_size=len(c)).map(tuple),
        st.lists(st.booleans(), min_size=len(c), max_size=len(c)).map(tuple),
    )))
    @example(((), (), ()))
    @example(((Fraction(1, 2),), (True,), (True,)))
    def test_sweep_of_any_verdict_vectors(self, vectors):
        check_sweep(SweepResult(*vectors))

    def test_signed_zero_and_nan_are_kept_per_block(self):
        """Blocks at degrees 0.0 and -0.0, equal as floats, keep their own text, and NaN its own."""
        space = ApproximationSpace(["a", "b", "c1", "c2"], [["a"], ["b"], ["c1", "c2"]], ["A", "B", "C"])
        expr = Drawn("signed", {Fraction(0): 0.0, Fraction(1): -0.0, Fraction(1, 2): math.nan})
        tp = linguistic_regions(space, Concept(frozenset({"b", "c1"})), expr, Thresholds(1, 0))
        result = reports(tp, expr, "x")[0]
        output = written(result, "json")
        assert '"a": 0.0' in output and '"b": -0.0' in output and '"c2": NaN' in output
        check_report(result)
