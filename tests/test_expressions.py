"""Piecewise expression construction, evaluation, and monotonicity."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from threeway.expressions import _FIELD_READERS, MAX_LITERAL_CHARS, as_exact

from threeway import (
    BUILTIN_NAMES,
    DomainError,
    EvalExpr,
    ExpressionError,
    IdentityExpr,
    Segment,
    StepExpr,
    Thresholds,
    builtin,
    equivalent_threshold_intervals,
    expression_from_json_dict,
    expression_to_json_dict,
    is_increasing,
    load_expression,
    quantifier_for,
)

from conftest import ORACLES, community_instance

TOL_PUBLISHED = 0.01      # published values are printed to two decimals
TOL_FORMULA = 1e-12   # library float vs. exact-rational oracle


def seg(lo, lo_inc, hi, hi_inc, form, **kw) -> Segment:
    return Segment(Fraction(str(lo)), Fraction(str(hi)), lo_inc, hi_inc, form, **kw)


SMALL_LIKE = EvalExpr(
    "small_like",
    (
        seg(0, True, 0.0745, True, "const", c=1.0),
        seg(0.0745, False, 0.16, True, "quad_down", a=0.0745, d=0.01714),
        seg(0.16, False, 0.275, False, "quad_up", a=0.275, d=0.02305),
        seg(0.275, True, 1, True, "const", c=0.0),
    ),
)

MEDIUM_HUMP = EvalExpr(
    "medium_hump",
    (
        seg(0, True, 0.5, False, "quad_up", a=0.0, d=0.25),
        seg(0.5, True, 1, True, "quad_down", a=0.5, d=0.25),
    ),
)


class TestBuiltins:
    def test_names(self):
        for name in BUILTIN_NAMES:
            assert builtin(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ExpressionError, match="unknown built-in"):
            builtin("fairly_big")

    def test_pinned_plateau_values(self):
        assert builtin("not_small").evaluate(1) == 1.0
        assert builtin("very_big").evaluate(Fraction("0.5")) == 0.0
        assert builtin("extremely_big").evaluate(1) == 1.0

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_boundary_values(self, name):
        expr = builtin(name)
        assert expr.evaluate(0) == 0.0
        assert expr.evaluate(1) == 1.0

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize(
        "x",
        [Fraction(k, 40) for k in range(41)] + [Fraction(1, 7), Fraction("0.16"), Fraction("0.895")],
    )
    def test_matches_exact_oracle(self, name, x):
        assert builtin(name).evaluate(x) == pytest.approx(float(ORACLES[name](x)), abs=TOL_FORMULA)

    @pytest.mark.parametrize("name, peak, owner", [
        ("not_small", Fraction(4, 25), "quad_up"),
        ("very_big", Fraction("0.895"), "quad_down"),
        ("extremely_big", Fraction("0.95"), "quad_down"),
    ])
    def test_peak_belongs_to_its_piece(self, name, peak, owner):
        # the two pieces meet at the peak only within the oracle's tolerance,
        # so the owner is pinned exactly
        expr = builtin(name)
        piece = next(seg for seg in expr.segments if seg.form == owner)
        assert (piece.lo < peak or piece.lo_inclusive and piece.lo == peak) and (
            peak < piece.hi or piece.hi_inclusive and peak == piece.hi)
        assert expr.evaluate(peak) == piece.value(peak)


class TestEvaluate:
    def test_published_spot_values(self):
        not_small = builtin("not_small")
        assert not_small.evaluate(Fraction("0.14")) == pytest.approx(0.25, abs=TOL_PUBLISHED)
        assert not_small.evaluate(Fraction("0.2")) == pytest.approx(0.75, abs=TOL_PUBLISHED)

    def test_very_big_at_nine_tenths(self):
        # frozen from the exact-rational oracle: 3723/6368
        expected = float(ORACLES["very_big"](Fraction(9, 10)))
        assert expected == pytest.approx(0.5846, abs=1e-4)
        assert builtin("very_big").evaluate(Fraction(9, 10)) == pytest.approx(expected, abs=TOL_FORMULA)

    def test_step_at_own_cutoff(self):
        assert StepExpr(Fraction(1, 2)).evaluate(Fraction(1, 2)) == 1.0

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, Fraction(3, 2)):
            with pytest.raises(DomainError):
                builtin("not_small").evaluate(bad)
            with pytest.raises(DomainError):
                StepExpr(Fraction(1, 2)).evaluate(bad)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @given(x=st.fractions(min_value=0, max_value=1, max_denominator=997))
    def test_range_stays_in_unit_interval(self, name, x):
        assert 0.0 <= builtin(name).evaluate(x) <= 1.0

    @given(x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range_on_floats(self, x):
        for name in BUILTIN_NAMES:
            assert 0.0 <= builtin(name).evaluate(x) <= 1.0


class TestStepExpr:
    @given(
        a=st.fractions(min_value=0, max_value=1, max_denominator=200),
        t=st.fractions(min_value=0, max_value=1, max_denominator=200),
    )
    def test_crisp_and_exact(self, a, t):
        value = StepExpr(t).evaluate(a)
        assert value in (0.0, 1.0)
        assert (value == 1.0) == (a >= t)

    def test_cutoff_validation(self):
        with pytest.raises(ExpressionError):
            StepExpr(Fraction(3, 2))

    def test_decimal_cutoff_is_read_exactly(self):
        assert StepExpr(0.9).cutoff == Fraction(9, 10)
        assert StepExpr(0.9).evaluate(Fraction(9, 10)) == 1.0


class TestContinuity:
    # frozen gaps from the exact-rational oracle (the published coefficients
    # are rounded, so interior breakpoints do not match perfectly)
    KNOWN_GAPS = {
        ("not_small", Fraction("0.16")): 2.5504521903325174e-4,
        ("not_small", Fraction("0.275")): 0.0,
        ("not_small", Fraction("0.0745")): 0.0,
        ("very_big", Fraction("0.895")): 1.0006251062073654e-3,
        ("very_big", Fraction("0.9575")): 0.0,
        ("very_big", Fraction("0.83")): 0.0,
        ("extremely_big", Fraction("0.95")): 0.0,
        ("extremely_big", Fraction("0.995")): 0.0,
        ("extremely_big", Fraction("0.885")): 0.0,
    }

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_breakpoint_gaps(self, name):
        expr = builtin(name)
        for left, right in zip(expr.segments, expr.segments[1:]):
            gap = abs(left.value(left.hi) - right.value(right.lo))
            assert gap <= 0.02
            known = self.KNOWN_GAPS[(name, left.hi)]
            assert gap == pytest.approx(known, abs=1e-12)

    def test_large_jump_rejected(self):
        with pytest.raises(ExpressionError, match="jumps"):
            EvalExpr(
                "cliff",
                (
                    seg(0, True, 0.5, True, "const", c=0.0),
                    seg(0.5, False, 1, True, "const", c=1.0),
                ),
            )


class TestMonotonicity:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_increasing_at_default_grid(self, name):
        assert is_increasing(builtin(name), Fraction(1, 1000))

    @pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_step_increasing(self, t):
        assert is_increasing(StepExpr(t))

    def test_identity_increasing(self):
        assert is_increasing(IdentityExpr())

    def test_reflected_small_is_not_increasing(self):
        assert SMALL_LIKE.evaluate(0) == 1.0
        assert SMALL_LIKE.evaluate(1) == 0.0
        assert not is_increasing(SMALL_LIKE)

    def test_medium_hump_is_not_increasing(self):
        assert not is_increasing(MEDIUM_HUMP)

    def test_smallest_drop_is_not_increasing(self):
        # the samples are compared exactly: a drop of 5e-10 at 1/2 is a drop
        stair = (seg(0, True, 0.5, False, "const", c=0.5000000005),
                 seg(0.5, True, 1, True, "const", c=0.5))
        assert not is_increasing(EvalExpr("stair", stair))
        with pytest.raises(ExpressionError, match="declared increasing but the grid scan"):
            EvalExpr("stair", stair, declared_monotone=True)
        assert EvalExpr("stair", stair, declared_monotone=False).declared_monotone is False

    def test_grid_step_bounds(self):
        with pytest.raises(ValueError):
            is_increasing(builtin("not_small"), Fraction(1, 100))
        with pytest.raises(ValueError):
            is_increasing(builtin("not_small"), 0)

    def test_declared_monotone_is_verified(self):
        with pytest.raises(ExpressionError, match="declared"):
            EvalExpr("bad_claim", SMALL_LIKE.segments, declared_monotone=True)
        with pytest.raises(ExpressionError, match="declared"):
            EvalExpr("bad_claim", builtin("not_small").segments, declared_monotone=False)
        ok = EvalExpr("fine", builtin("not_small").segments, declared_monotone=True)
        assert ok.declared_monotone is True

    def test_false_declaration_rejected_on_every_construction(self):
        # each construction scans the segments again
        for _ in range(2):
            with pytest.raises(ExpressionError, match="declared"):
                EvalExpr("false_claim", MEDIUM_HUMP.segments, declared_monotone=True)

    def test_scan_cost_per_call(self):
        # the intervals evaluate the expression once per block (6 here) and
        # never scan it; the space keeps that block table, so a repeated call
        # evaluates nothing and other thresholds build a second table; each
        # is_increasing call scans the whole grid
        expr = CountingIdentity()
        space, sport = community_instance()
        th = Thresholds(Fraction("0.8"), Fraction("0.2"))
        for thresholds, calls in ((th, 6), (th, 6), (Thresholds(Fraction("0.7"), Fraction("0.2")), 12)):
            equivalent_threshold_intervals(space, sport, expr, thresholds)
            assert expr.calls == calls
        expr.calls = 0
        assert is_increasing(expr) and is_increasing(expr, 0.001)
        assert expr.calls == 2 * 1001
        assert is_increasing(expr, Fraction(1, 2000))
        assert expr.calls == 2 * 1001 + 2001

    def test_unhashable_expression_scanned_every_call(self):
        expr = UnhashableIdentity()
        assert is_increasing(expr) and is_increasing(expr)
        assert expr.calls == 2 * 1001
        space, sport = community_instance()
        th = Thresholds(Fraction("0.8"), Fraction("0.2"))
        assert equivalent_threshold_intervals(space, sport, expr, th) == (
            equivalent_threshold_intervals(space, sport, IdentityExpr(), th)
        )


@st.composite
def const_tilings(draw, grid: int = 4000) -> EvalExpr:
    """1-64 constant segments on a 1/``grid`` breakpoint grid, one owner per breakpoint.

    Every ``SCAN_STEPS`` grid lands on the default grid.  Consecutive values differ
    by 0.01, inside the breakpoint gap limit, so the segments may rise or fall.
    """
    size = draw(st.integers(0, min(63, grid - 1)))
    cuts = sorted(draw(st.lists(st.integers(1, grid - 1), min_size=size, max_size=size, unique=True)))
    bounds = [Fraction(0), *(Fraction(k, grid) for k in cuts), Fraction(1)]
    left_owns = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
    hundredths = [draw(st.integers(0, 100))]
    for _ in cuts:
        h, delta = hundredths[-1], draw(st.sampled_from((-1, 1)))
        hundredths.append(h + delta if 0 <= h + delta <= 100 else h - delta)
    closed = [True, *left_owns, True]  # closed[j]: does the segment ending at bounds[j] own it?
    return EvalExpr("tiling", tuple(
        Segment(bounds[i], bounds[i + 1], i == 0 or not closed[i], closed[i + 1], "const", c=h / 100)
        for i, h in enumerate(hundredths)
    ))


def stepped_is_increasing(expr, step: Fraction) -> bool:
    """The grid scan as a stepped loop, kept as the reference for ``is_increasing``."""
    prev = None
    x = Fraction(0)
    while True:
        v = expr.evaluate(x)
        if prev is not None and v < prev:
            return False
        prev = v
        if x == 1:
            return True
        x = min(x + step, Fraction(1))


class Counting:
    """Wraps an expression and records every argument it is evaluated at."""

    def __init__(self, expr) -> None:
        self.expr, self.args = expr, []

    def evaluate(self, x):
        self.args.append(x)
        return self.expr.evaluate(x)


class NanAt:
    """Duck-typed expression that returns NaN at one point and ``expr``'s degree elsewhere."""

    def __init__(self, expr, where: Fraction) -> None:
        self.expr, self.where = expr, where

    def evaluate(self, x):
        return float("nan") if x == self.where else self.expr.evaluate(x)


SCAN_STEPS = (Fraction(1, 1000), Fraction(1, 2000), Fraction(3, 4000))
SCANNED = {
    **{name: builtin(name) for name in BUILTIN_NAMES},
    "small_like": SMALL_LIKE,
    "medium_hump": MEDIUM_HUMP,
    "step": StepExpr(Fraction(1, 3)),
    "identity": IdentityExpr(),
    "identity_with_nan": NanAt(IdentityExpr(), Fraction(1, 2)),
    "hump_with_nan": NanAt(MEDIUM_HUMP, Fraction(1, 2)),
}


def _counted(name: str):
    def compare(self, other):
        self.comparisons += 1  # an instance count, started from the class's 0
        return getattr(Fraction, name)(self, other)
    return compare


class CountingFraction(Fraction):
    """A Fraction that counts the ``==``, ``<``, ``<=``, ``>`` and ``>=`` calls made on it."""

    comparisons = 0
    __hash__ = Fraction.__hash__
    __eq__, __lt__, __le__, __gt__, __ge__ = map(_counted, ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"))


class TestBreakpointOwnership:
    def test_owner_found_in_logarithmic_comparisons(self):
        """A ratio's segment is looked up on the upper ends, not found by a scan of every segment."""
        s = 4096
        stair = EvalExpr("stair", tuple(
            Segment(Fraction(i, s), Fraction(i + 1, s), i == 0, True, "const", c=i / (s - 1)) for i in range(s)
        ))
        for x, owner in ((1, s - 1), (Fraction(1, 2), s // 2 - 1), (Fraction(1, s), 0), (0, 0)):
            probe = CountingFraction(x)
            assert stair.evaluate(probe) == owner / (s - 1)
            assert probe.comparisons <= 4 * math.log2(s) + 8, (x, probe.comparisons)

    @settings(max_examples=60)
    @given(const_tilings(), st.lists(st.fractions(0, 1), max_size=10))
    def test_the_segment_including_a_point_gives_its_value(self, expr, xs):
        segments = expr.segments
        for x in [Fraction(0), Fraction(1), *(s.hi for s in segments), *xs]:
            owners = [s for s in segments
                      if (s.lo < x or s.lo_inclusive and s.lo == x) and (x < s.hi or s.hi_inclusive and x == s.hi)]
            assert len(owners) == 1
            assert expr.evaluate(x) == owners[0].c


class TestGridScan:
    """``is_increasing`` visits the stepped loop's grid and gives its verdict."""

    @pytest.mark.parametrize("step", SCAN_STEPS, ids=str)
    @pytest.mark.parametrize("name", SCANNED)
    def test_same_verdict_and_samples_as_the_stepped_loop(self, name, step):
        scanned, stepped = Counting(SCANNED[name]), Counting(SCANNED[name])
        assert is_increasing(scanned, step) == stepped_is_increasing(stepped, step)
        assert scanned.args == stepped.args
        assert [type(x) for x in scanned.args] == [type(x) for x in stepped.args]

    @settings(max_examples=25)
    @given(const_tilings(), st.sampled_from(SCAN_STEPS))
    def test_same_verdict_on_random_tilings(self, expr, step):
        scanned, stepped = Counting(expr), Counting(expr)
        assert is_increasing(scanned, step) == stepped_is_increasing(stepped, step)
        assert scanned.args == stepped.args


class CountingIdentity:
    """Duck-typed identity expression (hashed by identity) that counts evaluations."""

    name = "counting_identity"

    def __init__(self) -> None:
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return x


class UnhashableIdentity(CountingIdentity):
    """Defining ``__eq__`` without ``__hash__`` makes instances unhashable."""

    name = "unhashable_identity"

    def __eq__(self, other) -> bool:
        return isinstance(other, UnhashableIdentity)


class TestRefusals:
    @pytest.mark.parametrize("build, message", [
        (lambda: as_exact(None), "value must be a number, got None"),
        (lambda: seg(0.5, True, 0.5, True, "const", c=0.0),
         "segment bounds must satisfy 0 <= lo < hi <= 1"),
        (lambda: EvalExpr("e", ()), "an expression needs at least one segment"),
        (lambda: as_exact(True), "value must be a number, got True"),
        (lambda: StepExpr(False), "cutoff must be a number, got False"),
    ], ids=["as_exact_none", "empty_segment", "no_segments", "as_exact_bool", "step_cutoff_bool"])
    def test_typed_error_and_message(self, build, message):
        with pytest.raises(ExpressionError) as info:
            build()
        assert message in str(info.value)


class TestValidation:
    def test_gap_rejected(self):
        with pytest.raises(ExpressionError, match="gap|overlap"):
            EvalExpr(
                "gappy",
                (
                    seg(0, True, 0.4, True, "const", c=0.0),
                    seg(0.5, False, 1, True, "const", c=0.0),
                ),
            )

    def test_double_claimed_breakpoint_rejected(self):
        with pytest.raises(ExpressionError, match="both claim"):
            EvalExpr(
                "overlapping",
                (
                    seg(0, True, 0.5, True, "const", c=0.0),
                    seg(0.5, True, 1, True, "const", c=0.0),
                ),
            )

    def test_unclaimed_breakpoint_rejected(self):
        with pytest.raises(ExpressionError, match="neither claims"):
            EvalExpr(
                "holey",
                (
                    seg(0, True, 0.5, False, "const", c=0.0),
                    seg(0.5, False, 1, True, "const", c=0.0),
                ),
            )

    def test_must_cover_whole_interval(self):
        with pytest.raises(ExpressionError, match="start at 0"):
            EvalExpr("late", (seg(0.1, True, 1, True, "const", c=0.0),))
        with pytest.raises(ExpressionError, match="end at 1"):
            EvalExpr("short", (seg(0, True, 0.9, True, "const", c=0.0),))

    def test_out_of_range_segment_rejected(self):
        with pytest.raises(ExpressionError, match="leaves"):
            seg(0, True, 1, True, "quad_up", a=0.0, d=0.5)

    @pytest.mark.parametrize("form, a, value, x", [("quad_up", 0.0, "1.0000000005", 1),
                                                  ("quad_down", 1.0, "-5.000000413701855e-10", 0)])
    def test_endpoint_just_outside_unit_interval_rejected(self, form, a, value, x):
        # [0, 1] is checked exactly, and the message shows the value that left it in full
        with pytest.raises(ExpressionError,
                           match=rf"^segment \[0, 1\] leaves \[0, 1\]: value {value} at x={x}$"):
            seg(0, True, 1, True, form, a=a, d=0.9999999995)

    @pytest.mark.parametrize("form, vertex_value", [("quad_up", 0.0), ("quad_down", 1.0)])
    def test_interior_vertex_accepted(self, form, vertex_value):
        # The vertex value is exactly 0 or 1, so only the endpoints can leave [0, 1].
        piece = seg(0.25, True, 0.75, True, form, a=0.5, d=0.5)
        assert piece.value(Fraction(1, 2)) == vertex_value
        assert piece.value(Fraction(1, 4)) == piece.value(Fraction(3, 4))

    def test_bad_form_rejected(self):
        with pytest.raises(ExpressionError, match="unknown segment form"):
            seg(0, True, 1, True, "linear", a=0.0, d=1.0)

    def test_bad_constant_rejected(self):
        with pytest.raises(ExpressionError):
            seg(0, True, 1, True, "const", c=1.5)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ExpressionError):
            seg(0, True, 1, True, "quad_up", a=0.0, d=0.0)


class TestJson:
    def test_round_trip(self):
        for name in BUILTIN_NAMES:
            expr = builtin(name)
            clone = expression_from_json_dict(expression_to_json_dict(expr))
            assert clone.name == expr.name
            for k in range(0, 101):
                x = Fraction(k, 100)
                assert clone.evaluate(x) == expr.evaluate(x)

    def test_decimal_bounds_survive(self):
        data = expression_to_json_dict(builtin("not_small"))
        clone = expression_from_json_dict(data)
        assert clone.segments[1].hi == Fraction("0.16")

    def test_missing_field(self):
        with pytest.raises(ExpressionError, match="missing field"):
            expression_from_json_dict(
                {"name": "x", "segments": [{"lo": 0, "hi": 1, "form": "const"}]}
            )

    def test_bad_shapes(self):
        with pytest.raises(ExpressionError):
            expression_from_json_dict([])
        with pytest.raises(ExpressionError):
            expression_from_json_dict({"name": "", "segments": []})
        with pytest.raises(ExpressionError):
            expression_from_json_dict({"name": "x", "segments": "oops"})

    @pytest.mark.parametrize("field, value", [
        ("a", "wide"), ("d", None), ("c", "x"), ("a", [0.5]), ("d", True),
    ])
    def test_non_numeric_coefficient_is_typed(self, field, value):
        data = expression_to_json_dict(builtin("not_small"))
        data["segments"][1][field] = value
        with pytest.raises(ExpressionError, match=f"segment 1 {field} must be a number"):
            expression_from_json_dict(data)

    @pytest.mark.parametrize("value", ["1e1000000", "1e-1000", "0." + "1" * 200, "1/0"])
    def test_oversized_or_bad_bound_is_typed(self, value):
        data = expression_to_json_dict(builtin("not_small"))
        data["segments"][1]["lo"] = value
        with pytest.raises(ExpressionError, match="segment 1 lo must be a number"):
            expression_from_json_dict(data)

    @pytest.mark.parametrize("flag", ["lo_inclusive", "hi_inclusive"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_inclusive_flags_must_be_booleans(self, flag, value):
        data = expression_to_json_dict(builtin("not_small"))
        data["segments"][2][flag] = value
        with pytest.raises(ExpressionError, match=f"segment 2 {flag} must be true or false"):
            expression_from_json_dict(data)

    def test_huge_json_integer_is_typed(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"name": "x", "segments": [{"lo": 0, "lo_inclusive": true, "hi": 1'
                        + "0" * 5000 + ', "hi_inclusive": true, "form": "const", "c": 0}]}')
        with pytest.raises(ExpressionError):
            load_expression(str(path))

    @pytest.mark.parametrize("form, value", [("quad_up", "inf"), ("quad_down", "-inf")])
    def test_overflowing_coefficient_is_typed(self, form, value):
        segment = {"lo": 0, "lo_inclusive": True, "hi": 1, "hi_inclusive": True,
                   "form": form, "a": 1e200, "d": 1}
        with pytest.raises(ExpressionError,
                           match=rf"segment \[0, 1\] leaves \[0, 1\]: value {value} at x=0"):
            expression_from_json_dict({"name": "huge", "segments": [segment]})

    def test_deeply_nested_file_is_typed(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(ExpressionError, match="nested.json nests arrays or objects too deeply"):
            load_expression(str(path))

    @pytest.mark.parametrize("where, typo, message", [
        ("top", {"declared_monotonic": True}, "expression JSON has unknown field(s) 'declared_monotonic'"),
        ("segment", {"value": 0.7}, "segment 0 has unknown field(s) 'value'"),
    ], ids=["top", "segment"])
    def test_unknown_field_is_refused(self, where, typo, message):
        data = expression_to_json_dict(builtin("not_small"))
        (data if where == "top" else data["segments"][0]).update(typo)
        with pytest.raises(ExpressionError) as caught:
            expression_from_json_dict(data)
        assert str(caught.value) == message

    @settings(max_examples=60)
    @given(st.one_of(const_tilings(), const_tilings(3), const_tilings(7),
                     st.sampled_from(BUILTIN_NAMES).map(builtin)), st.booleans())
    def test_json_round_trip_is_exact(self, expr, declare):
        expr = EvalExpr(expr.name, expr.segments, is_increasing(expr) if declare else None)
        text = json.dumps(expression_to_json_dict(expr))
        assert expression_from_json_dict(json.loads(text)) == expr

    def test_bound_no_float_reads_back_is_written_as_a_fraction(self):
        # 1/3 owned by the left segment (0.0); as a float it would read back a
        # hair above 1/3, and x = 1/3 would fall in the right segment (0.01)
        expr = EvalExpr("thirds", (seg(0, True, "1/3", True, "const", c=0.0),
                                   seg("1/3", False, 1, True, "const", c=0.01)))
        data = expression_to_json_dict(expr)
        assert [(s["lo"], s["hi"]) for s in data["segments"]] == [(0.0, "1/3"), ("1/3", 1.0)]
        clone = expression_from_json_dict(json.loads(json.dumps(data)))
        assert clone == expr
        assert clone.evaluate(Fraction(1, 3)) == 0.0

    def test_bound_too_long_to_write_is_refused(self):
        # a 98-digit decimal reads in 100 characters, but its "p/q" takes 198
        cut = "0." + "1" * 98
        expr = EvalExpr("long", (seg(0, True, cut, True, "const"), seg(cut, False, 1, True, "const")))
        with pytest.raises(ExpressionError) as caught:
            expression_to_json_dict(expr)
        assert str(caught.value) == (
            f"segment 0 hi has no float or 'p/q' form of at most {MAX_LITERAL_CHARS} characters")

    def test_every_segment_field_type_has_a_reader(self):
        assert set(Segment.__annotations__.values()) <= _FIELD_READERS.keys()

    @pytest.mark.parametrize("fault, dropped, message", [
        ({"lo": "x", "lo_inclusive": "true"}, None, "segment 1 lo must be a number, got 'x'"),
        ({"hi_inclusive": 1, "c": "x"}, None, "segment 1 hi_inclusive must be true or false, got 1"),
        ({"lo_inclusive": "true"}, "form", "segment 1 is missing field 'form'"),
    ], ids=["bound_before_flag", "flag_before_coefficient", "missing_before_bad"])
    def test_first_fault_in_field_order_is_named(self, fault, dropped, message):
        data = expression_to_json_dict(builtin("not_small"))
        data["segments"][1].update(fault)
        data["segments"][1].pop(dropped, None)
        with pytest.raises(ExpressionError) as caught:
            expression_from_json_dict(data)
        assert str(caught.value) == message

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.partition("Custom expression files")[2].partition("```json\n")[2].partition("```")[0]
        expr = expression_from_json_dict(json.loads(example))
        assert (expr.name, len(expr.segments)) == ("roughly_half", 2)

    def test_validation_applies_to_json_input(self):
        with pytest.raises(ExpressionError):
            expression_from_json_dict(
                {
                    "name": "gappy",
                    "segments": [
                        {"lo": 0, "lo_inclusive": True, "hi": 0.4, "hi_inclusive": True,
                         "form": "const", "c": 0},
                        {"lo": 0.5, "lo_inclusive": False, "hi": 1, "hi_inclusive": True,
                         "form": "const", "c": 0},
                    ],
                }
            )


class TestAsExact:
    @pytest.mark.parametrize("value, exact", [
        ("0.4", Fraction(2, 5)), (0.4, Fraction(2, 5)), ("1e-999", Fraction(1, 10**999)),
        ("1E+0007", Fraction(10**7)), (5e-324, Fraction(5, 10**324)), ("3/7", Fraction(3, 7)),
    ])
    def test_reads_decimals_exactly(self, value, exact):
        assert as_exact(value) == exact

    @pytest.mark.parametrize("value, words", [
        ("1e1000000", "exponent of at most 3 digits"),
        ("1E-1000", "exponent of at most 3 digits"),
        ("1" * (MAX_LITERAL_CHARS + 1), f"at most {MAX_LITERAL_CHARS} characters"),
        ("1/0", "must be a number"),
        ("wide", "must be a number"),
    ])
    def test_refuses_oversized_and_bad_literals(self, value, words):
        with pytest.raises(ExpressionError, match=words) as caught:
            as_exact(value, "cutoff")
        assert str(caught.value).startswith("cutoff must be a number")
        with pytest.raises(ExpressionError, match=words):
            StepExpr(value)


class TestQuantifiers:
    def test_builtin_quantifiers(self):
        assert quantifier_for(builtin("not_small")) == "many"
        assert quantifier_for(builtin("very_big")) == "most"
        assert quantifier_for(builtin("extremely_big")) == "almost all"

    def test_step_quantifier_only_at_one(self):
        assert quantifier_for(StepExpr(Fraction(1))) == "all"
        assert quantifier_for(StepExpr(Fraction(1, 2))) is None

    def test_custom_has_none(self):
        assert quantifier_for(SMALL_LIKE) is None
        assert quantifier_for(IdentityExpr()) is None

    def test_a_borrowed_name_reads_as_none(self):
        assert quantifier_for(EvalExpr("not_small", MEDIUM_HUMP.segments)) is None

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_json_round_trip_keeps_the_quantifier(self, name):
        loaded = expression_from_json_dict(expression_to_json_dict(builtin(name)))
        assert quantifier_for(loaded) == quantifier_for(builtin(name)) is not None
