"""Evaluative linguistic expressions as piecewise functions on [0, 1].

An expression maps a relative size (a value in [0, 1]) to the degree, also in
[0, 1], to which that size fits a natural-language judgment such as "not
small", "very big", or "extremely big".  Construction checks that range
exactly: a segment whose value at an end leaves [0, 1] by any amount is
refused.  The three built-ins are piecewise quadratic; custom expressions are
restricted to the same three segment forms (constant, upward quadratic,
downward quadratic), which is enough to express every hedge shape this
library supports without a symbolic hedge calculus.
A breakpoint belongs to the segment whose end includes it; construction
checks that exactly one end does, so one lookup on the upper ends finds it.

Step expressions (``at least t``) are the crisp special case: they output
exactly 0 or 1 and are compared without any floating-point conversion.

A note on monotonicity: the built-ins' published coefficients are rounded, so
adjacent pieces meet only approximately.  Two interior breakpoints hide
downward jumps (depth ~2.6e-4 at 0.16 for "not small", ~1.0e-3 at 0.895 for
"very big"; the affected input windows are a few 1e-5 to ~1.3e-4 wide).
``is_increasing`` therefore samples a grid and compares the samples exactly,
with no slack; at the coarsest permitted step (1e-3) each dip is smaller than
a single-step rise and all built-ins classify as increasing.  Two distinct
block ratios can only straddle one of those dip windows when a block has more
than ~88 elements; the interval characterization then refuses on the attained
ratios, which it checks exactly, and never consults the scan.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import MISSING, asdict, dataclass, fields
from fractions import Fraction
from itertools import pairwise
from typing import Optional, Union

Numeric = Union[int, float, Fraction]

#: Adjacent segments must agree at shared breakpoints within this gap
#: (rounded published coefficients leave mismatches of order 1e-3).
BREAKPOINT_GAP_TOLERANCE = 0.02

#: Coarsest (and default) sampling step for the monotonicity scan.
DEFAULT_GRID_STEP = Fraction(1, 1000)

_ONE = Fraction(1)

#: Size bounds on the literals :func:`as_exact` reads (``1e1000000`` alone takes
#: 0.3 s to build exactly); every float's ``repr`` fits (24 characters, e-324).
MAX_LITERAL_CHARS = 100
MAX_EXPONENT_DIGITS = 3

SEGMENT_FORMS = ("const", "quad_up", "quad_down")


class ExpressionError(ValueError):
    """An expression definition violates its construction contract."""


class DomainError(ValueError):
    """An evaluation argument lies outside [0, 1]."""


def as_exact(value: Numeric | str, what: str = "value") -> Fraction:
    """Convert a number to an exact Fraction.

    Strings and floats are read as the decimal they display as
    (``as_exact("0.4") == as_exact(0.4) == Fraction(2, 5)``), which is what a
    human writing ``0.4`` means; ints and Fractions pass through unchanged.
    Booleans are refused, though Python counts them as ints, and so are
    literals past :data:`MAX_LITERAL_CHARS` or :data:`MAX_EXPONENT_DIGITS`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float) or isinstance(value, str):
        text = str(value)
        exponent = text.lower().partition("e")[2].lstrip("+-0")
        if len(text) > MAX_LITERAL_CHARS or len(exponent) > MAX_EXPONENT_DIGITS:
            raise ExpressionError(
                f"{what} must be a number of at most {MAX_LITERAL_CHARS} characters "
                f"with an exponent of at most {MAX_EXPONENT_DIGITS} digits"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExpressionError(f"{what} must be a number, got {value!r}") from exc
    raise ExpressionError(f"{what} must be a number, got {value!r}")


def _check_unit_interval(x: Numeric, what: str = "argument") -> None:
    if not 0 <= x <= 1:
        raise DomainError(f"{what} must lie in [0, 1], got {x}")


@dataclass(frozen=True)
class Segment:
    """One piece of a piecewise expression on a sub-interval of [0, 1].

    ``form`` selects the formula:

    * ``"const"``     -> c
    * ``"quad_up"``   -> (x - a)^2 / d
    * ``"quad_down"`` -> 1 - (a - x)^2 / d

    Bounds are exact rationals so that breakpoint ownership (which piece an
    input belongs to) never depends on binary rounding.
    """

    lo: Fraction
    hi: Fraction
    lo_inclusive: bool
    hi_inclusive: bool
    form: str
    a: float = 0.0
    d: float = 1.0
    c: float = 0.0

    def __post_init__(self) -> None:
        if self.form not in SEGMENT_FORMS:
            raise ExpressionError(f"unknown segment form {self.form!r}")
        if not (0 <= self.lo < self.hi <= 1):
            raise ExpressionError(
                f"segment bounds must satisfy 0 <= lo < hi <= 1, got [{self.lo}, {self.hi}]"
            )
        if self.form == "const":
            if not 0 <= self.c <= 1:
                raise ExpressionError(f"constant segment value {self.c} outside [0, 1]")
        elif self.d <= 0:
            raise ExpressionError(f"quadratic segment needs d > 0, got {self.d}")
        self._check_range()

    def value(self, x: Numeric) -> float:
        """Formula value at ``x``; defined on the closed hull [lo, hi]."""
        xf = float(x)
        if self.form == "const":
            return self.c
        if self.form == "quad_up":
            return (xf - self.a) ** 2 / self.d
        return 1.0 - (self.a - xf) ** 2 / self.d

    def _check_range(self) -> None:
        # Quadratics are monotone away from their vertex, so the extremes on
        # [lo, hi] occur at the endpoints or at an interior vertex; the vertex
        # value is exactly 0 (quad_up) or 1 (quad_down), inside [0, 1], so only
        # the endpoints are probed (a NaN ``d`` fails there too).
        for x in (float(self.lo), float(self.hi)):
            try:
                v = self.value(x)
            except OverflowError:  # the square of a huge coefficient
                v = math.inf if self.form == "quad_up" else -math.inf
            if not 0 <= v <= 1:
                raise ExpressionError(
                    f"segment [{self.lo}, {self.hi}] leaves [0, 1]: value {v!r} at x={x:.6g}"
                )


@dataclass(frozen=True)
class EvalExpr:
    """A piecewise expression whose segments tile [0, 1] exactly.

    Construction validates the tiling (no gaps, no overlaps), the output
    range, near-continuity at interior breakpoints, and - when
    ``declared_monotone`` is given - that the declaration matches a grid scan.
    Instances are immutable; evaluation is pure.
    """

    name: str
    segments: tuple[Segment, ...]
    declared_monotone: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise ExpressionError("an expression needs at least one segment")
        segs = sorted(self.segments, key=lambda s: (s.lo, s.hi))
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "_ends", tuple((s.hi, s.hi_inclusive) for s in segs))
        self._check_tiling()
        self._check_breakpoint_gaps()
        if self.declared_monotone is not None:
            scanned = is_increasing(self)
            if scanned != self.declared_monotone:
                raise ExpressionError(
                    f"expression {self.name!r} declared "
                    f"{'increasing' if self.declared_monotone else 'non-increasing'} "
                    f"but the grid scan says otherwise"
                )

    def _check_tiling(self) -> None:
        first, last = self.segments[0], self.segments[-1]
        if first.lo != 0 or not first.lo_inclusive:
            raise ExpressionError("segments must start at 0 (inclusive)")
        if last.hi != 1 or not last.hi_inclusive:
            raise ExpressionError("segments must end at 1 (inclusive)")
        for left, right in zip(self.segments, self.segments[1:]):
            if left.hi != right.lo:
                raise ExpressionError(
                    f"segments leave a gap or overlap between {left.hi} and {right.lo}"
                )
            if left.hi_inclusive == right.lo_inclusive:
                side = "both claim" if left.hi_inclusive else "neither claims"
                raise ExpressionError(f"breakpoint {left.hi}: {side} the point")

    def _check_breakpoint_gaps(self) -> None:
        for left, right in zip(self.segments, self.segments[1:]):
            gap = abs(left.value(left.hi) - right.value(right.lo))
            if gap > BREAKPOINT_GAP_TOLERANCE:
                raise ExpressionError(
                    f"expression {self.name!r} jumps by {gap:.4g} at {left.hi} "
                    f"(limit {BREAKPOINT_GAP_TOLERANCE})"
                )

    def evaluate(self, x: Numeric) -> float:
        """Degree of the expression at ``x`` in [0, 1].

        One lookup on the upper ends finds the first segment that admits
        ``x``, its owner by the tiling check.  Fraction inputs get exact
        breakpoint ownership; the quadratic is evaluated in floating point.
        """
        _check_unit_interval(x)
        return self.segments[bisect_right(self._ends, (x, False))].value(x)


@dataclass(frozen=True)
class StepExpr:
    """Crisp threshold expression: 1 when the input reaches ``cutoff``, else 0.

    Comparisons are exact (no float conversion of the input), so
    ``StepExpr(Fraction(1, 3)).evaluate(Fraction(1, 3)) == 1.0`` holds without
    tolerance.
    """

    cutoff: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoff", as_exact(self.cutoff, "cutoff"))
        if not 0 <= self.cutoff <= 1:
            raise ExpressionError(f"cutoff must lie in [0, 1], got {self.cutoff}")

    @property
    def name(self) -> str:
        return f"at least {self.cutoff}"

    def evaluate(self, x: Numeric) -> float:
        _check_unit_interval(x)
        return 1.0 if x >= self.cutoff else 0.0


@dataclass(frozen=True)
class IdentityExpr:
    """The identity judgment: the degree of a size is the size itself.

    Evaluation returns the input unchanged (a Fraction stays a Fraction), so
    regions computed through it coincide exactly with the plain
    conditional-probability regions.
    """

    name: str = "identity"

    def evaluate(self, x: Numeric) -> Numeric:
        _check_unit_interval(x)
        return x


def is_increasing(expr, grid_step: Numeric = DEFAULT_GRID_STEP) -> bool:
    """Decide non-decreasingness by scanning an evenly spaced grid.

    The grid is min(k*h, 1) for k = 0, 1, ..., ceil(1/h), where h is the exact
    decimal reading of ``grid_step`` (0 < h <= 1/1000).  The scan stops at
    the first sample below its predecessor, by however little.

    Every call scans afresh (1,001 evaluations at the default step).  It backs
    ``declared_monotone``; the interval characterization does not call it.
    """
    step = as_exact(grid_step, "grid_step")
    if not 0 < step <= Fraction(1, 1000):
        raise ValueError(f"grid_step must lie in (0, 1e-3], got {grid_step}")
    grid = (min(k * step, _ONE) for k in range(math.ceil(1 / step) + 1))
    return all(not v < prev for prev, v in pairwise(map(expr.evaluate, grid)))


def _nu(name: str, a: str, b: str, c: str, d_rise: float, d_fall: float,
        b_in_rise: bool = False) -> EvalExpr:
    """Novák's nu_{a,b,c} with its two published (rounded) denominators.

    0 on [0, a], (x - a)^2 / d_rise up to b, 1 - (c - x)^2 / d_fall up to c
    (open at c), and 1 on [c, 1]; ``b_in_rise`` gives b to the rising piece.
    """
    lo, mid, hi = Fraction(a), Fraction(b), Fraction(c)
    return EvalExpr(name, (
        Segment(Fraction(0), lo, True, True, "const", c=0.0),
        Segment(lo, mid, False, b_in_rise, "quad_up", a=float(a), d=d_rise),
        Segment(mid, hi, not b_in_rise, False, "quad_down", a=float(c), d=d_fall),
        Segment(hi, Fraction(1), True, True, "const", c=1.0),
    ))


#: Each built-in with its fuzzy-quantifier reading (see :func:`quantifier_for`).
_BUILTINS = {e.name: (e, word) for e, word in (
    (_nu("not_small", "0.0745", "0.16", "0.275", 0.01714, 0.02305, b_in_rise=True), "many"),
    (_nu("very_big", "0.83", "0.895", "0.9575", 0.00828, 0.00796), "most"),
    (_nu("extremely_big", "0.885", "0.95", "0.995", 0.00715, 0.00495), "almost all"),
)}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> EvalExpr:
    """Return one of the built-in expressions by name.

    Valid names: ``not_small``, ``very_big``, ``extremely_big``.
    """
    try:
        return _BUILTINS[name][0]
    except KeyError:
        raise ExpressionError(
            f"unknown built-in expression {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None


def display_name(expr) -> str:
    """How output names an expression: its ``name`` when it has one, else ``str(expr)``."""
    name = getattr(expr, "name", None)
    return str(expr) if name is None else name


def quantifier_for(expr) -> Optional[str]:
    """The quantifier an expression corresponds to, if it has one.

    The three built-ins read as "many" / "most" / "almost all" (a custom
    expression that only borrows a built-in's name does not); the crisp
    cutoff at 1 reads as "all".  Everything else returns None.
    """
    if isinstance(expr, StepExpr):
        return "all" if expr.cutoff == 1 else None
    entry = _BUILTINS.get(getattr(expr, "name", None))
    return entry[1] if entry is not None and entry[0] == expr else None


# ---------------------------------------------------------------------------
# JSON form for custom expressions
# ---------------------------------------------------------------------------

def expression_to_json_dict(expr: EvalExpr) -> dict:
    """Serialize a piecewise expression to its JSON dictionary form: its fields, each bound as
    :func:`_written` gives it, an unset ``declared_monotone`` left out."""
    data = {name: value for name, value in asdict(expr).items() if value is not None}
    data["segments"] = [{k: _written(v, f"segment {i} {k}") if isinstance(v, Fraction) else v for k, v in s.items()}
                        for i, s in enumerate(data["segments"])]
    return data


def _written(bound: Fraction, what: str) -> float | str:
    """A bound as the reader takes it back exactly: its float when that reads back as it, else ``"p/q"``."""
    if as_exact(float(bound)) == bound:
        return float(bound)
    if len(str(bound)) > MAX_LITERAL_CHARS:
        raise ExpressionError(f"{what} has no float or 'p/q' form of at most {MAX_LITERAL_CHARS} characters")
    return str(bound)


def _refuse_unknown_fields(raw: dict, cls, what: str) -> None:
    """Refuse a key of ``raw`` that names no field of the dataclass ``cls``."""
    known = {f.name for f in fields(cls)}
    unknown = ", ".join(repr(key) for key in raw if key not in known)
    if unknown:
        raise ExpressionError(f"{what} has unknown field(s) {unknown}")


def _coefficient(value, what: str) -> float:
    """A segment's ``a``/``d``/``c``: a number by :func:`as_exact`'s rule that fits a float."""
    try:
        return float(as_exact(value, what))
    except OverflowError:  # an integer literal past the float range
        raise ExpressionError(f"{what} is too large for a float") from None


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ExpressionError(f"{what} must be true or false, got {value!r}")
    return value


#: Each :class:`Segment` field's reader, keyed by its annotation's text; :class:`Segment` refuses an unknown ``form``.
_FIELD_READERS = {"Fraction": as_exact, "float": _coefficient, "bool": _boolean, "str": lambda value, what: value}


def expression_from_json_dict(data: dict) -> EvalExpr:
    """Build and validate a piecewise expression from its JSON dictionary form.

    The keys are :class:`EvalExpr`'s fields, and in each segment
    :class:`Segment`'s, each read by the reader for its declared type; a
    coefficient or ``declared_monotone`` left out takes its default.  In a
    segment, an unknown key is refused first, then a missing field, then the
    first bad field in :class:`Segment`'s field order.
    """
    if not isinstance(data, dict):
        raise ExpressionError("expression JSON must be an object")
    _refuse_unknown_fields(data, EvalExpr, "expression JSON")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ExpressionError("expression JSON needs a non-empty 'name'")
    raw_segments = data.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ExpressionError("expression JSON needs a non-empty 'segments' list")
    segments = []
    for i, raw in enumerate(raw_segments):
        if not isinstance(raw, dict):
            raise ExpressionError(f"segment {i} must be an object")
        _refuse_unknown_fields(raw, Segment, f"segment {i}")
        missing = [f.name for f in fields(Segment) if f.name not in raw and f.default is MISSING]
        if missing:
            raise ExpressionError(f"segment {i} is missing field {missing[0]!r}")
        segments.append(Segment(**{f.name: _FIELD_READERS[f.type](raw[f.name], f"segment {i} {f.name}")
                                   for f in fields(Segment) if f.name in raw}))
    declared = data.get("declared_monotone")
    if declared is not None and not isinstance(declared, bool):
        raise ExpressionError("'declared_monotone' must be a boolean when present")
    return EvalExpr(name, tuple(segments), declared_monotone=declared)


def load_expression(path: str) -> EvalExpr:
    """Read a custom expression from a JSON file; a leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # bad syntax, or an integer past the digit limit
            raise ExpressionError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ExpressionError(f"{path} nests arrays or objects too deeply to read") from None
    return expression_from_json_dict(data)
