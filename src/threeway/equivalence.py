"""Region bounds and the threshold pairs under which both region routes agree.

Given a linguistic tri-partition, the inclusion ratios attained inside each
region give four bounds, which :attr:`TriPartition.bounds` holds:

* ``neg_max``  - highest ratio in the negative region,
* ``bnd_min``  - lowest ratio in the boundary region,
* ``bnd_max``  - highest ratio in the boundary region,
* ``pos_min``  - lowest ratio in the positive region,

each absent exactly when its region is empty.  With all three regions
non-empty and the attained ratios ordered by region (as an increasing
expression always leaves them) they interleave strictly:
``0 <= neg_max < bnd_min <= bnd_max < pos_min <= 1``.

A probabilistic threshold pair (alpha', beta'), beta' < alpha', reproduces
the linguistic regions exactly when beta' cuts the ``neg`` blocks from the
rest and alpha' the ``pos`` blocks from the rest.  So :func:`intervals_of`
reads both intervals off the bounds, an absent bound reading as 0 below a cut
and 1 above it:

* beta' in [neg_max, min(bnd_min, pos_min));
* alpha' in (max(neg_max, bnd_max), pos_min].

With every region non-empty that is alpha' in (bnd_max, pos_min] and beta'
in [neg_max, bnd_min); an empty boundary makes both cuts the same one, and
beta' < alpha' couples the pair into neg_max <= beta' < alpha' <= pos_min.

Two or more empty regions is rejected as degenerate
(:class:`DegenerateRegionsError`).  A cut whose interval is empty is refused
(:class:`NonMonotoneExpressionError`, the beta' cut checked first), naming
the highest block below it and the lowest above: no probabilistic pair can
reproduce those regions.  An absent bound counts as its end, 0 or 1, there
too: a block at ratio 0 outside an empty ``neg`` region, or at ratio 1
outside an empty ``pos`` region, is refused, naming the block and the bound,
since every pair puts ratio 0 in ``neg`` and ratio 1 in ``pos``.  That exact
check on the attained ratios is the only monotonicity gate; the expression
is never scanned, so a non-increasing one whose ratios stay ordered by
region is characterized like any other.  Everything is exact: ratios,
interval endpoints, and the open/closed flags all live in rational
arithmetic, because the content of the characterization is precisely which
endpoints are attained.  :func:`region_bounds` and
:func:`equivalent_threshold_intervals` build the tri-partition and delegate.
A probe pair is checked on the same table too: :func:`first_difference` puts
each block's ratio through the probe (the probabilistic route is the
identity expression) and names the first block whose region differs, and
:func:`verify_equivalence` is that search coming up empty.

An independent brute-force check is provided alongside.  Region membership
only depends on where a threshold sits relative to the finite ratio set, so
the attained ratios, the midpoints between consecutive ones, and 0 and 1 hit
every equivalence cell of threshold space.  :func:`sweep_of` decides every
pair of these c <= 2k + 1 candidates (k distinct ratios) on the same block
table, never on element sets: each attained ratio's wanted region is its
block's region.  The result is two verdict vectors, one over alpha' and one
over beta'; the pair table (one verdict per beta' < alpha') is a read-only
sequence view of them that builds an entry only when it is read by index, and
the text and JSON forms are rendered from the vectors and yielded an alpha'
row at a time, in pair order.  The candidates are ordered, and each block's
ratio compared with them, on exact integer keys over one common denominator,
so no Fraction is hashed, added or divided.  The sweep reads no bound and no
interval and assumes no monotonicity; wherever the intervals are given, its
table must match them on every pair.  :func:`sweep_equivalence_oracle` builds
the tri-partition and delegates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .expressions import Numeric, display_name
from .regions import RegionBounds, Thresholds, TriPartition, linguistic_regions, region_of_degree
from .render import bracket, render
from .spaces import ApproximationSpace, Concept


class NonMonotoneExpressionError(ValueError):
    """A higher attained ratio lands in a lower region, or ratio 0 or 1 where no pair puts it.

    Either way no probabilistic pair reproduces the regions.
    """


class DegenerateRegionsError(ValueError):
    """Two or more regions are empty; no meaningful interval characterization."""


class EmptinessCase(Enum):
    """Which regions of the source tri-partition are empty."""

    ALL_NONEMPTY = "all_nonempty"
    BND_EMPTY = "bnd_empty"
    NEG_EMPTY = "neg_empty"
    POS_EMPTY = "pos_empty"


@dataclass(frozen=True)
class Interval:
    """A non-empty rational interval with explicit open/closed endpoints."""

    lo: Fraction
    hi: Fraction
    lo_open: bool
    hi_open: bool

    def __post_init__(self) -> None:
        if self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open)):
            raise ValueError(f"empty interval from {self.lo} to {self.hi}")

    def contains(self, value: Numeric) -> bool:
        lo_ok = value > self.lo if self.lo_open else value >= self.lo
        hi_ok = value < self.hi if self.hi_open else value <= self.hi
        return lo_ok and hi_ok

    def to_json_dict(self) -> dict:
        return {
            "lo": float(self.lo),
            "lo_open": self.lo_open,
            "hi": float(self.hi),
            "hi_open": self.hi_open,
        }

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{format_endpoint(self.lo)}, {format_endpoint(self.hi)}{right}"


def format_endpoint(value: Fraction) -> str:
    """Render an endpoint as an exact fraction with its decimal, e.g. ``1/7 ≈ 0.142857``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator} ≈ {float(value):.6g}"


@dataclass(frozen=True)
class ThresholdEquivalence:
    """The set of probabilistic threshold pairs reproducing the source regions.

    A pair is admitted when beta' < alpha' and each lies in its interval.
    When ``coupled`` is true (empty boundary region) that is the joint wedge
    ``alpha_interval.lo <= beta' < alpha' <= alpha_interval.hi``: the two
    intervals are its projections, and beta' < alpha' does the coupling.
    """

    case: EmptinessCase
    alpha_interval: Interval
    beta_interval: Interval

    @property
    def coupled(self) -> bool:
        return self.case is EmptinessCase.BND_EMPTY

    def admits(self, alpha_p: Numeric, beta_p: Numeric) -> bool:
        return (beta_p < alpha_p and self.alpha_interval.contains(alpha_p)
                and self.beta_interval.contains(beta_p))

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.value,
            "alpha_interval": self.alpha_interval.to_json_dict(),
            "beta_interval": self.beta_interval.to_json_dict(),
            "coupled": self.coupled,
        }

    def describe(self) -> str:
        if self.coupled:
            lo = format_endpoint(self.alpha_interval.lo)
            hi = format_endpoint(self.alpha_interval.hi)
            return f"{lo} <= beta' < alpha' <= {hi} (coupled)"
        return f"alpha' in {self.alpha_interval}, beta' in {self.beta_interval}"


def _refuse(tp: TriPartition, expr, upper: tuple[str, ...], lo: Fraction, hi: Fraction):
    """Raise :class:`NonMonotoneExpressionError` for a cut with no threshold from ``lo`` up to ``hi``.

    The blocks above the cut are those whose region is in ``upper``.  It names
    the highest-index block below at ratio ``lo`` and the lowest-index block
    above at ratio ``hi``, or, for a side with no block, the bound: every
    beta' >= 0 puts ratio 0 in ``neg``, and every alpha' <= 1 ratio 1 in ``pos``.
    """
    table = list(enumerate(zip(tp.ratios, tp.block_regions)))
    low = max((i for i, (r, region) in table if region not in upper and r == lo), default=None)
    high = min((i for i, (r, region) in table if region in upper and r == hi), default=None)
    labels, regions = tp.space.labels, tp.block_regions
    if low is None or high is None:
        ratio, index = (hi, high) if low is None else (lo, low)
        bound, region = ("beta' >= 0", "neg") if low is None else ("alpha' <= 1", "pos")
        why = (f"puts block {labels[index]!r} (ratio {format_endpoint(ratio)}) in the "
               f"{regions[index]!r} region, but every {bound} puts ratio {ratio} in the {region!r} region")
    else:
        why = (f"is not increasing on the attained ratios: block {labels[low]!r} (ratio "
               f"{format_endpoint(lo)}) is in the {regions[low]!r} region but block "
               f"{labels[high]!r} (ratio {format_endpoint(hi)}) is in the {regions[high]!r} region")
    raise NonMonotoneExpressionError(
        f"expression {display_name(expr)!r} {why}; no probabilistic threshold pair reproduces these regions"
    )


def _ends(below: tuple, above: tuple) -> tuple[Fraction, Fraction]:
    """A cut's ends: the highest present bound below it and the lowest above, else 0 and 1."""
    return (max((v for v in below if v is not None), default=Fraction(0)),
            min((v for v in above if v is not None), default=Fraction(1)))


def region_bounds(
    space: ApproximationSpace, concept: Concept, expr, thresholds: Thresholds
) -> RegionBounds:
    """The four extreme ratios of the linguistic tri-partition's regions."""
    return linguistic_regions(space, concept, expr, thresholds).bounds


def check_bounds_ordering(bounds: RegionBounds, expr_increasing: bool) -> bool:
    """Whether the strict interleaving 0 <= neg_max < bnd_min <= bnd_max < pos_min <= 1 holds.

    Only meaningful when all three regions were non-empty and the expression
    increasing; both are preconditions.
    """
    if not expr_increasing:
        raise ValueError("ordering check requires an increasing expression")
    if not bounds.all_present():
        raise ValueError("ordering check requires all four bounds (no empty region)")
    return (
        0 <= bounds.neg_max < bounds.bnd_min <= bounds.bnd_max < bounds.pos_min <= 1
    )


def equivalent_threshold_intervals(
    space: ApproximationSpace, concept: Concept, expr, thresholds: Thresholds
) -> ThresholdEquivalence:
    """Characterize all (alpha', beta') whose probabilistic regions equal the linguistic ones."""
    return intervals_of(linguistic_regions(space, concept, expr, thresholds), expr)


def intervals_of(tp: TriPartition, expr) -> ThresholdEquivalence:
    """The equivalent probabilistic threshold pairs of a tri-partition built through ``expr``.

    Both are read off ``tp.bounds``: beta' in [neg_max, min(bnd_min,
    pos_min)) and alpha' in (max(neg_max, bnd_max), pos_min], an absent bound
    reading as 0 below a cut and 1 above it.  Raises
    :class:`DegenerateRegionsError` when two or more regions are empty, and
    otherwise :class:`NonMonotoneExpressionError` when an interval is empty,
    naming its witnesses, so every characterization it returns admits a pair.
    The expression is only named, never evaluated.
    """
    empty = tp.empty_regions
    if len(empty) >= 2:
        present = next(name for name in ("pos", "neg", "bnd") if name not in empty)
        raise DegenerateRegionsError(
            f"only the {present!r} region is non-empty (it covers the whole universe); "
            "the threshold characterization needs at least two non-empty regions"
        )
    bounds = tp.bounds
    beta = _ends((bounds.neg_max,), (bounds.bnd_min, bounds.pos_min))
    alpha = _ends((bounds.neg_max, bounds.bnd_max), (bounds.pos_min,))
    for upper, (lo, hi) in ((("bnd", "pos"), beta), (("pos",), alpha)):
        if lo >= hi:
            _refuse(tp, expr, upper, lo, hi)
    return ThresholdEquivalence(
        case=EmptinessCase(f"{empty[0]}_empty" if empty else "all_nonempty"),
        alpha_interval=Interval(*alpha, True, False),
        beta_interval=Interval(*beta, False, True),
    )


def verify_equivalence(
    space: ApproximationSpace,
    concept: Concept,
    expr,
    thresholds: Thresholds,
    alpha_p: Numeric,
    beta_p: Numeric,
) -> bool:
    """Direct check: do the two routes produce identical pos/neg/bnd sets?"""
    probe = Thresholds(alpha_p, beta_p)
    return first_difference(linguistic_regions(space, concept, expr, thresholds), probe) is None


def first_difference(tp: TriPartition, probe: Thresholds) -> Optional[int]:
    """The first block, in block order, that ``probe`` puts in another region than ``tp`` does.

    The probabilistic region of a block is its ratio's region under ``probe``
    (the identity expression on the same ratios), so no second table is
    counted.  None when the two routes agree on every block, and so, since
    the blocks cover the universe, on every element.
    """
    return next((idx for idx, (ratio, region) in enumerate(zip(tp.ratios, tp.block_regions))
                 if region_of_degree(ratio, probe) != region), None)


@dataclass(frozen=True)
class SweepEntry:
    alpha: Fraction
    beta: Fraction
    equivalent: bool


@dataclass(frozen=True)
class SweepResult:
    """The verdict at (candidates[a], candidates[b]), b < a, is ``alpha_ok[a] and beta_ok[b]``.

    ``candidates`` is strictly increasing, so pair (a, b) has beta' < alpha'
    and :meth:`agrees_with` can find an interval's candidates by bisection.
    """

    candidates: tuple[Fraction, ...]
    alpha_ok: tuple[bool, ...]
    beta_ok: tuple[bool, ...]

    def _rows(self):
        """Row a holds the verdicts at (candidates[a], candidates[b]) for every b < a, in order."""
        for a, ok in enumerate(self.alpha_ok):
            yield a, self.beta_ok[:a] if ok else (False,) * a

    @property
    def entries(self) -> "SweepEntries":
        """The verdict of every pair, alpha'-major, as a view that builds an entry when it is read."""
        return SweepEntries(self)

    def to_json_dict(self) -> dict:
        values = [float(c) for c in self.candidates]
        return {"candidates": values,
                "verdicts": [{"alpha": values[a], "beta": beta_p, "equivalent": ok}
                             for a, row in self._rows() for beta_p, ok in zip(values, row)]}

    def json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)`` and a newline, an alpha' row at a time."""
        shown = [render(float(c)) for c in self.candidates]
        ends = (',\n      "equivalent": false\n    }', ',\n      "equivalent": true\n    }')
        yield '{\n  "candidates": ' + bracket("[]", shown, "\n  ") + ',\n  "verdicts": ['
        for a, row in self._rows():
            if a:  # row 0 is empty
                head = '\n    {\n      "alpha": ' + shown[a] + ',\n      "beta": '
                yield ("," if a > 1 else "") + head + ("," + head).join([b + ends[ok] for b, ok in zip(shown, row)])
        yield ("\n  ]" if len(shown) > 1 else "]") + "\n}\n"

    def text_chunks(self) -> Iterator[str]:
        """:meth:`to_text` a line or an alpha' row at a time."""
        shown = [format_endpoint(c) for c in self.candidates]
        yield f"{len(shown)} candidate values, {len(self.entries)} pairs\n"
        for a, row in self._rows():  # one string per alpha' row, not one per pair
            yield "".join(f"  {'=' if ok else 'x'} alpha'={shown[a]} beta'={beta_p}\n"
                          for beta_p, ok in zip(shown, row))

    def to_text(self) -> str:
        return "".join(self.text_chunks())

    def _live(self) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
        """The verdicts a true pair reads: alpha' above the first true beta', beta' below the last true alpha'."""
        first_beta = next((b for b, ok in enumerate(self.beta_ok) if ok), len(self.beta_ok))
        last_alpha = max((a for a, ok in enumerate(self.alpha_ok) if ok), default=-1)
        return (tuple(ok and a > first_beta for a, ok in enumerate(self.alpha_ok)),
                tuple(ok and b < last_alpha for b, ok in enumerate(self.beta_ok)))

    def agrees_with(self, equivalence: ThresholdEquivalence) -> bool:
        """True when every verdict matches the interval characterization.

        Equal to testing ``equivalence.admits`` per entry, in O(c): the true pairs are
        every (a, b), b < a, of the :meth:`_live` candidates, so two tables agree when
        those do, and each interval's candidates are a run found by two bisections.
        """
        c = self.candidates
        stated = SweepResult(c, _inside(c, equivalence.alpha_interval), _inside(c, equivalence.beta_interval))
        return self._live() == stated._live()

    def admitted(self) -> tuple[SweepEntry, ...]:
        """The entries whose verdict is true, in entry order, built from the vectors alone."""
        c, allowed = self.candidates, [b for b, ok in enumerate(self.beta_ok) if ok]
        return tuple(SweepEntry(c[a], c[b], True) for a, ok in enumerate(self.alpha_ok) if ok
                     for b in allowed[:bisect_left(allowed, a)])


class SweepEntries(Sequence):
    """A sweep's pair table: a read-only sequence of :class:`SweepEntry`, alpha'-major.

    Entry ``a * (a - 1) // 2 + b`` is the pair (candidates[a], candidates[b]),
    b < a.  No entry is kept: each is built from the verdict vectors when it
    is read by index, so the length costs nothing.
    """

    __slots__ = ("_sweep",)

    def __init__(self, sweep: SweepResult) -> None:
        self._sweep = sweep

    def __len__(self) -> int:
        c = len(self._sweep.candidates)
        return c * (c - 1) // 2

    def __getitem__(self, index):
        at = range(len(self))[index]  # an index in range, or the range a slice selects
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        a = (1 + math.isqrt(1 + 8 * at)) // 2
        b = at - a * (a - 1) // 2
        c, alpha_ok, beta_ok = self._sweep.candidates, self._sweep.alpha_ok, self._sweep.beta_ok
        return SweepEntry(c[a], c[b], beta_ok[b] if alpha_ok[a] else False)


def _inside(candidates: tuple[Fraction, ...], interval: Interval) -> tuple[bool, ...]:
    """``tuple(map(interval.contains, candidates))`` for strictly increasing candidates."""
    start = (bisect_right if interval.lo_open else bisect_left)(candidates, interval.lo)
    stop = (bisect_left if interval.hi_open else bisect_right)(candidates, interval.hi)
    return (False,) * start + (True,) * (stop - start) + (False,) * (len(candidates) - stop)


def candidate_thresholds(ratios: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """Attained ratios, midpoints of consecutive ratios, and the extremes 0 and 1.

    Region membership is a function of where a threshold falls relative to the
    attained ratio set, so threshold space splits into finitely many cells
    (each ratio itself, and each open gap between neighbours); this set hits
    every cell, which makes the sweep verdict table exhaustive at cell level.
    """
    keys, scale = _candidate_keys(ratios)
    return tuple(Fraction(key, scale) for key in keys)


def _candidate_keys(ratios: Iterable[Fraction]) -> tuple[list[int], int]:
    """:func:`candidate_thresholds` as increasing integer numerators over a common ``scale``.

    ``scale`` is twice the lcm of the ratios' denominators, so ratio ``n / d``
    has key ``n * (scale // d)``, the keys order the values exactly, and the
    key of a midpoint is the integer mean of its two (even) neighbours' keys.
    """
    attained = {r.as_integer_ratio() for r in ratios}
    scale = 2 * math.lcm(*(d for _, d in attained))
    keys = sorted(n * (scale // d) for n, d in attained)
    return sorted({0, scale, *keys, *((lo + hi) // 2 for lo, hi in zip(keys, keys[1:]))}), scale


def sweep_equivalence_oracle(
    space: ApproximationSpace,
    concept: Concept,
    expr,
    thresholds: Thresholds,
) -> SweepResult:
    """:func:`sweep_of` the linguistic tri-partition of ``space`` and ``concept``."""
    return sweep_of(linguistic_regions(space, concept, expr, thresholds))


def sweep_of(tp: TriPartition) -> SweepResult:
    """Decide every candidate pair (beta' < alpha') against a tri-partition's block table.

    It reads no bound and assumes no monotonicity, so the intervals can be
    checked against it.  Each verdict equals :func:`verify_equivalence` at that
    pair: blocks are non-empty, disjoint and cover the universe, so element
    sets agree exactly when every attained ratio lands in its block's region.
    """
    keys, scale = _candidate_keys(tp.ratios)
    wanted: dict[str, list[int]] = {"pos": [], "neg": [], "bnd": []}
    for ratio, region in zip(tp.ratios, tp.block_regions):
        wanted[region].append(ratio.numerator * (scale // ratio.denominator))
    # A ratio is probabilistically pos at or above alpha', neg at or below
    # beta' and bnd between, so alpha' settles the wanted-pos ratios and the
    # upper side of the wanted-bnd ones, and beta' the rest.  An absent
    # region's extremes lie outside the keys' range [0, scale].
    lowest_pos = min(wanted["pos"], default=scale + 1)
    highest_neg = max(wanted["neg"], default=-1)
    lowest_bnd = min(wanted["bnd"], default=scale + 1)
    highest_bnd = max(wanted["bnd"], default=-1)
    return SweepResult(tuple(Fraction(key, scale) for key in keys),
                       tuple(highest_bnd < key <= lowest_pos for key in keys),
                       tuple(highest_neg <= key < lowest_bnd for key in keys))


def coincides_with_pawlak(bounds: RegionBounds) -> bool:
    """Whether the linguistic rough set collapses to the classical one.

    Requires all three regions non-empty (all four bounds present): the
    collapse happens exactly when the negative region attains only ratio 0
    and the positive region only ratio 1.
    """
    if not bounds.all_present():
        raise ValueError("the coincidence test requires all four bounds (no empty region)")
    return bounds.neg_max == 0 and bounds.pos_min == 1
