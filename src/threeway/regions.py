"""Tri-partitions of a universe, the block table behind them, and the rough sets they induce.

Each block's inclusion ratio goes through an expression to give its degree,
and the degree decides the block's region against (alpha, beta), beta < alpha:
``pos`` at or above alpha, ``neg`` at or below beta, ``bnd`` strictly between.
:func:`linguistic_regions` builds that block table once and the
:class:`TriPartition` keeps it, so bounds, intervals and reports read it
instead of recounting, and the element sets are filled from it.  The
probabilistic regions are the linguistic ones under the identity expression.

Comparisons carry no epsilon.  Degrees are exact fractions on the
probabilistic path and plain floats on the linguistic one; Python compares
Fraction/int/float cross-type exactly, so a threshold equal to an attained
degree lands in the closed region, as the definitions require.  Degenerate
tri-partitions (one or two empty regions) are legal results and are flagged
via :attr:`TriPartition.empty_regions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .expressions import IdentityExpr, Numeric
from .spaces import ApproximationSpace, Concept, DataError

REGION_NAMES = ("pos", "neg", "bnd")


class ThresholdError(ValueError):
    """A threshold pair violates 0 <= beta < alpha <= 1."""


@dataclass(frozen=True)
class Thresholds:
    """Acceptance/rejection cut points with beta strictly below alpha."""

    alpha: Numeric
    beta: Numeric

    def __post_init__(self) -> None:
        if not (0 <= self.beta < self.alpha <= 1):
            raise ThresholdError(
                f"thresholds must satisfy 0 <= beta < alpha <= 1, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class TriPartition:
    """Three disjoint regions covering the universe, plus the block table behind them.

    ``degrees`` maps every element to the value that was compared against the
    thresholds (block-constant by construction).  The originating space rides
    along so reports can name blocks; ``ratios`` and ``block_regions`` hold
    each block's inclusion ratio and region name, indexed like
    ``space.blocks``.  Neither takes part in equality or the JSON form.
    """

    pos: frozenset[str]
    neg: frozenset[str]
    bnd: frozenset[str]
    degrees: Mapping[str, Numeric]
    space: ApproximationSpace = field(repr=False, compare=False)
    ratios: tuple[Fraction, ...] = field(default=(), repr=False, compare=False)
    block_regions: tuple[str, ...] = field(default=(), repr=False, compare=False)

    @property
    def empty_regions(self) -> tuple[str, ...]:
        """Names of the regions that came out empty, in pos/neg/bnd order."""
        return tuple(
            name for name in REGION_NAMES if not getattr(self, name)
        )

    def region_of(self, element: str) -> str:
        if element in self.pos:
            return "pos"
        if element in self.neg:
            return "neg"
        if element in self.bnd:
            return "bnd"
        raise DataError(f"unknown element {element!r}")

    def same_regions(self, other: "TriPartition") -> bool:
        """Region-for-region equality, ignoring degrees."""
        return self.pos == other.pos and self.neg == other.neg and self.bnd == other.bnd

    def to_json_dict(self) -> dict:
        """Stable JSON form: ids sorted, degrees as floats."""
        return {
            "pos": sorted(self.pos),
            "neg": sorted(self.neg),
            "bnd": sorted(self.bnd),
            "degrees": {e: float(self.degrees[e]) for e in sorted(self.degrees)},
            "empty_regions": list(self.empty_regions),
        }


def region_of_degree(degree: Numeric, thresholds: Thresholds) -> str:
    """Where a degree lands: ``pos`` at or above alpha, ``neg`` at or below beta, else ``bnd``."""
    if degree >= thresholds.alpha:
        return "pos"
    if degree <= thresholds.beta:
        return "neg"
    return "bnd"


def probabilistic_regions(
    space: ApproximationSpace, concept: Concept, thresholds: Thresholds
) -> TriPartition:
    """Regions from the raw inclusion ratios (degrees are exact fractions)."""
    return linguistic_regions(space, concept, IdentityExpr(), thresholds)


def linguistic_regions(
    space: ApproximationSpace,
    concept: Concept,
    expr,
    thresholds: Thresholds,
) -> TriPartition:
    """Regions from expression-evaluated inclusion ratios.

    ``expr`` is anything with an ``evaluate(x) -> degree`` method (a built-in
    or custom piecewise expression, a step expression, or the identity).
    """
    ratios = tuple(space.block_ratios(concept).values())
    members: dict[str, set[str]] = {name: set() for name in REGION_NAMES}
    degrees: dict[str, Numeric] = {}
    block_regions = []
    for block, ratio in zip(space.blocks, ratios):
        degree = expr.evaluate(ratio)
        region = region_of_degree(degree, thresholds)
        members[region].update(block)
        block_regions.append(region)
        for element in block:
            degrees[element] = degree
    return TriPartition(
        frozenset(members["pos"]), frozenset(members["neg"]), frozenset(members["bnd"]),
        degrees, space, ratios, tuple(block_regions),
    )


@dataclass(frozen=True)
class RoughSetPair:
    """Lower/upper approximation pair; the lower set never exceeds the upper."""

    lower: frozenset[str]
    upper: frozenset[str]

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError("lower approximation must be a subset of the upper")


def rough_set_from_tripartition(tp: TriPartition) -> RoughSetPair:
    """Lower = accepted elements; upper = accepted plus undecided."""
    return RoughSetPair(tp.pos, tp.pos | tp.bnd)


def pawlak_rough_set(space: ApproximationSpace, concept: Concept) -> RoughSetPair:
    """Classical rough set: blocks fully inside vs. blocks touching the concept.

    Coincides with ``probabilistic_regions`` at thresholds (1, 0) folded
    through :func:`rough_set_from_tripartition`; computed here directly from
    the block/concept relation as an independent route.
    """
    space.check_concept(concept)
    lower: set[str] = set()
    upper: set[str] = set()
    for block in space.blocks:
        members = frozenset(block)
        if members <= concept.members:
            lower.update(block)
        if members & concept.members:
            upper.update(block)
    return RoughSetPair(frozenset(lower), frozenset(upper))
