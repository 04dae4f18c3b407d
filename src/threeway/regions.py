"""Tri-partitions of a universe, the block table behind them, and the rough sets they induce.

Each block's inclusion ratio goes through an expression to give its degree,
and the degree decides the block's region against (alpha, beta), beta < alpha:
``pos`` at or above alpha, ``neg`` at or below beta, ``bnd`` strictly between.
:func:`linguistic_regions` builds that block table once; it is all a
:class:`TriPartition` holds, with the bounds computed from it once.  Bounds,
intervals and reports read it, and the element sets and degrees are views
derived from it on each read.  The probabilistic regions are the linguistic
ones under the identity expression, the crisp delta regions those under a
step expression.  A space keeps the tri-partitions built on it, keyed by
concept members, expression object and thresholds, with one ratio count per
member set; :func:`linguistic_regions` replaces that store whole, taking no
lock.  So an expression must be a pure function of its input, and must not
change after its first use.

Comparisons carry no epsilon.  Degrees are exact fractions on the
probabilistic path and plain floats on the linguistic one.  A finite float,
int or Fraction is compared with the thresholds by cross-multiplying the exact
integer ratios of both, which is how Python compares those types with one
another, so a threshold equal to an attained degree lands in the closed
region, as the definitions require.  Degenerate tri-partitions (one or two
empty regions) are legal results and are flagged via
:attr:`TriPartition.empty_regions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Mapping, Optional

from .expressions import IdentityExpr, Numeric, StepExpr, as_exact
from .render import bracket, quote, render
from .spaces import ApproximationSpace, Concept

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

    @cached_property
    def _ratios(self) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
        """Alpha's and beta's integer ratios, or None unless both are ints, floats or Fractions."""
        alpha, beta = _integer_ratio(self.alpha), _integer_ratio(self.beta)
        return None if alpha is None or beta is None else (alpha, beta)


def _integer_ratio(value) -> Optional[tuple[int, int]]:
    """A finite int, float or Fraction (not a bool or a subclass) as its lowest-terms ratio, else None."""
    kind = type(value)
    if kind is int or kind is Fraction or (kind is float and math.isfinite(value)):
        return value.as_integer_ratio()
    return None


@dataclass(frozen=True)
class RegionBounds:
    """Extreme inclusion ratios attained per region; None for empty regions."""

    neg_max: Optional[Fraction]
    bnd_min: Optional[Fraction]
    bnd_max: Optional[Fraction]
    pos_min: Optional[Fraction]

    def as_tuple(self) -> tuple:
        return (self.neg_max, self.bnd_min, self.bnd_max, self.pos_min)

    def all_present(self) -> bool:
        return all(v is not None for v in self.as_tuple())


@dataclass(frozen=True, eq=False)
class TriPartition:
    """Three disjoint regions covering the universe, as the block table they come from.

    ``ratios``, ``block_degrees`` and ``block_regions`` hold each block's
    inclusion ratio, the degree compared against the thresholds, and the
    region it landed in, indexed like ``space.blocks``.  The element views
    ``pos``, ``neg``, ``bnd`` and ``degrees`` are derived from the table on
    each read and never kept; ``bounds`` is computed on first read and kept.
    Equality compares the regions and the element degrees; the space takes no
    part in it or in the JSON form.
    """

    space: ApproximationSpace = field(repr=False)
    ratios: tuple[Fraction, ...]
    block_degrees: tuple[Numeric, ...]
    block_regions: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriPartition):
            return NotImplemented
        return self.same_regions(other) and self.degrees == other.degrees

    def _members(self, region: str) -> frozenset[str]:
        table = zip(self.space.blocks, self.block_regions)
        return frozenset().union(*(block for block, name in table if name == region))

    pos = property(lambda self: self._members("pos"))
    neg = property(lambda self: self._members("neg"))
    bnd = property(lambda self: self._members("bnd"))

    @property
    def degrees(self) -> Mapping[str, Numeric]:
        """Every element's degree (block-constant by construction)."""
        table = zip(self.space.blocks, self.block_degrees)
        return {element: degree for block, degree in table for element in block}

    @cached_property
    def bounds(self) -> RegionBounds:
        """The four extreme ratios of the regions, each None when its region is empty."""
        neg, bnd, pos = ([r for r, region in zip(self.ratios, self.block_regions) if region == name]
                         for name in ("neg", "bnd", "pos"))
        return RegionBounds(max(neg, default=None), min(bnd, default=None),
                            max(bnd, default=None), min(pos, default=None))

    @property
    def empty_regions(self) -> tuple[str, ...]:
        """Names of the regions that came out empty, in pos/neg/bnd order."""
        return tuple(name for name in REGION_NAMES if name not in self.block_regions)

    def region_of(self, element: str) -> str:
        return self.block_regions[self.space.block_index(element)]

    def same_regions(self, other: "TriPartition") -> bool:
        """Region-for-region equality, ignoring degrees."""
        return self.pos == other.pos and self.neg == other.neg and self.bnd == other.bnd

    def to_json_dict(self) -> dict:
        """Stable JSON form, from one pass over the sorted universe: ids sorted, degrees as floats."""
        degrees, block_of = [float(d) for d in self.block_degrees], self.space._block_of
        data: dict = {**{name: [] for name in REGION_NAMES}, "degrees": {}}
        for element in sorted(block_of):
            index = block_of[element]
            data[self.block_regions[index]].append(element)
            data["degrees"][element] = degrees[index]
        return {**data, "empty_regions": list(self.empty_regions)}

    def json_text(self, indent: str) -> str:
        """``render(self.to_json_dict(), indent)``, from one pass over the sorted universe."""
        degrees, block_of = [render(float(d)) for d in self.block_degrees], self.space._block_of
        views: dict[str, list[str]] = {name: [] for name in (*REGION_NAMES, "degrees")}
        for element in sorted(block_of):
            index, quoted = block_of[element], quote(element)
            views[self.block_regions[index]].append(quoted)
            views["degrees"].append(f"{quoted}: {degrees[index]}")
        fields = {name: partial(bracket, "{}" if name == "degrees" else "[]", items) for name, items in views.items()}
        return render({**fields, "empty_regions": list(self.empty_regions)}, indent)


def region_of_degree(degree: Numeric, thresholds: Thresholds) -> str:
    """Where a degree lands: ``pos`` at or above alpha, ``neg`` at or below beta, else ``bnd``.

    A finite int, float or Fraction degree against such thresholds is decided
    on the integer ratios, with no Fraction built from a float; anything else
    (NaN, an infinity, a bool, another number type) by ``>=`` and ``<=``.
    """
    ratios, ratio = thresholds._ratios, _integer_ratio(degree)
    if ratios is None or ratio is None:
        if degree >= thresholds.alpha:
            return "pos"
        if degree <= thresholds.beta:
            return "neg"
        return "bnd"
    (n, d), ((alpha_n, alpha_d), (beta_n, beta_d)) = ratio, ratios
    if n * alpha_d >= alpha_n * d:
        return "pos"
    if n * beta_d <= beta_n * d:
        return "neg"
    return "bnd"


_KEPT_TABLES = 64  # block tables a space keeps, the oldest dropped first
_IDENTITY = IdentityExpr()  # one object, so repeated calls find the kept table
_step_at = lru_cache(maxsize=_KEPT_TABLES)(StepExpr)  # and one step expression per cutoff


def probabilistic_regions(
    space: ApproximationSpace, concept: Concept, thresholds: Thresholds
) -> TriPartition:
    """Regions from the raw inclusion ratios (degrees are exact fractions)."""
    return linguistic_regions(space, concept, _IDENTITY, thresholds)


def delta_regions(space: ApproximationSpace, concept: Concept, cutoff: Numeric) -> TriPartition:
    """Crisp split at ``cutoff``: blocks at or above it are accepted, the rest rejected.

    The boundary region is empty and no (alpha, beta) pair matters: this is
    ``linguistic_regions`` with a step expression at ``cutoff`` and thresholds
    (1, 0), so the degrees are the crisp 0/1 values.  Equal cutoffs share one
    step expression, so a repeated call reads the space's kept block table.
    """
    return linguistic_regions(space, concept, _step_at(as_exact(cutoff, "cutoff")), Thresholds(1, 0))


def linguistic_regions(
    space: ApproximationSpace,
    concept: Concept,
    expr,
    thresholds: Thresholds,
) -> TriPartition:
    """Regions from expression-evaluated inclusion ratios.

    ``expr`` is anything with an ``evaluate(x) -> degree`` method (a built-in
    or custom piecewise expression, a step expression, or the identity).  The
    space keeps the tri-partition per (concept members, expression identity,
    thresholds), with ``expr`` itself so that identity is not reused while it
    is kept, and returns it on a repeated call without evaluating ``expr``
    again: so ``expr`` must be a pure function of ``x`` and must not change
    after its first use.  Equal member sets share one key object, and a new
    table on a member set already kept takes its ratios from a kept table, so
    the elements are counted once per member set.  A new table replaces the
    store whole, so a reader sees one whole dict and takes no lock; of two
    racing inserts one can be lost, and is built again on a later call.
    """
    members, tables = concept.members, space._tables
    seen, kept_members = space._members
    if members is not seen:
        kept_members = next((key[0] for key in tables if key[0] == members), members)
        space._members = (members, kept_members)
    key = (kept_members, id(expr), thresholds)
    kept = tables.get(key)
    if kept is None:
        ratios = next((tp.ratios for (held, _, _), (_, tp) in tables.items() if held is kept_members), None)
        if ratios is None:
            ratios = tuple(space.block_ratios(concept).values())
        degrees = tuple(expr.evaluate(ratio) for ratio in ratios)
        kept = expr, TriPartition(space, ratios, degrees, tuple(region_of_degree(d, thresholds) for d in degrees))
        tables = {**tables, key: kept}
        if len(tables) > _KEPT_TABLES:
            del tables[next(iter(tables))]
        space._tables = tables
    return kept[1]


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
    pos = tp.pos
    return RoughSetPair(pos, pos | tp.bnd)


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
