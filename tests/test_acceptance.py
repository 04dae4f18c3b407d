"""Acceptance suite: one test per criterion, summarized at the end of the run.

Expected values are frozen from the published worked examples and, where
those are rounded, from an exact-rational re-evaluation of the piecewise
formulas (see ``ORACLES`` in conftest).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from threeway import (
    ApproximationSpace,
    Concept,
    StepExpr,
    Thresholds,
    builtin,
    check_bounds_ordering,
    coincides_with_pawlak,
    delta_regions,
    equivalent_threshold_intervals,
    is_increasing,
    linguistic_regions,
    pawlak_rough_set,
    probabilistic_regions,
    region_bounds,
    relative_cardinality,
    rough_set_from_tripartition,
    sweep_equivalence_oracle,
    verify_equivalence,
)

from conftest import (
    ORACLES,
    block_union,
    community_instance,
    thirty_instance,
    thirty_instance_modified,
    twenty_instance,
)

TH_COMMUNITY = Thresholds(Fraction("0.8"), Fraction("0.2"))


def test_criterion_1_golden_run():
    """32-user run: exact ratios, formula degrees, the three regions, under 1 s."""
    started = time.perf_counter()

    space, sport = community_instance()
    ratios = {space.labels[i]: r for i, r in space.block_ratios(sport).items()}
    assert ratios == {
        "C1": Fraction(0),
        "C2": Fraction(1, 5),
        "C3": Fraction(2, 5),
        "C4": Fraction(3, 5),
        "C5": Fraction(4, 5),
        "C6": Fraction(1, 7),
    }

    not_small = builtin("not_small")
    tp = linguistic_regions(space, sport, not_small, TH_COMMUNITY)
    degree = {label: tp.degrees[block[0]] for label, block in zip(space.labels, space.blocks)}

    assert degree["C1"] == 0.0
    assert degree["C2"] == pytest.approx(0.75, abs=0.01)
    # The degree of the 1/7-ratio block follows the formula at the exact
    # fraction (0.2726...); the published 0.25 is the formula at the rounded
    # input 0.14 and is checked there.
    assert degree["C6"] == pytest.approx(float(ORACLES["not_small"](Fraction(1, 7))), abs=0.01)
    assert not_small.evaluate(Fraction("0.14")) == pytest.approx(0.25, abs=0.01)
    assert degree["C3"] == degree["C4"] == degree["C5"] == 1.0

    assert tp.pos == block_union(space, "C3", "C4", "C5")
    assert tp.neg == block_union(space, "C1")
    assert tp.bnd == block_union(space, "C2", "C6")

    assert time.perf_counter() - started < 1.0


def test_criterion_2_region_bounds():
    """Same run: bounds are exactly (0, 1/7, 1/5, 2/5) and interleave strictly."""
    space, sport = community_instance()
    bounds = region_bounds(space, sport, builtin("not_small"), TH_COMMUNITY)
    assert bounds.as_tuple() == (
        Fraction(0), Fraction(1, 7), Fraction(1, 5), Fraction(2, 5),
    )
    assert check_bounds_ordering(bounds, expr_increasing=True)


def test_criterion_3_equivalence_intervals():
    """Intervals (0.2, 0.4] x [0, 1/7), spot verification, full sweep agreement."""
    space, sport = community_instance()
    expr = builtin("not_small")
    result = equivalent_threshold_intervals(space, sport, expr, TH_COMMUNITY)

    assert result.alpha_interval.lo == Fraction(1, 5)
    assert result.alpha_interval.hi == Fraction(2, 5)
    assert result.alpha_interval.lo_open and not result.alpha_interval.hi_open
    assert result.beta_interval.lo == Fraction(0)
    assert result.beta_interval.hi == Fraction(1, 7)
    assert not result.beta_interval.lo_open and result.beta_interval.hi_open
    assert not result.coupled

    assert verify_equivalence(space, sport, expr, TH_COMMUNITY, Fraction("0.3"), Fraction("0.1"))

    sweep = sweep_equivalence_oracle(space, sport, expr, TH_COMMUNITY)
    mismatches = [
        e for e in sweep.entries if e.equivalent != result.admits(e.alpha, e.beta)
    ]
    assert mismatches == []


def test_criterion_4_twenty_element_instance():
    """Three-class instance: regions, bounds (0, 0.9, 0.9, 1), classical collapse."""
    space, concept = twenty_instance()
    expr = builtin("very_big")
    th = Thresholds(Fraction("0.7"), Fraction("0.3"))

    tp = linguistic_regions(space, concept, expr, th)
    assert tp.pos == block_union(space, "C2")
    assert tp.neg == block_union(space, "C1")
    assert tp.bnd == block_union(space, "C3")

    bounds = region_bounds(space, concept, expr, th)
    assert bounds.as_tuple() == (
        Fraction(0), Fraction(9, 10), Fraction(9, 10), Fraction(1),
    )

    assert coincides_with_pawlak(bounds)
    linguistic_pair = rough_set_from_tripartition(tp)
    classical_pair = pawlak_rough_set(space, concept)
    assert linguistic_pair == classical_pair
    assert linguistic_pair.lower == block_union(space, "C2")
    assert linguistic_pair.upper == block_union(space, "C2", "C3")


def test_criterion_5_crisp_cutoff_and_negative_empty():
    """Cutoff-at-0.5 regions for three threshold pairs; the empty-negative case."""
    space, concept = twenty_instance()
    expected_pos = block_union(space, "C2", "C3")
    expected_neg = block_union(space, "C1")

    direct = delta_regions(space, concept, Fraction(1, 2))
    assert direct.pos == expected_pos
    assert direct.neg == expected_neg
    assert direct.bnd == frozenset()
    for alpha, beta in (("0.7", "0.2"), ("0.9", "0.1"), ("0.45", "0.05")):
        tp = linguistic_regions(
            space, concept, StepExpr(Fraction(1, 2)),
            Thresholds(Fraction(alpha), Fraction(beta)),
        )
        assert tp.pos == expected_pos
        assert tp.neg == expected_neg
        assert tp.bnd == frozenset()

    space30, concept30 = thirty_instance()
    th = Thresholds(Fraction("0.8"), Fraction("0.4"))
    tp30 = linguistic_regions(space30, concept30, builtin("very_big"), th)
    assert tp30.neg == frozenset()
    assert tp30.pos == block_union(space30, "C1", "C2")
    assert tp30.bnd == block_union(space30, "C3")

    result = equivalent_threshold_intervals(space30, concept30, builtin("very_big"), th)
    assert result.beta_interval.lo == Fraction(0)
    assert result.beta_interval.hi == Fraction(9, 10)
    assert result.beta_interval.hi_open and not result.beta_interval.lo_open
    assert result.alpha_interval.lo == Fraction(9, 10)
    assert result.alpha_interval.hi == Fraction(1)
    assert result.alpha_interval.lo_open and not result.alpha_interval.hi_open

    assert result.admits(Fraction("0.95"), Fraction("0.8"))
    assert verify_equivalence(
        space30, concept30, builtin("very_big"), th, Fraction("0.95"), Fraction("0.8")
    )


def test_criterion_6_positive_empty_case():
    """Modified 30-element instance: empty positive region, intervals, spot check."""
    space, concept = thirty_instance_modified()
    expr = builtin("very_big")
    th = Thresholds(Fraction("0.7"), Fraction("0.2"))

    tp = linguistic_regions(space, concept, expr, th)
    assert tp.pos == frozenset()
    assert tp.neg == block_union(space, "C1", "C2")
    assert tp.bnd == block_union(space, "C3")

    result = equivalent_threshold_intervals(space, concept, expr, th)
    assert result.beta_interval.lo == Fraction(1, 2)
    assert result.beta_interval.hi == Fraction(9, 10)
    assert not result.beta_interval.lo_open and result.beta_interval.hi_open
    assert result.alpha_interval.lo == Fraction(9, 10)
    assert result.alpha_interval.hi == Fraction(1)
    assert result.alpha_interval.lo_open and not result.alpha_interval.hi_open

    assert result.admits(Fraction("0.95"), Fraction("0.6"))
    assert verify_equivalence(space, concept, expr, th, Fraction("0.95"), Fraction("0.6"))


def _random_instance(rng: random.Random) -> tuple[ApproximationSpace, Concept]:
    n = rng.randint(1, 40)
    k = rng.randint(1, 8)
    ids = [f"e{i}" for i in range(n)]
    groups: dict[int, list[str]] = {}
    for element in ids:
        groups.setdefault(rng.randrange(k), []).append(element)
    space = ApproximationSpace(ids, groups.values())
    density = rng.random()
    members = frozenset(e for e in ids if rng.random() < density)
    return space, Concept(members)


# Inputs where each expression's output is strictly between 0 and 1; block
# ratios aimed here make three-region outcomes common instead of rare.
_RATIO_WINDOWS = {
    "not_small": (0.08, 0.27),
    "very_big": (0.84, 0.95),
    "extremely_big": (0.89, 0.99),
}


def _windowed_instance(
    rng: random.Random, expr_name: str
) -> tuple[ApproximationSpace, Concept]:
    lo, hi = _RATIO_WINDOWS.get(expr_name, (0.2, 0.8))
    k = rng.randint(3, 6)
    sizes = [rng.randint(2, 40 // k) for _ in range(k)]
    ids: list[str] = []
    blocks: list[list[str]] = []
    members: set[str] = set()
    for size in sizes:
        block = [f"e{len(ids) + j}" for j in range(size)]
        ids.extend(block)
        blocks.append(block)
        style = rng.choice(("zero", "one", "window", "uniform"))
        if style == "zero":
            hits = 0
        elif style == "one":
            hits = size
        elif style == "window":
            hits = min(size, max(0, round(rng.uniform(lo, hi) * size)))
        else:
            hits = rng.randint(0, size)
        members.update(block[:hits])
    return ApproximationSpace(ids, blocks), Concept(frozenset(members))


def _random_thresholds(rng: random.Random, straddling: bool = False) -> Thresholds:
    if straddling:
        beta_twentieths = rng.randint(0, 8)
        alpha_twentieths = rng.randint(max(beta_twentieths + 1, 12), 20)
    else:
        alpha_twentieths = rng.randint(1, 20)
        beta_twentieths = rng.randint(0, alpha_twentieths - 1)
    return Thresholds(Fraction(alpha_twentieths, 20), Fraction(beta_twentieths, 20))


def test_criterion_7_randomized_property_suite():
    """1000 fixed-seed instances (|U| <= 40, <= 8 blocks), all invariants, under 60 s."""
    started = time.perf_counter()
    rng = random.Random(20250810)
    expressions = [
        builtin("not_small"),
        builtin("very_big"),
        builtin("extremely_big"),
    ]
    agreement_checks = 0
    ordering_checks = 0

    for trial in range(1000):
        expr = expressions[trial % 3] if trial % 4 else StepExpr(Fraction(rng.randint(0, 4), 4))
        focused = trial % 5 < 2
        if focused:
            space, concept = _windowed_instance(rng, getattr(expr, "name", ""))
        else:
            space, concept = _random_instance(rng)
        universe = frozenset(space.elements)
        th = _random_thresholds(rng, straddling=focused)

        tp = linguistic_regions(space, concept, expr, th)

        # tri-partition axioms and block granularity
        assert tp.pos | tp.neg | tp.bnd == universe
        assert not tp.pos & tp.neg and not tp.pos & tp.bnd and not tp.neg & tp.bnd
        for block in space.blocks:
            assert len({tp.region_of(e) for e in block}) == 1

        # size-measure axioms on a random chain of subsets
        sub = frozenset(e for e in concept.members if rng.random() < 0.5)
        assert relative_cardinality(frozenset(), universe) == 0
        assert relative_cardinality(universe, universe) == 1
        assert (
            relative_cardinality(sub, universe)
            <= relative_cardinality(concept.members, universe)
            <= 1
        )

        # strict bound interleaving whenever all three regions showed up,
        # and every bound is a ratio some block actually attains
        if not tp.empty_regions:
            bounds = region_bounds(space, concept, expr, th)
            assert check_bounds_ordering(bounds, expr_increasing=True)
            attained = set(space.block_ratios(concept).values())
            assert set(bounds.as_tuple()) <= attained
            ordering_checks += 1

        # crisp cutoffs ignore the threshold pair entirely
        cutoff = Fraction(rng.randint(0, 8), 8)
        direct = delta_regions(space, concept, cutoff)
        for _ in range(3):
            other = _random_thresholds(rng)
            via = linguistic_regions(space, concept, StepExpr(cutoff), other)
            assert direct.same_regions(via)

        # the (1, 0) probabilistic pair reproduces the classical rough set
        crisp = probabilistic_regions(space, concept, Thresholds(Fraction(1), Fraction(0)))
        assert rough_set_from_tripartition(crisp) == pawlak_rough_set(space, concept)

        # interval characterization vs. the sweep's separate decision
        if len(tp.empty_regions) <= 1:
            result = equivalent_threshold_intervals(space, concept, expr, th)
            sweep = sweep_equivalence_oracle(space, concept, expr, th)
            assert sweep.agrees_with(result)
            agreement_checks += 1

    assert agreement_checks >= 200
    assert ordering_checks >= 50
    assert time.perf_counter() - started < 60.0


def test_criterion_8_builtin_function_checks():
    """Range, boundary values, breakpoint gaps, monotonicity at grid 1e-3."""
    for name in ("not_small", "very_big", "extremely_big"):
        expr = builtin(name)

        for k in range(0, 1001):
            x = Fraction(k, 1000)
            value = expr.evaluate(x)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(float(ORACLES[name](x)), abs=1e-12)

        assert expr.evaluate(0) == 0.0
        assert expr.evaluate(1) == 1.0

        for left, right in zip(expr.segments, expr.segments[1:]):
            assert abs(left.value(left.hi) - right.value(right.lo)) <= 0.02

        assert is_increasing(expr, Fraction(1, 1000))
