"""Region bounds, threshold-equivalence intervals, and the sweep that decides them a second way."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from threeway import (
    BUILTIN_NAMES,
    ApproximationSpace,
    Concept,
    DegenerateRegionsError,
    EmptinessCase,
    ExpressionError,
    IdentityExpr,
    Interval,
    NonMonotoneExpressionError,
    RegionBounds,
    StepExpr,
    SweepResult,
    ThresholdEquivalence,
    ThresholdError,
    Thresholds,
    TriPartition,
    builtin,
    candidate_thresholds,
    check_bounds_ordering,
    coincides_with_pawlak,
    delta_regions,
    equivalent_threshold_intervals,
    is_increasing,
    linguistic_regions,
    pawlak_rough_set,
    probabilistic_regions,
    region_bounds,
    report,
    rough_set_from_tripartition,
    sweep_equivalence_oracle,
    verify_equivalence,
)

from threeway import equivalence as eq_module
from threeway.equivalence import SweepEntry, first_difference, format_endpoint, intervals_of, sweep_of
from threeway.expressions import display_name
from threeway.regions import REGION_NAMES

from conftest import (
    DIP_THRESHOLDS,
    block_union,
    community_instance,
    dip_instance,
    reference_candidates,
    reference_sweep,
    reference_table_sweep,
    reference_verdicts,
    thirty_instance,
    thirty_instance_modified,
    twenty_instance,
)
from test_expressions import MEDIUM_HUMP, SMALL_LIKE, Counting
from test_regions import spaces_with_concepts, threshold_pairs

TH_COMMUNITY = Thresholds(Fraction("0.8"), Fraction("0.2"))
TH_TWENTY = Thresholds(Fraction("0.7"), Fraction("0.3"))

SWEEP_EXPRESSIONS = st.one_of(
    st.sampled_from([
        builtin("not_small"), builtin("very_big"), builtin("extremely_big"),
        MEDIUM_HUMP, SMALL_LIKE, IdentityExpr(),
    ]),
    st.builds(StepExpr, st.fractions(min_value=0, max_value=1, max_denominator=8)),
)


@st.composite
def shared_ratio_instances(draw):
    """Up to 8 blocks; some repeat an earlier block's ratio at the same or double size."""
    shapes: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if shapes and draw(st.booleans()):
            size, hits = draw(st.sampled_from(shapes))
            scale = draw(st.integers(min_value=1, max_value=2))
            shapes.append((size * scale, hits * scale))
        else:
            size = draw(st.integers(min_value=1, max_value=10))
            shapes.append((size, draw(st.integers(min_value=0, max_value=size))))
    blocks, members = [], []
    for b, (size, hits) in enumerate(shapes):
        block = [f"b{b}e{i}" for i in range(size)]
        blocks.append(block)
        members.extend(block[:hits])
    elements = [e for block in blocks for e in block]
    return ApproximationSpace(elements, blocks), Concept(frozenset(members))


@st.composite
def large_block_instances(draw):
    """Blocks of 100 to 3,000 elements, past the ~88 that the built-ins' dips need.

    Up to three such blocks, plus one singleton outside the concept and one
    inside it, so that no built-in leaves two regions empty.  Every other
    draw adds a pair straddling the 2.6e-4 dip of "not small" at 0.16: a
    block at exactly 4/25 and one at (4q + 1)/(25q + 6) = 0.16 + 1/(25(25q + 6)),
    which for q >= 80 lies inside the dip window and under ``DIP_THRESHOLDS``
    lands in the boundary while 4/25 is accepted.
    """
    shapes = [(1, 0), (1, 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        size = draw(st.integers(min_value=100, max_value=3000))
        shapes.append((size, draw(st.integers(min_value=0, max_value=size))))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=4, max_value=40))
        q = draw(st.integers(min_value=80, max_value=119))
        shapes += [(25 * j, 4 * j), (25 * q + 6, 4 * q + 1)]
    blocks, members = [], []
    for b, (size, hits) in enumerate(shapes):
        block = [f"b{b}e{i}" for i in range(size)]
        blocks.append(block)
        members.extend(block[:hits])
    elements = [e for block in blocks for e in block]
    return ApproximationSpace(elements, blocks), Concept(frozenset(members))


def block_table(ratios, regions) -> TriPartition:
    """A tri-partition of one-element blocks ``B0``, ``B1``, ... with the given ratios and regions."""
    ids = [f"e{i}" for i in range(len(ratios))]
    space = ApproximationSpace(ids, [[e] for e in ids], labels=[f"B{i}" for i in range(len(ids))])
    return TriPartition(space, tuple(ratios), tuple(ratios), tuple(regions))


@st.composite
def block_tables(draw):
    """Ratios and regions drawn independently, so no expression filters the region order.

    The ends 0 and 1 are drawn more often, since only there can a block sit
    where no threshold pair puts it.
    """
    size = draw(st.integers(min_value=1, max_value=7))
    ratios = st.one_of(st.sampled_from((Fraction(0), Fraction(1))),
                       st.sampled_from(sorted({Fraction(n, d) for d in range(1, 7) for n in range(d + 1)})))
    return block_table(draw(st.lists(ratios, min_size=size, max_size=size)),
                       draw(st.lists(st.sampled_from(REGION_NAMES), min_size=size, max_size=size)))


def cut_reference(tp: TriPartition, expr, upper: tuple[str, ...]):
    """A threshold cut of the block table, kept as the reference for ``intervals_of``.

    The highest block below the cut and the lowest above it, each ``(ratio,
    block index)``, the blocks above being those whose region is in ``upper``.
    A side with no block reads as ``(0, None)`` below and ``(1, None)`` above;
    on equal ratios the block below is the highest index and the block above
    the lowest.  Refuses when the side below has a ratio at or above the side
    above's.
    """
    table = tuple(zip(tp.ratios, range(len(tp.ratios)), tp.block_regions))
    below = max(((r, i) for r, i, region in table if region not in upper), default=(Fraction(0), None))
    above = min(((r, i) for r, i, region in table if region in upper), default=(Fraction(1), None))
    if below[0] >= above[0]:
        (low_ratio, low), (high_ratio, high) = below, above
        labels, regions = tp.space.labels, tp.block_regions
        if low is None or high is None:
            ratio, index = above if low is None else below
            bound, region = ("beta' >= 0", "neg") if low is None else ("alpha' <= 1", "pos")
            why = (f"puts block {labels[index]!r} (ratio {format_endpoint(ratio)}) in the "
                   f"{regions[index]!r} region, but every {bound} puts ratio {ratio} in the {region!r} region")
        else:
            why = (f"is not increasing on the attained ratios: block {labels[low]!r} (ratio "
                   f"{format_endpoint(low_ratio)}) is in the {regions[low]!r} region but block "
                   f"{labels[high]!r} (ratio {format_endpoint(high_ratio)}) "
                   f"is in the {regions[high]!r} region")
        raise NonMonotoneExpressionError(
            f"expression {display_name(expr)!r} {why}; no probabilistic threshold pair reproduces these regions"
        )
    return below, above


def reference_intervals(tp: TriPartition, expr) -> ThresholdEquivalence:
    """The intervals read off two :func:`cut_reference` cuts, the beta' cut first."""
    empty = tp.empty_regions
    if len(empty) >= 2:
        present = next(name for name in ("pos", "neg", "bnd") if name not in empty)
        raise DegenerateRegionsError(
            f"only the {present!r} region is non-empty (it covers the whole universe); "
            "the threshold characterization needs at least two non-empty regions"
        )
    neg_top, rest_bottom = cut_reference(tp, expr, ("bnd", "pos"))
    rest_top, pos_bottom = cut_reference(tp, expr, ("pos",))
    return ThresholdEquivalence(
        case=EmptinessCase(f"{empty[0]}_empty" if empty else "all_nonempty"),
        alpha_interval=Interval(rest_top[0], pos_bottom[0], True, False),
        beta_interval=Interval(neg_top[0], rest_bottom[0], False, True),
    )


WITNESSES = re.compile(r"block '(B\d+)' \(ratio [^)]*\) is in the '(\w+)' region "
                       r"but block '(B\d+)' \(ratio [^)]*\) is in the '(\w+)' region")
BOUND_WITNESS = re.compile(r"puts block '(B\d+)' \(ratio [^)]*\) in the '(\w+)' region, "
                          r"but every (?:alpha' <= 1|beta' >= 0) puts ratio ([01]) in the '(\w+)' region")


AGREEMENT_CASES = [
    (community_instance, builtin("not_small"), TH_COMMUNITY, EmptinessCase.ALL_NONEMPTY),
    (twenty_instance, StepExpr(Fraction(1, 2)), Thresholds(Fraction("0.7"), Fraction("0.2")),
     EmptinessCase.BND_EMPTY),
    (thirty_instance, builtin("very_big"), Thresholds(Fraction("0.8"), Fraction("0.4")),
     EmptinessCase.NEG_EMPTY),
    (thirty_instance_modified, builtin("very_big"), Thresholds(Fraction("0.7"), Fraction("0.2")),
     EmptinessCase.POS_EMPTY),
]


def admits_every_entry(sweep: SweepResult, equivalence) -> bool:
    return all(e.equivalent == equivalence.admits(e.alpha, e.beta) for e in sweep.entries)


@st.composite
def tampered_sweeps(draw):
    """Two intervals, and increasing candidates whose verdict vectors are the intervals' own with a few flips.

    A flip that no pair reads leaves the pair table as it was, so a sweep may
    agree with the intervals without having their vectors.
    """
    values = sorted({Fraction(n, d) for d in range(1, 7) for n in range(d + 1)})
    candidates = tuple(sorted(draw(st.lists(st.sampled_from(values), min_size=1, max_size=9, unique=True))))
    intervals, vectors = [], []
    for _ in range(2):
        lo, hi = sorted(draw(st.lists(st.sampled_from(values), min_size=2, max_size=2)))
        opens = (False, False) if lo == hi else draw(st.tuples(st.booleans(), st.booleans()))
        intervals.append(Interval(lo, hi, *opens))
        vector = [intervals[-1].contains(t) for t in candidates]
        for flip in draw(st.lists(st.integers(0, len(candidates) - 1), max_size=2)):
            vector[flip] = not vector[flip]
        vectors.append(tuple(vector))
    return SweepResult(candidates, *vectors), ThresholdEquivalence(EmptinessCase.ALL_NONEMPTY, *intervals)


class TestRegionBounds:
    def test_community_not_small(self, community):
        space, sport = community
        bounds = region_bounds(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert bounds.as_tuple() == (
            Fraction(0), Fraction(1, 7), Fraction(1, 5), Fraction(2, 5),
        )

    def test_twenty_very_big(self, twenty):
        space, concept = twenty
        bounds = region_bounds(space, concept, builtin("very_big"), TH_TWENTY)
        assert bounds.as_tuple() == (
            Fraction(0), Fraction(9, 10), Fraction(9, 10), Fraction(1),
        )

    def test_thirty_negative_empty(self, thirty):
        space, concept = thirty
        bounds = region_bounds(space, concept, builtin("very_big"),
                               Thresholds(Fraction("0.8"), Fraction("0.4")))
        assert bounds.neg_max is None
        assert bounds.bnd_min == Fraction(9, 10)
        assert bounds.bnd_max == Fraction(9, 10)
        assert bounds.pos_min == Fraction(1)

    def test_crisp_cutoff_boundary_absent(self, twenty):
        space, concept = twenty
        bounds = region_bounds(space, concept, StepExpr(Fraction(1, 2)),
                               Thresholds(Fraction("0.7"), Fraction("0.2")))
        assert bounds.neg_max == Fraction(0)
        assert bounds.bnd_min is None
        assert bounds.bnd_max is None
        assert bounds.pos_min == Fraction(9, 10)

    def test_bounds_are_attained(self, community):
        space, sport = community
        bounds = region_bounds(space, sport, builtin("not_small"), TH_COMMUNITY)
        ratios = set(space.block_ratios(sport).values())
        for value in bounds.as_tuple():
            assert value in ratios


class TestBoundsOrdering:
    def test_golden_ordering(self, community):
        space, sport = community
        bounds = region_bounds(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert check_bounds_ordering(bounds, expr_increasing=True)

    def test_all_zero_fails_strictness(self):
        zeros = RegionBounds(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        assert not check_bounds_ordering(zeros, expr_increasing=True)

    def test_missing_bound_rejected(self):
        partial = RegionBounds(Fraction(0), None, None, Fraction(1))
        with pytest.raises(ValueError, match="all four bounds"):
            check_bounds_ordering(partial, expr_increasing=True)

    def test_requires_increasing_flag(self, community):
        space, sport = community
        bounds = region_bounds(space, sport, builtin("not_small"), TH_COMMUNITY)
        with pytest.raises(ValueError, match="increasing"):
            check_bounds_ordering(bounds, expr_increasing=False)


class TestInterval:
    def test_endpoint_semantics(self):
        half_open = Interval(Fraction(1, 5), Fraction(2, 5), True, False)
        assert half_open.contains(Fraction(2, 5))
        assert not half_open.contains(Fraction(1, 5))
        assert half_open.contains(Fraction(3, 10))
        left_closed = Interval(Fraction(0), Fraction(1, 7), False, True)
        assert left_closed.contains(0)
        assert not left_closed.contains(Fraction(1, 7))

    def test_rendering(self):
        assert str(Interval(Fraction(1, 5), Fraction(2, 5), True, False)) == (
            "(1/5 ≈ 0.2, 2/5 ≈ 0.4]"
        )

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0), False, False)

    @pytest.mark.parametrize("lo_open, hi_open", [(True, False), (False, True), (True, True)])
    def test_empty_rejected(self, lo_open, hi_open):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(Fraction(1, 2), Fraction(1, 2), lo_open, hi_open)

    def test_closed_point_accepted(self):
        point = Interval(Fraction(1, 2), Fraction(1, 2), False, False)
        assert point.contains(Fraction(1, 2))
        assert not point.contains(Fraction(1, 3)) and not point.contains(Fraction(2, 3))


class TestEquivalentIntervals:
    def test_all_nonempty_case(self, community):
        space, sport = community
        result = equivalent_threshold_intervals(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert result.case is EmptinessCase.ALL_NONEMPTY
        assert not result.coupled
        assert result.alpha_interval == Interval(Fraction(1, 5), Fraction(2, 5), True, False)
        assert result.beta_interval == Interval(Fraction(0), Fraction(1, 7), False, True)

    def test_boundary_empty_coupled_case(self, twenty):
        space, concept = twenty
        result = equivalent_threshold_intervals(
            space, concept, StepExpr(Fraction(1, 2)), Thresholds(Fraction("0.7"), Fraction("0.2"))
        )
        assert result.case is EmptinessCase.BND_EMPTY
        assert result.coupled
        assert result.alpha_interval.lo == Fraction(0)
        assert result.alpha_interval.hi == Fraction(9, 10)
        assert result.admits(Fraction(9, 10), Fraction(0))
        assert result.admits(Fraction(1, 2), Fraction(1, 4))
        assert not result.admits(Fraction(19, 20), Fraction(0))
        assert not result.admits(Fraction(1, 2), Fraction(1, 2))

    def test_negative_empty_case(self, thirty):
        space, concept = thirty
        result = equivalent_threshold_intervals(
            space, concept, builtin("very_big"), Thresholds(Fraction("0.8"), Fraction("0.4"))
        )
        assert result.case is EmptinessCase.NEG_EMPTY
        assert result.beta_interval == Interval(Fraction(0), Fraction(9, 10), False, True)
        assert result.alpha_interval == Interval(Fraction(9, 10), Fraction(1), True, False)
        assert result.admits(Fraction("0.95"), Fraction("0.8"))

    def test_positive_empty_case(self, thirty_modified):
        space, concept = thirty_modified
        result = equivalent_threshold_intervals(
            space, concept, builtin("very_big"), Thresholds(Fraction("0.7"), Fraction("0.2"))
        )
        assert result.case is EmptinessCase.POS_EMPTY
        assert result.beta_interval == Interval(Fraction(1, 2), Fraction(9, 10), False, True)
        assert result.alpha_interval == Interval(Fraction(9, 10), Fraction(1), True, False)
        assert result.admits(Fraction("0.95"), Fraction("0.6"))

    def test_non_monotone_rejected(self, community):
        space, sport = community
        with pytest.raises(NonMonotoneExpressionError):
            equivalent_threshold_intervals(space, sport, MEDIUM_HUMP, TH_COMMUNITY)

    def test_degenerate_rejected(self, community):
        space, _ = community
        everyone = Concept(frozenset(space.elements), label="U")
        with pytest.raises(DegenerateRegionsError, match="non-empty"):
            equivalent_threshold_intervals(space, everyone, builtin("not_small"), TH_COMMUNITY)

    def test_degenerate_all_rejected_on_empty_concept(self):
        space, _ = community_instance()
        nothing = Concept(frozenset(), label="nothing")
        with pytest.raises(DegenerateRegionsError):
            equivalent_threshold_intervals(space, nothing, builtin("not_small"), TH_COMMUNITY)

    def test_dip_between_attained_ratios_refused(self):
        space, concept = dip_instance()
        expr = builtin("not_small")
        assert is_increasing(expr)
        with pytest.raises(NonMonotoneExpressionError,
                           match=r"block 'B' \(ratio 321/2006 .*block 'A' \(ratio 4/25"):
            equivalent_threshold_intervals(space, concept, expr, DIP_THRESHOLDS)

    def test_two_pairs_out_of_order_name_the_beta_cut(self):
        # neg 1/2 < bnd 3/5 is in order, but both lie above pos 0; the beta' cut
        # (highest neg block against lowest bnd-or-pos block) is checked first
        tp = block_table([Fraction(1, 2), Fraction(3, 5), Fraction(0)], ["neg", "bnd", "pos"])
        with pytest.raises(NonMonotoneExpressionError,
                           match=r"block 'B0' \(ratio 1/2 ≈ 0\.5\) is in the 'neg' region "
                                 r"but block 'B2' \(ratio 0\) is in the 'pos' region"):
            intervals_of(tp, IdentityExpr())

    def test_equal_ratios_name_the_outermost_blocks(self):
        # below the cut the highest index wins a tie, above it the lowest
        tp = block_table([Fraction(1, 2)] * 4, ["bnd", "pos", "bnd", "pos"])
        with pytest.raises(NonMonotoneExpressionError, match=r"block 'B2' .* but block 'B1' "):
            intervals_of(tp, IdentityExpr())

    def test_admitted_pairs_respect_strict_order(self, community):
        space, sport = community
        result = equivalent_threshold_intervals(space, sport, builtin("not_small"), TH_COMMUNITY)
        for alpha in candidate_thresholds(list(space.block_ratios(sport).values())):
            for beta in candidate_thresholds(list(space.block_ratios(sport).values())):
                if result.admits(alpha, beta):
                    assert beta < alpha


class TestVerifyEquivalence:
    def test_inside_pair_passes(self, community):
        space, sport = community
        assert verify_equivalence(
            space, sport, builtin("not_small"), TH_COMMUNITY, Fraction("0.3"), Fraction("0.1")
        )

    def test_outside_pair_fails(self, community):
        space, sport = community
        assert not verify_equivalence(
            space, sport, builtin("not_small"), TH_COMMUNITY, Fraction("0.5"), Fraction("0.1")
        )
        # the failure is real: at alpha'=0.5 the 2/5-ratio block leaves the
        # positive region
        tp = probabilistic_regions(space, sport, Thresholds(Fraction("0.5"), Fraction("0.1")))
        assert tp.pos == block_union(space, "C4", "C5")
        assert tp.bnd == block_union(space, "C2", "C3", "C6")

    @given(spaces_with_concepts(), threshold_pairs())
    def test_identity_same_thresholds_always_passes(self, space_concept, thresholds):
        space, concept = space_concept
        assert verify_equivalence(
            space, concept, IdentityExpr(), thresholds, thresholds.alpha, thresholds.beta
        )

    def test_validates_probe_order(self, community):
        space, sport = community
        with pytest.raises(Exception):
            verify_equivalence(space, sport, builtin("not_small"), TH_COMMUNITY,
                               Fraction("0.1"), Fraction("0.3"))

    def test_bad_probe_is_reported_before_a_stray_member(self, community):
        space, _ = community
        stray = Concept(frozenset({"u1", "ghost"}), label="stray")
        with pytest.raises(ThresholdError):
            verify_equivalence(space, stray, builtin("not_small"), TH_COMMUNITY,
                               Fraction("0.1"), Fraction("0.3"))

    def test_builds_one_table(self, community, monkeypatch):
        calls = []
        original = ApproximationSpace.block_ratios
        monkeypatch.setattr(ApproximationSpace, "block_ratios",
                            lambda space, concept: calls.append(concept) or original(space, concept))
        space, sport = community
        assert not verify_equivalence(space, sport, builtin("not_small"), TH_COMMUNITY,
                                      Fraction("0.5"), Fraction("0.1"))
        assert calls == [sport]

    def test_first_difference_names_the_block(self, community):
        space, sport = community
        tp = linguistic_regions(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert first_difference(tp, Thresholds(Fraction("0.3"), Fraction("0.1"))) is None
        idx = first_difference(tp, Thresholds(Fraction("0.5"), Fraction("0.1")))
        assert space.labels[idx] == "C3"
        assert tp.block_regions[idx] == "pos"

    @given(spaces_with_concepts(), SWEEP_EXPRESSIONS, threshold_pairs(), st.data())
    def test_matches_the_two_table_route(self, space_concept, expr, thresholds, data):
        space, concept = space_concept
        candidates = candidate_thresholds(space.block_ratios(concept).values())
        beta_p, alpha_p = sorted(data.draw(
            st.lists(st.sampled_from(candidates), min_size=2, max_size=2, unique=True)))
        reference = linguistic_regions(space, concept, expr, thresholds).same_regions(
            probabilistic_regions(space, concept, Thresholds(alpha_p, beta_p)))
        assert verify_equivalence(space, concept, expr, thresholds, alpha_p, beta_p) == reference


class TestSweep:
    def test_candidate_set(self, community):
        space, sport = community
        ratios = list(space.block_ratios(sport).values())
        candidates = candidate_thresholds(ratios)
        expected = (
            Fraction(0), Fraction(1, 14), Fraction(1, 7), Fraction(6, 35),
            Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(1, 2),
            Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(1),
        )
        assert candidates == expected

    @settings(max_examples=300)
    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**6), max_size=12)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=16) if pool else st.just([]))
           .flatmap(lambda ratios: st.sampled_from([ratios, [Fraction(0), *ratios], [*ratios, Fraction(1)],
                                                   [Fraction(1), *ratios, Fraction(0)]])))
    @example([Fraction(1, 3)])
    @example([Fraction(0), Fraction(0)])
    @example([Fraction(1), Fraction(999_999, 1_000_000), Fraction(999_998, 999_999)])
    def test_candidates_equal_the_fraction_set_construction(self, ratios):
        # duplicates come from drawing the ratios out of a smaller pool
        assert candidate_thresholds(ratios) == reference_candidates(ratios)

    def test_community_verdicts(self, community):
        space, sport = community
        sweep = sweep_equivalence_oracle(space, sport, builtin("not_small"), TH_COMMUNITY)
        admitted = {(e.alpha, e.beta) for e in sweep.admitted()}
        assert admitted == {
            (Fraction(3, 10), Fraction(0)),
            (Fraction(3, 10), Fraction(1, 14)),
            (Fraction(2, 5), Fraction(0)),
            (Fraction(2, 5), Fraction(1, 14)),
        }

    def test_community_agrees_with_intervals(self, community):
        space, sport = community
        sweep = sweep_equivalence_oracle(space, sport, builtin("not_small"), TH_COMMUNITY)
        intervals = equivalent_threshold_intervals(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert sweep.agrees_with(intervals)

    def test_twenty_very_big_agrees(self, twenty):
        space, concept = twenty
        sweep = sweep_equivalence_oracle(space, concept, builtin("very_big"), TH_TWENTY)
        intervals = equivalent_threshold_intervals(space, concept, builtin("very_big"), TH_TWENTY)
        assert sweep.agrees_with(intervals)
        alphas = {e.alpha for e in sweep.admitted()}
        betas = {e.beta for e in sweep.admitted()}
        assert alphas == {Fraction(19, 20), Fraction(1)}
        assert betas == {Fraction(0), Fraction(9, 20)}

    def test_singleton_blocks_empty_concept(self):
        ids = [f"e{i}" for i in range(5)]
        space_single = ApproximationSpace(ids, [[e] for e in ids])
        nothing = Concept(frozenset(), label="nothing")
        sweep = sweep_equivalence_oracle(
            space_single, nothing, builtin("not_small"), Thresholds(Fraction(1, 2), Fraction(1, 4))
        )
        # every ratio is 0, both routes reject everything, so every candidate
        # pair reproduces the regions
        assert sweep.entries
        assert all(e.equivalent for e in sweep.entries)

    def test_no_monotonicity_requirement(self, community):
        space, sport = community
        sweep = sweep_equivalence_oracle(space, sport, MEDIUM_HUMP, TH_COMMUNITY)
        assert sweep.entries

    @given(shared_ratio_instances(), SWEEP_EXPRESSIONS, threshold_pairs())
    def test_matches_element_level_reference(self, space_concept, expr, thresholds):
        space, concept = space_concept
        sweep = sweep_equivalence_oracle(space, concept, expr, thresholds)
        reference = reference_sweep(space, concept, expr, thresholds)
        assert (sweep.candidates, tuple(sweep.entries)) == reference

    @pytest.mark.parametrize("expr", [MEDIUM_HUMP, SMALL_LIKE, IdentityExpr(), builtin("not_small")])
    def test_shared_ratios_match_reference(self, expr):
        ids = [f"e{i}" for i in range(24)]
        blocks = [ids[0:2], ids[2:6], ids[6:10], ids[10:20], ids[20:24]]
        # ratios 1/2, 1/2, 1/4, 1/10, 3/4
        concept = Concept(frozenset(ids[0:1] + ids[2:4] + ids[6:7] + ids[10:11] + ids[20:23]))
        space = ApproximationSpace(ids, blocks)
        th = Thresholds(Fraction("0.6"), Fraction("0.05"))
        sweep = sweep_equivalence_oracle(space, concept, expr, th)
        assert (sweep.candidates, tuple(sweep.entries)) == reference_sweep(space, concept, expr, th)

    def test_dip_instance_admits_nothing(self):
        space, concept = dip_instance()
        sweep = sweep_equivalence_oracle(space, concept, builtin("not_small"), DIP_THRESHOLDS)
        assert sweep.entries
        assert sweep.admitted() == ()
        reference = reference_sweep(space, concept, builtin("not_small"), DIP_THRESHOLDS)
        assert (sweep.candidates, tuple(sweep.entries)) == reference


    @settings(max_examples=50)
    @given(
        large_block_instances(),
        st.sampled_from([builtin(name) for name in BUILTIN_NAMES] + [MEDIUM_HUMP, SMALL_LIKE]),
        st.one_of(st.just(DIP_THRESHOLDS), threshold_pairs()),
    )
    def test_large_blocks_refuse_or_agree(self, space_concept, expr, thresholds):
        # the non-increasing expressions may also empty two regions
        space, concept = space_concept
        try:
            equivalence = equivalent_threshold_intervals(space, concept, expr, thresholds)
        except (NonMonotoneExpressionError, DegenerateRegionsError):
            return
        assert sweep_equivalence_oracle(space, concept, expr, thresholds).agrees_with(equivalence)

    @given(shared_ratio_instances(), SWEEP_EXPRESSIONS, threshold_pairs())
    def test_refusal_means_no_pair_works(self, space_concept, expr, thresholds):
        # whether the expression is increasing plays no part: only region order does
        space, concept = space_concept
        sweep = sweep_equivalence_oracle(space, concept, expr, thresholds)
        try:
            equivalence = equivalent_threshold_intervals(space, concept, expr, thresholds)
        except DegenerateRegionsError:
            return
        except NonMonotoneExpressionError:
            assert sweep.admitted() == ()
            return
        assert sweep.agrees_with(equivalence)


class TestArbitraryBlockTables:
    """Region orders that no expression produces, read off tables built directly."""

    @settings(max_examples=200)
    @given(block_tables())
    # a bnd block at ratio 1 with pos empty, and at ratio 0 with neg empty
    @example(block_table([Fraction(1), Fraction(0)], ["bnd", "neg"]))
    @example(block_table([Fraction(0), Fraction(1)], ["bnd", "pos"]))
    def test_refuses_or_agrees_with_the_sweep(self, tp):
        sweep = sweep_of(tp)
        if len(tp.empty_regions) >= 2:
            with pytest.raises(DegenerateRegionsError):
                intervals_of(tp, IdentityExpr())
            return
        try:
            equivalence = intervals_of(tp, IdentityExpr())
        except NonMonotoneExpressionError as exc:
            assert sweep.admitted() == ()
            bound = BOUND_WITNESS.search(str(exc))
            if bound:  # a block at ratio 0 or 1 kept out of the empty region every pair puts it in
                label, region, ratio, bound_region = bound.groups()
                index = int(label[1:])
                assert tp.block_regions[index] == region != bound_region
                assert bound_region in tp.empty_regions
                assert tp.ratios[index] == int(ratio) == {"neg": 0, "pos": 1}[bound_region]
                return
            low, low_region, high, high_region = WITNESSES.search(str(exc)).groups()
            low, high = int(low[1:]), int(high[1:])
            assert (tp.block_regions[low], tp.block_regions[high]) == (low_region, high_region)
            order = ("neg", "bnd", "pos")
            assert order.index(low_region) < order.index(high_region)
            assert tp.ratios[low] >= tp.ratios[high]
            return
        # every characterization it returns admits a pair
        assert sweep.admitted() != ()
        assert sweep.agrees_with(equivalence)

    @settings(max_examples=300)
    @given(block_tables())
    def test_both_verdict_vectors_equal_the_reference(self, tp):
        sweep = sweep_of(tp)
        assert (sweep.candidates, sweep.alpha_ok, sweep.beta_ok) == reference_verdicts(tp)


class TestIntervalsReference:
    """The intervals read off the bounds equal those read off the two cuts, refusals included."""

    @settings(max_examples=300)
    @given(block_tables())
    @example(block_table([Fraction(1), Fraction(0)], ["bnd", "neg"]))
    @example(block_table([Fraction(0), Fraction(1)], ["bnd", "pos"]))
    # two blocks out of order at the alpha' cut, and tied blocks at ratio 1 with pos empty
    @example(block_table([Fraction(2, 3), Fraction(1, 3), Fraction(0)], ["bnd", "pos", "neg"]))
    @example(block_table([Fraction(1), Fraction(1), Fraction(0)], ["bnd", "bnd", "neg"]))
    def test_same_intervals_or_refusal(self, tp):
        try:
            expected = reference_intervals(tp, IdentityExpr())
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                intervals_of(tp, IdentityExpr())
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        assert repr(intervals_of(tp, IdentityExpr())) == repr(expected)


class TestAgreesWith:
    @pytest.mark.parametrize("make, expr, th, case", AGREEMENT_CASES,
                             ids=[c.value for *_, c in AGREEMENT_CASES])
    def test_equals_per_entry_admits(self, make, expr, th, case):
        space, concept = make()
        equivalence = equivalent_threshold_intervals(space, concept, expr, th)
        assert equivalence.case is case
        sweep = sweep_equivalence_oracle(space, concept, expr, th)
        assert sweep.agrees_with(equivalence) is True
        assert admits_every_entry(sweep, equivalence)
        verdicts = []
        for field in ("alpha_ok", "beta_ok"):
            vector = getattr(sweep, field)
            for flip in range(len(vector)):
                flipped = vector[:flip] + (not vector[flip],) + vector[flip + 1:]
                tampered = SweepResult(**{**sweep._asdict(), field: flipped})
                verdicts.append(tampered.agrees_with(equivalence))
                assert verdicts[-1] == admits_every_entry(tampered, equivalence)
        assert not all(verdicts)

    @settings(max_examples=500)
    @given(tampered_sweeps())
    def test_equals_per_entry_admits_on_any_vectors(self, drawn):
        sweep, equivalence = drawn
        assert sweep.agrees_with(equivalence) == admits_every_entry(sweep, equivalence)

    @pytest.mark.parametrize("make, expr, th, case", AGREEMENT_CASES,
                             ids=[c.value for *_, c in AGREEMENT_CASES])
    def test_hand_built_entries_with_beta_not_below_alpha(self, make, expr, th, case):
        # agrees_with has no beta' < alpha' test: the entries are derived from
        # the sorted candidates, so every pair they hold already satisfies it
        space, concept = make()
        sweep = sweep_equivalence_oracle(space, concept, expr, th)
        c = len(sweep.candidates)
        assert list(sweep.candidates) == sorted(set(sweep.candidates))
        assert len(sweep.entries) == c * (c - 1) // 2
        assert all(e.beta < e.alpha for e in sweep.entries)

    def test_fields_are_the_two_verdict_vectors(self, community):
        space, sport = community
        sweep = sweep_equivalence_oracle(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert sweep._fields == ("candidates", "alpha_ok", "beta_ok")
        assert len(sweep.alpha_ok) == len(sweep.beta_ok) == len(sweep.candidates)

    def test_agreement_and_report_leave_the_entries_unbuilt(self, community, monkeypatch):
        built = []

        def counted(*fields):
            built.append(SweepEntry(*fields))
            return built[-1]

        monkeypatch.setattr(eq_module, "SweepEntry", counted)
        space, sport = community
        expr = builtin("not_small")
        tp = linguistic_regions(space, sport, expr, TH_COMMUNITY)
        equivalence = intervals_of(tp, expr)
        sweep = sweep_equivalence_oracle(space, sport, expr, TH_COMMUNITY)
        assert sweep.agrees_with(equivalence)
        rep = report(tp, expr, TH_COMMUNITY, sport, equivalence=equivalence, sweep=sweep)
        assert rep.sweep_agrees is True
        assert len(sweep.entries) == 66
        assert built == []
        admitted = sweep.admitted()
        assert len(admitted) == 4
        assert built == list(admitted)


class TestPairTableView:
    @settings(max_examples=200)
    @given(block_tables())
    def test_view_equals_the_block_level_reference(self, tp):
        sweep = sweep_of(tp)
        candidates, expected = reference_table_sweep(tp)
        entries = sweep.entries
        assert sweep.candidates == candidates
        assert tuple(entries) == expected
        assert len(entries) == len(expected)
        assert [entries[i] for i in range(-len(expected), len(expected))] == list(expected * 2)
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                entries[i]
        for cut in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, None), slice(5, 2)):
            assert entries[cut] == expected[cut]
        assert sweep.admitted() == tuple(e for e in entries if e.equivalent)
        assert list(reversed(entries)) == list(reversed(expected))
        assert entries[0] in entries


class TestDeltaRegions:
    def test_twenty_at_half(self, twenty):
        space, concept = twenty
        tp = delta_regions(space, concept, Fraction(1, 2))
        assert tp.pos == block_union(space, "C2", "C3")
        assert tp.neg == block_union(space, "C1")
        assert tp.bnd == frozenset()

    def test_zero_cutoff_accepts_everyone(self, community):
        space, sport = community
        tp = delta_regions(space, sport, 0)
        assert tp.pos == frozenset(space.elements)

    def test_unit_cutoff_matches_classical_lower(self, twenty):
        space, concept = twenty
        tp = delta_regions(space, concept, 1)
        assert tp.pos == pawlak_rough_set(space, concept).lower

    @given(spaces_with_concepts(), threshold_pairs())
    def test_threshold_independence(self, space_concept, thresholds):
        space, concept = space_concept
        cutoff = Fraction(1, 2)
        direct = delta_regions(space, concept, cutoff)
        via_regions = linguistic_regions(space, concept, StepExpr(cutoff), thresholds)
        assert direct.same_regions(via_regions)
        assert direct.degrees == via_regions.degrees

    def test_cutoff_validation(self, twenty):
        space, concept = twenty
        with pytest.raises(ValueError):
            delta_regions(space, concept, Fraction(3, 2))

    def test_equal_cutoffs_read_one_kept_table(self, community):
        space, sport = community
        tps = [delta_regions(space, sport, cutoff) for cutoff in
               (Fraction(1, 2), 0.5, "0.5", Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))]
        assert len(space._tables) == 1
        for tp in tps:
            assert tp.ratios is tps[0].ratios
            assert tp.block_degrees is tps[0].block_degrees
            assert tp.block_regions is tps[0].block_regions

    @pytest.mark.parametrize("cutoff", [Fraction(3, 2), -1, "1.5", "half", True, None, float("nan")])
    def test_a_bad_cutoff_is_refused_as_a_step_refuses_it(self, twenty, cutoff):
        space, concept = twenty
        with pytest.raises(ExpressionError) as step:
            StepExpr(cutoff)
        with pytest.raises(ExpressionError, match=re.escape(str(step.value))):
            delta_regions(space, concept, cutoff)


class TestPawlakCoincidence:
    def test_twenty_instance_coincides(self, twenty):
        space, concept = twenty
        bounds = region_bounds(space, concept, builtin("very_big"), TH_TWENTY)
        assert coincides_with_pawlak(bounds)
        tp = linguistic_regions(space, concept, builtin("very_big"), TH_TWENTY)
        assert rough_set_from_tripartition(tp) == pawlak_rough_set(space, concept)

    def test_community_does_not(self, community):
        space, sport = community
        bounds = region_bounds(space, sport, builtin("not_small"), TH_COMMUNITY)
        assert not coincides_with_pawlak(bounds)

    def test_low_ratio_in_negative_region_blocks_coincidence(self):
        ids = [f"e{i}" for i in range(30)]
        blocks = [ids[:10], ids[10:20], ids[20:]]
        space = ApproximationSpace(ids, blocks)
        concept = Concept(frozenset(ids[:1] + ids[10:15] + ids[20:]), label="X")
        ratios = space.block_ratios(concept)
        assert sorted(ratios.values()) == [Fraction(1, 10), Fraction(1, 2), Fraction(1)]
        bounds = region_bounds(space, concept, IdentityExpr(),
                               Thresholds(Fraction("0.8"), Fraction("0.2")))
        assert bounds.neg_max == Fraction(1, 10)
        assert not coincides_with_pawlak(bounds)

    def test_requires_all_bounds(self):
        partial = RegionBounds(Fraction(0), None, None, Fraction(1))
        with pytest.raises(ValueError, match="all four bounds"):
            coincides_with_pawlak(partial)


def replicated(space: ApproximationSpace, concept: Concept, m: int):
    """``space`` and ``concept`` with every element present m times: its copies, under new ids,
    share its block and its membership, so n grows m-fold while b, k and every ratio stay."""
    def copies(element):
        return [element, *(f"{element}~{j}" for j in range(1, m))]

    elements = [c for e in space.elements for c in copies(e)]
    blocks = [[c for e in block for c in copies(e)] for block in space.blocks]
    members = frozenset(c for e in concept.members for c in copies(e))
    return ApproximationSpace(elements, blocks, space.labels), Concept(members, concept.label)


class TestReplication:
    """Work after the ratio count depends on b and k, not n: replication changes no answer and no count."""

    @staticmethod
    def answers(space, concept, expr, thresholds) -> tuple:
        counted = Counting(expr)  # a new object, so the table is built cold
        tp = linguistic_regions(space, concept, counted, thresholds)
        try:
            intervals = intervals_of(tp, expr)
        except (NonMonotoneExpressionError, DegenerateRegionsError) as exc:
            intervals = (type(exc), str(exc))
        sweep = sweep_of(tp)
        return (len(counted.args), tp.bounds, intervals, sweep.alpha_ok, sweep.beta_ok,
                "".join(sweep.json_chunks()))

    @given(spaces_with_concepts(), SWEEP_EXPRESSIONS, threshold_pairs(), st.sampled_from([2, 3]))
    def test_replicas_give_the_same_answers_from_the_same_work(self, space_concept, expr, thresholds, m):
        space, concept = space_concept
        original = self.answers(space, concept, expr, thresholds)
        assert original[0] == len(space.blocks)  # one evaluation per block
        assert self.answers(*replicated(space, concept, m), expr, thresholds) == original
