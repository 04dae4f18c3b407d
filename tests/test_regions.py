"""Tri-partition constructors and the rough sets they induce."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from threeway import (
    Concept,
    IdentityExpr,
    RoughSetPair,
    StepExpr,
    Thresholds,
    ThresholdError,
    TriPartition,
    builtin,
    delta_regions,
    explain_element,
    linguistic_regions,
    pawlak_rough_set,
    probabilistic_regions,
    report,
    rough_set_from_tripartition,
)

from threeway.equivalence import bounds_of, intervals_of

from conftest import (
    block_union,
    community_instance,
    labels_of,
    recount_ratios,
    recount_regions,
    twenty_instance,
    users,
)
from test_spaces import spaces_with_concepts


@st.composite
def threshold_pairs(draw):
    beta = draw(st.fractions(min_value=0, max_value=1, max_denominator=20))
    alpha = draw(st.fractions(min_value=0, max_value=1, max_denominator=20))
    if beta >= alpha:
        beta, alpha = alpha, beta
    if beta == alpha:
        if alpha == 1:
            beta = Fraction(0)
        else:
            alpha = alpha + Fraction(1, 40)
    return Thresholds(alpha, beta)


class TestThresholds:
    def test_valid(self):
        Thresholds(Fraction(1), Fraction(0))
        Thresholds(0.8, 0.2)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.5, 0.5), (0.2, 0.8), (1.2, 0.1), (0.5, -0.1), (0, 0)],
    )
    def test_invalid(self, alpha, beta):
        with pytest.raises(ThresholdError):
            Thresholds(alpha, beta)


class TestProbabilisticRegions:
    def test_community_run(self, community):
        space, sport = community
        tp = probabilistic_regions(space, sport, Thresholds(Fraction("0.3"), Fraction("0.1")))
        assert tp.pos == block_union(space, "C3", "C4", "C5")
        assert tp.neg == block_union(space, "C1")
        assert tp.bnd == block_union(space, "C2", "C6")
        assert tp.degrees["u26"] == Fraction(1, 7)

    def test_full_concept_is_all_positive(self, community):
        space, _ = community
        everyone = Concept(frozenset(space.elements), label="U")
        tp = probabilistic_regions(space, everyone, Thresholds(Fraction("0.9"), Fraction("0.4")))
        assert tp.pos == frozenset(space.elements)
        assert tp.empty_regions == ("neg", "bnd")

    def test_twenty_element_crisp_split(self, twenty):
        space, concept = twenty
        tp = probabilistic_regions(space, concept, Thresholds(Fraction("0.7"), Fraction("0.2")))
        assert tp.pos == block_union(space, "C2", "C3")
        assert tp.neg == block_union(space, "C1")
        assert tp.bnd == frozenset()
        assert tp.empty_regions == ("bnd",)


class TestLinguisticRegions:
    def test_community_not_small(self, community):
        space, sport = community
        tp = linguistic_regions(space, sport, builtin("not_small"),
                                Thresholds(Fraction("0.8"), Fraction("0.2")))
        assert tp.pos == block_union(space, "C3", "C4", "C5")
        assert tp.neg == block_union(space, "C1")
        assert tp.bnd == block_union(space, "C2", "C6")
        assert tp.degrees["u7"] == pytest.approx(0.75, abs=0.01)
        assert tp.degrees["u1"] == 0.0
        assert tp.degrees["u16"] == 1.0

    def test_twenty_very_big(self, twenty):
        space, concept = twenty
        tp = linguistic_regions(space, concept, builtin("very_big"),
                                Thresholds(Fraction("0.7"), Fraction("0.3")))
        assert labels_of(space, tp.pos) == {"C2"}
        assert labels_of(space, tp.neg) == {"C1"}
        assert labels_of(space, tp.bnd) == {"C3"}
        assert tp.degrees["u11"] == pytest.approx(0.5846, abs=1e-4)

    def test_thirty_modified_positive_empty(self, thirty_modified):
        space, concept = thirty_modified
        tp = linguistic_regions(space, concept, builtin("very_big"),
                                Thresholds(Fraction("0.7"), Fraction("0.2")))
        assert tp.neg == block_union(space, "C1", "C2")
        assert tp.bnd == block_union(space, "C3")
        assert tp.pos == frozenset()
        assert tp.empty_regions == ("pos",)

    def test_degree_equal_to_alpha_is_accepted(self, community):
        space, sport = community
        expr = builtin("not_small")
        degree = expr.evaluate(space.inclusion_ratio(sport, "u7"))
        tp = linguistic_regions(space, sport, expr, Thresholds(degree, 0.0))
        assert "u7" in tp.pos

    @given(spaces_with_concepts(), threshold_pairs())
    def test_identity_matches_probabilistic(self, space_concept, thresholds):
        space, concept = space_concept
        via_expr = linguistic_regions(space, concept, IdentityExpr(), thresholds)
        direct = probabilistic_regions(space, concept, thresholds)
        assert via_expr.same_regions(direct)
        assert via_expr.degrees == direct.degrees

    @given(spaces_with_concepts(), threshold_pairs())
    def test_tripartition_axioms(self, space_concept, thresholds):
        space, concept = space_concept
        for tp in (
            probabilistic_regions(space, concept, thresholds),
            linguistic_regions(space, concept, builtin("not_small"), thresholds),
        ):
            assert tp.pos | tp.neg | tp.bnd == frozenset(space.elements)
            assert not tp.pos & tp.neg
            assert not tp.pos & tp.bnd
            assert not tp.neg & tp.bnd

    @given(spaces_with_concepts(), threshold_pairs())
    def test_block_granularity(self, space_concept, thresholds):
        space, concept = space_concept
        tp = linguistic_regions(space, concept, builtin("very_big"), thresholds)
        for block in space.blocks:
            regions = {tp.region_of(e) for e in block}
            assert len(regions) == 1

    @given(spaces_with_concepts())
    def test_threshold_nesting(self, space_concept):
        space, concept = space_concept
        expr = builtin("not_small")
        low = linguistic_regions(space, concept, expr, Thresholds(Fraction(2, 5), Fraction(1, 5)))
        high = linguistic_regions(space, concept, expr, Thresholds(Fraction(4, 5), Fraction(1, 5)))
        assert high.pos <= low.pos
        tight = linguistic_regions(space, concept, expr, Thresholds(Fraction(4, 5), Fraction(1, 10)))
        assert tight.neg <= high.neg


class TestBlockTable:
    """Every constructor's block table agrees with an element-level recount."""

    @given(spaces_with_concepts(), threshold_pairs())
    def test_table_matches_recount(self, space_concept, thresholds):
        space, concept = space_concept
        recount = recount_ratios(space, concept)
        for tp, expr, used in (
            (linguistic_regions(space, concept, builtin("not_small"), thresholds),
             builtin("not_small"), thresholds),
            (probabilistic_regions(space, concept, thresholds), IdentityExpr(), thresholds),
            (delta_regions(space, concept, Fraction(1, 2)),
             StepExpr(Fraction(1, 2)), Thresholds(1, 0)),
        ):
            assert tp.ratios == recount
            assert len(tp.block_degrees) == len(tp.block_regions) == len(space.blocks)
            blocks = report(tp, builtin("not_small"), thresholds, concept).to_json_dict()["blocks"]
            assert tuple(block["ratio"] for block in blocks) == tuple(map(float, recount))
            # the derived element views against an element-by-element recount
            degrees, regions = recount_regions(space, concept, expr, used)
            assert tp.degrees == degrees
            assert (tp.pos, tp.neg, tp.bnd) == tuple(
                frozenset(regions[name]) for name in ("pos", "neg", "bnd")
            )
            assert tp.empty_regions == tuple(
                name for name in ("pos", "neg", "bnd") if not regions[name]
            )
            for name, members in regions.items():
                assert all(tp.region_of(element) == name for element in members)

    @given(spaces_with_concepts(), threshold_pairs())
    def test_probabilistic_degrees_are_fractions(self, space_concept, thresholds):
        space, concept = space_concept
        tp = probabilistic_regions(space, concept, thresholds)
        assert all(type(degree) is Fraction for degree in tp.degrees.values())

    def test_table_ignored_by_equality(self):
        # the same tri-partition on two equal but distinct spaces
        (space, sport), (twin, twin_sport) = community_instance(), community_instance()
        assert space is not twin
        th = Thresholds(Fraction("0.8"), Fraction("0.2"))
        tp = linguistic_regions(space, sport, builtin("not_small"), th)
        other = linguistic_regions(twin, twin_sport, builtin("not_small"), th)
        assert other == tp
        assert other.to_json_dict() == tp.to_json_dict()
        # a tri-partition is built from its block table, not from element sets
        with pytest.raises(TypeError):
            TriPartition(tp.pos, tp.neg, tp.bnd, tp.degrees, space)

    def test_block_level_consumers_leave_the_views_uncomputed(self, community):
        space, sport = community
        expr = builtin("not_small")
        tp = linguistic_regions(space, sport, expr, Thresholds(Fraction("0.8"), Fraction("0.2")))
        bounds_of(tp)
        intervals_of(tp, expr)
        explain_element(tp, expr, "u26", "sport")
        for view in ("pos", "neg", "bnd", "degrees"):
            assert view not in tp.__dict__


class TestRoughSets:
    def test_community_pair(self, community):
        space, sport = community
        tp = linguistic_regions(space, sport, builtin("not_small"),
                                Thresholds(Fraction("0.8"), Fraction("0.2")))
        pair = rough_set_from_tripartition(tp)
        assert pair.lower == frozenset(users(11, 25))
        assert pair.upper == frozenset(users(6, 32))

    def test_empty_boundary_collapses(self, twenty):
        space, concept = twenty
        tp = probabilistic_regions(space, concept, Thresholds(Fraction("0.7"), Fraction("0.2")))
        pair = rough_set_from_tripartition(tp)
        assert pair.lower == pair.upper

    def test_twenty_very_big_pair(self, twenty):
        space, concept = twenty
        tp = linguistic_regions(space, concept, builtin("very_big"),
                                Thresholds(Fraction("0.7"), Fraction("0.3")))
        pair = rough_set_from_tripartition(tp)
        assert pair.lower == block_union(space, "C2")
        assert pair.upper == block_union(space, "C2", "C3")


class TestRefusals:
    def test_lower_outside_upper_refused(self):
        with pytest.raises(ValueError, match="lower approximation must be a subset of the upper"):
            RoughSetPair({"a"}, set())

    @pytest.mark.parametrize("other", [3, None, "pos"])
    def test_equality_with_another_type_is_false(self, community, other):
        space, sport = community
        tp = probabilistic_regions(space, sport, Thresholds(Fraction("0.8"), Fraction("0.2")))
        assert (tp == other) is False
        assert (tp != other) is True


class TestPawlak:
    def test_twenty_instance(self, twenty):
        space, concept = twenty
        pair = pawlak_rough_set(space, concept)
        assert pair.lower == block_union(space, "C2")
        assert pair.upper == block_union(space, "C2", "C3")

    def test_empty_concept(self, community):
        space, _ = community
        pair = pawlak_rough_set(space, Concept(frozenset()))
        assert pair.lower == frozenset()
        assert pair.upper == frozenset()

    def test_full_concept(self, community):
        space, _ = community
        pair = pawlak_rough_set(space, Concept(frozenset(space.elements)))
        assert pair.lower == frozenset(space.elements)
        assert pair.upper == frozenset(space.elements)

    @given(spaces_with_concepts())
    def test_matches_one_zero_thresholds(self, space_concept):
        space, concept = space_concept
        tp = probabilistic_regions(space, concept, Thresholds(Fraction(1), Fraction(0)))
        assert rough_set_from_tripartition(tp) == pawlak_rough_set(space, concept)


class TestJsonForm:
    def test_shape_and_ordering(self, community):
        space, sport = community
        tp = linguistic_regions(space, sport, builtin("not_small"),
                                Thresholds(Fraction("0.8"), Fraction("0.2")))
        data = tp.to_json_dict()
        assert set(data) == {"pos", "neg", "bnd", "degrees", "empty_regions"}
        assert data["pos"] == sorted(data["pos"])
        assert data["empty_regions"] == []
        assert isinstance(data["degrees"]["u26"], float)

    def test_empty_regions_flagged(self, twenty):
        space, concept = twenty
        tp = probabilistic_regions(space, concept, Thresholds(Fraction("0.7"), Fraction("0.2")))
        assert tp.to_json_dict()["empty_regions"] == ["bnd"]
