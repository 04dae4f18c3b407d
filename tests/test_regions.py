"""Tri-partition constructors and the rough sets they induce."""

from __future__ import annotations

import gc
import math
import random
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from threeway import (
    ApproximationSpace,
    Concept,
    DegenerateRegionsError,
    IdentityExpr,
    NonMonotoneExpressionError,
    RoughSetPair,
    StepExpr,
    Thresholds,
    ThresholdError,
    TriPartition,
    builtin,
    delta_regions,
    equivalent_threshold_intervals,
    explain_element,
    linguistic_regions,
    pawlak_rough_set,
    probabilistic_regions,
    region_bounds,
    report,
    rough_set_from_tripartition,
    verify_equivalence,
)

from threeway.cli import parse_expression
from threeway.equivalence import intervals_of, sweep_of
from threeway.regions import _KEPT_TABLES, region_of_degree

from conftest import (
    block_union,
    community_instance,
    labels_of,
    plain_region,
    recount_ratios,
    recount_regions,
    twenty_instance,
    users,
)
from test_expressions import CountingIdentity, UnhashableIdentity
from test_spaces import spaces_with_concepts

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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

    def test_hash_is_the_fields_hash_and_kept(self):
        th = Thresholds(Fraction(4, 5), Fraction(1, 5))
        assert hash(th) == hash((th.alpha, th.beta)) == hash(Thresholds(Fraction("0.8"), Fraction("0.2")))
        assert hash(Thresholds(1, 0)) == hash(Thresholds(1.0, Fraction(0)))
        assert vars(th)["_hash"] == hash(th)


@st.composite
def exact_or_float_thresholds(draw):
    """Distinct Fraction thresholds with denominators up to 10**6, half the time as the nearest floats."""
    beta, alpha = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**6),
                                min_size=2, max_size=2, unique=True).map(sorted))
    if draw(st.booleans()):
        beta, alpha = float(beta), float(alpha)
    return Thresholds(alpha, beta)


def degrees_near(thresholds: Thresholds):
    """Degrees of every type, the thresholds' neighbouring floats, signed zeros, the tiniest float and NaN among them."""
    edges = [math.nextafter(float(t), toward) for t in (thresholds.alpha, thresholds.beta)
             for toward in (-math.inf, math.inf)]
    specials = [*edges, thresholds.alpha, thresholds.beta, float(thresholds.alpha), float(thresholds.beta),
                0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, True, False, 0, 1]
    return st.one_of(st.sampled_from(specials), st.floats(), st.integers(min_value=-3, max_value=3),
                     st.fractions(min_value=-1, max_value=2, max_denominator=10**6), st.booleans())


class TestRegionOfDegree:
    @settings(max_examples=500)
    @given(st.one_of(exact_or_float_thresholds(), st.just(Thresholds(1, 0))), st.data())
    def test_equals_the_comparison_chain(self, thresholds, data):
        degree = data.draw(degrees_near(thresholds))
        assert region_of_degree(degree, thresholds) == plain_region(degree, thresholds)


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

    def test_block_level_consumers_leave_the_views_uncomputed(self, community, monkeypatch):
        space, sport = community
        expr, thresholds = builtin("not_small"), Thresholds(Fraction("0.8"), Fraction("0.2"))
        tp = linguistic_regions(space, sport, expr, thresholds)

        def refuse(*_):
            raise ViewBuilt

        # every element view goes through these two, so patched they refuse any build
        monkeypatch.setattr(TriPartition, "_members", refuse)
        monkeypatch.setattr(TriPartition, "degrees", property(refuse))
        equivalence, sweep = intervals_of(tp, expr), sweep_of(tp)
        verify_equivalence(space, sport, expr, thresholds, Fraction("0.5"), Fraction("0.3"))
        explain_element(tp, expr, "u26", "sport")
        assert report(tp, expr, thresholds, sport, tp.bounds, equivalence, sweep).to_text()
        assert tp.json_text("  ")
        for view in ("pos", "neg", "bnd", "degrees"):
            with pytest.raises(ViewBuilt):
                getattr(tp, view)


class ViewBuilt(Exception):
    """Raised by a patched tri-partition when an element view is built."""


class Halve:
    """A duck-typed expression with no name that cannot be hashed."""

    __hash__ = None

    def evaluate(self, x):
        return x / 2


# the built-ins, identity, a step and two custom files: half.json refuses at
# (0.8, 0.2) whenever a block's ratio is 1, and the hump out of region order
KEPT_EXPRESSIONS = (
    builtin("not_small"), builtin("very_big"), builtin("extremely_big"), IdentityExpr(),
    parse_expression("delta:0.5"), parse_expression(f"file:{FIXTURES / 'half.json'}"),
    parse_expression(f"file:{FIXTURES / 'medium_hump.json'}"),
)
REFUSALS = (NonMonotoneExpressionError, DegenerateRegionsError)


def answer(space, members, expr, thresholds, kind, probe):
    """One query's answer on ``space``, through a concept built afresh; a refusal as its type and text."""
    concept = Concept(frozenset(members), label="X")
    try:
        if kind == "regions":
            tp = linguistic_regions(space, concept, expr, thresholds)
            return tp.ratios, tp.block_degrees, tp.block_regions
        if kind == "bounds":
            return region_bounds(space, concept, expr, thresholds)
        if kind == "verify":
            return verify_equivalence(space, concept, expr, thresholds, probe.alpha, probe.beta)
        return equivalent_threshold_intervals(space, concept, expr, thresholds)
    except REFUSALS as exc:
        return type(exc), str(exc)


def fresh_answer(space, *query):
    """The same query on a copy of ``space`` that has kept no table."""
    return answer(ApproximationSpace(space.elements, space.blocks, space.labels), *query)


class TestKeptTables:
    """A space keeps its block tables; every answer equals a fresh recount's."""

    TH = Thresholds(Fraction("0.8"), Fraction("0.2"))

    def test_each_call_gets_its_own_tripartition_over_the_same_table(self, community):
        # a repeated call, through the same or an equal concept, returns the kept tri-partition itself
        space, sport = community
        expr = builtin("not_small")
        tp = linguistic_regions(space, sport, expr, self.TH)
        assert linguistic_regions(space, sport, expr, self.TH) is tp
        assert linguistic_regions(space, Concept(frozenset(sport.members)), expr, self.TH) is tp
        assert linguistic_regions(space, sport, expr, Thresholds(Fraction(4, 5), Fraction(1, 5))) is tp
        [(_, kept)] = space._tables.values()
        assert kept is tp

    def test_a_member_set_is_counted_once(self, community, monkeypatch):
        space, sport = community
        counted, block_ratios = [], ApproximationSpace.block_ratios
        monkeypatch.setattr(ApproximationSpace, "block_ratios",
                            lambda self, concept: counted.append(concept.members) or block_ratios(self, concept))
        pairs = (self.TH, Thresholds(Fraction("0.6"), Fraction("0.1")), Thresholds(1, 0))
        tables = [linguistic_regions(space, sport, expr, th)
                  for expr in (builtin("not_small"), builtin("very_big"), IdentityExpr()) for th in pairs]
        assert counted == [sport.members]
        assert all(tp.ratios is tables[0].ratios for tp in tables)
        # an equal member set built afresh shares them too; a different one is counted once
        linguistic_regions(space, Concept(frozenset(sport.members)), builtin("extremely_big"), self.TH)
        assert counted == [sport.members]
        others = Concept(frozenset(space.elements) - sport.members, label="others")
        for expr, th in zip((builtin("not_small"), builtin("very_big")), pairs):
            linguistic_regions(space, others, expr, th)
        assert counted == [sport.members, others.members]

    def test_bounds_are_computed_once_per_kept_table(self, community):
        space, sport = community
        expr = builtin("not_small")
        tp = linguistic_regions(space, sport, expr, self.TH)
        assert tp.bounds is linguistic_regions(space, sport, expr, self.TH).bounds
        assert region_bounds(space, sport, expr, self.TH) is tp.bounds
        assert tp.bounds == fresh_answer(space, sport.members, expr, self.TH, "bounds", None)

    def test_the_sweep_reads_no_bound(self, community):
        space, sport = community
        tp = linguistic_regions(space, sport, builtin("not_small"), self.TH)
        sweep_of(tp)
        assert "bounds" not in vars(tp)

    def test_a_view_read_on_one_builds_nothing_on_the_other(self, community, monkeypatch):
        # two kept tables on one member set share their ratios, and nothing else
        space, sport = community
        tp1, tp2 = (linguistic_regions(space, sport, builtin(name), self.TH) for name in ("not_small", "very_big"))
        assert tp1 is not tp2 and tp1.ratios is tp2.ratios
        built, members, degrees = [], TriPartition._members, TriPartition.degrees
        monkeypatch.setattr(TriPartition, "_members", lambda tp, region: built.append(id(tp)) or members(tp, region))
        monkeypatch.setattr(TriPartition, "degrees", property(lambda tp: built.append(id(tp)) or degrees.fget(tp)))
        assert tp1.pos and tp1.degrees
        assert built == [id(tp1)] * 2
        assert not any(isinstance(value, (frozenset, set, dict)) for tp in (tp1, tp2) for value in vars(tp).values())

    def test_a_dropped_space_is_collected(self):
        # a kept tri-partition and its space refer to each other; the cycle is
        # still freed, and the tri-partition lives exactly as long as the space's store
        space, sport = community_instance()
        kept = weakref.ref(linguistic_regions(space, sport, builtin("not_small"), self.TH))
        assert kept() is not None
        del space
        gc.collect()
        assert kept() is None

    def test_a_concept_switch_follows_the_new_members(self, community):
        space, sport = community
        expr = builtin("not_small")
        before = linguistic_regions(space, sport, expr, self.TH)
        others = Concept(frozenset(space.elements) - sport.members, label="others")
        switched = linguistic_regions(space, others, expr, self.TH)
        assert switched.ratios == tuple(1 - ratio for ratio in before.ratios)
        assert switched == linguistic_regions(ApproximationSpace(space.elements, space.blocks),
                                              others, expr, self.TH)
        # an equal concept built afresh reads the first table again, and its
        # next table is kept under the member set already kept for that value
        rebuilt = Concept(frozenset(sport.members))
        again = linguistic_regions(space, rebuilt, expr, self.TH)
        assert again.block_regions is before.block_regions
        linguistic_regions(space, rebuilt, expr, Thresholds(Fraction("0.7"), Fraction("0.2")))
        assert [key[0] for key in space._tables] == [sport.members, others.members, sport.members]
        assert {id(key[0]) for key in space._tables} == {id(sport.members), id(others.members)}

    @pytest.mark.parametrize("make", [UnhashableIdentity, Halve])
    def test_an_unhashable_or_nameless_expression_works(self, community, make):
        space, sport = community
        expr = make()
        first = linguistic_regions(space, sport, expr, self.TH)
        assert linguistic_regions(space, sport, expr, self.TH) == first
        assert first.block_degrees == tuple(expr.evaluate(ratio) for ratio in first.ratios)
        assert equivalent_threshold_intervals(space, sport, expr, self.TH) == intervals_of(first, expr)

    def test_an_equal_but_distinct_expression_is_evaluated_afresh(self, community):
        space, sport = community
        first, second = CountingIdentity(), CountingIdentity()
        for expr in (first, second, first):
            linguistic_regions(space, sport, expr, self.TH)
        assert (first.calls, second.calls) == (6, 6)

    def test_the_oldest_table_goes_first_past_the_cap(self, community):
        space, sport = community
        expr = CountingIdentity()
        pairs = [Thresholds(Fraction(1), Fraction(i, 1000)) for i in range(_KEPT_TABLES + 1)]
        for th in pairs:
            linguistic_regions(space, sport, expr, th)
        assert len(space._tables) == _KEPT_TABLES
        for th in (pairs[-1], pairs[1], pairs[0]):  # kept, kept, dropped
            linguistic_regions(space, sport, expr, th)
        assert expr.calls == 6 * (len(pairs) + 1)

    def test_a_cold_call_replaces_the_store_whole(self, community):
        space, sport = community
        expr = CountingIdentity()
        pairs = [Thresholds(Fraction(1), Fraction(i, 1000)) for i in range(_KEPT_TABLES + 1)]
        for th in pairs[:-1]:
            linguistic_regions(space, sport, expr, th)
        full = space._tables
        linguistic_regions(space, sport, expr, pairs[0])  # a hit leaves the store as it is
        assert space._tables is full
        linguistic_regions(space, sport, expr, pairs[-1])  # a miss past the cap
        assert space._tables is not full
        assert [key[2] for key in full] == pairs[:-1]  # what a reader holds never changes
        assert [key[2] for key in space._tables] == pairs[1:]

    def test_a_kept_table_is_block_level(self, community):
        space, sport = community
        expr = builtin("not_small")
        report(linguistic_regions(space, sport, expr, self.TH), expr, self.TH, sport).to_json_dict()
        [(kept_expr, tp)] = space._tables.values()
        assert kept_expr is expr
        assert tp.degrees and rough_set_from_tripartition(tp)  # every element view read
        table = (tp.ratios, tp.block_degrees, tp.block_regions)
        assert [len(column) for column in table] == [len(space.blocks)] * 3
        assert not any(isinstance(value, (TriPartition, frozenset, set, dict))
                       for column in table for value in column)
        assert not any(isinstance(value, (frozenset, set, dict)) for value in vars(tp).values())

    @settings(max_examples=25)
    @given(spaces_with_concepts(), st.data())
    def test_kept_answers_equal_fresh_ones(self, space_concept, data):
        space, concept = space_concept
        # equal member sets, each query building its own Concept from them
        member_sets = [sorted(concept.members), *data.draw(
            st.lists(st.sets(st.sampled_from(space.elements)).map(sorted), min_size=1, max_size=2))]
        pairs = data.draw(st.lists(threshold_pairs(), min_size=1, max_size=12))
        queries = data.draw(st.lists(st.tuples(
            st.sampled_from(member_sets), st.sampled_from(KEPT_EXPRESSIONS), st.sampled_from(pairs),
            st.sampled_from(("regions", "bounds", "verify", "intervals")), st.sampled_from(pairs),
        ), min_size=_KEPT_TABLES + 1, max_size=2 * _KEPT_TABLES))
        for query in queries:
            assert answer(space, *query) == fresh_answer(space, *query)
        assert len(space._tables) <= _KEPT_TABLES

    def test_threads_sharing_a_space_get_fresh_answers(self):
        space, sport = community_instance()
        rng = random.Random(7)
        members = [sorted(sport.members), sorted(set(space.elements) - sport.members)]
        pairs = [Thresholds(Fraction(1), Fraction(i, 100)) for i in range(40)]
        queries = [(rng.choice(members), rng.choice(KEPT_EXPRESSIONS), rng.choice(pairs),
                    rng.choice(("regions", "bounds", "verify", "intervals")), rng.choice(pairs))
                   for _ in range(400)]
        expected = [fresh_answer(space, *query) for query in queries]
        errors, start = [], threading.Barrier(4)

        def worker(offset):
            start.wait(timeout=60)
            try:
                for i in range(len(queries)):
                    j = (i + offset * 97) % len(queries)
                    if answer(space, *queries[j]) != expected[j]:
                        errors.append(f"query {j} differs from a fresh recount")
            except Exception as exc:  # any raise is a failure of the shared space
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so inserts and evictions interleave
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(space._tables) <= _KEPT_TABLES


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
