"""The package's records: immutable, equal only within their class, hashed and shown by their fields."""

from __future__ import annotations

from fractions import Fraction

import pytest

from threeway import (
    AnalysisReport,
    ApproximationSpace,
    Concept,
    Decision,
    EmptinessCase,
    EvalExpr,
    Explanation,
    IdentityExpr,
    Interval,
    RegionBounds,
    RoughSetPair,
    Segment,
    StepExpr,
    SweepResult,
    ThresholdEquivalence,
    Thresholds,
    TriPartition,
)
from threeway.equivalence import SweepEntry

SPACE = ApproximationSpace(["a", "b", "c"], [["a"], ["b", "c"]])


def tri_partition(k: int) -> TriPartition:
    return TriPartition(SPACE, (Fraction(1), Fraction(k, 2)), (1.0, k / 2), ("pos", "neg"))


def flat(c: float) -> Segment:
    return Segment(Fraction(0), Fraction(1), True, True, "const", c=c)


#: Each record's name: a builder of it from fresh values, k = 0 or 1 giving two unequal
#: records, and its fields in order.
RECORDS = {
    "Concept": (lambda k: Concept({"a"}, f"X{k}"), ("members", "label")),
    "Thresholds": (lambda k: Thresholds(Fraction(4, 5), Fraction(k, 5)), ("alpha", "beta")),
    "RegionBounds": (lambda k: RegionBounds(Fraction(k, 4), None, None, Fraction(1)),
                     ("neg_max", "bnd_min", "bnd_max", "pos_min")),
    "TriPartition": (tri_partition, ("space", "ratios", "block_degrees", "block_regions")),
    "RoughSetPair": (lambda k: RoughSetPair(frozenset("a"), frozenset("ab"[:k + 1])), ("lower", "upper")),
    "Segment": (lambda k: flat(k / 2), ("lo", "hi", "lo_inclusive", "hi_inclusive", "form", "a", "d", "c")),
    "EvalExpr": (lambda k: EvalExpr(f"flat{k}", (flat(0.5),)), ("name", "segments", "declared_monotone")),
    "StepExpr": (lambda k: StepExpr(Fraction(1, 2 + k)), ("cutoff",)),
    "IdentityExpr": (lambda k: IdentityExpr(f"identity{k}"), ("name",)),
    "Interval": (lambda k: Interval(Fraction(k, 4), Fraction(1, 2), False, True), ("lo", "hi", "lo_open", "hi_open")),
    "ThresholdEquivalence": (
        lambda k: ThresholdEquivalence(EmptinessCase.ALL_NONEMPTY, Interval(Fraction(1, 2), Fraction(1), True, False),
                                       Interval(Fraction(k, 4), Fraction(1, 2), False, True)),
        ("case", "alpha_interval", "beta_interval")),
    "SweepEntry": (lambda k: SweepEntry(Fraction(1, 2), Fraction(k, 4), True), ("alpha", "beta", "equivalent")),
    "SweepResult": (lambda k: SweepResult((Fraction(0), Fraction(1)), (False, True), (True, bool(k))),
                    ("candidates", "alpha_ok", "beta_ok")),
    "Explanation": (lambda k: Explanation("a", "B1", Decision.ACCEPT, 0.5 + k / 4, "a is accepted."),
                    ("element", "block", "region", "degree", "sentence", "quantifier")),
    "AnalysisReport": (lambda k: AnalysisReport(tri_partition(k), IdentityExpr(), Thresholds(Fraction(4, 5), Fraction(1, 5)), "X"),
                       ("tp", "expr", "thresholds", "concept_label", "bounds", "equivalence", "sweep_agrees")),
}
UNHASHABLE = {"TriPartition", "AnalysisReport"}  # a tri-partition's equality reads its regions, not its fields
NOT_SHOWN = {("TriPartition", "space")}


@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_is_immutable(self, name):
        make, fields = RECORDS[name]
        record = make(0)
        for attribute in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attribute, None)
            with pytest.raises(AttributeError):
                delattr(record, attribute)
        assert [getattr(record, field) for field in fields] == [getattr(make(0), field) for field in fields]

    def test_equal_only_to_an_equal_record_of_its_class(self, name):
        make, fields = RECORDS[name]
        first, second, other = make(0), make(0), make(1)
        assert first is not second and first == second and not first != second
        assert first != other and not first == other
        values = [getattr(first, field) for field in fields]
        assert first != tuple(values)
        if name != "TriPartition":  # which compares the regions of any two tri-partitions
            twin = type(name, (type(first),), {})(*values)
            assert first != twin and twin != first

    def test_hash_follows_equality(self, name):
        make, _ = RECORDS[name]
        first, second = make(0), make(0)
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)
            assert len({first, second, make(1)}) == 2

    def test_repr_names_each_field(self, name):
        make, fields = RECORDS[name]
        record = make(0)
        shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields if (name, field) not in NOT_SHOWN)
        assert repr(record) == f"{name}({shown})"


def test_arguments_bind_as_in_a_call():
    whole = dict(lo=Fraction(0), hi=Fraction(1), lo_inclusive=True, hi_inclusive=True, form="const")
    assert Segment(**whole) == Segment(Fraction(0), Fraction(1), True, True, "const", 0.0, 1.0, 0.0)
    assert Concept({"a"}).label == "X" and EvalExpr("flat", (flat(0.5),)).declared_monotone is None
    for call in (lambda: Concept(), lambda: Concept({"a"}, "X", "Y"), lambda: Concept({"a"}, members={"b"}),
                 lambda: Concept({"a"}, colour="red"), lambda: SweepEntry(Fraction(1), Fraction(0))):
        with pytest.raises(TypeError):
            call()
