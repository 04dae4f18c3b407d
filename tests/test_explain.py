"""Sentence rendering and the block-level analysis report."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from threeway import (
    AnalysisReport,
    Decision,
    DataError,
    NonMonotoneExpressionError,
    StepExpr,
    Thresholds,
    builtin,
    delta_regions,
    equivalent_threshold_intervals,
    explain_element,
    linguistic_regions,
    region_bounds,
    report,
    sweep_equivalence_oracle,
)

from test_expressions import MEDIUM_HUMP

TH = Thresholds(Fraction("0.8"), Fraction("0.2"))


@pytest.fixture
def community_run(community):
    space, sport = community
    expr = builtin("not_small")
    tp = linguistic_regions(space, sport, expr, TH)
    return space, sport, expr, tp


class TestExplainElement:
    def test_abstained_user(self, community_run):
        _, _, expr, tp = community_run
        explanation = explain_element(tp, expr, "u7", "sport")
        assert explanation.region is Decision.ABSTAIN
        assert explanation.block == "C2"
        assert explanation.degree == pytest.approx(0.75, abs=0.01)
        assert explanation.quantifier == "many"
        assert "many members of C2 are in sport" in explanation.sentence
        assert "u7 is abstained" in explanation.sentence
        assert f"{explanation.degree:.2f}" in explanation.sentence

    def test_accepted_and_rejected_wording(self, community_run):
        _, _, expr, tp = community_run
        assert "u16 is accepted" in explain_element(tp, expr, "u16", "sport").sentence
        assert "u1 is rejected" in explain_element(tp, expr, "u1", "sport").sentence

    def test_degree_equal_to_alpha_accepts(self, community):
        space, sport = community
        expr = builtin("not_small")
        degree = expr.evaluate(space.inclusion_ratio(sport, "u7"))
        tp = linguistic_regions(space, sport, expr, Thresholds(degree, 0.0))
        assert explain_element(tp, expr, "u7", "sport").region is Decision.ACCEPT

    def test_twenty_instance_most(self, twenty):
        space, concept = twenty
        expr = builtin("very_big")
        tp = linguistic_regions(space, concept, expr, Thresholds(Fraction("0.7"), Fraction("0.3")))
        explanation = explain_element(tp, expr, "u12", "X")
        assert explanation.region is Decision.ABSTAIN
        assert explanation.degree == pytest.approx(0.58, abs=0.01)
        assert explanation.quantifier == "most"

    def test_unknown_element(self, community_run):
        _, _, expr, tp = community_run
        with pytest.raises(DataError, match="unknown element"):
            explain_element(tp, expr, "u99", "sport")

    def test_region_always_matches_tripartition(self, community_run):
        space, _, expr, tp = community_run
        word = {"pos": Decision.ACCEPT, "neg": Decision.REJECT, "bnd": Decision.ABSTAIN}
        for element in space.elements:
            assert explain_element(tp, expr, element, "sport").region is word[tp.region_of(element)]

    def test_custom_expression_named_verbatim(self, community):
        space, sport = community
        tp = linguistic_regions(space, sport, MEDIUM_HUMP, TH)
        explanation = explain_element(tp, MEDIUM_HUMP, "u7", "sport")
        assert explanation.quantifier is None
        assert "'medium_hump'" in explanation.sentence

    def test_unit_cutoff_reads_all(self, twenty):
        space, concept = twenty
        expr = StepExpr(Fraction(1))
        tp = linguistic_regions(space, concept, expr, Thresholds(Fraction("0.7"), Fraction("0.2")))
        explanation = explain_element(tp, expr, "u6", "X")
        assert explanation.quantifier == "all"
        assert "all members of C2" in explanation.sentence


class NamedOnly:
    """A duck-typed expression with a name and a ``repr`` that must never be read."""

    name = "share itself"

    def evaluate(self, x):
        return float(x)

    def __repr__(self):
        raise AssertionError("the repr of a named expression was rendered")


class Nameless:
    """A duck-typed expression with no ``name``: output names it by ``str``."""

    def evaluate(self, x):
        return 1 - float(x)  # decreasing: a higher ratio lands in a lower region

    def __str__(self):
        return "one minus the share"


class TestDisplayName:
    def test_named_expression_is_never_repr_rendered(self, community):
        space, sport = community
        expr = NamedOnly()
        tp = linguistic_regions(space, sport, expr, TH)
        wording = "counts as 'share itself'"
        assert wording in explain_element(tp, expr, "u7", "sport").sentence
        result = report(tp, expr, TH, sport)
        assert "expression: share itself" in result.to_text()
        assert result.to_text().count(wording) == len(space.blocks)
        data = result.to_json_dict()
        assert data["expression"] == "share itself"
        assert all(wording in block["sentence"] for block in data["blocks"])

    def test_nameless_expression_named_by_str(self, community):
        space, sport = community
        expr = Nameless()
        tp = linguistic_regions(space, sport, expr, TH)
        assert "counts as 'one minus the share'" in explain_element(tp, expr, "u7", "sport").sentence
        assert report(tp, expr, TH, sport).expression_name == "one minus the share"
        with pytest.raises(NonMonotoneExpressionError,
                           match="^expression 'one minus the share' is not increasing"):
            equivalent_threshold_intervals(space, sport, expr, TH)


class TestReport:
    def test_community_sections(self, community_run):
        space, sport, expr, tp = community_run
        result = report(tp, expr, TH, sport)
        blocks = result.to_json_dict()["blocks"]
        assert len(blocks) == 6
        by_label = {b["label"]: b for b in blocks}
        assert [b for b in by_label if by_label[b]["region"] == "pos"] == ["C3", "C4", "C5"]
        assert by_label["C6"]["ratio"] == float(Fraction(1, 7))
        assert result.region_sizes == {"pos": 15, "neg": 5, "bnd": 12}

    def test_positive_blocks_sorted_by_degree_stay_confident(self, community_run):
        _, _, _, tp = community_run
        accepted = sorted(
            (e for e in tp.degrees if e in tp.pos),
            key=lambda e: tp.degrees[e],
            reverse=True,
        )
        degrees = [tp.degrees[e] for e in accepted]
        assert degrees == sorted(degrees, reverse=True)
        assert all(d >= TH.alpha for d in degrees)

    def test_no_abstentions_note(self, twenty):
        space, concept = twenty
        tp = delta_regions(space, concept, Fraction(1, 2))
        result = report(tp, StepExpr(Fraction(1, 2)), TH, concept)
        assert any("no abstentions" in note for note in result.notes)

    def test_positive_empty_note_and_case(self, thirty_modified):
        space, concept = thirty_modified
        expr = builtin("very_big")
        th = Thresholds(Fraction("0.7"), Fraction("0.2"))
        tp = linguistic_regions(space, concept, expr, th)
        equivalence = equivalent_threshold_intervals(space, concept, expr, th)
        result = report(tp, expr, th, concept, equivalence=equivalence)
        assert any("positive region empty" in note for note in result.notes)
        assert any("pos_empty" in note for note in result.notes)

    def test_text_rendering(self, community_run):
        space, sport, expr, tp = community_run
        bounds = region_bounds(space, sport, expr, TH)
        equivalence = equivalent_threshold_intervals(space, sport, expr, TH)
        sweep = sweep_equivalence_oracle(space, sport, expr, TH)
        text = report(tp, expr, TH, sport, bounds=bounds,
                      equivalence=equivalence, sweep=sweep).to_text()
        assert "block C6 (7 elements)" in text
        assert "1/7 ≈ 0.142857" in text
        assert "alpha' in (1/5 ≈ 0.2, 2/5 ≈ 0.4]" in text
        assert "sweep agrees" in text
        assert "0.27" in text  # degrees carry two decimals in prose

    def test_json_keeps_full_precision(self, community_run):
        space, sport, expr, tp = community_run
        data = report(tp, expr, TH, sport).to_json_dict()
        c6 = next(b for b in data["blocks"] if b["label"] == "C6")
        assert c6["degree"] == tp.degrees["u26"]
        assert c6["degree"] != round(c6["degree"], 2)
        assert json.dumps(data)  # serializable as-is

    def test_json_carries_tripartition_schema(self, community_run):
        space, sport, expr, tp = community_run
        data = report(tp, expr, TH, sport).to_json_dict()
        assert data["regions"] == tp.to_json_dict()
        assert set(data["regions"]) == {"pos", "neg", "bnd", "degrees", "empty_regions"}

    def test_json_includes_interval_schema(self, community_run):
        space, sport, expr, tp = community_run
        equivalence = equivalent_threshold_intervals(space, sport, expr, TH)
        sweep = sweep_equivalence_oracle(space, sport, expr, TH)
        data = report(tp, expr, TH, sport, equivalence=equivalence, sweep=sweep).to_json_dict()
        block = data["equivalence"]
        assert block["case"] == "all_nonempty"
        assert block["coupled"] is False
        assert block["sweep_agrees"] is True
        assert set(block["alpha_interval"]) == {"lo", "lo_open", "hi", "hi_open"}
        assert block["alpha_interval"]["hi"] == 0.4
        assert block["beta_interval"]["hi_open"] is True

    def test_fields_are_the_run_inputs(self):
        assert AnalysisReport._fields == (
            "tp", "expr", "thresholds", "concept_label", "bounds", "equivalence", "sweep_agrees",
        )

    def test_text_builds_no_element_view(self, community_run):
        space, sport, expr, tp = community_run
        result = report(tp, expr, TH, sport, bounds=region_bounds(space, sport, expr, TH),
                        equivalence=equivalent_threshold_intervals(space, sport, expr, TH),
                        sweep=sweep_equivalence_oracle(space, sport, expr, TH))
        assert "region sizes: positive 15, negative 5, boundary 12" in result.to_text()
        assert not {"pos", "neg", "bnd", "degrees"} & tp.__dict__.keys()
        "".join(result.json_chunks())
        result.to_json_dict()
        assert "degrees" not in tp.__dict__  # the JSON form builds no element-degree mapping


def test_readme_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    quickstart = readme.partition("## Quickstart (API)")[2].partition("```python\n")[2].partition("```")[0]
    run = {}
    exec(quickstart, run)
    tp, bounds, eq, sweep = run["tp"], run["bounds"], run["eq"], run["sweep"]
    assert tp.ratios == tuple(map(Fraction, ("0", "1/5", "2/5", "3/5", "4/5", "1/7")))
    assert tp.block_regions == ("neg", "bnd", "pos", "pos", "pos", "bnd")
    assert bounds.as_tuple() == (0, Fraction(1, 7), Fraction(1, 5), Fraction(2, 5))
    assert all(type(bound) is Fraction for bound in bounds.as_tuple())
    assert str(eq.alpha_interval) == "(1/5 ≈ 0.2, 2/5 ≈ 0.4]"
    assert eq.admits(Fraction("0.3"), Fraction("0.1")) and sweep.agrees_with(eq)
    assert len(sweep.entries) == 66
    assert capsys.readouterr().out == (
        "The degree to which many members of C2 are in sport is 0.76, so u7 is abstained.\n")
