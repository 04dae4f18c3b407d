"""Plain-language explanations of region assignments.

Each element's (or block's) assignment is rendered through a fixed sentence
template.  Expressions that carry a fuzzy-quantifier reading get quantifier
wording ("many members of C2 are in sport"); every other expression is named
verbatim.  Degrees appear with two decimals in prose and at full precision in
the JSON form.  Everything here is pure formatting over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .equivalence import RegionBounds, SweepResult, ThresholdEquivalence, format_endpoint
from .expressions import quantifier_for
from .regions import Thresholds, TriPartition
from .spaces import Concept


class Decision(Enum):
    """The action a region assignment induces."""

    ACCEPT = "accepted"
    REJECT = "rejected"
    ABSTAIN = "abstained"


_DECISION_BY_REGION = {"pos": Decision.ACCEPT, "neg": Decision.REJECT, "bnd": Decision.ABSTAIN}

_REGION_BY_DECISION = {decision: region for region, decision in _DECISION_BY_REGION.items()}

_REGION_WORD = {"pos": "positive", "neg": "negative", "bnd": "boundary"}


@dataclass(frozen=True)
class Explanation:
    element: str
    block: str
    region: Decision
    degree: float
    sentence: str
    quantifier: Optional[str] = None


def _sentence(
    subject: str,
    block: str,
    concept_label: str,
    quantifier: Optional[str],
    expr_name: str,
    degree: float,
    decision: Decision,
) -> str:
    if quantifier is not None:
        clause = f"{quantifier} members of {block} are in {concept_label}"
    else:
        clause = (
            f"the share of {block} members in {concept_label} counts as '{expr_name}'"
        )
    return f"The degree to which {clause} is {degree:.2f}, so {subject} is {decision.value}."


def explain_element(tp: TriPartition, expr, element: str, concept_label: str) -> Explanation:
    """Explain one element's assignment in the given tri-partition."""
    index = tp.space.block_index(element)
    region = tp.block_regions[index]
    degree = float(tp.block_degrees[index])
    block = tp.space.labels[index]
    quantifier = quantifier_for(expr)
    sentence = _sentence(
        element, block, concept_label, quantifier,
        getattr(expr, "name", str(expr)), degree, _DECISION_BY_REGION[region],
    )
    return Explanation(
        element=element,
        block=block,
        region=_DECISION_BY_REGION[region],
        degree=degree,
        sentence=sentence,
        quantifier=quantifier,
    )


@dataclass(frozen=True)
class BlockSection:
    """One report section: a block, its ratio/degree, and its assignment."""

    label: str
    elements: tuple[str, ...]
    ratio: Fraction
    degree: float
    region: Decision
    sentence: str


@dataclass(frozen=True)
class AnalysisReport:
    """Block-level view of one analysis run, with optional bounds and intervals."""

    concept_label: str
    expression_name: str
    thresholds: Thresholds
    sections: tuple[BlockSection, ...]
    region_sizes: dict[str, int]
    notes: tuple[str, ...]
    regions: Optional[dict] = None
    bounds: Optional[RegionBounds] = None
    equivalence: Optional[ThresholdEquivalence] = None
    sweep_agrees: Optional[bool] = None

    def to_text(self) -> str:
        lines = [
            f"concept: {self.concept_label}",
            f"expression: {self.expression_name}",
            f"thresholds: alpha={self.thresholds.alpha}, beta={self.thresholds.beta}",
            "",
        ]
        for section in self.sections:
            lines.append(
                f"block {section.label} ({len(section.elements)} elements): "
                f"ratio {format_endpoint(section.ratio)}, degree {section.degree:.4g}, "
                f"region {_REGION_WORD[_REGION_BY_DECISION[section.region]]}"
            )
            lines.append(f"  {section.sentence}")
        lines.append("")
        lines.append(
            "region sizes: positive "
            f"{self.region_sizes['pos']}, negative {self.region_sizes['neg']}, "
            f"boundary {self.region_sizes['bnd']}"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.bounds is not None:
            lines.append("region bounds (attained inclusion ratios):")
            for name, value in zip(
                ("neg_max", "bnd_min", "bnd_max", "pos_min"), self.bounds.as_tuple()
            ):
                rendered = "absent (region empty)" if value is None else format_endpoint(value)
                lines.append(f"  {name} = {rendered}")
        if self.equivalence is not None:
            lines.append(f"equivalent probabilistic thresholds: {self.equivalence.describe()}")
            lines.append(f"emptiness case: {self.equivalence.case.value}")
        if self.sweep_agrees is not None:
            lines.append("sweep agrees" if self.sweep_agrees else "sweep DISAGREES")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        data: dict = {
            "concept": self.concept_label,
            "expression": self.expression_name,
            "alpha": float(self.thresholds.alpha),
            "beta": float(self.thresholds.beta),
            "blocks": [
                {
                    "label": s.label,
                    "elements": list(s.elements),
                    "ratio": float(s.ratio),
                    "degree": s.degree,
                    "region": _REGION_BY_DECISION[s.region],
                    "sentence": s.sentence,
                }
                for s in self.sections
            ],
            "region_sizes": dict(self.region_sizes),
            "notes": list(self.notes),
        }
        if self.regions is not None:
            data["regions"] = self.regions
        if self.bounds is not None:
            data["bounds"] = {
                name: (None if value is None else float(value))
                for name, value in zip(
                    ("neg_max", "bnd_min", "bnd_max", "pos_min"), self.bounds.as_tuple()
                )
            }
        if self.equivalence is not None:
            data["equivalence"] = self.equivalence.to_json_dict(self.sweep_agrees)
        return data


def report(
    tp: TriPartition,
    expr,
    thresholds: Thresholds,
    concept: Concept,
    bounds: Optional[RegionBounds] = None,
    equivalence: Optional[ThresholdEquivalence] = None,
    sweep: Optional[SweepResult] = None,
) -> AnalysisReport:
    """Assemble the block-level report for one analysis run from ``tp``'s block table."""
    concept_label = concept.label
    quantifier = quantifier_for(expr)
    expr_name = getattr(expr, "name", str(expr))

    sections = []
    for label, block, ratio, degree, region in zip(
        tp.space.labels, tp.space.blocks, tp.ratios, tp.block_degrees, tp.block_regions
    ):
        degree = float(degree)
        decision = _DECISION_BY_REGION[region]
        sections.append(
            BlockSection(
                label=label,
                elements=block,
                ratio=ratio,
                degree=degree,
                region=decision,
                sentence=_sentence(
                    label, label, concept_label, quantifier, expr_name, degree, decision,
                ),
            )
        )

    notes = []
    if "bnd" in tp.empty_regions:
        notes.append("no abstentions: the boundary region is empty")
    if "pos" in tp.empty_regions:
        notes.append("positive region empty")
    if "neg" in tp.empty_regions:
        notes.append("negative region empty")
    if equivalence is not None:
        notes.append(f"equivalence case: {equivalence.case.value}")

    return AnalysisReport(
        concept_label=concept_label,
        expression_name=expr_name,
        thresholds=thresholds,
        sections=tuple(sections),
        region_sizes={"pos": len(tp.pos), "neg": len(tp.neg), "bnd": len(tp.bnd)},
        notes=tuple(notes),
        regions=tp.to_json_dict(),
        bounds=bounds,
        equivalence=equivalence,
        sweep_agrees=None if sweep is None else (
            None if equivalence is None else sweep.agrees_with(equivalence)
        ),
    )
