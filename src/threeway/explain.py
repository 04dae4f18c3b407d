"""Plain-language explanations of region assignments.

Each element's (or block's) assignment is rendered through a fixed sentence
template.  Expressions that carry a fuzzy-quantifier reading get quantifier
wording ("many members of C2 are in sport"); every other expression is named
verbatim.  Degrees appear with two decimals in prose and at full precision in
the JSON form.  Everything here is pure formatting over immutable inputs.

A report is the tri-partition it describes plus what was derived from it
(bounds, intervals, the sweep's verdict).  Each block line, the region sizes
and the notes are rendered from the block table when the report is; only the
JSON form reads the element view (``regions``), so text output builds no
element set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional

from .equivalence import RegionBounds, SweepResult, ThresholdEquivalence, format_endpoint
from .expressions import quantifier_for
from .regions import REGION_NAMES, Thresholds, TriPartition
from .spaces import Concept


class Decision(Enum):
    """The action a region assignment induces."""

    ACCEPT = "accepted"
    REJECT = "rejected"
    ABSTAIN = "abstained"


_DECISION_BY_REGION = {"pos": Decision.ACCEPT, "neg": Decision.REJECT, "bnd": Decision.ABSTAIN}

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


#: The report's notes on empty regions, in the order they are printed.
_EMPTY_REGION_NOTES = {
    "bnd": "no abstentions: the boundary region is empty",
    "pos": "positive region empty",
    "neg": "negative region empty",
}


@dataclass(frozen=True)
class AnalysisReport:
    """One analysis run: a tri-partition, how it was built, and what was derived from it."""

    tp: TriPartition
    expr: object
    thresholds: Thresholds
    concept_label: str
    bounds: Optional[RegionBounds] = None
    equivalence: Optional[ThresholdEquivalence] = None
    sweep_agrees: Optional[bool] = None

    @property
    def expression_name(self) -> str:
        return getattr(self.expr, "name", str(self.expr))

    @property
    def region_sizes(self) -> dict[str, int]:
        sizes = dict.fromkeys(REGION_NAMES, 0)
        for block, region in zip(self.tp.space.blocks, self.tp.block_regions):
            sizes[region] += len(block)
        return sizes

    @property
    def notes(self) -> tuple[str, ...]:
        empty = self.tp.empty_regions
        notes = [note for region, note in _EMPTY_REGION_NOTES.items() if region in empty]
        if self.equivalence is not None:
            notes.append(f"equivalence case: {self.equivalence.case.value}")
        return tuple(notes)

    def _blocks(self):
        """Each block's label, elements, ratio, float degree, region and sentence."""
        space, tp = self.tp.space, self.tp
        quantifier, name = quantifier_for(self.expr), self.expression_name
        for label, block, ratio, degree, region in zip(
            space.labels, space.blocks, tp.ratios, tp.block_degrees, tp.block_regions
        ):
            degree = float(degree)
            sentence = _sentence(label, label, self.concept_label, quantifier, name, degree,
                                 _DECISION_BY_REGION[region])
            yield label, block, ratio, degree, region, sentence

    def to_text(self) -> str:
        lines = [
            f"concept: {self.concept_label}",
            f"expression: {self.expression_name}",
            f"thresholds: alpha={self.thresholds.alpha}, beta={self.thresholds.beta}",
            "",
        ]
        for label, block, ratio, degree, region, sentence in self._blocks():
            lines.append(
                f"block {label} ({len(block)} elements): "
                f"ratio {format_endpoint(ratio)}, degree {degree:.4g}, "
                f"region {_REGION_WORD[region]}"
            )
            lines.append(f"  {sentence}")
        lines.append("")
        sizes = self.region_sizes
        lines.append(
            f"region sizes: positive {sizes['pos']}, negative {sizes['neg']}, "
            f"boundary {sizes['bnd']}"
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.bounds is not None:
            lines.append("region bounds (attained inclusion ratios):")
            for name, value in asdict(self.bounds).items():
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
                    "label": label,
                    "elements": list(block),
                    "ratio": float(ratio),
                    "degree": degree,
                    "region": region,
                    "sentence": sentence,
                }
                for label, block, ratio, degree, region, sentence in self._blocks()
            ],
            "region_sizes": self.region_sizes,
            "notes": list(self.notes),
            "regions": self.tp.to_json_dict(),
        }
        if self.bounds is not None:
            data["bounds"] = {
                name: (None if value is None else float(value))
                for name, value in asdict(self.bounds).items()
            }
        if self.equivalence is not None:
            data["equivalence"] = self.equivalence.to_json_dict()
            if self.sweep_agrees is not None:
                data["equivalence"]["sweep_agrees"] = self.sweep_agrees
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
    """The report of one analysis run; the sweep is reduced to its verdict on ``equivalence``."""
    sweep_agrees = None if sweep is None or equivalence is None else sweep.agrees_with(equivalence)
    return AnalysisReport(tp, expr, thresholds, concept.label, bounds, equivalence, sweep_agrees)
