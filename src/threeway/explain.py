"""Plain-language explanations of region assignments.

One function words a block: from a tri-partition, an expression, a block
index, a subject and the concept's label it builds the :class:`Explanation`
(decision, degree, sentence).  :func:`explain_element` calls it at the
element's block, and a report's text lines and JSON ``blocks`` at each block.
An expression with a fuzzy-quantifier reading is worded by it ("many members
of C2 are in sport"), any other by its display name.  Degrees appear with two
decimals in prose and at full precision in the JSON form.

A report is the tri-partition it describes plus what was derived from it
(bounds, intervals, the sweep's verdict), rendered from the block table; only
``to_json_dict`` lists the regions element by element, in one pass over the
sorted universe.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import Optional

from .equivalence import RegionBounds, SweepResult, ThresholdEquivalence, format_endpoint
from .expressions import display_name, quantifier_for
from .records import Record
from .regions import REGION_NAMES, Thresholds, TriPartition
from .render import bracket, quote, render
from .spaces import Concept


class Decision(Enum):
    """The action a region assignment induces."""

    ACCEPT = "accepted"
    REJECT = "rejected"
    ABSTAIN = "abstained"


_DECISION_BY_REGION = {"pos": Decision.ACCEPT, "neg": Decision.REJECT, "bnd": Decision.ABSTAIN}

_REGION_WORD = {"pos": "positive", "neg": "negative", "bnd": "boundary"}


class Explanation(Record):
    element: str
    block: str
    region: Decision
    degree: float
    sentence: str
    quantifier: Optional[str]

    def __init__(self, element, block, region, degree, sentence, quantifier=None) -> None:  # as Record's, but faster
        self.__dict__.update(element=element, block=block, region=region, degree=degree, sentence=sentence,
                             quantifier=quantifier)


def shown(label: str) -> str:
    """A label, an id or a name as one line of text holds it: one not printable (a line break, an escape) as its JSON string."""
    return label if label.isprintable() else quote(label)


def _explain(tp: TriPartition, expr, index: int, subject: str, concept: str) -> Explanation:
    """Block ``index``'s decision, degree and sentence, said of ``subject`` and of ``concept``, a label as shown."""
    decision = _DECISION_BY_REGION[tp.block_regions[index]]
    degree = float(tp.block_degrees[index])
    block = tp.space.labels[index]
    quantifier = quantifier_for(expr)
    if quantifier is not None:
        clause = f"{quantifier} members of {shown(block)} are in {concept}"
    else:
        clause = f"the share of {shown(block)} members in {concept} counts as '{shown(display_name(expr))}'"
    sentence = f"The degree to which {clause} is {degree:.2f}, so {shown(subject)} is {decision.value}."
    return Explanation(subject, block, decision, degree, sentence, quantifier)


def explain_element(tp: TriPartition, expr, element: str, concept_label: str) -> Explanation:
    """Explain one element's assignment in the given tri-partition."""
    return _explain(tp, expr, tp.space.block_index(element), element, shown(concept_label))


#: The report's notes on empty regions, in the order they are printed.
_EMPTY_REGION_NOTES = {
    "bnd": "no abstentions: the boundary region is empty",
    "pos": "positive region empty",
    "neg": "negative region empty",
}


class AnalysisReport(Record):
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
        return display_name(self.expr)

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

    def _explanations(self) -> list[Explanation]:
        """Each block's explanation, the block said of itself, indexed like the block table."""
        concept = shown(self.concept_label)
        return [_explain(self.tp, self.expr, index, label, concept)
                for index, label in enumerate(self.tp.space.labels)]

    def to_text(self) -> str:
        lines = [
            f"concept: {shown(self.concept_label)}",
            f"expression: {shown(self.expression_name)}",
            f"thresholds: alpha={self.thresholds.alpha}, beta={self.thresholds.beta}",
            "",
        ]
        tp = self.tp
        for index, why in enumerate(self._explanations()):
            lines.append(
                f"block {shown(why.block)} ({len(tp.space.blocks[index])} elements): "
                f"ratio {format_endpoint(tp.ratios[index])}, degree {why.degree:.4g}, "
                f"region {_REGION_WORD[tp.block_regions[index]]}"
            )
            lines.append(f"  {why.sentence}")
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
            for name, value in self.bounds._asdict().items():
                rendered = "absent (region empty)" if value is None else format_endpoint(value)
                lines.append(f"  {name} = {rendered}")
        if self.equivalence is not None:
            lines.append(f"equivalent probabilistic thresholds: {self.equivalence.describe()}")
            lines.append(f"emptiness case: {self.equivalence.case.value}")
        if self.sweep_agrees is not None:
            lines.append("sweep agrees" if self.sweep_agrees else "sweep DISAGREES")
        return "\n".join(lines) + "\n"

    def _json_form(self, elements, regions) -> dict:
        """The JSON form, each block's element list given as ``elements(block)`` and ``regions`` as given."""
        tp = self.tp
        data: dict = {
            "concept": self.concept_label,
            "expression": self.expression_name,
            "alpha": float(self.thresholds.alpha),
            "beta": float(self.thresholds.beta),
            "blocks": [
                {
                    "label": why.block,
                    "elements": elements(tp.space.blocks[index]),
                    "ratio": float(tp.ratios[index]),
                    "degree": why.degree,
                    "region": tp.block_regions[index],
                    "sentence": why.sentence,
                }
                for index, why in enumerate(self._explanations())
            ],
            "region_sizes": self.region_sizes,
            "notes": list(self.notes),
            "regions": regions,
        }
        if self.bounds is not None:
            data["bounds"] = {
                name: (None if value is None else float(value))
                for name, value in self.bounds._asdict().items()
            }
        if self.equivalence is not None:
            data["equivalence"] = self.equivalence.to_json_dict()
            if self.sweep_agrees is not None:
                data["equivalence"]["sweep_agrees"] = self.sweep_agrees
        return data

    def to_json_dict(self) -> dict:
        return self._json_form(list, self.tp.to_json_dict())

    def json_chunks(self) -> tuple[str]:
        """``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)`` and a newline, as one string,
        each block's numbers formatted once; its memory grows with the output, unlike a sweep's rows."""
        data = self._json_form(lambda block: partial(bracket, "[]", list(map(quote, block))), self.tp.json_text)
        return (render(data) + "\n",)

    def text_chunks(self) -> tuple[str]:
        return (self.to_text(),)


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
