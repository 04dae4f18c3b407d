"""Shared fixtures: the four golden instances and the acceptance summary hook."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from threeway import (
    ApproximationSpace,
    Concept,
    Thresholds,
    TriPartition,
    linguistic_regions,
    probabilistic_regions,
)
from threeway.equivalence import SweepEntry

settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def users(lo: int, hi: int) -> list[str]:
    """u<lo> .. u<hi>, inclusive."""
    return [f"u{i}" for i in range(lo, hi + 1)]


def community_instance() -> tuple[ApproximationSpace, Concept]:
    """32 users in six communities, with the users interested in sport.

    Block inclusion ratios for the sport concept come out as the exact
    fractions 0, 1/5, 2/5, 3/5, 4/5, and 1/7.
    """
    blocks = {
        "C1": users(1, 5),
        "C2": users(6, 10),
        "C3": users(11, 15),
        "C4": users(16, 20),
        "C5": users(21, 25),
        "C6": users(26, 32),
    }
    space = ApproximationSpace(users(1, 32), blocks.values(), labels=list(blocks))
    sport = Concept(
        frozenset("u10 u11 u12 u18 u19 u20 u21 u22 u23 u24 u26".split()),
        label="sport",
    )
    return space, sport


def twenty_instance() -> tuple[ApproximationSpace, Concept]:
    """20 elements in three classes; ratios 0, 1, and 9/10."""
    blocks = {"C1": users(1, 5), "C2": users(6, 10), "C3": users(11, 20)}
    space = ApproximationSpace(users(1, 20), blocks.values(), labels=list(blocks))
    concept = Concept(frozenset(users(6, 19)), label="X")
    return space, concept


def thirty_instance() -> tuple[ApproximationSpace, Concept]:
    """30 elements in three classes; ratios 1, 1, and 9/10 (negative region empty)."""
    blocks = {"C1": users(1, 5), "C2": users(6, 10), "C3": users(11, 30)}
    space = ApproximationSpace(users(1, 30), blocks.values(), labels=list(blocks))
    concept = Concept(frozenset(users(1, 28)), label="X")
    return space, concept


def thirty_instance_modified() -> tuple[ApproximationSpace, Concept]:
    """30 elements regrouped so the ratios are exactly 1/2, 1/2, and 9/10.

    Half-ratios need even block sizes, hence the 6/4/20 split; the positive
    region is empty for the very-big expression at (0.7, 0.2).
    """
    blocks = {"C1": users(1, 6), "C2": users(7, 10), "C3": users(11, 30)}
    space = ApproximationSpace(users(1, 30), blocks.values(), labels=list(blocks))
    concept = Concept(
        frozenset(users(1, 3) + users(7, 8) + users(11, 28)),
        label="X",
    )
    return space, concept


def dip_instance() -> tuple[ApproximationSpace, Concept]:
    """Three blocks straddling the 2.6e-4 dip of "not small" at 0.16.

    Ratios 4/25 = 0.16, 321/2006 ~ 0.160020 and 0 (a singleton outside the
    concept).  At alpha = 0.42647, beta = 0.1 the lower ratio is accepted
    while the higher one is deferred, although the grid scan calls the
    expression increasing.
    """
    low = [f"a{i}" for i in range(25)]
    high = [f"b{i}" for i in range(2006)]
    lone = ["c0"]
    space = ApproximationSpace(low + high + lone, [low, high, lone], labels=["A", "B", "C"])
    concept = Concept(frozenset(low[:4] + high[:321]), label="X")
    return space, concept


DIP_THRESHOLDS = Thresholds(Fraction("0.42647"), Fraction("0.1"))


def recount_ratios(space: ApproximationSpace, concept: Concept) -> tuple[Fraction, ...]:
    """Each block's inclusion ratio, counted element by element (the block-table reference)."""
    return tuple(
        Fraction(sum(1 for e in block if e in concept.members), len(block))
        for block in space.blocks
    )


def recount_regions(space: ApproximationSpace, concept: Concept, expr, thresholds) -> tuple[dict, dict]:
    """Element-level reference for a tri-partition's views.

    Every element's own inclusion ratio goes through ``expr``, and its degree
    is compared with the thresholds directly.  Returns the element-to-degree
    map and the pos/neg/bnd element sets.
    """
    degrees: dict = {}
    regions: dict[str, set[str]] = {"pos": set(), "neg": set(), "bnd": set()}
    for element in space.elements:
        degree = expr.evaluate(space.inclusion_ratio(concept, element))
        degrees[element] = degree
        if degree >= thresholds.alpha:
            regions["pos"].add(element)
        elif degree <= thresholds.beta:
            regions["neg"].add(element)
        else:
            regions["bnd"].add(element)
    return degrees, regions


def reference_candidates(ratios) -> tuple[Fraction, ...]:
    """The sweep's candidates built on Fraction sets: 0, 1, each ratio and each midpoint ``(lo + hi) / 2``."""
    distinct = sorted(set(ratios))
    values = {Fraction(0), Fraction(1), *distinct}
    values.update((lo + hi) / 2 for lo, hi in zip(distinct, distinct[1:]))
    return tuple(sorted(values))


def plain_region(degree, thresholds: Thresholds) -> str:
    """A degree's region by the comparison operators alone: ``pos`` at or above alpha, ``neg`` at or below beta."""
    if degree >= thresholds.alpha:
        return "pos"
    if degree <= thresholds.beta:
        return "neg"
    return "bnd"


def reference_pairs(candidates, reproduces) -> tuple[SweepEntry, ...]:
    """One entry per candidate pair beta' < alpha', alpha'-major, its verdict ``reproduces(Thresholds(alpha', beta'))``."""
    return tuple(SweepEntry(alpha_p, beta_p, reproduces(Thresholds(alpha_p, beta_p)))
                 for alpha_p in candidates for beta_p in candidates if beta_p < alpha_p)


def reference_sweep(space: ApproximationSpace, concept: Concept, expr, thresholds) -> tuple:
    """The element-level sweep: rebuild both tri-partitions per candidate pair.

    Slow (every pair re-derives block ratios and element sets) but the most
    direct reading of "the pair reproduces the regions".  Returns the
    candidates and one entry per pair; the library sweep's ``candidates`` and
    ``entries`` must equal them entry for entry.
    """
    candidates = reference_candidates(space.block_ratios(concept).values())
    lingual = linguistic_regions(space, concept, expr, thresholds)
    return candidates, reference_pairs(
        candidates, lambda probe: lingual.same_regions(probabilistic_regions(space, concept, probe)))


def reference_table_sweep(tp: TriPartition) -> tuple:
    """The block-level sweep of a block table, which no concept need produce.

    A pair reproduces the table when every block's ratio lands in that
    block's region under the pair, by :func:`plain_region`.
    """
    candidates = reference_candidates(tp.ratios)
    return candidates, reference_pairs(
        candidates, lambda probe: all(plain_region(ratio, probe) == region
                                      for ratio, region in zip(tp.ratios, tp.block_regions)))


def reference_verdicts(tp: TriPartition) -> tuple:
    """The sweep's candidates and its two verdict vectors, each candidate compared as a Fraction.

    alpha' holds when every wanted-``bnd`` ratio is below it and every
    wanted-``pos`` ratio at or above it; beta' holds when every wanted-``neg``
    ratio is at or below it and every wanted-``bnd`` ratio above it.
    """
    candidates = reference_candidates(tp.ratios)
    wanted = {name: [r for r, region in zip(tp.ratios, tp.block_regions) if region == name]
              for name in ("pos", "neg", "bnd")}
    alpha_ok = tuple(all(r < t for r in wanted["bnd"]) and all(r >= t for r in wanted["pos"])
                     for t in candidates)
    beta_ok = tuple(all(r <= t for r in wanted["neg"]) and all(r > t for r in wanted["bnd"])
                    for t in candidates)
    return candidates, alpha_ok, beta_ok


def write_seeded_table(path, seed: int = 7, rows: int = 10_000, blocks: int = 200) -> None:
    """Write a CSV ``id,grp,x`` of ``rows`` elements in ``blocks`` groups.

    Each group draws its own concept density uniform in [0, 0.4], so under
    ``not_small`` at (0.8, 0.2) all three regions are non-empty; groups stay
    well below the ~88 elements that can reach the built-ins' dips.  Only
    ``Random.random`` is drawn, whose stream is stable across Python versions.
    """
    rng = random.Random(seed)
    density = [0.4 * rng.random() for _ in range(blocks)]
    lines = ["id,grp,x"]
    for i in range(rows):
        group = i if i < blocks else int(rng.random() * blocks)
        lines.append(f"e{i},g{group},{int(rng.random() < density[group])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def community():
    return community_instance()


@pytest.fixture
def twenty():
    return twenty_instance()


@pytest.fixture
def thirty():
    return thirty_instance()


@pytest.fixture
def thirty_modified():
    return thirty_instance_modified()


def labels_of(space: ApproximationSpace, elements) -> set[str]:
    """Block labels touched by a set of elements."""
    return {space.label_of(e) for e in elements}


def block_union(space: ApproximationSpace, *labels: str) -> frozenset[str]:
    by_label = dict(zip(space.labels, space.blocks))
    out: set[str] = set()
    for label in labels:
        out.update(by_label[label])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Exact-rational oracle for the piecewise formulas (independent of the
# library's float evaluation path).
# ---------------------------------------------------------------------------

def oracle_quad_up(x: Fraction, a: str, d: str) -> Fraction:
    return (x - Fraction(a)) ** 2 / Fraction(d)


def oracle_quad_down(x: Fraction, a: str, d: str) -> Fraction:
    return 1 - (Fraction(a) - x) ** 2 / Fraction(d)


def oracle_not_small(x: Fraction) -> Fraction:
    if x >= Fraction("0.275"):
        return Fraction(1)
    if x > Fraction("0.16"):
        return oracle_quad_down(x, "0.275", "0.02305")
    if x > Fraction("0.0745"):
        return oracle_quad_up(x, "0.0745", "0.01714")
    return Fraction(0)


def oracle_very_big(x: Fraction) -> Fraction:
    if x >= Fraction("0.9575"):
        return Fraction(1)
    if x >= Fraction("0.895"):
        return oracle_quad_down(x, "0.9575", "0.00796")
    if x > Fraction("0.83"):
        return oracle_quad_up(x, "0.83", "0.00828")
    return Fraction(0)


def oracle_extremely_big(x: Fraction) -> Fraction:
    if x >= Fraction("0.995"):
        return Fraction(1)
    if x >= Fraction("0.95"):
        return oracle_quad_down(x, "0.995", "0.00495")
    if x > Fraction("0.885"):
        return oracle_quad_up(x, "0.885", "0.00715")
    return Fraction(0)


ORACLES = {
    "not_small": oracle_not_small,
    "very_big": oracle_very_big,
    "extremely_big": oracle_extremely_big,
}


# ---------------------------------------------------------------------------
# Acceptance summary: one pass/fail line per criterion at the end of the run.
# ---------------------------------------------------------------------------

ACCEPTANCE_LABELS = {
    1: "golden run: ratios, degrees, regions, runtime",
    2: "region bounds and their strict interleaving",
    3: "equivalence intervals, verification, sweep agreement",
    4: "20-element instance: bounds, classical coincidence",
    5: "crisp-cutoff regions and the empty-negative case",
    6: "empty-positive case intervals",
    7: "randomized property suite (1000 instances)",
    8: "built-in expression checks",
}

_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION_PATTERN.search(report.nodeid)
            if match:
                number = int(match.group(1))
                outcomes[number] = "FAIL" if outcomes.get(number) == "FAIL" else word
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        label = ACCEPTANCE_LABELS.get(number, "")
        terminalreporter.write_line(f"criterion {number}: {outcomes[number]} - {label}")
