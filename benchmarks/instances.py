"""Seeded inputs for the benchmark: attribute tables and op scripts.

Everything here is plain Python and never imports ``threeway``: the program
under test only ever sees the CSV files and parameter strings made here.  The
same ``(workload, seed, scale)`` always yields the same tables and scripts.

A table has an ``id`` column, a ``grp`` key column that defines the partition,
and two boolean concept columns.  Every block draws its own density for each
column: ``low`` uniform in [0, 0.4] and ``high`` uniform in [0.6, 1], so that
``not_small`` (on ``low``) and ``very_big`` / ``extremely_big`` (on ``high``)
all give non-degenerate regions.  Block sizes vary by up to 3x around n/b.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DENSITY = {"low": (0.0, 0.4), "high": (0.6, 1.0)}
COLUMNS = tuple(DENSITY)

#: An increasing S-curve in the README's custom-expression schema.
CUSTOM_EXPRESSION = {
    "name": "s_curve",
    "segments": [
        {"lo": 0.0, "lo_inclusive": True, "hi": 0.5, "hi_inclusive": False,
         "form": "quad_up", "a": 0.0, "d": 0.5},
        {"lo": 0.5, "lo_inclusive": True, "hi": 1.0, "hi_inclusive": True,
         "form": "quad_down", "a": 1.0, "d": 0.5},
    ],
}
CUSTOM_FILE = "s_curve.json"

#: The expressions every workload draws from, as ``--expr`` specs.  ``custom``
#: and ``delta`` are resolved per run (file path, seeded cut-off).
EXPRESSIONS = ("not_small", "very_big", "extremely_big", "identity", "delta", "custom")

#: (expression, concept column, alpha range, beta range) in hundredths.  The
#: ranges keep most instances non-degenerate; the rest are typed refusals.
EQUIVALENCE_KINDS = (
    ("not_small", "low", (55, 95), (5, 45)),
    ("very_big", "high", (55, 95), (5, 45)),
    ("extremely_big", "high", (55, 95), (5, 45)),
    ("identity", "low", (55, 95), (10, 30)),
    ("identity", "high", (70, 90), (5, 45)),
    ("delta", "low", (55, 95), (5, 45)),
    ("delta", "high", (55, 95), (5, 45)),
    ("custom", "high", (85, 97), (5, 45)),
)
DELTA_CUT = {"low": (10, 30), "high": (70, 90)}


@dataclass(frozen=True)
class Table:
    """A generated attribute table plus the per-block counts behind it."""

    rows: tuple[tuple[str, str, int, int], ...]
    sizes: tuple[int, ...]
    hits: dict  # column -> tuple of per-block member counts

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def b(self) -> int:
        return len(self.sizes)

    def ratios(self, column: str) -> list[Fraction]:
        return [Fraction(h, s) for h, s in zip(self.hits[column], self.sizes)]

    def k(self, column: str) -> int:
        """Distinct inclusion ratios of the column's concept."""
        return len(set(self.ratios(column)))

    def candidates(self, column: str) -> list[Fraction]:
        """Attained ratios, midpoints of neighbours, 0 and 1: one value per threshold cell."""
        distinct = sorted(set(self.ratios(column)))
        values = {Fraction(0), Fraction(1), *distinct}
        values.update((lo + hi) / 2 for lo, hi in zip(distinct, distinct[1:]))
        return sorted(values)

    def write_csv(self, path: Path) -> None:
        lines = ["id,grp,low,high"]
        lines.extend(f"{e},{g},{lo},{hi}" for e, g, lo, hi in self.rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _apportion(n: int, weights: list[float]) -> list[int]:
    """Split n (at least len(weights)) into positive parts proportional to the weights."""
    total = sum(weights)
    shares = [n * w / total for w in weights]
    sizes = [max(1, int(s)) for s in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: max(0, n - sum(sizes))]:
        sizes[i] += 1
    while sum(sizes) > n:
        sizes[sizes.index(max(sizes))] -= 1
    return sizes


def make_table(rng: random.Random, n: int, b: int) -> Table:
    sizes = _apportion(n, [rng.uniform(0.5, 1.5) for _ in range(b)])
    rows = []
    hits = {c: [] for c in COLUMNS}
    element = 0
    for block, size in enumerate(sizes):
        density = {c: rng.uniform(*DENSITY[c]) for c in COLUMNS}
        count = dict.fromkeys(COLUMNS, 0)
        for _ in range(size):
            flags = {c: int(rng.random() < density[c]) for c in COLUMNS}
            for c in COLUMNS:
                count[c] += flags[c]
            rows.append((f"e{element:05d}", f"g{block:03d}", flags["low"], flags["high"]))
            element += 1
        for c in COLUMNS:
            hits[c].append(count[c])
    rng.shuffle(rows)
    return Table(tuple(rows), tuple(sizes), {c: tuple(v) for c, v in hits.items()})


def _hundredths(rng: random.Random, span: tuple[int, int]) -> str:
    return f"{rng.randint(*span) / 100:.2f}"


def _thresholds(rng: random.Random, alpha=(55, 95), beta=(5, 45)) -> tuple[str, str]:
    return _hundredths(rng, alpha), _hundredths(rng, beta)


def _probe_pair(rng: random.Random, table: Table, column: str) -> tuple[str, str]:
    """A candidate (alpha', beta') pair with beta' < alpha', as exact fraction strings."""
    low, high = sorted(rng.sample(table.candidates(column), 2))
    return str(high), str(low)


def write_custom_expression(workdir: Path) -> None:
    (workdir / CUSTOM_FILE).write_text(json.dumps(CUSTOM_EXPRESSION), encoding="utf-8")


# -- equivalence-sweep -------------------------------------------------------

SWEEP_SIZES = {
    "full": [(n, b) for n in (300, 400, 500, 600) for b in (12, 16, 20, 24)],
    "smoke": [(40, 4), (60, 6)],
}


def equivalence_sweep(seed: int, scale: str, rounds: int, workdir: Path) -> dict:
    """One fresh instance per op, shuffled.

    A round crosses every (n, b) size with half of the kinds, the two halves
    taking turns, so every seed gets the same mix of sizes and kinds.
    """
    rng = random.Random(f"equivalence-sweep:{seed}")
    half = len(EQUIVALENCE_KINDS) // 2
    plan = [(size, kind) for r in range(rounds) for size in SWEEP_SIZES[scale]
            for kind in EQUIVALENCE_KINDS[half * (r % 2): half * (r % 2 + 1)]]
    rng.shuffle(plan)
    ops = []
    for index, ((n, b), (expr, column, alpha_span, beta_span)) in enumerate(plan):
        table = make_table(rng, n, b)
        csv_name = f"inst{index:04d}.csv"
        table.write_csv(workdir / csv_name)
        if expr == "delta":
            expr = f"delta:{_hundredths(rng, DELTA_CUT[column])}"
        alpha, beta = _thresholds(rng, alpha_span, beta_span)
        ops.append({
            "csv": csv_name, "column": column, "expr": expr, "alpha": alpha, "beta": beta,
            "pick": rng.random(), "n": table.n, "b": table.b, "k": table.k(column),
        })
    return {"ops": ops}


# -- query-stream ------------------------------------------------------------

QUERY_SIZE = {"full": (5000, 50), "smoke": (400, 8)}
#: The query mix: 40% verify, 25% explain, 20% intervals, 10% bounds,
#: 5% concept switch.
QUERY_KINDS = ["verify"] * 8 + ["explain"] * 5 + ["intervals"] * 4 + ["bounds"] * 2 + ["switch"]
QUERY_THRESHOLD_PAIRS = 4


def query_stream(seed: int, scale: str, rounds: int, workdir: Path) -> dict:
    """One space, a shuffled stream of queries with an exact kind x expression mix."""
    rng = random.Random(f"query-stream:{seed}")
    n, b = QUERY_SIZE[scale]
    table = make_table(rng, n, b)
    table.write_csv(workdir / "space.csv")
    delta = f"delta:{_hundredths(rng, (25, 75))}"
    thresholds = [_thresholds(rng) for _ in range(QUERY_THRESHOLD_PAIRS)]
    # A round is the query mix once per expression (120 ops), so every
    # (kind, expression) pair has its exact weight.
    script = []
    for _ in range(rounds):
        block = [kind for _ in EXPRESSIONS for kind in QUERY_KINDS]
        exprs = {kind: itertools.cycle(EXPRESSIONS) for kind in QUERY_KINDS}
        script.extend((kind, next(exprs[kind])) for kind in block)
    rng.shuffle(script)
    column = COLUMNS[0]
    ids = [row[0] for row in table.rows]
    ops = []
    for kind, expr in script:
        op = {"kind": kind, "column": column}
        if kind == "switch":
            column = COLUMNS[1 - COLUMNS.index(column)]
            op["column"] = column
        else:
            op["expr"] = delta if expr == "delta" else expr
            op["alpha"], op["beta"] = rng.choice(thresholds)
        if kind == "verify":
            op["pa"], op["pb"] = _probe_pair(rng, table, column)
        elif kind == "explain":
            op["element"] = rng.choice(ids)
        ops.append(op)
    return {
        "csv": "space.csv", "ops": ops, "n": table.n, "b": table.b,
        "k": {c: table.k(c) for c in COLUMNS}, "max_block": max(table.sizes),
    }


# -- cli-table ---------------------------------------------------------------

CLI_TABLES = {"full": {"b12": (10000, 12), "b200": (10000, 200)},
              "smoke": {"b12": (300, 12), "b200": (300, 30)}}
CLI_COMMANDS = ("regions", "bounds", "verify")


def cli_table(seed: int, scale: str, rounds: int, workdir: Path) -> dict:
    """Subprocess ops over two CSVs: every (command, table, expression) equally often."""
    rng = random.Random(f"cli-table:{seed}")
    tables = {}
    for name, (n, b) in CLI_TABLES[scale].items():
        table = make_table(rng, n, b)
        table.write_csv(workdir / f"{name}.csv")
        tables[name] = table
    plan = [(cmd, name, expr) for _ in range(rounds) for cmd in CLI_COMMANDS
            for name in tables for expr in EXPRESSIONS]
    rng.shuffle(plan)
    ops = []
    for command, name, expr in plan:
        column = rng.choice(COLUMNS)
        if expr == "delta":
            expr = f"delta:{_hundredths(rng, DELTA_CUT[column])}"
        alpha, beta = _thresholds(rng)
        op = {"command": command, "csv": f"{name}.csv", "column": column, "expr": expr,
              "alpha": alpha, "beta": beta, "n": tables[name].n, "b": tables[name].b,
              "k": tables[name].k(column)}
        if command == "verify":
            op["pa"], op["pb"] = _probe_pair(rng, tables[name], column)
        ops.append(op)
    return {"ops": ops}


# -- off-path probe instance -------------------------------------------------

def probe_instance(seed: int, workdir: Path) -> dict:
    """A small instance for timing, in a traced run, the layers a workload never calls."""
    rng = random.Random(f"probe:{seed}")
    table = make_table(rng, 300, 12)
    table.write_csv(workdir / "probe.csv")
    alpha, beta = _thresholds(rng)
    pa, pb = _probe_pair(rng, table, "low")
    return {"csv": "probe.csv", "column": "low", "expr": "not_small", "alpha": alpha,
            "beta": beta, "pa": pa, "pb": pb, "element": table.rows[0][0],
            "n": table.n, "b": table.b, "k": table.k("low")}
