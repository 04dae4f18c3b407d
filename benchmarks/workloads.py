"""The three workloads: set-up, one op, and the checks on its output.

Each workload times only the program's calls in :meth:`run`; checks and
probes run after the timer stops.  An op ends in one of three states:

* ``ok``: the output passed its checks;
* ``refused``: the program raised a typed ``DegenerateRegionsError`` or
  ``NonMonotoneExpressionError`` (CLI exit 4 or 5);
* ``failed``: anything else, such as a mismatch, a bare ``ValueError`` or a
  traceback exit.  The runner catches these and never re-raises them.

``threeway`` is imported in :meth:`setup`, never at module level, so that
set-up time includes the import.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import instances
from tracing import OFF

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 120
CLI_REFUSED_EXITS = {4, 5}  # non-monotone expression, degenerate tri-partition


@dataclass
class Outcome:
    output: bytes  # what the run's digest covers
    status: str = "ok"  # ok | refused | failed
    detail: str = ""
    trace_pair: tuple[float, float] | None = None  # (untraced, traced) seconds of one op


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, env=program_env(), cwd=ROOT,
                          timeout=CLI_TIMEOUT_S)


def dumps(data) -> bytes:
    return json.dumps(data, sort_keys=True).encode()


def resolve_expression(tw, spec: str, workdir: Path):
    if spec == "identity":
        return tw.IdentityExpr()
    if spec.startswith("delta:"):
        return tw.StepExpr(Fraction(spec.split(":", 1)[1]))
    if spec == "custom":
        return tw.load_expression(str(workdir / instances.CUSTOM_FILE))
    return tw.builtin(spec)


def thresholds(tw, alpha: str, beta: str):
    return tw.Thresholds(Fraction(alpha), Fraction(beta))


def refusals(tw) -> tuple:
    return (tw.DegenerateRegionsError, tw.NonMonotoneExpressionError)


def refused(exc: Exception) -> Outcome:
    return Outcome(dumps({"refused": type(exc).__name__}), "refused", type(exc).__name__)


def inner_probes(tw, tr, space, concept, expr=None, probe_thresholds=None) -> None:
    """Time calls that only run nested inside other calls, once, as marked probes."""
    with tr.span("spaces.block_ratios", probe=True):
        space.block_ratios(concept)
    if expr is not None:
        with tr.span("expressions.is_increasing", probe=True):
            tw.is_increasing(expr)
    if probe_thresholds is not None:
        with tr.span("regions.probabilistic_regions", probe=True):
            tw.probabilistic_regions(space, concept, probe_thresholds)


def rounds_for(workload, scale: str, seconds: int) -> int:
    """Whole rounds of the workload's balanced op mix that fill ``seconds`` at its nominal rate.

    Nominal rates were measured on a shared 2-core VM.  The floors keep at
    least 10 samples beyond p90 and, for ``equivalence-sweep``, enough
    instances for a p50 that is steady across seeds; they make a run longer
    than ``seconds`` at today's speed.
    """
    if scale == "smoke":
        return 1
    rate = workload.nominal_ops_per_s / workload.round_ops
    return max(workload.min_rounds, round(seconds * rate))


class EquivalenceSweep:
    """The ``equivalence`` pipeline on a fresh instance per op."""

    name = "equivalence-sweep"
    pairs_itself = False
    nominal_ops_per_s, round_ops, min_rounds = 8.5, 64, 3
    probe_every = 1

    def generate(self, seed: int, scale: str, seconds: int, workdir: Path) -> dict:
        return instances.equivalence_sweep(seed, scale, rounds_for(self, scale, seconds), workdir)

    def setup(self, spec: dict, workdir: Path, tr=OFF) -> None:
        tw = self.tw = importlib.import_module("threeway")
        self.ops = spec["ops"]
        exprs = {}
        self.cases = []
        for op in self.ops:
            with tr.span("spaces.load_table"):
                rows = tw.load_table(str(workdir / op["csv"]))
            with tr.span("spaces.from_attribute_table"):
                space = tw.from_attribute_table(rows, ["grp"], "id")
            with tr.span("spaces.concept_from_column"):
                concept = tw.concept_from_column(rows, op["column"], "id")
            if op["expr"] not in exprs:
                exprs[op["expr"]] = resolve_expression(tw, op["expr"], workdir)
            self.cases.append((space, concept, exprs[op["expr"]],
                               thresholds(tw, op["alpha"], op["beta"])))

    def run(self, i: int, tr=OFF) -> tuple[float, Outcome]:
        tw = self.tw
        space, concept, expr, th = self.cases[i]
        start = perf_counter()
        try:
            with tr.span("regions.linguistic_regions"):
                tp = tw.linguistic_regions(space, concept, expr, th)
            with tr.span("equivalence.region_bounds"):
                bounds = tw.region_bounds(space, concept, expr, th)
            with tr.span("equivalence.equivalent_threshold_intervals"):
                eq = tw.equivalent_threshold_intervals(space, concept, expr, th)
            with tr.span("equivalence.sweep_equivalence_oracle") as sweep_counts:
                sweep = tw.sweep_equivalence_oracle(space, concept, expr, th)
            with tr.span("equivalence.agrees_with"):
                agrees = sweep.agrees_with(eq)
            with tr.span("explain.report"):
                rep = tw.report(tp, expr, th, concept, bounds=bounds, equivalence=eq, sweep=sweep)
            with tr.span("explain.to_json") as json_counts:
                output = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True).encode()
        except refusals(tw) as exc:
            return perf_counter() - start, refused(exc)
        seconds = perf_counter() - start

        admitted = sweep.admitted()
        sweep_counts.update(candidates=len(sweep.candidates), pairs=len(sweep.entries),
                            admitted_ratio=len(admitted) / max(1, len(sweep.entries)))
        json_counts["json_bytes"] = len(output)
        if not agrees:
            return seconds, Outcome(output, "failed", "sweep disagrees with the intervals")
        probe_th = th
        if admitted:
            pair = admitted[int(self.ops[i]["pick"] * len(admitted))]
            probe_th = tw.Thresholds(pair.alpha, pair.beta)
            with tr.span("equivalence.verify_equivalence"):
                reproduces = tw.verify_equivalence(space, concept, expr, th, pair.alpha, pair.beta)
            if not reproduces:
                return seconds, Outcome(
                    output, "failed", f"admitted pair ({pair.alpha}, {pair.beta}) fails verify")
        if tr.enabled and i % self.probe_every == 0:
            inner_probes(tw, tr, space, concept, expr, probe_th)
        return seconds, Outcome(output)

    def context(self, i: int) -> dict:
        return {key: self.ops[i][key] for key in ("n", "b", "k")}

    def finish(self, outcomes: list[Outcome]) -> dict[int, str]:
        return {}


class QueryStream:
    """One space, a seeded stream of mixed queries and concept switches."""

    name = "query-stream"
    pairs_itself = False
    nominal_ops_per_s, round_ops, min_rounds = 150, 120, 1
    probe_every = 4  # is_increasing alone costs more than most ops; keeps a traced run short

    def generate(self, seed: int, scale: str, seconds: int, workdir: Path) -> dict:
        return instances.query_stream(seed, scale, rounds_for(self, scale, seconds), workdir)

    def setup(self, spec: dict, workdir: Path, tr=OFF) -> None:
        tw = self.tw = importlib.import_module("threeway")
        self.spec = spec
        self.ops = spec["ops"]
        with tr.span("spaces.load_table"):
            self.rows = tw.load_table(str(workdir / spec["csv"]))
        with tr.span("spaces.from_attribute_table"):
            self.space = tw.from_attribute_table(self.rows, ["grp"], "id")
        with tr.span("spaces.concept_from_column"):
            self.concept = tw.concept_from_column(self.rows, self.ops[0]["column"], "id")
        self.exprs = {}
        self.thresholds = {}
        for op in self.ops:
            if "expr" in op and op["expr"] not in self.exprs:
                self.exprs[op["expr"]] = resolve_expression(tw, op["expr"], workdir)
            if "alpha" in op and (op["alpha"], op["beta"]) not in self.thresholds:
                self.thresholds[op["alpha"], op["beta"]] = thresholds(tw, op["alpha"], op["beta"])

    def run(self, i: int, tr=OFF) -> tuple[float, Outcome]:
        tw, space, op = self.tw, self.space, self.ops[i]
        kind = op["kind"]
        expr = self.exprs.get(op.get("expr"))
        th = self.thresholds.get((op.get("alpha"), op.get("beta")))
        if kind == "verify":
            pa, pb = Fraction(op["pa"]), Fraction(op["pb"])
        start = perf_counter()
        try:
            if kind == "switch":
                with tr.span("spaces.concept_from_column"):
                    self.concept = tw.concept_from_column(self.rows, op["column"], "id")
                output = dumps({"concept": self.concept.label, "members": len(self.concept.members)})
            elif kind == "verify":
                with tr.span("equivalence.verify_equivalence"):
                    answer = tw.verify_equivalence(space, self.concept, expr, th, pa, pb)
                output = dumps(answer)
            elif kind == "explain":
                with tr.span("regions.linguistic_regions"):
                    tp = tw.linguistic_regions(space, self.concept, expr, th)
                with tr.span("explain.explain_element"):
                    why = tw.explain_element(tp, expr, op["element"], self.concept.label)
                output = dumps({"block": why.block, "region": why.region.value,
                                "degree": why.degree, "sentence": why.sentence})
            elif kind == "intervals":
                with tr.span("equivalence.equivalent_threshold_intervals"):
                    eq = tw.equivalent_threshold_intervals(space, self.concept, expr, th)
                output = dumps(eq.to_json_dict())
            else:
                with tr.span("equivalence.region_bounds"):
                    bounds = tw.region_bounds(space, self.concept, expr, th)
                output = dumps([None if v is None else str(v) for v in bounds.as_tuple()])
        except refusals(tw) as exc:
            return perf_counter() - start, refused(exc)
        seconds = perf_counter() - start
        if self.concept.label != op["column"]:
            return seconds, Outcome(output, "failed", "concept out of step with the script")
        if tr.enabled and i % self.probe_every == 0:
            inner_probes(tw, tr, space, self.concept, expr,
                         tw.Thresholds(pa, pb) if kind == "verify" else None)
        return seconds, Outcome(output)

    def context(self, i: int) -> dict:
        op = self.ops[i]
        return {"kind": op["kind"], "n": self.spec["n"], "b": self.spec["b"],
                "k": self.spec["k"][op["column"]]}

    def finish(self, outcomes: list[Outcome]) -> dict[int, str]:
        """After the timed phase: each verify answer must equal the intervals' ``admits``.

        Interval answers are recomputed per (concept, expression, thresholds)
        on fresh concepts, so the check also catches state that leaks across
        concept switches.
        """
        tw = self.tw
        concepts = {c: tw.concept_from_column(self.rows, c, "id") for c in instances.COLUMNS}
        refs = {}
        failures = {}
        for i, op in enumerate(self.ops):
            if op["kind"] not in ("verify", "intervals") or outcomes[i].status == "failed":
                continue
            key = (op["column"], op["expr"], op["alpha"], op["beta"])
            if key not in refs:
                try:
                    refs[key] = tw.equivalent_threshold_intervals(
                        self.space, concepts[op["column"]], self.exprs[op["expr"]],
                        self.thresholds[op["alpha"], op["beta"]])
                except refusals(tw) as exc:
                    refs[key] = exc
                except ValueError:
                    refs[key] = None  # untyped crash: the intervals op itself counts it
            ref = refs[key]
            if ref is None:
                continue
            if op["kind"] == "intervals":
                expected = refused(ref).output if isinstance(ref, Exception) else dumps(ref.to_json_dict())
                if outcomes[i].output != expected:
                    failures[i] = "intervals differ from a fresh recomputation"
            elif not isinstance(ref, Exception):
                admits = ref.admits(Fraction(op["pa"]), Fraction(op["pb"]))
                if outcomes[i].output != dumps(admits):
                    failures[i] = f"verify answer differs from admits() = {admits}"
        return failures


def cli_argv(op: dict, workdir: Path) -> list[str]:
    expr = op["expr"]
    if expr == "custom":
        expr = f"file:{workdir / instances.CUSTOM_FILE}"
    argv = [sys.executable, "-m", "threeway.cli", op["command"],
            "--input", str(workdir / op["csv"]), "--key", "grp", "--concept", op["column"],
            "--expr", expr, "--alpha", op["alpha"], "--beta", op["beta"]]
    if op["command"] == "verify":
        return argv + ["--prob-alpha", op["pa"], "--prob-beta", op["pb"]]
    return argv + ["--format", "json"]


def cli_replay(tw, op: dict, workdir: Path, tr=OFF):
    """The public calls one CLI op makes, in-process: stdout bytes, or the verify answer."""
    with tr.span("spaces.load_table"):
        rows = tw.load_table(str(workdir / op["csv"]))
    with tr.span("spaces.from_attribute_table"):
        space = tw.from_attribute_table(rows, ["grp"], "id")
    with tr.span("spaces.concept_from_column"):
        concept = space.check_concept(tw.concept_from_column(rows, op["column"], "id"))
    expr = resolve_expression(tw, op["expr"], workdir)
    th = thresholds(tw, op["alpha"], op["beta"])
    with tr.span("regions.linguistic_regions"):
        tp = tw.linguistic_regions(space, concept, expr, th)
    if op["command"] == "verify":
        with tr.span("regions.probabilistic_regions"):
            prob = tw.probabilistic_regions(space, concept, thresholds(tw, op["pa"], op["pb"]))
        return tp.same_regions(prob)
    bounds = None
    if op["command"] == "bounds":
        with tr.span("equivalence.region_bounds"):
            bounds = tw.region_bounds(space, concept, expr, th)
    with tr.span("explain.report"):
        rep = tw.report(tp, expr, th, concept, bounds=bounds)
    with tr.span("explain.to_json") as counts:
        text = (json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()
    counts["json_bytes"] = len(text)
    return text


BARE_START = [sys.executable, "-c", "pass"]
IMPORT_CLI = [sys.executable, "-c",
              "import time; t = time.perf_counter(); import threeway.cli; "
              "print(time.perf_counter() - t)"]


def cli_startup(tr, samples: int) -> tuple[float, float]:
    """Median bare interpreter start and median cold ``import threeway.cli``."""
    starts, imports = [], []
    for _ in range(samples):
        t = perf_counter()
        run_child(BARE_START).check_returncode()
        starts.append(perf_counter() - t)
        tr.add("cli.python_start", starts[-1])
        done = run_child(IMPORT_CLI)
        done.check_returncode()
        imports.append(float(done.stdout))
        tr.add("cli.import", imports[-1])
    return statistics.median(starts), statistics.median(imports)


class CliTable:
    """One ``threeway`` subprocess per op over two ~10k-row tables."""

    name = "cli-table"
    pairs_itself = True  # a traced op replays the subprocess's calls in-process
    nominal_ops_per_s, round_ops, min_rounds = 3.6, 36, 3

    def generate(self, seed: int, scale: str, seconds: int, workdir: Path) -> dict:
        return instances.cli_table(seed, scale, rounds_for(self, scale, seconds), workdir)

    def setup(self, spec: dict, workdir: Path, tr=OFF) -> None:
        """Reference answers for the checks; the CLI's own set-up is timed by IMPORT_CLI."""
        tw = self.tw = importlib.import_module("threeway")
        self.ops, self.workdir = spec["ops"], workdir
        tables = {}
        self.expected = {}
        for i, op in enumerate(self.ops):
            if op["command"] != "verify":
                continue
            if op["csv"] not in tables:
                rows = tw.load_table(str(workdir / op["csv"]))
                tables[op["csv"]] = (rows, tw.from_attribute_table(rows, ["grp"], "id"))
            rows, space = tables[op["csv"]]
            self.expected[i] = tw.verify_equivalence(
                space, tw.concept_from_column(rows, op["column"], "id"),
                resolve_expression(tw, op["expr"], workdir),
                thresholds(tw, op["alpha"], op["beta"]), Fraction(op["pa"]), Fraction(op["pb"]))
        self.startup = None

    def run(self, i: int, tr=OFF) -> tuple[float, Outcome]:
        op = self.ops[i]
        argv = cli_argv(op, self.workdir)
        start = perf_counter()
        done = run_child(argv)
        seconds = perf_counter() - start
        outcome = self._check(i, done)
        if tr.enabled:
            self._trace(i, tr, seconds, done, outcome)
        return seconds, outcome

    def _check(self, i: int, done: subprocess.CompletedProcess) -> Outcome:
        op = self.ops[i]
        output = f"exit {done.returncode}\n".encode() + done.stdout
        if b"Traceback (most recent call last)" in done.stderr:
            return Outcome(output, "failed", done.stderr.decode(errors="replace")[-400:])
        if done.returncode in CLI_REFUSED_EXITS:
            return Outcome(output, "refused", f"exit {done.returncode}")
        if op["command"] == "verify":
            want = 0 if self.expected[i] else 1
            if done.returncode != want:
                return Outcome(output, "failed", f"exit {done.returncode}, expected {want}")
            return Outcome(output)
        if done.returncode != 0:
            return Outcome(output, "failed", f"exit {done.returncode}: {done.stderr[-200:]!r}")
        try:
            sizes = json.loads(done.stdout)["region_sizes"]
        except (ValueError, KeyError) as exc:
            return Outcome(output, "failed", f"stdout is not a report: {exc!r}")
        if sum(sizes.values()) != op["n"]:
            return Outcome(output, "failed", f"region sizes {sizes} do not sum to n={op['n']}")
        return Outcome(output)

    def _trace(self, i, tr, seconds, done, outcome) -> None:
        """Replay untraced and traced (alternating order); derive the CLI overhead."""
        op = self.ops[i]
        if self.startup is None:
            self.startup = cli_startup(tr, 5)
        tr.add(f"cli.{op['command']}", seconds)
        timings = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t = perf_counter()
            if traced:
                with tr.span("cli.replay"):
                    result = cli_replay(self.tw, op, self.workdir, tr)
            else:
                result = cli_replay(self.tw, op, self.workdir)
            timings[traced] = perf_counter() - t
        outcome.trace_pair = (timings[False], timings[True])
        python_start, import_s = self.startup
        tr.add("cli.overhead", seconds - python_start - import_s - timings[False])
        expected = self.expected.get(i) if op["command"] == "verify" else done.stdout
        if outcome.status == "ok" and result != expected:
            outcome.status, outcome.detail = "failed", "in-process replay differs from the CLI"

    def context(self, i: int) -> dict:
        return {key: self.ops[i][key] for key in ("command", "n", "b", "k")}

    def finish(self, outcomes: list[Outcome]) -> dict[int, str]:
        return {}


WORKLOADS = {w.name: w for w in (EquivalenceSweep, QueryStream, CliTable)}


def probe_off_path(tw, tr, workdir: Path, spec: dict) -> None:
    """Time every layer once on the small probe instance, marked ``off-path``.

    The per-layer table uses these only for layers the workload itself never
    calls, so every traced run reports every layer metric.
    """
    tr.op, tr.probe = "probe", "off-path"
    with tr.span("spaces.load_table"):
        rows = tw.load_table(str(workdir / spec["csv"]))
    with tr.span("spaces.from_attribute_table"):
        space = tw.from_attribute_table(rows, ["grp"], "id")
    with tr.span("spaces.concept_from_column"):
        concept = tw.concept_from_column(rows, spec["column"], "id")
    expr = resolve_expression(tw, spec["expr"], workdir)
    th = thresholds(tw, spec["alpha"], spec["beta"])
    with tr.span("regions.linguistic_regions"):
        tp = tw.linguistic_regions(space, concept, expr, th)
    with tr.span("equivalence.region_bounds"):
        bounds = tw.region_bounds(space, concept, expr, th)
    eq = None
    try:
        with tr.span("equivalence.equivalent_threshold_intervals"):
            eq = tw.equivalent_threshold_intervals(space, concept, expr, th)
    except refusals(tw):
        pass
    with tr.span("equivalence.sweep_equivalence_oracle") as counts:
        sweep = tw.sweep_equivalence_oracle(space, concept, expr, th)
    counts.update(candidates=len(sweep.candidates), pairs=len(sweep.entries),
                  admitted_ratio=len(sweep.admitted()) / max(1, len(sweep.entries)))
    with tr.span("explain.report"):
        rep = tw.report(tp, expr, th, concept, bounds=bounds, equivalence=eq, sweep=sweep)
    with tr.span("explain.to_json") as counts:
        counts["json_bytes"] = len(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True).encode())
    with tr.span("explain.explain_element"):
        tw.explain_element(tp, expr, spec["element"], concept.label)
    pa, pb = Fraction(spec["pa"]), Fraction(spec["pb"])
    with tr.span("equivalence.verify_equivalence"):
        tw.verify_equivalence(space, concept, expr, th, pa, pb)
    inner_probes(tw, tr, space, concept, expr, tw.Thresholds(pa, pb))

    python_start, import_s = cli_startup(tr, 3)
    for command in instances.CLI_COMMANDS:
        op = dict(spec, command=command)
        t = perf_counter()
        done = run_child(cli_argv(op, workdir))
        seconds = perf_counter() - t
        if done.returncode not in (0, 1):
            raise RuntimeError(f"probe `threeway {command}` exited {done.returncode}")
        tr.add(f"cli.{command}", seconds)
        t = perf_counter()
        cli_replay(tw, op, workdir)
        tr.add("cli.overhead", seconds - python_start - import_s - (perf_counter() - t))
    tr.op = tr.probe = None
