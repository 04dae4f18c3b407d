"""Run one threeway benchmark workload, check its outputs, print its metrics.

Usage, from anywhere (paths are found relative to this file):

    python3 benchmarks/run.py --workload equivalence-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same ops
with spans recorded and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full record (run parameters, sample counts, per-op timings, output
digest, k-scaling table, per-layer table, spans) goes to
``.bench_runs/`` at the repository root.  ``--smoke`` runs every workload
at tiny sizes in both modes and checks that every metric declared in
``BENCHMARK.json`` is printed with its unit.

Each run does a fixed, seeded amount of work: ``--seconds`` sets the number
of ops from each workload's nominal rate (``rounds_for`` in
``workloads.py``), so a run measures about that long on a 2-core machine and
the digest covers the same ops on every run with the same seed.  Reported
timings are corrected for machine-speed drift (``drift.py``); the raw
timings are kept in the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import drift
import instances
import tracing
import workloads
from drift import DriftClock
from tracing import OFF, Tracer
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_runs"

#: The op loop stops here (seconds since start) so a run always exits within 180 s.
DEADLINE_S = 160
#: Set-up processes per run: at least the first number, then more until
#: SETUP_BUDGET_S has passed or the second number is reached.
SETUP_SAMPLES = {"full": (7, 25), "smoke": (2, 2)}
SETUP_BUDGET_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Per-layer metric -> (unit, span name, count key or None for median seconds per call).
LAYER_METRICS = {
    "equivalence.sweep_equivalence_oracle.s": ("s", "equivalence.sweep_equivalence_oracle", None),
    "equivalence.sweep.candidates": ("count", "equivalence.sweep_equivalence_oracle", "candidates"),
    "equivalence.sweep.pairs": ("count", "equivalence.sweep_equivalence_oracle", "pairs"),
    "equivalence.sweep.admitted_ratio": ("ratio", "equivalence.sweep_equivalence_oracle", "admitted_ratio"),
    "expressions.is_increasing.s": ("s", "expressions.is_increasing", None),
    "equivalence.equivalent_threshold_intervals.s": ("s", "equivalence.equivalent_threshold_intervals", None),
    "spaces.block_ratios.s": ("s", "spaces.block_ratios", None),
    "regions.linguistic_regions.s": ("s", "regions.linguistic_regions", None),
    "regions.probabilistic_regions.s": ("s", "regions.probabilistic_regions", None),
    "equivalence.verify_equivalence.s": ("s", "equivalence.verify_equivalence", None),
    "equivalence.region_bounds.s": ("s", "equivalence.region_bounds", None),
    "explain.explain_element.s": ("s", "explain.explain_element", None),
    "spaces.load_table.s": ("s", "spaces.load_table", None),
    "spaces.from_attribute_table.s": ("s", "spaces.from_attribute_table", None),
    "spaces.concept_from_column.s": ("s", "spaces.concept_from_column", None),
    "explain.report.s": ("s", "explain.report", None),
    "explain.to_json.s": ("s", "explain.to_json", None),
    "explain.json_bytes": ("bytes", "explain.to_json", "json_bytes"),
    "cli.python_start_s": ("s", "cli.python_start", None),
    "cli.import_s": ("s", "cli.import", None),
    "cli.regions.s": ("s", "cli.regions", None),
    "cli.bounds.s": ("s", "cli.bounds", None),
    "cli.verify.s": ("s", "cli.verify", None),
    "cli.overhead_s": ("s", "cli.overhead", None),
}
RUN_LAYER_METRICS = {
    "equivalence.refused": "count",
    "instance.n": "count",
    "instance.b": "count",
    "instance.k": "count",
    "trace.overhead_s": "s",
    "machine.reference_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit() -> str | None:
    """HEAD of the checkout's git metadata, when there is any (read directly, no git call)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def guarded(wl, i: int, tr):
    """Run one op; any exception is the op's failure, recorded and never re-raised."""
    start = perf_counter()
    try:
        return wl.run(i, tr)
    except Exception as exc:  # the loop must go on; the traceback is kept in the record
        return perf_counter() - start, Outcome(
            f"error {type(exc).__name__}".encode(), "failed", traceback.format_exc(limit=6))


def measure_setup(wl, args, workdir: Path, clock: DriftClock) -> list[tuple[float, float]]:
    """Set-up time in fresh processes: (seconds, time taken) per process."""
    if wl.name == "cli-table":
        argv = workloads.IMPORT_CLI
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", wl.name,
                "--workdir", str(workdir)]
    least, most = SETUP_SAMPLES[args.scale]
    samples = []
    start = perf_counter()
    while len(samples) < least or (len(samples) < most and perf_counter() - start < SETUP_BUDGET_S):
        clock.sample(count=5, force=True)
        done = workloads.run_child(argv)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace')[-800:]}")
        samples.append((float(done.stdout.split()[-1]), perf_counter()))
    clock.sample(count=5, force=True)
    return samples


def timed_phase(wl, n_ops: int, tracer, t_begin: float, clock: DriftClock):
    """Run every op; return per-op records, outcomes, and the wall time spent in ops."""
    records, outcomes = [], []
    clock.sample(count=5, force=True)
    wall_start = perf_counter()
    reference_time = 0.0
    for i in range(n_ops):
        if perf_counter() - t_begin > DEADLINE_S:
            break
        if tracer.enabled and not wl.pairs_itself:
            runs = {}
            for tr in ((OFF, tracer) if i % 2 == 0 else (tracer, OFF)):
                tracer.op = i
                runs[tr.enabled] = guarded(wl, i, tr)
            tracer.op = None
            (seconds, outcome), (traced_s, traced) = runs[False], runs[True]
            outcome.trace_pair = (seconds, traced_s)
            if outcome.status != "failed" and traced.output != outcome.output:
                outcome.status, outcome.detail = "failed", "traced run gave other output"
        else:
            tracer.op = i
            seconds, outcome = guarded(wl, i, tracer)
            tracer.op = None
        outcomes.append(outcome)
        records.append({"op": i, "raw_s": seconds, "at": perf_counter() - seconds / 2,
                        **wl.context(i)})
        t = perf_counter()
        clock.sample()
        reference_time += perf_counter() - t
    wall = perf_counter() - wall_start - reference_time
    clock.sample(count=5, force=True)
    for i, detail in wl.finish(outcomes).items():
        outcomes[i].status, outcomes[i].detail = "failed", detail
    for record, outcome in zip(records, outcomes):
        factor = clock.factor(record.pop("at"))
        record["seconds"] = record["raw_s"] * factor
        record["status"] = outcome.status
        record["bytes"] = len(outcome.output)
        if outcome.trace_pair:
            record["untraced_s"], record["traced_s"] = (s * factor for s in outcome.trace_pair)
    return records, outcomes, wall


def output_digest(outcomes) -> str:
    h = hashlib.sha256()
    for i, outcome in enumerate(outcomes):
        h.update(f"{i} {outcome.status} {len(outcome.output)}\n".encode())
        h.update(outcome.output)
    return h.hexdigest()


def k_scaling(records: list[dict]) -> list[dict]:
    by_k: dict[int, list[dict]] = {}
    for r in records:
        by_k.setdefault(r["k"], []).append(r)
    return [
        {"k": k, "ops": len(rs), "median_n": statistics.median(r["n"] for r in rs),
         "median_b": statistics.median(r["b"] for r in rs),
         "median_op_s": statistics.median(r["seconds"] for r in rs)}
        for k, rs in sorted(by_k.items())
    ]


def end_to_end_metrics(latencies: list[float], setup: list[float], wall_s: float,
                       attempted: int, failed: int, rss_mb: float) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": percentile(latencies, 0.5),
        "op_s_p90": percentile(latencies, 0.9),
        "ops_per_s": (attempted - failed) / wall_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(layers: dict, records: list[dict], refused: int, clock: DriftClock) -> dict:
    metrics = {}
    for name, (unit, span, count) in LAYER_METRICS.items():
        row = layers[span]
        metrics[name] = {"value": row["counts"][count] if count else row["median_s"], "unit": unit}
    pairs = [r for r in records if "traced_s" in r]
    overhead = (percentile([r["traced_s"] for r in pairs], 0.5)
                - percentile([r["untraced_s"] for r in pairs], 0.5))
    values = {
        "equivalence.refused": refused,
        "instance.n": statistics.median(r["n"] for r in records),
        "instance.b": statistics.median(r["b"] for r in records),
        "instance.k": statistics.median(r["k"] for r in records),
        "trace.overhead_s": overhead,
        "machine.reference_s": clock.median_s(),
    }
    metrics.update({name: {"value": values[name], "unit": unit}
                    for name, unit in RUN_LAYER_METRICS.items()})
    return metrics, {"traced_p50_s": percentile([r["traced_s"] for r in pairs], 0.5),
                     "untraced_p50_s": percentile([r["untraced_s"] for r in pairs], 0.5),
                     "overhead_s": overhead, "pairs": len(pairs)}


def run(args) -> int:
    t_begin = perf_counter()
    wl = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        instances.write_custom_expression(workdir)
        spec = wl.generate(args.seed, args.scale, args.seconds, workdir)
        (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        workloads.run_child(workloads.IMPORT_CLI).check_returncode()  # writes bytecode once
        clock = DriftClock()
        setup_samples = [] if args.trace else measure_setup(wl, args, workdir, clock)

        tracer = Tracer() if args.trace else OFF
        tracer.op = "setup"
        t = perf_counter()
        wl.setup(spec, workdir, tracer)
        setup_in_run = perf_counter() - t
        tracer.op = None

        records, outcomes, wall = timed_phase(wl, len(spec["ops"]), tracer, t_begin, clock)
        if tracer.enabled:
            probe_spec = instances.probe_instance(args.seed, workdir)
            workloads.probe_off_path(wl.tw, tracer, workdir, probe_spec)
            clock.sample(count=5, force=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(o.status == "failed" for o in outcomes)
    refused = sum(o.status == "refused" for o in outcomes)
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli-table" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    drift_factor = sum(r["seconds"] for r in records) / sum(r["raw_s"] for r in records)
    setup_raw = [seconds for seconds, _ in setup_samples]
    setup_corrected = [seconds * clock.factor(at) for seconds, at in setup_samples]
    end_to_end = end_to_end_raw = None
    if not tracer.enabled:  # a traced run times setup and throughput with spans on; not reported
        end_to_end = end_to_end_metrics([r["seconds"] for r in records], setup_corrected,
                                        wall * drift_factor, attempted, failed, rss_mb)
        end_to_end_raw = end_to_end_metrics([r["raw_s"] for r in records], setup_raw, wall,
                                            attempted, failed, rss_mb)
    digest = output_digest(outcomes)
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "run": {
            "commit": commit(),
            "src_sha256": src_digest(),
            "python": sys.version,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu_isolation": "none: shared machine, no core pinning or frequency control",
            "load": "closed loop, one caller, one process, no threads"
                    + ("; one CLI subprocess at a time" if wl.name == "cli-table" else ""),
        },
        "instance": {key: value for key, value in spec.items() if key != "ops"},
        "samples": {
            "planned_ops": len(spec["ops"]),
            "ops": attempted,
            "beyond_p90": attempted - math.ceil(0.9 * attempted),
            "setup_processes": len(setup_samples),
        },
        "truncated": attempted < len(spec["ops"]),
        "setup_samples_s": setup_corrected,
        "setup_samples_raw_s": setup_raw,
        "setup_in_run_raw_s": setup_in_run,
        "end_to_end": end_to_end,
        "end_to_end_raw": end_to_end_raw,
        "drift": {
            "reference_s": drift.REFERENCE_S,
            "median_sample_s": clock.median_s(),
            "samples": len(clock.seconds),
            "op_weighted_factor": drift_factor,
            "sample_times_s": [t - t_begin for t in clock.times],
            "sample_seconds": clock.seconds,
        },
        "failed_frac": failed / attempted,
        "refused": refused,
        "output_digest": digest,
        "failures": [{"op": i, "detail": o.detail} for i, o in enumerate(outcomes)
                     if o.status == "failed"][:20],
        "k_scaling": k_scaling(records),
        "ops": records,
    }
    if tracer.enabled:
        table = tracing.span_table(tracer.spans, clock.factor)
        layers = tracing.layer_medians(table)
        metrics, overhead = layer_metrics(layers, records, refused, clock)
        spans_file = OUT_DIR / f"SPANS_{tag}.json"
        spans_file.write_text(json.dumps(table), encoding="utf-8")
        overhead["compared"] = "in-process replay" if wl.pairs_itself else "whole op"
        record["trace"] = {"layers": layers, "overhead": overhead,
                           "spans_file": spans_file.name, "per_layer": metrics}
    else:
        metrics = record["end_to_end"]
    result_file = OUT_DIR / f"BENCH_{tag}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{wl.name} seed={args.seed}: {attempted} ops ({record['samples']['beyond_p90']} beyond p90), "
          f"{failed} failed, {refused} refused; digest {digest[:16]}; record {result_file.name}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"][:3]:
        print(f"  failed op {failure['op']}: {failure['detail'].strip().splitlines()[-1]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def setup_probe(args) -> int:
    workdir = Path(args.workdir)
    spec = json.loads((workdir / "spec.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]()
    t = perf_counter()
    wl.setup(spec, workdir)
    print(perf_counter() - t)
    return 0


def smoke() -> int:
    """Every workload, both modes, tiny sizes: each declared metric printed with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    ok = True
    for workload in declared["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            problems = []
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"keys {sorted(result)}")
                if got != want[trace]:
                    problems.append(f"metrics differ: {sorted(set(got) ^ set(want[trace]))}")
                if not result["correct"]:
                    problems.append(f"{result['failed']} failed ops")
            except (IndexError, ValueError, KeyError) as exc:
                problems.append(f"no result ({exc!r}): {done.stderr[-600:]}")
            if done.returncode != 0:
                problems.append(f"exit {done.returncode}")
            ok &= not problems
            print(f"{workload['name']} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload and mode")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "threeway" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'threeway'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
