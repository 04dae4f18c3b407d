"""Command-line interface.

Subcommands: ``regions``, ``bounds``, ``equivalence``, ``verify``, ``sweep``.
Input is a CSV with a header row whose first column is the element id; the
partition comes from ``--key`` columns, the concept from a boolean column or
an explicit id list, and the expression from
``not_small | very_big | extremely_big | delta:<t> | identity | file:<path>``.

Numeric flags are parsed as exact decimals, so ``--alpha 0.4`` means the
rational 2/5 and lands on interval endpoints exactly.  JSON output is
deterministic byte-for-byte for a fixed input and configuration.

Every subcommand builds the linguistic tri-partition once, warns on stderr
when alpha or beta equals an attained degree, and works from that block
table: ``verify`` reads the probe's regions off the same ratios and names the
first block where the two routes differ.  The four ``--format`` commands
print a report or a sweep result through one writer, :func:`emit`.  Flags
are parsed by :mod:`argparse`; a value that begins with ``-`` and is not a
number is written ``--flag=value`` (``--concept=-x``).

Exit codes: 0 success (for ``verify``: tri-partitions coincide), 1 ``verify``
mismatch, 2 configuration error (a stdout that cannot encode the text output
too), 3 data error (a stdout that cannot be written, such as a full disk, too,
buffered or not), 4 a higher attained ratio lands in a lower region (no
probabilistic pair reproduces the regions), 5 degenerate tri-partition (two or
more empty regions), 70 internal error (any other exception: a bug, reported
with its traceback on stderr).  A run or a help whose stdout has no reader is
killed by SIGPIPE, as ``cat`` is (141 in a shell), with no ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from fractions import Fraction

from . import equivalence as eq
from . import explain as xp
from .expressions import (
    BUILTIN_NAMES,
    DomainError,
    ExpressionError,
    IdentityExpr,
    StepExpr,
    as_exact,
    builtin,
    load_expression,
)
from .regions import Thresholds, ThresholdError, TriPartition, linguistic_regions, region_of_degree
from .spaces import Concept, DataError, concept_from_column, from_attribute_table, load_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NON_MONOTONE = 4
EXIT_DEGENERATE = 5
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h

EXPRESSION_FORMS = " | ".join((*BUILTIN_NAMES, "delta:<t>", "identity", "file:<path>"))


class ConfigError(ValueError):
    """A flag value is unusable (bad expression spec, bad thresholds, ...)."""


def parse_expression(spec: str):
    """Resolve an ``--expr`` value to an expression object."""
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    if spec == "identity":
        return IdentityExpr()
    arg = spec.partition(":")[2]
    if spec.startswith("delta:"):
        try:
            return StepExpr(arg)
        except ExpressionError as exc:
            raise ConfigError(f"bad delta cutoff {arg!r}: {exc}") from exc
    if spec.startswith("file:"):
        try:
            return load_expression(arg)
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read expression file {arg}: {exc.strerror}") from None
        except ExpressionError as exc:
            raise ConfigError(f"bad expression file {arg}: {exc}") from exc
    raise ConfigError(f"unknown expression {spec!r}; expected one of {EXPRESSION_FORMS}")


def parse_decimal(raw: str, what: str) -> Fraction:
    value = as_exact(raw, what)
    if not 0 <= value <= 1:
        raise ConfigError(f"{what} must lie in [0, 1], got {raw}")
    return value


def parse_concept(rows, concept_spec: str) -> Concept:
    """``--concept`` is a boolean column name or ``ids:a,b,c``."""
    if concept_spec.startswith("ids:"):
        members = [m for m in concept_spec[4:].split(",") if m]
        if not members:
            raise ConfigError("empty id list in --concept")
        return Concept(frozenset(members), label="concept")
    return concept_from_column(rows, concept_spec)


def load_inputs(input_path: str, key: str, concept_spec: str):
    rows = load_table(input_path)
    key_columns = [c.strip() for c in key.split(",") if c.strip()]
    if not key_columns:
        raise ConfigError("--key needs at least one column name")
    space = from_attribute_table(rows, key_columns)
    concept = space.check_concept(parse_concept(rows, concept_spec))
    return space, concept


def warn_on_threshold_ties(tp: TriPartition, thresholds: Thresholds) -> None:
    attained = set(tp.block_degrees)
    for name, value in (("alpha", thresholds.alpha), ("beta", thresholds.beta)):
        if value in attained:
            print(f"warning: {name}={value} exactly equals an attained degree; "
                  "the assignment at that boundary is tie-sensitive", file=sys.stderr)


def emit(result, fmt: str) -> None:
    """Write a report or a sweep as it is rendered: its ``to_text()``, or
    ``json.dumps(result.to_json_dict(), indent=2, sort_keys=True)`` and a newline."""
    for chunk in result.json_chunks() if fmt == "json" else result.text_chunks():
        sys.stdout.write(chunk)
    sys.stdout.flush()  # inside the run, so a reader gone by the last chunk ends it by SIGPIPE


def _discard_unwritable_stdout() -> None:
    """Point stdout's descriptor at the null device when it still cannot take what is buffered
    (a full disk), so the exit-time flush does not fail again; a stream with no descriptor is left as it is."""
    try:
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):  # io.UnsupportedOperation: an in-process stream
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


#: Each option is a flag and its ``add_argument`` keywords; one without a default is required.
SHARED_OPTIONS = (
    ("--input", dict(dest="input_path", help="CSV file; first column is the element id.")),
    ("--key", dict(help="comma-separated key column(s) defining the partition")),
    ("--concept", dict(dest="concept_spec", help="boolean column name, or ids:a,b,c")),
    ("--expr", dict(dest="expr_spec", help=EXPRESSION_FORMS)),
    ("--alpha", dict(help="acceptance threshold in [0, 1]")),
    ("--beta", dict(help="rejection threshold in [0, 1], below alpha")),
)
FORMAT_OPTION = ("--format", dict(dest="fmt", choices=("text", "json"), default="text",
                                  help="output format (default: %(default)s)"))


class _Parser(argparse.ArgumentParser):
    """Help and usage writes that raise, as the run's do; argparse's own swallow ``OSError``."""

    def _print_message(self, message, file=None):
        (file or sys.stderr).write(message)
        (file or sys.stderr).flush()


#: The ``threeway`` parser; :func:`analysis_command` adds each subcommand to it.
PARSER = _Parser(prog="threeway", allow_abbrev=False,
                 description="Three-way decision regions, threshold equivalence, and explanations.")
_SUBCOMMANDS = PARSER.add_subparsers(required=True)


def analysis_command(*extra_options):
    """Register the decorated function as a subcommand with the shared options, then ``extra_options``.

    The shared options are parsed in a fixed order (input, key, concept,
    expression, alpha, beta).  The linguistic tri-partition is built from them
    once and checked for threshold ties, then the function is called as
    ``body(tp, expr, thresholds, concept, **extra)``; :func:`main` maps what
    it raises to an exit code.
    """

    def register(body):
        def command(input_path, key, concept_spec, expr_spec, alpha, beta, **extra) -> None:
            space, concept = load_inputs(input_path, key, concept_spec)
            expr = parse_expression(expr_spec)
            thresholds = Thresholds(parse_decimal(alpha, "--alpha"), parse_decimal(beta, "--beta"))
            tp = linguistic_regions(space, concept, expr, thresholds)
            warn_on_threshold_ties(tp, thresholds)
            body(tp, expr, thresholds, concept, **extra)

        subparser = _SUBCOMMANDS.add_parser(body.__name__, help=body.__doc__, description=body.__doc__, allow_abbrev=False)
        for flag, kwargs in SHARED_OPTIONS + extra_options:
            subparser.add_argument(flag, required="default" not in kwargs, **kwargs)
        subparser.set_defaults(run=command)
        return body

    return register


@analysis_command(FORMAT_OPTION)
def regions(tp, expr, thresholds, concept, fmt) -> None:
    """Compute the three regions and explain each block's assignment."""
    emit(xp.report(tp, expr, thresholds, concept), fmt)


@analysis_command(FORMAT_OPTION)
def bounds(tp, expr, thresholds, concept, fmt) -> None:
    """Print the extreme inclusion ratios attained inside each region."""
    emit(xp.report(tp, expr, thresholds, concept, bounds=tp.bounds), fmt)


@analysis_command(FORMAT_OPTION)
def equivalence(tp, expr, thresholds, concept, fmt) -> None:
    """Bounds, the equivalent probabilistic threshold intervals, and the sweep check."""
    emit(xp.report(tp, expr, thresholds, concept, bounds=tp.bounds,
                   equivalence=eq.intervals_of(tp, expr), sweep=eq.sweep_of(tp)), fmt)


@analysis_command(
    ("--prob-alpha", dict(help="probabilistic acceptance threshold to verify")),
    ("--prob-beta", dict(help="probabilistic rejection threshold to verify")),
)
def verify(tp, expr, thresholds, concept, prob_alpha, prob_beta) -> None:
    """Exit 0 when the probabilistic pair reproduces the linguistic regions, 1 otherwise."""
    pa = parse_decimal(prob_alpha, "--prob-alpha")
    pb = parse_decimal(prob_beta, "--prob-beta")
    if not pb < pa:
        raise ConfigError("--prob-beta must be strictly below --prob-alpha")
    probe = Thresholds(pa, pb)
    idx = eq.first_difference(tp, probe)
    if idx is None:
        print("tri-partitions coincide", flush=True)  # flushed inside the run, as emit is
        sys.exit(EXIT_OK)
    print(f"tri-partitions differ: block {xp.shown(tp.space.labels[idx])} is {tp.block_regions[idx]!r} "
          f"linguistically but {region_of_degree(tp.ratios[idx], probe)!r} probabilistically", flush=True)
    sys.exit(EXIT_MISMATCH)


@analysis_command(FORMAT_OPTION)
def sweep(tp, expr, thresholds, concept, fmt) -> None:
    """Brute-force verdict table over every decision-relevant candidate pair."""
    emit(eq.sweep_of(tp), fmt)


def main(argv=None) -> None:
    """Parse ``argv`` (default: the process's arguments) and run the subcommand it names;
    a library error exits with its code, any other exception with 70 (a bug, traceback
    on stderr), and a stdout with no reader, for help too, ends the process by SIGPIPE."""
    try:
        args = vars(PARSER.parse_args(argv))
        args.pop("run")(**args)
    except BrokenPipeError:  # stdout closed: end as SIGPIPE ends `cat`, not as a data error
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)
    except (ConfigError, ThresholdError, ExpressionError, DomainError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except UnicodeEncodeError as exc:  # ascii(): any stderr can write the message
        _fail(EXIT_CONFIG, f"stdout ({exc.encoding}) cannot encode {ascii(exc.object[exc.start:exc.end])}; "
                           "--format json writes ASCII only")
    except (DataError, OSError) as exc:
        _discard_unwritable_stdout()
        _fail(EXIT_DATA, str(exc))
    except eq.NonMonotoneExpressionError as exc:
        _fail(EXIT_NON_MONOTONE, str(exc))
    except eq.DegenerateRegionsError as exc:
        _fail(EXIT_DEGENERATE, str(exc))
    except Exception:  # not an input or configuration fault, so not exit 1-5
        import traceback  # imported here, so start-up does not pay for it
        traceback.print_exc()
        sys.exit(EXIT_INTERNAL)


if __name__ == "__main__":  # pragma: no cover
    main()
