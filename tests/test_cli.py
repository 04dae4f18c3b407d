"""End-to-end CLI behaviour: output, exit codes, and determinism."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from threeway import ApproximationSpace
from threeway import cli as cli_module
from threeway import equivalence as eq_module
from threeway import regions as regions_module
from threeway.cli import main
from threeway.expressions import builtin, expression_to_json_dict

from conftest import dip_instance, write_seeded_table
from test_expressions import MEDIUM_HUMP, SMALL_LIKE

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CSV = ROOT / "sample_data" / "communities.csv"
FIXTURES = ROOT / "tests" / "fixtures"
SRC = ROOT / "src"
GOLDEN_FILE = FIXTURES / "golden.txt"
EVERYONE = "ids:" + ",".join(f"u{i}" for i in range(1, 33))
PROBE = {"--prob-alpha": "0.3", "--prob-beta": "0.1"}  # a pair that reproduces (0.8, 0.2)

BASE = [
    "--input", str(SAMPLE_CSV),
    "--key", "community",
    "--concept", "sport",
]


def golden_runs() -> list:
    """``golden.txt``'s runs as (fixture, exit status, pinned stream, argv), each named by its line."""
    runs = []
    for number, line in enumerate(GOLDEN_FILE.read_text(encoding="utf-8").splitlines(), 1):
        if line and not line.startswith("#"):
            fixture, status, stream, *argv = line.split()
            runs.append(pytest.param(fixture, int(status), stream, argv, id=f"{fixture}:{number}"))
    return runs


GOLDEN = golden_runs()


def fixture_text(name: str) -> str:
    """A golden fixture, which its line in ``golden.txt`` pins to the CLI's output."""
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_json(name: str) -> dict:
    return json.loads(fixture_text(name))


def with_segment_0(**fields) -> dict:
    """``not_small``'s JSON form with ``fields`` overriding its first segment's."""
    data = expression_to_json_dict(builtin("not_small"))
    data["segments"][0].update(fields)
    return data


def child_env(**overrides) -> dict:
    """This process's environment with ``src`` on ``PYTHONPATH``, for a child ``threeway``;
    then ``overrides``, one of None unsetting its variable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **overrides}
    return {name: value for name, value in env.items() if value is not None}


class Stream(io.StringIO):
    """One captured stream, each write also copied to ``mixed``, as a terminal shows both."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


class Runner:
    """Runs the CLI in-process: its exit status, stdout, stderr, and the two as one ``output``."""

    def invoke(self, main, args) -> SimpleNamespace:
        output = io.StringIO()
        stdout, stderr = Stream(output), Stream(output)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(list(args))
                exit_code = 0
            except SystemExit as exc:
                exit_code = exc.code or 0
        out, err = stdout.getvalue(), stderr.getvalue()
        return SimpleNamespace(exit_code=exit_code, output=output.getvalue(), stdout=out, stderr=err,
                               stdout_bytes=out.encode(), stderr_bytes=err.encode())


@pytest.fixture
def runner():
    return Runner()


def invoke(runner, *args):
    return runner.invoke(main, args)


class TestRegionsCommand:
    def test_text_report(self):
        output = fixture_text("regions_sample.txt")
        assert "block C3" in output
        assert "C5 is accepted" in output
        assert "C1 is rejected" in output
        assert "C6 is abstained" in output

    def test_json_is_byte_stable(self):
        data = fixture_json("regions_sample.json")
        accepted = [b["label"] for b in data["blocks"] if b["region"] == "pos"]
        assert accepted == ["C3", "C4", "C5"]

    def test_missing_concept_column(self, runner, tmp_path):
        result = invoke(runner, "regions", *BASE[:-1], "hobbies",
                        "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 3
        assert "hobbies" in result.stderr

    def test_delta_expression(self, runner):
        result = invoke(runner, "regions", *BASE, "--expr", "delta:0.5",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 0
        assert "no abstentions" in result.output

    def test_threshold_tie_warns(self, runner):
        # the block ratios are 0, 1/7, 1/5, 2/5, 3/5 and 4/5, so each pair ties on one threshold;
        # under identity the probe is the pair itself, so verify agrees
        for alpha, beta, tied, untied in [("0.4", "0.1", "alpha=2/5", "beta="),
                                          ("0.9", "0.2", "beta=1/5", "alpha=")]:
            probe = ["--prob-alpha", alpha, "--prob-beta", beta]
            for command, extra in [("regions", []), ("bounds", []), ("equivalence", []),
                                   ("verify", probe), ("sweep", [])]:
                result = invoke(runner, command, *BASE, "--expr", "identity",
                                "--alpha", alpha, "--beta", beta, *extra)
                assert result.exit_code == 0, command
                assert f"warning: {tied} exactly equals an attained degree" in result.stderr, command
                assert untied not in result.stderr, command

    def test_tie_warning_precedes_a_bad_probe(self, runner):
        result = invoke(runner, "verify", *BASE, "--expr", "identity",
                        "--alpha", "0.4", "--beta", "0.1",
                        "--prob-alpha", "0.1", "--prob-beta", "0.3")
        assert result.exit_code == 2
        assert result.stderr.index("tie-sensitive") < result.stderr.index("--prob-beta")

    def test_repeated_header_column_exits_3(self, runner, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,g,g,x\na,1,2,1\nb,1,3,0\nc,2,2,1\n", encoding="utf-8")
        result = runner.invoke(main, ["regions", "--input", str(path), "--key", "g",
                                      "--concept", "x", "--expr", "identity",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 3
        assert "header repeats the column(s) 'g'" in result.stderr
        assert result.stdout == ""

    def test_bad_expression_spec(self, runner):
        result = invoke(runner, "regions", *BASE, "--expr", "roughly_big",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 2
        assert "unknown expression" in result.stderr

    def test_bad_thresholds(self, runner):
        result = invoke(runner, "regions", *BASE, "--expr", "not_small",
                        "--alpha", "0.2", "--beta", "0.8")
        assert result.exit_code == 2

    def test_missing_input_file(self, runner):
        result = invoke(runner, "regions", "--input", "nowhere.csv",
                        "--key", "community", "--concept", "sport",
                        "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 3

    def test_concept_id_list(self, runner):
        result = invoke(runner, "regions", *BASE[:-1],
                        "ids:u10,u11,u12,u18,u19,u20,u21,u22,u23,u24,u26",
                        "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 0
        assert "C5 is accepted" in result.output

    def test_unknown_concept_id(self, runner):
        result = invoke(runner, "regions", *BASE[:-1], "ids:u1,ghost",
                        "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 3
        assert "ghost" in result.stderr

    @pytest.mark.parametrize("mark", ["\n", "\x1b", "\u2028", "\x85", "\u202e"],
                             ids=["newline", "escape", "line_separator", "next_line", "bidi_override"])
    def test_concept_column_with_a_line_break(self, runner, tmp_path, mark):
        # a CSV column name can hold a line break or another unprintable character; an argv line
        # in golden.txt cannot.  Written raw, each would end a line or restyle the terminal.
        name = f"x{mark}y"
        path = tmp_path / "newline_column.csv"
        path.write_text(f'id,g,"{name}"\na,A,1\nb,B,0\n', encoding="utf-8")
        result = invoke(runner, "regions", "--input", str(path), "--key", "g", "--concept", name,
                        "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 0
        assert result.stdout.startswith(f"concept: {json.dumps(name)}\n")
        assert result.stdout.count(f"are in {json.dumps(name)} is") == 2
        assert name not in result.stdout

    def test_a_leading_byte_order_mark_is_no_part_of_a_column_name(self, runner, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + SAMPLE_CSV.read_bytes())
        args = ["--key", "user", "--concept", "sport", "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2"]
        plain, result = (invoke(runner, "regions", "--input", str(path), *args) for path in (SAMPLE_CSV, marked))
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == plain.stdout


    @pytest.mark.parametrize("row, fields", [("u2,C1", 2), ("u2,C1,1,extra", 4)])
    def test_row_with_wrong_field_count_exits_3(self, runner, tmp_path, row, fields):
        path = tmp_path / "ragged.csv"
        path.write_text(f"user,community,sport\nu1,C1,0\n{row}\n", encoding="utf-8")
        result = runner.invoke(main, ["regions", "--input", str(path), "--key", "community",
                                      "--concept", "sport", "--expr", "not_small",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 3
        assert f"line 3 has {fields} fields; the header has 3" in result.stderr
        assert "Traceback" not in result.output

    def test_non_utf8_input_exits_3(self, runner, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"user,community,sport\nu1,C1,1\nu2,Caf\xe9,0\n")
        result = runner.invoke(main, ["regions", "--input", str(path), "--key", "community",
                                      "--concept", "sport", "--expr", "not_small",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 3
        assert f"{path} is not UTF-8 text" in result.stderr
        assert "Traceback" not in result.output

    def test_field_over_the_csv_limit_exits_3(self, runner, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("user,community,sport\nu1,C1,0\nu2," + "C" * 140_000 + ",1\n",
                        encoding="utf-8")
        result = runner.invoke(main, ["regions", "--input", str(path), "--key", "community",
                                      "--concept", "sport", "--expr", "not_small",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 3
        assert f"{path} line 3 is not readable CSV" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "1e999999999"), ("--beta", "1e-1000000"), ("--alpha", "0." + "4" * 200),
        ("--expr", "delta:1e1000000"), ("--expr", "delta:1/0"),
    ])
    def test_oversized_or_bad_number_exits_2(self, runner, flag, value):
        options = {"--expr": "not_small", "--alpha": "0.8", "--beta": "0.2", flag: value}
        result = runner.invoke(main, ["regions", *BASE, *(
            word for option in options.items() for word in option
        )])
        assert result.exit_code == 2
        assert "must be a number" in result.stderr
        assert "Traceback" not in result.output


class TestBoundsCommand:
    def test_bounds_in_output(self):
        output = fixture_text("bounds_sample.txt")
        assert "neg_max = 0" in output
        assert "bnd_min = 1/7 ≈ 0.142857" in output
        assert "pos_min = 2/5 ≈ 0.4" in output


class TestEquivalenceCommand:
    def test_intervals_and_sweep(self):
        output = fixture_text("equivalence_sample.txt")
        assert "alpha' in (1/5 ≈ 0.2, 2/5 ≈ 0.4]" in output
        assert "beta' in [0, 1/7 ≈ 0.142857)" in output
        assert "sweep agrees" in output

    def test_json_schema(self):
        data = fixture_json("equivalence_sample.json")["equivalence"]
        assert data["case"] == "all_nonempty"
        assert data["sweep_agrees"] is True
        assert data["alpha_interval"] == {"lo": 0.2, "lo_open": True, "hi": 0.4, "hi_open": False}

    @pytest.mark.parametrize("expr", [MEDIUM_HUMP, SMALL_LIKE])
    def test_non_monotone_exits_4(self, runner, tmp_path, expr):
        path = tmp_path / f"{expr.name}.json"
        path.write_text(json.dumps(expression_to_json_dict(expr)), encoding="utf-8")
        result = invoke(runner, "equivalence", *BASE, "--expr", f"file:{path}",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 4
        assert "not increasing" in result.stderr
        assert result.stderr.count("block '") == 2

    def test_degenerate_exits_5(self, runner):
        result = invoke(runner, "equivalence", *BASE[:-1], EVERYONE,
                        "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 5

    def test_degenerate_non_increasing_exits_5(self, runner, tmp_path):
        # degeneracy is checked first; a non-increasing expression is no reason to exit 4
        path = tmp_path / "small_like.json"
        path.write_text(json.dumps(expression_to_json_dict(SMALL_LIKE)), encoding="utf-8")
        result = invoke(runner, "equivalence", *BASE[:-1], EVERYONE,
                        "--expr", f"file:{path}", "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 5
        assert "only the 'neg' region is non-empty" in result.stderr

    def test_hump_fixture_is_medium_hump(self):
        path = FIXTURES / "medium_hump.json"
        assert json.loads(path.read_text(encoding="utf-8")) == expression_to_json_dict(MEDIUM_HUMP)

    def test_custom_expression_file_round_trips(self, runner, tmp_path):
        path = tmp_path / "not_small.json"
        path.write_text(json.dumps(expression_to_json_dict(builtin("not_small"))),
                        encoding="utf-8")
        result = invoke(runner, "equivalence", *BASE, "--expr", f"file:{path}",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 0
        assert "alpha' in (1/5 ≈ 0.2, 2/5 ≈ 0.4]" in result.output

    def test_a_borrowed_builtin_name_keeps_the_shape_wording(self, runner, tmp_path):
        path = tmp_path / "not_small.json"
        path.write_text(json.dumps({**expression_to_json_dict(MEDIUM_HUMP), "name": "not_small"}),
                        encoding="utf-8")
        result = invoke(runner, "regions", *BASE, "--expr", f"file:{path}",
                        "--alpha", "0.5", "--beta", "0.1")
        assert result.exit_code == 0
        assert "the share of C1 members in sport counts as 'not_small'" in result.output
        assert "many members" not in result.output

    def test_dip_between_attained_ratios_exits_4(self, runner, tmp_path):
        space, concept = dip_instance()
        rows = ["id,group,x"] + [
            f"{e},{label},{int(e in concept.members)}"
            for label, block in zip(space.labels, space.blocks)
            for e in block
        ]
        path = tmp_path / "dip.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        result = invoke(runner, "equivalence", "--input", str(path), "--key", "group",
                        "--concept", "x", "--expr", "not_small",
                        "--alpha", "0.42647", "--beta", "0.1")
        assert result.exit_code == 4
        assert "block 'B'" in result.stderr and "block 'A'" in result.stderr
        assert "Traceback" not in result.output

    def test_non_numeric_coefficient_exits_2(self, runner, tmp_path):
        data = expression_to_json_dict(builtin("not_small"))
        data["segments"][1]["a"] = "wide"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = runner.invoke(main, ["equivalence", *BASE, "--expr", f"file:{path}",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 2
        assert "segment 1 a must be a number" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("content, message", [
        (json.dumps({"name": "huge", "segments": [
            {"lo": 0, "lo_inclusive": True, "hi": 1, "hi_inclusive": True,
             "form": "quad_up", "a": 1e200, "d": 1}]}),
         "segment [0, 1] leaves [0, 1]: value inf at x=0"),
        ("[" * 200_000, "nests arrays or objects too deeply"),
        (json.dumps(with_segment_0(a=10**400)), "segment 0 a is too large for a float"),
    ], ids=["overflowing_coefficient", "deep_nesting", "integer_past_float_range"])
    def test_expression_file_past_python_limits_exits_2(self, runner, tmp_path, content, message):
        path = tmp_path / "expr.json"
        path.write_text(content, encoding="utf-8")
        result = runner.invoke(main, ["equivalence", *BASE, "--expr", f"file:{path}",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 2
        assert message in result.stderr
        assert "Traceback" not in result.output

    def test_expression_file_with_a_degree_just_above_1_exits_2(self, runner, tmp_path):
        path = tmp_path / "above_one.json"
        path.write_text(json.dumps({"name": "above_one", "segments": [
            {"lo": 0, "lo_inclusive": True, "hi": 1, "hi_inclusive": True,
             "form": "quad_up", "a": 0.0, "d": 0.9999999995}]}), encoding="utf-8")
        result = runner.invoke(main, ["regions", "--input", str(SAMPLE_CSV), "--key", "community",
                                      "--concept", "ids:u1,u2,u3,u4,u5", "--expr", f"file:{path}",
                                      "--alpha", "0.8", "--beta", "0.2", "--format", "json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: bad expression file {path}: "
                                 "segment [0, 1] leaves [0, 1]: value 1.0000000005 at x=1\n")

    def test_missing_expression_file(self, runner):
        result = invoke(runner, "equivalence", *BASE, "--expr", "file:/no/such.json",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 2

    def test_expression_file_that_is_a_directory_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["equivalence", *BASE, "--expr", f"file:{tmp_path}",
                                      "--alpha", "0.8", "--beta", "0.2"])
        assert result.exit_code == 2
        assert f"cannot read expression file {tmp_path}" in result.stderr
        assert "Traceback" not in result.output

    def test_sweep_entries_stay_unbuilt(self, runner, monkeypatch):
        def unbuilt(*fields):
            raise AssertionError(f"a sweep entry was built: {fields}")

        monkeypatch.setattr(eq_module, "SweepEntry", unbuilt)
        result = invoke(runner, "equivalence", *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2", "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["equivalence"]["sweep_agrees"] is True
        sweep = [invoke(runner, "sweep", *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2",
                        "--format", fmt) for fmt in ("json", "text")]
        assert [result.exit_code for result in sweep] == [0, 0]
        assert len(json.loads(sweep[0].output)["verdicts"]) == 66
        assert sweep[1].output.startswith("12 candidate values, 66 pairs\n")


class TestVerifyCommand:
    def test_mismatch_exits_1_and_names_block(self, runner):
        result = invoke(runner, "verify", *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2",
                        "--prob-alpha", "0.5", "--prob-beta", "0.1")
        assert result.exit_code == 1
        assert "block C3" in result.output

    def test_identity_same_thresholds(self, runner):
        result = invoke(runner, "verify", *BASE, "--expr", "identity",
                        "--alpha", "0.35", "--beta", "0.1",
                        "--prob-alpha", "0.35", "--prob-beta", "0.1")
        assert result.exit_code == 0

    def test_probe_order_enforced(self, runner):
        result = invoke(runner, "verify", *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2",
                        "--prob-alpha", "0.1", "--prob-beta", "0.3")
        assert result.exit_code == 2


class TestStageCalls:
    """Each command builds the block table once, and the sweep decides on it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"linguistic_regions": 0, "block_ratios": 0}
        original_regions = regions_module.linguistic_regions
        original_ratios = ApproximationSpace.block_ratios

        def linguistic_regions(*args, **kwargs):
            counts["linguistic_regions"] += 1
            return original_regions(*args, **kwargs)

        def block_ratios(self, concept):
            counts["block_ratios"] += 1
            return original_ratios(self, concept)

        for module in (regions_module, eq_module, cli_module):
            monkeypatch.setattr(module, "linguistic_regions", linguistic_regions)
        monkeypatch.setattr(ApproximationSpace, "block_ratios", block_ratios)
        return counts

    @pytest.mark.parametrize("command, expected", [
        ("equivalence", {"linguistic_regions": 1, "block_ratios": 1}),
        ("bounds", {"linguistic_regions": 1, "block_ratios": 1}),
        ("regions", {"linguistic_regions": 1, "block_ratios": 1}),
        ("sweep", {"linguistic_regions": 1, "block_ratios": 1}),
        ("verify", {"linguistic_regions": 1, "block_ratios": 1}),
    ])
    def test_calls_per_command(self, runner, calls, command, expected):
        probe = ["--prob-alpha", "0.3", "--prob-beta", "0.1"] if command == "verify" else []
        result = invoke(runner, command, *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2", *probe)
        assert result.exit_code == 0
        assert calls == expected

    @pytest.mark.parametrize("command", ["regions", "bounds", "equivalence"])
    def test_text_output_builds_no_element_view(self, runner, monkeypatch, command):
        built = []
        original = cli_module.linguistic_regions

        def recording_regions(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(cli_module, "linguistic_regions", recording_regions)
        result = invoke(runner, command, *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.exit_code == 0
        assert len(built) == 1
        assert not {"pos", "neg", "bnd", "degrees"} & built[0].__dict__.keys()


class TestParser:
    """Usage errors exit 2, and only the standard library is loaded to parse a run."""

    @pytest.mark.parametrize("argv", [
        ["regions", "--inp", str(SAMPLE_CSV), *BASE[2:], "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2"],
        [],
        ["regions", *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2", "--format", "xml"],
    ], ids=["abbreviated_flag", "no_subcommand", "unknown_format"])
    def test_usage_error_exits_2(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.stdout == "" and "usage: threeway" in result.stderr

    def test_value_that_begins_with_a_dash(self, runner, tmp_path):
        path = tmp_path / "dash.csv"
        path.write_text("id,g,-x\na,A,1\nb,B,0\n", encoding="utf-8")
        args = ["--input", str(path), "--key", "g", "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2"]
        result = invoke(runner, "regions", *args, "--concept=-x")
        assert result.exit_code == 0
        assert result.stdout.startswith("concept: -x\n")
        assert invoke(runner, "regions", *args, "--concept", "-x").exit_code == 2

    def test_imports_only_the_standard_library(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sys; before = set(sys.modules); import threeway.cli; "
             "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names) - {'threeway'}))"],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


class TestSharedOptions:
    def test_every_subcommand_is_registered(self, runner):
        result = invoke(runner, "--help")
        for command in ("regions", "bounds", "equivalence", "verify", "sweep"):
            assert re.search(rf"\b{command}\b", result.output), command

    @pytest.mark.parametrize("command", ["regions", "bounds", "equivalence", "verify", "sweep"])
    def test_seed_is_gone(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert "--seed" not in result.output
        assert "--alpha" in result.output

    @pytest.mark.parametrize("command", ["regions", "bounds", "equivalence", "verify", "sweep"])
    def test_expr_help_lists_every_form(self, runner, command):
        result = invoke(runner, command, "--help")
        listed = " ".join(result.output.split())
        for form in ("not_small", "very_big", "extremely_big", "delta:<t>", "identity", "file:<path>"):
            assert form in listed
        assert cli_module.EXPRESSION_FORMS in listed

    def test_unknown_expression_names_the_same_forms(self, runner):
        result = invoke(runner, "regions", *BASE, "--expr", "roughly_big",
                        "--alpha", "0.8", "--beta", "0.2")
        assert result.stderr == ("error: unknown expression 'roughly_big'; expected one of "
                                 "not_small | very_big | extremely_big | delta:<t> | identity | file:<path>\n")

    def test_first_bad_flag_decides_the_exit_code(self, runner):
        # a data error on --concept is reported before the bad --expr and --alpha
        result = invoke(runner, "regions", *BASE[:-1], "hobbies",
                        "--expr", "roughly_big", "--alpha", "x", "--beta", "0.2")
        assert result.exit_code == 3
        assert "hobbies" in result.stderr


class TestRefusals:
    @pytest.mark.parametrize("override, file_content, code, message", [
        (("--alpha", "1.5"), None, 2, "--alpha must lie in [0, 1], got 1.5"),
        (("--concept", "ids:"), None, 2, "empty id list in --concept"),
        (("--key", ","), None, 2, "--key needs at least one column name"),
        (("--input", "{path}"), "", 3, "has no header row"),
        (("--expr", "file:{path}"), json.dumps({"name": "e", "segments": [1]}), 2,
         "segment 0 must be an object"),
        (("--expr", "file:{path}"), json.dumps(
            {**expression_to_json_dict(builtin("not_small")), "declared_monotone": "yes"}), 2,
         "'declared_monotone' must be a boolean when present"),
        (("--expr", "file:{path}"), json.dumps(with_segment_0(lo=False)), 2,
         "segment 0 lo must be a number, got False"),
        (("--expr", "file:{path}"), json.dumps(with_segment_0(hi=True)), 2,
         "segment 0 hi must be a number, got True"),
        (("--expr", "file:{path}"), json.dumps(with_segment_0(value=0.7)), 2,
         "segment 0 has unknown field(s) 'value'"),
        (("--prob-beta", "0.3"), None, 2, "--prob-beta must be strictly below --prob-alpha"),
        (("--prob-alpha", "1.5"), None, 2, "--prob-alpha must lie in [0, 1], got 1.5"),
    ], ids=["alpha_out_of_range", "empty_id_list", "empty_key", "empty_csv",
            "segment_not_an_object", "declared_monotone_not_boolean",
            "boolean_lo", "boolean_hi", "unknown_segment_field", "probe_beta_not_below_alpha", "probe_alpha_out_of_range"])
    def test_exit_code_and_message(self, runner, tmp_path, override, file_content, code, message):
        path = tmp_path / "input"
        if file_content is not None:
            path.write_text(file_content, encoding="utf-8")
        args = {"--input": str(SAMPLE_CSV), "--key": "community", "--concept": "sport",
                "--expr": "not_small", "--alpha": "0.8", "--beta": "0.2"}
        command = "verify" if override[0] in PROBE else "regions"
        if command == "verify":
            args.update(PROBE)
        args[override[0]] = override[1].format(path=path)
        result = runner.invoke(main, [command, *(x for pair in args.items() for x in pair)])
        assert result.exit_code == code
        assert "error: " in result.stderr and message in result.stderr
        assert "Traceback" not in result.output


class TestInternalError:
    """An exception no clause expects is a bug: exit 70 with its traceback, not a mismatch's 1."""

    def test_exits_70_with_the_traceback(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("stage broke")

        monkeypatch.setattr(cli_module, "linguistic_regions", broken)
        result = invoke(runner, "verify", *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2", *(x for pair in PROBE.items() for x in pair))
        assert result.exit_code == 70
        assert "Traceback" in result.stderr and "RuntimeError: stage broke" in result.stderr
        assert result.stdout == ""


class TestClosedStdout:
    """A run or a help whose stdout has no reader ends by SIGPIPE, as ``cat`` does, not as a data error."""

    @staticmethod
    def assert_killed_by_sigpipe(argv):
        """Buffered, the lost write surfaces at a flush; unbuffered, at the write itself."""
        for unbuffered in (None, "1"):
            read_end, write_end = os.pipe()
            os.close(read_end)  # before the child writes a byte
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "threeway.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                    env=child_env(PYTHONUNBUFFERED=unbuffered), timeout=120,
                )
            finally:
                os.close(write_end)
            assert done.returncode == -signal.SIGPIPE, unbuffered
            for text in (b"error:", b"Broken pipe", b"Exception ignored", b"Traceback"):
                assert text not in done.stderr, (unbuffered, done.stderr)

    @pytest.mark.parametrize("command, extra", [
        ("verify", ("--prob-alpha", "0.3", "--prob-beta", "0.1")),  # a coinciding pair
        ("regions", ()),
    ])
    def test_killed_by_sigpipe(self, command, extra):
        self.assert_killed_by_sigpipe([command, *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2", *extra])

    @pytest.mark.parametrize("argv", [["--help"], ["regions", "--help"]], ids=["threeway", "regions"])
    def test_help_killed_by_sigpipe(self, argv):
        self.assert_killed_by_sigpipe(argv)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reader_gone_mid_stream(self, tmp_path, fmt):
        """A reader that takes a few KB of a streamed sweep and exits kills the run by SIGPIPE."""
        table = tmp_path / "seeded.csv"
        write_seeded_table(table)
        child = subprocess.Popen(
            [sys.executable, "-m", "threeway.cli", "sweep", "--input", str(table), "--key", "grp",
             "--concept", "x", "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        )
        try:
            assert len(child.stdout.read(4096)) == 4096  # the output is megabytes: the run is mid-stream
            child.stdout.close()
            stderr = child.communicate(timeout=120)[1]
            assert child.returncode == -signal.SIGPIPE
        finally:
            child.kill()
            child.wait()
        assert b"error:" not in stderr and b"Traceback" not in stderr


class TestFullStdout:
    """A stdout that cannot be written (a full disk) exits 3 with one ``error:`` line, buffered or not."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["regions", *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2"],
        ["regions", *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2", "--format", "json"],
        ["verify", *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2",
         *(x for pair in PROBE.items() for x in pair)],
        ["--help"],
    ], ids=["regions", "json", "verify", "help"])
    def test_exits_3_with_one_error_line(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            done = subprocess.run([sys.executable, "-m", "threeway.cli", *argv], stdout=full, stderr=subprocess.PIPE,
                                  env=child_env(PYTHONUNBUFFERED=unbuffered), timeout=120)
        lines = done.stderr.decode().splitlines()
        assert done.returncode == 3, done.stderr
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
        assert b"Exception ignored" not in done.stderr and b"Traceback" not in done.stderr

    def test_in_process_stream_with_no_descriptor(self):
        class Full(io.StringIO):
            def write(self, *text):
                raise OSError(errno.ENOSPC, "No space left on device")

            flush = write

        stderr = io.StringIO()
        with contextlib.redirect_stdout(Full()), contextlib.redirect_stderr(stderr):
            with pytest.raises(SystemExit) as done:
                main(["regions", *BASE, "--expr", "not_small", "--alpha", "0.8", "--beta", "0.2"])
        assert (done.value.code, stderr.getvalue()) == (3, "error: [Errno 28] No space left on device\n")


class TestStdoutEncoding:
    """A stdout that cannot encode the text output is a configuration error, not a bug."""

    def test_text_exits_2_and_json_still_writes(self):
        # the in-process runner cannot set a stream's encoding, so these run as children
        argv = [sys.executable, "-m", "threeway.cli", "bounds", *BASE, "--expr", "not_small",
                "--alpha", "0.8", "--beta", "0.2"]
        env = child_env(PYTHONIOENCODING="ascii")
        text = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert text.returncode == 2
        assert text.stderr == b"error: stdout (ascii) cannot encode '\\u2248'; --format json writes ASCII only\n"
        done = subprocess.run([*argv, "--format", "json"], capture_output=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (FIXTURES / "bounds_sample.json").read_bytes()


class TestSweepCommand:
    def test_table_size(self):
        data = fixture_json("sweep_sample.json")
        assert len(data["candidates"]) == 12
        assert len(data["verdicts"]) == 66
        admitted = [(v["alpha"], v["beta"]) for v in data["verdicts"] if v["equivalent"]]
        assert len(admitted) == 4

    def test_text_marks(self):
        output = fixture_text("sweep_sample.txt")
        assert "= alpha'=3/10" in output
        assert "x alpha'=1/2" in output


class TestGoldenOutput:
    """Every run in ``fixtures/golden.txt`` against its fixture, and digests on a seeded 10k-row table.

    A change to any of them is a change of behaviour.
    """

    @pytest.mark.parametrize("fixture, status, stream, argv", GOLDEN)
    def test_golden_run(self, runner, monkeypatch, fixture, status, stream, argv):
        monkeypatch.chdir(ROOT)
        result = runner.invoke(main, argv)
        other = {"stdout": "stderr", "stderr": "stdout"}[stream]
        assert result.exit_code == status
        assert getattr(result, f"{stream}_bytes") == (FIXTURES / fixture).read_bytes()
        assert getattr(result, f"{other}_bytes") == b""

    def test_every_fixture_is_checked(self):
        checked = {GOLDEN_FILE} | {
            path
            for fixture, _, _, argv in (case.values for case in GOLDEN)
            for path in (FIXTURES / fixture, *(ROOT / arg.removeprefix("file:") for arg in argv))
        }
        assert {path for path in FIXTURES.rglob("*") if path.is_file()} - checked == set()

    def test_breakpoint_owner(self):
        # group "peak" sits at 4/25, not_small's breakpoint b, which the rising
        # piece owns (the falling piece would give 0.42624728850325366); the
        # other two groups sit at ratios 0 and 1
        peak, none, everyone = fixture_json("regions_breakpoints.json")["blocks"]
        assert (peak["ratio"], peak["degree"]) == (0.16, 0.42650233372228713)
        assert (none["ratio"], everyone["ratio"]) == (0.0, 1.0)

    def test_verify_mismatch_byte_identical(self, runner):
        result = invoke(runner, "verify", *BASE, "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2",
                        "--prob-alpha", "0.5", "--prob-beta", "0.1")
        assert result.exit_code == 1
        assert result.stdout_bytes == (FIXTURES / "verify_mismatch_sample.txt").read_bytes()
        assert result.stderr_bytes == b""

    @pytest.mark.parametrize("command, fmt, digest", [
        ("regions", "json", "3aa9fdc210f0495add0c770be2e39a7ee5136cb8493ce8b1a68dc23281dd20b4"),
        ("bounds", "json", "b28c387f76688c2850769eab302d19ab4d10158b8e7f80b097613f265f44fd62"),
        ("equivalence", "json", "259cd2d8855432876885a499d3988051d4b46a0f5574099834d99b50ce7a7393"),
        ("sweep", "json", "9962a7b58a01295c9715884902038ed557fd91c9fb2afc400c0df66fa193dc85"),
        ("regions", "text", "d42ccd2dde4a8de2b0589705be1c77cec03fc3e50210435dc122f59b9d152a91"),
        ("bounds", "text", "43dcebf3224ef6172bbaa51ebc0dc1ee2c8927ced7ffadc58d6eb9404dab2a31"),
        ("equivalence", "text", "e5f63d22ef5b0581bc125addb83a6f8f5dc59246665c856d8dc052ebe91971bf"),
        ("sweep", "text", "1f86a36220be90122d17e479c9a2ccf9087cb1503d34b23a500592c79da3deea"),
    ])
    def test_seeded_table_digest(self, runner, tmp_path, command, fmt, digest):
        """The sha256 of one command's stdout on the seeded 10k-row table."""
        table = tmp_path / "seeded.csv"
        write_seeded_table(table)
        result = invoke(runner, command, "--input", str(table), "--key", "grp",
                        "--concept", "x", "--expr", "not_small",
                        "--alpha", "0.8", "--beta", "0.2", "--format", fmt)
        assert result.exit_code == 0
        assert result.stderr_bytes == b""
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
