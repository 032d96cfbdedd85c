"""CLI contract: exit codes, output formats, determinism."""

import argparse
import inspect
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest
from cli_corpus import corpus, differences

import npseq
from npseq import cli, cyclotomic, diffset, search
from npseq.cli import main
from npseq.cyclotomic import MAX_PAIRS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_type21_example(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "3", "--seq", "Z,Z,1,1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["nps_type"] == [2, 1]
        assert payload["results"]["pdpds"] == [5, 3, 3, 1, 0, 2, 0, 0]
        assert all(payload["checks"].values())

    def test_type_minus2_0_example(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "3", "--seq", "Z,Z,2,1,0,1,2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["nps_type"] == [-2, 0]
        assert payload["results"]["pdpds"] == [7, 3, 5, 1, 0, 0, 1, 2]

    def test_non_integral_profile_renders_vectors(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "3", "--seq", "Z,Z,0,1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["nps_type"] is None
        assert any(isinstance(v, list) for v in payload["results"]["profile"])

    def test_parse_error_exit2(self, capsys):
        code, _, err = run(capsys, "analyze", "--p", "3", "--seq", "Z,9")
        assert code == 2
        assert "error" in err

    def test_period_two_has_no_pdpds_block(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--p", "3", "--seq", "Z,Z", "--format", "json"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert "pdpds" not in results
        assert results["nps_type"] is None

    def test_period_one_profiles_like_the_scans(self, capsys):
        code, out, _ = run(capsys, "analyze", "--p", "2", "--seq", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        results = payload["results"]
        assert (results["profile"], results["ell"], results["all_integral"]) == ([], 0, True)
        assert results["nps_type"] is None and results["two_valued_set"] == []
        assert "pdpds" not in results and payload["checks"] == {}
        # the scan over the same one-row space reports the same ell
        code, out, _ = run(capsys, "search", "--p", "2", "--period", "1", "--zeros", "0",
                           "--format", "json")
        assert code == 0 and json.loads(out)["ell_histogram"] == {"0": 1}

    @pytest.mark.parametrize("seq", ["Z,Z,0", "Z,Z,1"])
    def test_period_three_single_nonzero(self, capsys, seq):
        # n = 1: the PDPDS block is reported, the n >= 2 checks are not
        code, out, _ = run(capsys, "analyze", "--p", "3", "--seq", seq, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["pdpds"] == [3, 3, 1, 0, 0, 0, 0, 0]
        assert payload["checks"] == {"counting_identity": True, "residual_zero": True}

    def test_envelope_keys(self, capsys):
        _, out, _ = run(
            capsys, "analyze", "--p", "3", "--seq", "Z,Z,1,1,1", "--format", "json"
        )
        payload = json.loads(out)
        assert set(payload) == {"version", "inputs", "results", "checks"}


class TestVerifyPdpds:
    def test_classifies_paper_subset(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1);(3,1);(4,1)",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["pdpds"] == [5, 3, 3, 1, 0, 2, 0, 0]

    def test_perturbed_params_nonzero_residual(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1);(3,1);(4,1)",
            "--params", "5,3,3,2,0,2,0,0",
        )
        assert code == 1
        assert "nonzero" in out

    def test_correct_params_zero_residual(self, capsys):
        code, _, _ = run(
            capsys,
            "verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1);(3,1);(4,1)",
            "--params", "5,3,3,1,0,2,0,0",
        )
        assert code == 0

    def test_non_pdpds_reports_class(self, capsys):
        code, out, _ = run(
            capsys, "verify-pdpds", "--N", "5", "--p", "3", "--set", "(0,0);(1,0);(2,1)"
        )
        assert code == 1
        assert "not a PDPDS" in out

    def test_duplicate_element_exit2(self, capsys):
        code, _, err = run(
            capsys, "verify-pdpds", "--N", "5", "--p", "3", "--set", "(1,1);(1,1);(2,0)"
        )
        assert code == 2
        assert "duplicate subset element (1,1)" in err

    def test_out_of_range_exit2(self, capsys):
        code, _, _ = run(
            capsys, "verify-pdpds", "--N", "5", "--p", "3", "--set", "(9,0)"
        )
        assert code == 2

    def test_params_group_mismatch_exit2(self, capsys):
        code, out, err = run(
            capsys,
            "verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1);(3,1);(4,1)",
            "--params", "9,7,99,1,0,2,0,0",
        )
        assert code == 2
        assert out == ""
        assert "params (n, m) = (9, 7) do not match Z_5 x Z_3" in err

    def test_wrong_k_nonzero_residual_at_identity(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1);(3,1);(4,1)",
            "--params", "5,3,99,1,0,2,0,0", "--format", "json",
        )
        assert code == 1
        residual = json.loads(out)["results"]["residual"]
        assert residual[0] == [96, 0, 0]
        assert all(v == 0 for row in residual[1:] for v in row)


    @pytest.mark.parametrize(
        "extra",
        [
            ("--set", "(2,1);(3,1);(4,1)"),
            ("--set", "(0,0);(1,0);(2,1)"),
            ("--set", "(0,0);(1,0);(2,1)", "--format", "json"),
            ("--set", "(2,1);(3,1);(4,1)", "--params", "5,3,3,1,0,2,0,0"),
        ],
        ids=["classified", "failing-text", "failing-json", "params"],
    )
    def test_one_difference_grid_per_call(self, capsys, monkeypatch, extra):
        calls = []
        build = diffset.difference_multiset

        def counted(R):
            calls.append(R)
            return build(R)

        monkeypatch.setattr(diffset, "difference_multiset", counted)
        monkeypatch.setattr("npseq.cli.difference_multiset", counted)
        run(capsys, "verify-pdpds", "--N", "5", "--p", "3", *extra)
        assert len(calls) == 1


class TestSizeCap:
    """N*p above MAX_CELLS exits 2 before the primality test or any grid."""

    @pytest.fixture(autouse=True)
    def no_prime_test(self, monkeypatch):
        def refuse(p):
            raise AssertionError("primality tested before the size check")

        monkeypatch.setattr(cyclotomic, "_require_prime", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--p", "1000003", "--seq", "Z,Z"),
            ("verify-pdpds", "--N", "2", "--p", "1000003", "--set", "(0,1)"),
            ("search", "--p", "1000003", "--period", "2", "--zeros", "1"),
            ("roundtrip", "--p", "1000003", "--period", "2", "--zeros", "1"),
        ],
    )
    def test_oversized_exit2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "N*p = 2*1000003 exceeds the limit of 1000000 cells" in err


class TestPairCap:
    """n nonzero symbols or k subset elements whose n^2 or k^2 ordered pairs
    exceed MAX_PAIRS exit 2 before the pair loop runs."""

    K = math.isqrt(MAX_PAIRS) + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--p", "2", "--seq", ",".join(["1"] * K)),
            ("verify-pdpds", "--N", str(K), "--p", "2",
             "--set", ";".join(f"({h},0)" for h in range(K))),
        ],
        ids=["analyze", "verify-pdpds"],
    )
    def test_over_the_cap_exit2(self, capsys, argv):
        # the lines of the one pair counter that run, traced
        loop = cyclotomic._pair_counts
        source, first = inspect.getsourcelines(loop)
        loop_line = first + next(i for i, text in enumerate(source) if text.split()[:1] == ["for"])
        lines = set()

        def trace_lines(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_lines

        def trace_calls(frame, event, arg):
            return trace_lines if frame.f_code is loop.__code__ else None

        sys.settrace(trace_calls)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.settrace(None)
        assert code == 2
        assert out == ""
        K = self.K
        assert f"{K} elements form {K * K} ordered pairs, above the limit of {MAX_PAIRS}" in err
        assert lines and max(lines) < loop_line


class TestBounds:
    def test_huge_prime_is_decided_quickly(self, capsys):
        start = time.monotonic()
        code, out, _ = run(
            capsys, "bounds", "--n", "15", "--p", "1000000000000000003",
            "--gamma1", "1", "--gamma2", "1",
        )
        assert time.monotonic() - start < 1.0
        assert code == 0
        assert "divisibility-fail" in out

    def test_modulus_above_primality_limit_exit2(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--n", "15", "--p", "3317044064679887385961981",
            "--gamma1", "1", "--gamma2", "1",
        )
        assert code == 2
        assert out == ""
        assert "3317044064679887385961981, the limit of the exact primality test" in err

    def test_table_row(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "15", "--p", "5", "--gamma1", "-10", "--gamma2", "-8",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["B"] == -1
        assert payload["results"]["status"] == "divisibility-fail"

    def test_existing_sequence_undecided(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--n", "3", "--p", "3", "--gamma1", "2", "--gamma2", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["status"] == "undecided"


class TestTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--n", "15",
            "--gamma1-list=-10,-7,-4,-1,2,5,8",
            "--gamma2-list=-8,-5,-2,1,4,7,10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma1,gamma2,B,verdict"
        assert len(lines) == 50  # header + 7x7 grid
        assert "-10,-8,-1,not exist" in lines

    def test_empty_lists(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "15", "--gamma1-list", "", "--gamma2-list", "",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["gamma1,gamma2,B,verdict"]

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_n_below_two_exit2(self, capsys, n):
        # the same refusal as bounds gives
        code, out, err = run(
            capsys, "table", "--n", n, "--gamma1-list", "1", "--gamma2-list", "1"
        )
        assert (code, out) == (2, "")
        assert "need n >= 2" in err


class TestSearch:
    def test_single_match(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--p", "3", "--period", "5", "--zeros", "2",
            "--type", "2,1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_enumerated"] == 9
        assert len(payload["matches"]) == 1
        assert payload["matches"][0]["pdpds"] == [5, 3, 3, 1, 0, 2, 0, 0]

    def test_budget_exit3(self, capsys):
        code, _, err = run(
            capsys, "search", "--p", "7", "--period", "20", "--zeros", "2"
        )
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_exit2(self, capsys, budget):
        code, _, err = run(
            capsys, "search", "--p", "3", "--period", "5", "--zeros", "2",
            "--budget", budget,
        )
        assert code == 2
        assert "budget must be positive" in err

    @pytest.mark.parametrize("text", ["1", "", "2,1,0"])
    def test_type_needs_two_values_exit2(self, capsys, text):
        code, out, err = run(
            capsys, "search", "--p", "3", "--period", "5", "--zeros", "2", "--type", text
        )
        assert (code, out) == (2, "")
        assert "the type target needs two integers gamma1,gamma2" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_period_1100_at_default_budget_exit3(self, capsys, jobs):
        # no recursion limit applies to the scan: the default budget refuses it
        code, out, err = run(
            capsys, "search", "--p", "2", "--period", "1100", "--zeros", "2", "--jobs", jobs
        )
        assert (code, out) == (3, "")
        assert f"search space has {2**1097} candidates, exceeding budget 100000000" in err

    def test_space_past_the_int_string_limit_exit3(self, capsys):
        # 2^14397 candidates, 4,334 decimal digits: past the interpreter's
        # limit on int to str conversion, the size is given to 7 digits
        code, out, err = run(capsys, "search", "--p", "2", "--period", "14400", "--zeros", "2")
        assert (code, out) == (3, "")
        assert "search space has 8.488825e+4333 candidates, exceeding budget 100000000" in err
        huge = search.SearchConfig(p=2, period=14400, zeros=2, budget=2**14397 - 1)
        with pytest.raises(search.BudgetExceededError, match=r"exceeding budget 8\.488825e\+4333$"):
            search.enumerate_and_classify(huge)

    def test_roundtrip_clean(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip", "--p", "3", "--period", "7", "--zeros", "2",
            "--jobs", "4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_output_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "8"):
            code, out, _ = run(
                capsys,
                "roundtrip", "--p", "3", "--period", "6", "--zeros", "2",
                "--jobs", jobs, "--format", "json",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tables = []
    exact_parse = cli._exact_parse

    def reading(table, argv):
        tables.append(table)
        return exact_parse(table, argv)

    monkeypatch.setattr(cli, "_exact_parse", reading)
    cli._build_parser.cache_clear()
    argv = ["bounds", "--n", "15", "--p", "5", "--gamma1", "1", "--gamma2", "1"]
    first = run(capsys, *argv)
    assert "npseq" in built
    built.clear()
    assert run(capsys, *argv) == first
    assert run(capsys, "table", "--n", "15", "--gamma1-list=1", "--gamma2-list=1")[0] == 0
    assert built == []
    # each call reads the one option table its subcommand was built with
    built_tables = cli._build_parser()[2]
    assert len(tables) == 3
    assert tables[0] is tables[1] is built_tables["bounds"]
    assert tables[2] is built_tables["table"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, capsys):
        assert main(["analyze", "--p", "x", "--seq", "Z,1"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("table", "--n", "15", "--gamma1-list", ",", "--gamma2-list", "1"),
             "--gamma1-list needs comma-separated integers, got ''"),
            (("table", "--n", "15", "--gamma1-list", "1", "--gamma2-list", "1,x"),
             "--gamma2-list needs comma-separated integers, got 'x'"),
            (("verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1)",
              "--params", "1,x,3,1,0,2,0,0"),
             "--params needs comma-separated integers, got 'x'"),
            (("verify-pdpds", "--N", "5", "--p", "3", "--set", "(2,1)", "--params", "1,,2"),
             "--params needs comma-separated integers, got ''"),
            (("search", "--p", "3", "--period", "5", "--zeros", "2", "--type", "x,1"),
             "--type needs comma-separated integers, got 'x'"),
            (("search", "--p", "3", "--period", "5", "--zeros", "2", "--jobs", "1025"),
             "job_count 1025 exceeds the limit of 1024"),
        ],
    )
    def test_bad_integer_names_flag_and_token(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


def test_oversized_table_exit2(capsys, monkeypatch):
    # the row cap is MAX_CELLS; a small one keeps the test from building 10^6 rows
    monkeypatch.setattr("npseq.theory.MAX_CELLS", 6)
    argv = ("table", "--n", "15", "--gamma2-list", "1,2")
    code, out, _ = run(capsys, *argv, "--gamma1-list", "1,2,3,1")
    assert (code, out.count("\n")) == (0, 1 + 6)  # CSV header and 3*2 rows
    code, out, err = run(capsys, *argv, "--gamma1-list", "1,2,3,4")
    assert (code, out) == (2, "")
    assert "4*2 (gamma1, gamma2) pairs exceed the limit of 6 table rows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--p", "49999", "--period", "4", "--zeros", "2"),
        ("analyze", "--p", "499979", "--seq", "0,1"),
    ],
)
def test_wide_p_memory(capsys, argv):
    # a row of the count matrix takes 2p*8 bits; a table of the p shifted
    # units would take p^2*8 bits, gigabytes here
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 200 * 2**20


def readme_cli_examples():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("npseq ")]


def test_readme_has_cli_examples():
    assert len(readme_cli_examples()) == 6


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_example_runs(capsys, line):
    code, out, _ = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    assert out


def full_parse(capsys, argv):
    """Exit code (None when it parses), stdout and stderr of the top-level
    parser given the whole argv."""
    code = None
    try:
        args = cli._build_parser()[0].parse_args(list(argv))
    except SystemExit as exc:
        args, code = None, int(exc.code or 0)
    captured = capsys.readouterr()
    return args, code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--p", "3", "--seq", "Z,Z,1,1,1", "--form", "json"),
        ("analyze", "--seq", "Z,Z,2,1,0,1,2", "--p=3"),
        ("verify-pdpds", "--N", "7", "--p", "3", "--set", "(2,2);(3,1);(4,0);(5,1);(6,2)",
         "--params", "7,3,5,1,0,0,1,2", "--format", "json"),
        ("verify-pdpds", "--N", "5", "--p", "3", "--set", ""),
        ("bounds", "--n", "15", "--p", "5", "--gamma1", "-10", "--gamma2", "-3"),
        ("bounds", "--n=3", "--p=2", "--gamma1=2", "--gamma2=-3", "--form=json"),
        ("table", "--n", "15", "--gamma1-list=-10,-7", "--gamma2-list=-8,-5,-2"),
        ("table", "--gamma2-list", "1", "--n", "15", "--gamma1-list", "1,2", "--format", "text"),
        ("search", "--p", "3", "--period", "7", "--zeros", "2", "--type", "2,1", "--jobs", "1"),
        ("search", "--p", "3", "--period", "6", "--zeros", "2", "--type=-2,0", "--full-space",
         "--budget", "1000", "--form", "csv"),
        ("roundtrip", "--p", "3", "--period", "6", "--zeros", "2", "--full-space", "--format",
         "json"),
    ],
)
def test_dispatch_parses_as_the_full_parser(capsys, monkeypatch, argv):
    parsed, read = [], []
    parse_args = argparse.ArgumentParser.parse_args
    exact_parse = cli._exact_parse

    def recording(self, *args, **kwargs):
        parsed.append((self, parse_args(self, *args, **kwargs)))
        return parsed[-1][1]

    def reading(table, argv):
        read.append(exact_parse(table, argv))
        return read[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    monkeypatch.setattr(cli, "_exact_parse", reading)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    [args] = read
    if any(token.partition("=")[0] == "--form" for token in argv):
        # an abbreviation: the exact reader leaves it to one parse, by the
        # subcommand's parser
        assert args is None
        [(parser, args)] = parsed
        assert parser is cli._build_parser()[1][argv[0]]
    else:
        assert parsed == []
    full = vars(full_parse(capsys, argv)[0])
    assert full.pop("command") == argv[0]  # which subcommand ran; no command reads it
    assert vars(args) == full


def test_exact_parse_matches_argparse():
    # README lines, this file's argvs, malformed and seeded random ones: a
    # namespace the exact reader returns is argparse's, an argv argparse
    # refuses the reader leaves to it
    entries = corpus()
    problems, read = differences(entries)
    assert problems == []
    assert 0 < read < len(entries)


@pytest.mark.parametrize(
    "argv,code",
    [
        (("analyze", "--p", "3"), 2),  # a missing required flag
        (("bounds", "--n", "15", "--p", "five", "--gamma1", "1", "--gamma2", "1"), 2),
        (("table", "--n", "15", "--gamma1-list"), 2),  # a flag without its value
        (("anal", "--p", "3"), 2),  # not a subcommand, nor one abbreviated
        (("--p", "3", "analyze"), 2),
        ((), 2),
        (("--version",), 0),
        (("-h",), 0),
        (("analyze", "-h"), 0),
        (("search", "--help"), 0),
    ],
)
def test_dispatch_exits_as_the_full_parser(capsys, argv, code):
    full = full_parse(capsys, argv)
    assert full[1] == code
    assert run(capsys, *argv) == full[1:]


@pytest.mark.parametrize(
    "argv,stray",
    [
        (("analyze", "--p", "3", "--seq", "Z,1", "--bogus"), "--bogus"),
        (("bounds", "--n", "3", "--p", "2", "--gamma1", "2", "--gamma2", "-3", "x"), "x"),
        (("search", "--p", "3", "--period", "5", "--zeros", "2", "--version"), "--version"),
    ],
)
def test_unrecognized_argument_reported_by_the_subcommand(capsys, argv, stray):
    # the one stderr change of the dispatch: the subcommand's usage and prog
    code, out, err = run(capsys, *argv)
    _, full_code, full_out, full_err = full_parse(capsys, argv)
    assert (code, out) == (full_code, full_out) == (2, "")
    assert err.startswith(f"usage: npseq {argv[0]} [-h] ")
    assert err.endswith(f"\nnpseq {argv[0]}: error: unrecognized arguments: {stray}\n")
    assert full_err.startswith("usage: npseq [-h] [--version]")
    assert full_err.endswith(f"\nnpseq: error: unrecognized arguments: {stray}\n")


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["bounds", "--n", "15", "--p", "5", "--gamma1", "-10", "--gamma2", "-8"]
    expected = run(capsys, *argv)
    monkeypatch.setattr("sys.argv", ["npseq", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected[0] == 0 and expected[1]


STARTUP_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, os, sys
    from npseq import cli, search

    def call(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    assert call("--version") == (0, "{version}\\n")
    print(sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing"))))
    from scanhooks import workers
    scan = ("roundtrip", "--p", "3", "--period", "6", "--zeros", "2", "--format", "json")
    serial = call(*scan, "--jobs", "1")
    assert serial[0] == 0
    # one usable CPU: this process scans every batch, and starts and imports nothing
    os.sched_getaffinity = lambda pid: {{0}}
    print(call(*scan, "--jobs", "2") == serial, workers(), "multiprocessing" in sys.modules)
    # two: one worker beside this process
    os.sched_getaffinity = lambda pid: {{0, 1}}
    print(call(*scan, "--jobs", "2") == serial, len(workers()), "multiprocessing" in sys.modules)
    # keep the scan module, and so its pool, alive through the collection at
    # exit, as a test runner does: the pool must be stopped before teardown
    sys.npseq_search = search
    """
)


def child_env():
    """os.environ with this checkout's src and tests first on PYTHONPATH."""
    dirs = [str(Path(npseq.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(dirs + ([path] if path else []))}


def test_cli_starts_without_the_pool_modules():
    # a fresh process imports multiprocessing with its first parallel scan
    # that has a worker, which prints the bytes of the jobs-1 scan, as does
    # one on a single CPU, and exits without a message
    env = child_env()
    script = STARTUP_SCRIPT.format(version=npseq.__version__)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["[]", "True None False", "True 1 True"]


POOL_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, os, signal, sys
    from npseq import cli
    from scanhooks import workers

    os.sched_getaffinity = lambda pid: {0, 1, 2}  # two workers beside this process
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["roundtrip", "--p", "3", "--period", "7", "--zeros", "2", "--jobs", "3"])
    print(code, *(proc.pid for proc in workers()), flush=True)
    if sys.argv[1:] == ["kill"]:
        os.kill(os.getpid(), signal.SIGKILL)
    """
)


def exited(pid):
    """Whether process pid has ended: it is gone, or a zombie that no
    process has reaped yet."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return os.path.isdir("/proc")  # gone since, or no /proc to tell


@pytest.mark.parametrize("kill, wait", [(False, 10), (True, 30)], ids=["exit", "sigkill"])
def test_pool_workers_end_with_their_caller(kill, wait):
    # a process that exits stops and joins its workers; one that is killed
    # leaves them EOF on their pipes, and they stop on their own
    done = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT, *(["kill"] if kill else [])],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (-signal.SIGKILL if kill else 0, "")
    code, *pids = map(int, done.stdout.split())
    assert code == 0 and len(pids) == 2
    deadline = time.monotonic() + wait
    while not all(map(exited, pids)):
        assert time.monotonic() < deadline, [pid for pid in pids if not exited(pid)]
        time.sleep(0.05)


# the CI's wide analyze: 998 nonzero symbols over p = 997, about 2.2 MB of JSON
WIDE_ANALYZE = ("analyze", "--p", "997", "--format", "json", "--seq",
                "Z,Z," + ",".join(str(i * i % 997) for i in range(998)))


@pytest.mark.parametrize(
    "argv, read",
    [
        (WIDE_ANALYZE, 100),
        (("analyze", "--p", "3", "--seq", "Z,Z,1,1,1"), 0),
        # argparse prints these inside parse_args and exits through SystemExit
        (("--version",), 0),
        (("analyze", "-h"), 0),
    ],
    ids=["closed-after-100-bytes", "closed-before-the-write", "version", "command-help"],
)
def test_closed_pipe_exits_quietly(argv, read):
    # a reader that closes stdout early, as `| head -c 100` does: the CLI exits
    # 141 with neither a traceback nor a message from the flush at exit
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as an install runs it
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    with subprocess.Popen(
        [sys.executable, "-m", "npseq.cli", *argv], env=env, stdout=writer, stderr=subprocess.PIPE
    ) as child:
        os.close(writer)
        if read:
            got = b""
            while len(got) < read and (chunk := os.read(reader, read - len(got))):
                got += chunk
            os.close(reader)
            assert got.startswith(b'{"checks":')
        err = child.communicate(timeout=60)[1].decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert child.returncode == cli._EXIT_PIPE == 141
