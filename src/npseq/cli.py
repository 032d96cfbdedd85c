"""Command-line front end.

Subcommands: analyze, verify-pdpds, bounds, table, search, roundtrip.
All results go to stdout (JSON, CSV, or text); diagnostics go to stderr.

Exit codes: 0 success, 1 verification failure or recorded violations,
2 input/parse error, 3 search-budget refusal, 141 (128 + SIGPIPE) when the
reader of stdout closes it before the output is written.

An argv led by a subcommand name is parsed by that subcommand's parser alone,
so its usage errors, an unrecognized argument included, are reported as
`usage: npseq <command> ...` / `npseq <command>: error: ...`; any other argv
(empty, `--version`, `-h`, an unknown command) goes to the top-level parser.
A well-formed subcommand argv (exact option strings, every value valid, every
required option given) is read from the same option table the subcommand's
parser was built from, into the namespace that parser would return; argparse
still parses every other argv, so it alone prints help and reports every
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import __version__, search
from .cyclotomic import CyclotomicInt
from .diffset import (
    PDPDS_CLASSES,
    Grid,
    PdpdsParams,
    _class_constants,
    build_ra,
    classify_grid,
    difference_multiset,
    expected_pdpds_params,
    grid_residual,
    group_ring_residual,
    parse_subset,
    residual_is_zero,
)
from .sequence import parse_sequence, profile
from .theory import (
    generate_bound_table,
    nonexistence_verdict,
    pdpds_counting_identity,
    second_component_counts,
    second_component_identities,
    _table_dicts,
    table_to_csv,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
_EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a pipe's writer it ended


def _render_value(value: CyclotomicInt) -> int | list[int]:
    """Rational integers render as ints, everything else as [c0..c_{p-2}]."""
    as_int = value.as_int()
    return list(value.coeffs[:-1]) if as_int is None else as_int


def _envelope(inputs: dict, results: dict, checks: dict) -> dict:
    return {
        "version": __version__,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=True))


def _cmd_analyze(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.p, args.seq)
    prof = profile(seq)
    nps = prof.nps_type
    two_valued = prof.two_valued
    results: dict = {
        "period": seq.period,
        "n": seq.n,
        "s": seq.s,
        "zero_positions": list(seq.zero_positions),
        "consecutive_zeros": seq.has_consecutive_zeros,
        "profile": [_render_value(v) for v in prof.values],
        "ell": prof.ell,
        "all_integral": prof.all_integral,
        "nps_type": [nps.gamma1, nps.gamma2] if nps else None,
        "uniform": nps.uniform if nps else None,
        "two_valued_set": sorted(two_valued) if two_valued is not None else None,
    }
    checks: dict = {}
    if seq.period >= 3 and seq.zero_positions == (0, 1):
        params = classify_grid(prof.counts)
        results["pdpds"] = list(params.as_tuple()) if params else None
        if params is not None:
            checks["counting_identity"] = pdpds_counting_identity(params)
            if nps is not None and seq.n >= 2:  # the equivalence is stated for n >= 2
                s_counts = second_component_counts(build_ra(seq))
                expected = expected_pdpds_params(seq.n, seq.p, nps.gamma1, nps.gamma2)
                checks["expected_params_match"] = params == expected
                ident = second_component_identities(
                    s_counts, seq.n, seq.p, nps.gamma1, nps.gamma2
                )
                checks["second_component_identities"] = ident.all_ok
            checks["residual_zero"] = residual_is_zero(grid_residual(prof.counts, params))
    payload = _envelope({"p": args.p, "seq": args.seq}, results, checks)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"period={seq.period} n={seq.n} s={seq.s}")
        print(f"profile: {results['profile']}")
        print(f"ell={prof.ell}")
        if nps:
            print(f"type: ({nps.gamma1},{nps.gamma2})" + (" uniform" if nps.uniform else ""))
        else:
            print("type: none")
        if two_valued is not None:
            print(f"two-valued set: {sorted(two_valued)}")
        if "pdpds" in results:
            print(f"pdpds: {results['pdpds']}")
        for name, ok in checks.items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK


def _cmd_verify_pdpds(args: argparse.Namespace) -> int:
    R = parse_subset(args.N, args.p, args.set)
    if args.params is not None:
        values = _parse_int_list(args.params, "--params")
        if len(values) != 8:
            raise ValueError("--params needs 8 comma-separated integers")
        params = PdpdsParams(*values)
        residual = group_ring_residual(R, params)
        ok = residual_is_zero(residual)
        payload = _envelope(
            {"N": args.N, "p": args.p, "set": args.set, "params": values},
            {"residual": [list(row) for row in residual]},
            {"residual_zero": ok},
        )
        if args.format == "json":
            _emit_json(payload)
        else:
            print("residual zero" if ok else "nonzero residual:")
            if not ok:
                for row in residual:
                    print(" ".join(str(v) for v in row))
        return EXIT_OK if ok else EXIT_VIOLATION

    grid = difference_multiset(R)
    params = classify_grid(grid)
    payload = _envelope(
        {"N": args.N, "p": args.p, "set": args.set},
        {"pdpds": list(params.as_tuple()) if params else None},
        {"classified": params is not None},
    )
    if args.format == "json":
        _emit_json(payload)
    elif params is not None:
        print(f"pdpds: {list(params.as_tuple())}")
    else:
        print(_first_violated_class(grid))
    return EXIT_OK if params is not None else EXIT_VIOLATION


def _first_violated_class(grid: Grid) -> str:
    """Name the first difference class whose multiplicities are not constant."""
    _, violated = _class_constants(grid, PDPDS_CLASSES)
    if violated is None:
        return "not a PDPDS"
    cls, values = violated
    return f"not a PDPDS: {cls.name} class not constant ({sorted(set(values))})"


def _cmd_bounds(args: argparse.Namespace) -> int:
    verdict = nonexistence_verdict(args.n, args.p, args.gamma1, args.gamma2)
    checks = dict(verdict.checks)
    payload = _envelope(
        {"n": args.n, "p": args.p, "gamma1": args.gamma1, "gamma2": args.gamma2},
        {
            "status": verdict.status.value,
            "B": verdict.bound_B,
            "details": verdict.details,
        },
        checks,
    )
    if args.format == "json":
        _emit_json(payload)
    else:
        if verdict.bound_B is not None:
            print(f"B = {verdict.bound_B}")
        print(f"verdict: {verdict.status.value} ({verdict.details})")
        for name, ok in checks.items():
            print(f"check {name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK  # verdicts are data, not errors


def _parse_int_list(text: str, flag: str) -> list[int]:
    values = []
    for tok in text.split(",") if text.strip() else []:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"{flag} needs comma-separated integers, got {tok!r}") from None
    return values


def _cmd_table(args: argparse.Namespace) -> int:
    gamma1_list = _parse_int_list(args.gamma1_list, "--gamma1-list")
    gamma2_list = _parse_int_list(args.gamma2_list, "--gamma2-list")
    rows = generate_bound_table(args.n, gamma1_list, gamma2_list)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(rows))
    elif args.format == "json":
        payload = _envelope(
            {"n": args.n, "gamma1_list": gamma1_list, "gamma2_list": gamma2_list},
            {"rows": _table_dicts(rows)},
            {},
        )
        _emit_json(payload)
    else:
        for row in rows:
            flag = "not exist" if row.not_exist else ""
            print(f"{row.gamma1}\t{row.gamma2}\t{row.B}\t{flag}")
    return EXIT_OK


def _search_config(args: argparse.Namespace) -> search.SearchConfig:
    text = getattr(args, "type", None)  # roundtrip has no --type
    target = None if text is None else _parse_int_list(text, "--type")
    return search.SearchConfig(
        p=args.p,
        period=args.period,
        zeros=args.zeros,
        normalize_phase=not args.full_space,
        filter_mode=search.FILTER_NPS if target is None else search.FILTER_TYPE,
        target=target,
        job_count=args.jobs,
        budget=args.budget,
    )


def _emit_report(report: search.SearchReport, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(search.report_to_csv(report))
    elif fmt == "json":
        print(search.report_to_json(report))
    else:
        print(f"enumerated: {report.total_enumerated}")
        print(f"matches: {len(report.matches)}")
        for m in report.matches:
            pd = list(m.pdpds.as_tuple()) if m.pdpds else None
            print(f"  exponents {list(m.exponents)} type ({m.gamma1},{m.gamma2}) pdpds {pd}")
        print(f"ell histogram: {dict(sorted(report.ell_histogram.items()))}")
        print(f"violations: {len(report.violations)}")
        for v in report.violations:
            print(f"  {v}")


def _cmd_scan(args: argparse.Namespace) -> int:
    # looked up by name on each call, so a replaced search.<scan> is the one run
    report = getattr(search, args.scan)(_search_config(args))
    _emit_report(report, args.format)
    return EXIT_VIOLATION if report.violations else EXIT_OK


# A subcommand's option table: each exact option string -> the Action that
# add_argument returned, the parsed namespace's defaults (the actions' own and
# the set_defaults values) and the dests that must be given.
_OptionTable = tuple[dict[str, argparse.Action], dict[str, object], frozenset[str]]


def _option_table(
    parser: argparse.ArgumentParser, actions: list[argparse.Action], **defaults: object
) -> _OptionTable:
    parser.set_defaults(**defaults)
    return (
        {flag: action for action in actions for flag in action.option_strings},
        {**{action.dest: action.default for action in actions}, **defaults},
        frozenset(action.dest for action in actions if action.required),
    )


@cache  # built once per process; parse_args never changes it
def _build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, _OptionTable]
]:
    """The top-level parser, each subcommand's parser and its option table, by name."""
    parser = argparse.ArgumentParser(
        prog="npseq",
        description="Exact autocorrelation and difference-set analysis of almost p-ary sequences",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    tables: dict[str, _OptionTable] = {}

    p_analyze = commands["analyze"] = sub.add_parser(
        "analyze", help="profile and classify a sequence"
    )
    tables["analyze"] = _option_table(p_analyze, [
        p_analyze.add_argument("--p", type=int, required=True),
        p_analyze.add_argument("--seq", required=True, help='tokens like "Z,Z,1,1,1"'),
        p_analyze.add_argument("--format", choices=["json", "text"], default="text"),
    ], func=_cmd_analyze)

    p_verify = commands["verify-pdpds"] = sub.add_parser(
        "verify-pdpds", help="classify a subset of Z_N x Z_p"
    )
    tables["verify-pdpds"] = _option_table(p_verify, [
        p_verify.add_argument("--N", type=int, required=True),
        p_verify.add_argument("--p", type=int, required=True),
        p_verify.add_argument("--set", required=True, help='pairs like "(2,1);(3,1)"'),
        p_verify.add_argument("--params", help="8 comma-separated integers to check instead"),
        p_verify.add_argument("--format", choices=["json", "text"], default="text"),
    ], func=_cmd_verify_pdpds)

    p_bounds = commands["bounds"] = sub.add_parser(
        "bounds", help="nonexistence verdict for one (gamma1, gamma2)"
    )
    tables["bounds"] = _option_table(p_bounds, [
        p_bounds.add_argument("--n", type=int, required=True),
        p_bounds.add_argument("--p", type=int, required=True),
        p_bounds.add_argument("--gamma1", type=int, required=True),
        p_bounds.add_argument("--gamma2", type=int, required=True),
        p_bounds.add_argument("--format", choices=["json", "text"], default="text"),
    ], func=_cmd_bounds)

    p_table = commands["table"] = sub.add_parser("table", help="bound table over gamma grids")
    tables["table"] = _option_table(p_table, [
        p_table.add_argument("--n", type=int, required=True),
        p_table.add_argument("--gamma1-list", required=True, help="comma-separated integers"),
        p_table.add_argument("--gamma2-list", required=True, help="comma-separated integers"),
        p_table.add_argument("--format", choices=["json", "csv", "text"], default="csv"),
    ], func=_cmd_table)

    for name, scan, help_text in (
        ("search", "enumerate_and_classify", "exhaustive scan with a pinned leading zero run"),
        (
            "roundtrip",
            "verify_nps_pdpds_equivalence",
            "exhaustive sequence/difference-set equivalence check",
        ),
    ):
        p_cmd = commands[name] = sub.add_parser(name, help=help_text)
        actions = [
            p_cmd.add_argument("--p", type=int, required=True),
            p_cmd.add_argument("--period", type=int, required=True),
            p_cmd.add_argument("--zeros", type=int, required=True),
        ]
        if name == "search":
            actions.append(p_cmd.add_argument("--type", help="target gamma1,gamma2"))
        actions += [
            p_cmd.add_argument("--jobs", type=int, default=1),
            p_cmd.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET),
            p_cmd.add_argument(
                "--full-space",
                action="store_true",
                help="disable phase normalization (scan all p^(period-zeros) candidates)",
            ),
            p_cmd.add_argument("--format", choices=["json", "csv", "text"], default="text"),
        ]
        tables[name] = _option_table(p_cmd, actions, func=_cmd_scan, scan=scan)

    return parser, commands, tables


def _exact_parse(table: _OptionTable, argv: list[str]) -> argparse.Namespace | None:
    """The namespace the table's parser would return for argv, or None.

    None whenever argparse might read argv otherwise: any token that is not
    exactly an option string (abbreviations, -h, --), a separate value that
    starts with "-" and is not a negative integer, a missing, unconvertible
    or out-of-choices value, or an absent required option. The caller then
    parses with argparse, which prints help and reports every usage error.
    """
    actions, defaults, required = table
    values = dict(defaults)
    given = set()
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        action = actions.get(flag)
        if action is None:
            return None
        if action.nargs == 0:  # --full-space takes no value
            if eq:
                return None
            value = action.const
        else:
            if not eq:
                value = next(tokens, None)
                # argparse takes "-" and digits as a negative number; whether
                # another token led by "-" is a value or an option is its call
                if value is None or (value[:1] == "-" and not value[1:].isdecimal()):
                    return None
            elif value == "--":  # argparse up to 3.12 drops it from the value
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        given.add(action.dest)
    if not required <= given:
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands, tables = _build_parser()
    # the subcommand's parser reads its own arguments: the top-level one would
    # classify each of them first and then hand them all to it; a well-formed
    # argv is read straight from the subcommand's option table
    command = commands.get(argv[0]) if argv else None
    args = _exact_parse(tables[argv[0]], argv[1:]) if command else None
    try:
        try:
            if args is None:
                args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad flags, matching the input-error contract,
            # and 0 after help or the version, which may still be buffered
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: the flush at exit goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return _EXIT_PIPE
    except search.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
