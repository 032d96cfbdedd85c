"""Differential corpus for the CLI's exact argv reader.

Every argv here goes to ``cli._exact_parse`` with its subcommand's option
table and to that subcommand's argparse parser. Whenever the reader returns a
namespace it must equal the parser's; whenever the parser exits (a usage
error, help), the reader must return None. Entries marked well-formed must be
read by the reader, entries marked malformed must be left to argparse.

The module needs no test runner, so the same check runs under any Python:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import ast
import io
import random
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from npseq import cli

HERE = Path(__file__).resolve().parent

# Each subcommand's options as (flag, values, required), written out here
# rather than read from the parser under test. values is "int", "text" or the
# tuple of choices; None marks a flag that takes no value.
INT, TEXT = "int", "text"
_SCAN = [
    ("--p", INT, True), ("--period", INT, True), ("--zeros", INT, True),
    ("--jobs", INT, False), ("--budget", INT, False), ("--full-space", None, False),
    ("--format", ("json", "csv", "text"), False),
]
OPTIONS = {
    "analyze": [("--p", INT, True), ("--seq", TEXT, True), ("--format", ("json", "text"), False)],
    "verify-pdpds": [
        ("--N", INT, True), ("--p", INT, True), ("--set", TEXT, True), ("--params", TEXT, False),
        ("--format", ("json", "text"), False),
    ],
    "bounds": [
        ("--n", INT, True), ("--p", INT, True), ("--gamma1", INT, True), ("--gamma2", INT, True),
        ("--format", ("json", "text"), False),
    ],
    "table": [
        ("--n", INT, True), ("--gamma1-list", TEXT, True), ("--gamma2-list", TEXT, True),
        ("--format", ("json", "csv", "text"), False),
    ],
    "search": _SCAN[:3] + [("--type", TEXT, False)] + _SCAN[3:],
    "roundtrip": _SCAN,
}

TEXTS = ["Z,Z,1,1,1", "(2,1);(3,1)", "2,1", "-10,-7", "-2,0", "", "a=b", " -x y", "-", "--"]
BAD_INTS = ["x", "1.5", "-1.5", "", "-x", "-", "0x10"]
BAD_CHOICES = ["JSON", "xml", ""]
EXTRA_INTS = ["007", "+5", "١٢", "-١"]  # int() and argparse both read these

# One well-formed argv per subcommand; each malformed variant below starts from it.
BASES = {
    "analyze": ("--p", "3", "--seq", "Z,Z,1,1,1"),
    "verify-pdpds": ("--N", "5", "--p", "3", "--set", "(2,1);(3,1)"),
    "bounds": ("--n", "15", "--p", "5", "--gamma1", "-10", "--gamma2", "-3"),
    "table": ("--n", "15", "--gamma1-list", "1,2", "--gamma2-list", "-1"),
    "search": ("--p", "3", "--period", "5", "--zeros", "2"),
    "roundtrip": ("--p", "3", "--period", "5", "--zeros", "2"),
}
TEXT_FLAG = {
    "analyze": "--seq", "verify-pdpds": "--set", "bounds": None, "table": "--gamma1-list",
    "search": "--type", "roundtrip": None,
}


def _separate_value_ok(value: str) -> bool:
    """Whether the reader takes value as the token after its flag."""
    return value[:1] != "-" or value[1:].isdecimal()


def _value(rng: random.Random, values) -> tuple[str, bool]:
    """A value for an option and whether the option's type takes it."""
    if values == INT:
        if rng.random() < 0.08:
            return rng.choice(BAD_INTS), False
        if rng.random() < 0.08:
            return rng.choice(EXTRA_INTS), True
        return str(rng.randint(-12, 40)), True
    if values == TEXT:
        return rng.choice(TEXTS), True
    if rng.random() < 0.08:
        return rng.choice(BAD_CHOICES), False
    return rng.choice(values), True


def random_argvs(seed: int, count: int) -> list[tuple[tuple[str, ...], bool]]:
    """Seeded argvs over all six subcommands: options in any order, values
    separate or after "=", negative ints, repeated and missing options."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        name = rng.choice(sorted(OPTIONS))
        items, well_formed = [], True
        for flag, values, required in OPTIONS[name]:
            if rng.random() < (0.04 if required else 0.5):
                well_formed = well_formed and not required
                continue
            for _ in range(1 if rng.random() < 0.85 else 2):
                if values is None:
                    items.append([flag])
                    continue
                value, ok = _value(rng, values)
                if rng.random() < 0.5:
                    items.append([f"{flag}={value}"])
                    ok = ok and value != "--"
                else:
                    items.append([flag, value])
                    ok = ok and _separate_value_ok(value)
                well_formed = well_formed and ok
        rng.shuffle(items)
        corpus.append(((name, *(token for item in items for token in item)), well_formed))
    return corpus


def malformed_argvs() -> list[tuple[tuple[str, ...], bool | None]]:
    """Abbreviations, bad values, missing values, unknown flags, help, "--"
    and values argparse reads as options or as negative numbers. The reader
    leaves each to argparse, except a "-" followed by decimal digits, and a
    text value after "=" or led by a space, which it reads as argparse does."""
    corpus = []
    for name, base in BASES.items():
        first = base[0]  # an int option in every subcommand
        corpus += [
            ((name, *base, "--form", "json"), False),
            ((name, *base, "--forma=json"), False),
            ((name, *base, "--format", "xml"), False),
            ((name, *base, "--format=JSON"), False),
            ((name, *base, first, "x"), False),
            ((name, *base, f"{first}=1.5"), False),
            ((name, *base, first), False),
            ((name, *base, f"{first}="), False),
            ((name, *base, first, "-1.5"), False),
            ((name, *base, first, "-x"), False),
            ((name, *base, first, "-"), False),
            ((name, *base, first, "-١"), None),
            ((name, *base, first, "--format"), False),
            ((name, *base, "--bogus"), False),
            ((name, *base, "-b"), False),
            ((name, *base, "stray"), False),
            ((name, *base, "-1"), False),
            ((name, *base, "-h"), False),
            ((name, *base, "--help"), False),
            ((name, "--", *base), False),
            ((name, *base, "--"), False),
            ((name, *base, "--=3"), False),
            ((name, *base[:-2]), False),
            ((name, *base[2:]), False),
            ((name,), False),
        ]
        text = TEXT_FLAG[name]
        if text:
            corpus += [
                ((name, *base, f"{text}=--"), False),
                ((name, *base, text, "-"), False),
                ((name, *base, text, "-1.5"), False),
                ((name, *base, text, "-x"), False),
                ((name, *base, text, " -x y"), True),
                ((name, *base, f"{text}=-x"), True),
                ((name, *base, f"{text}="), True),
            ]
        if name in ("search", "roundtrip"):
            corpus += [
                ((name, *base, "--full-space=1"), False),
                ((name, *base, "--full-space="), False),
                ((name, *base, "--full-space", "x"), False),
                ((name, *base, "--full"), False),
            ]
    return corpus


def readme_argvs() -> list[tuple[tuple[str, ...], bool]]:
    """Every `npseq …` line of README.md; each is well-formed."""
    lines = (HERE.parent / "README.md").read_text().splitlines()
    return [(tuple(shlex.split(line)[1:]), True) for line in lines if line.startswith("npseq ")]


def literal_argvs() -> list[tuple[tuple[str, ...], None]]:
    """Every literal argv in test_cli.py led by a subcommand: a tuple or list
    of strings, or the string arguments of a run(capsys, ...) call."""
    tree = ast.parse((HERE / "test_cli.py").read_text())
    corpus = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List)):
            elts = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            elts = node.args[1:]
        else:
            continue
        if elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts):
            argv = tuple(e.value for e in elts)
            if argv[0] in OPTIONS:
                corpus.add(argv)
    return [(argv, None) for argv in sorted(corpus)]


def corpus(seed: int = 20, count: int = 1500) -> list[tuple[tuple[str, ...], bool | None]]:
    """(argv, expected) pairs; expected is True when the reader must read the
    argv, False when it must leave it to argparse, None when either holds."""
    return readme_argvs() + literal_argvs() + malformed_argvs() + random_argvs(seed, count)


def differences(entries) -> tuple[list[str], int]:
    """Each way the reader departs from argparse or from an entry's
    expectation, and how many argvs the reader read."""
    _, commands, tables = cli._build_parser()
    problems, read = [], 0
    for argv, expected in entries:
        name, rest = argv[0], list(argv[1:])
        exact = cli._exact_parse(tables[name], rest)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                full = vars(commands[name].parse_args(rest))
            except SystemExit:
                full = None
        read += exact is not None
        if exact is not None and vars(exact) != full:
            problems.append(f"{argv}: read as {vars(exact)}, argparse gives {full}")
        elif expected is not None and (exact is not None) != expected:
            problems.append(f"{argv}: {'not ' if expected else ''}expected to be read")
    return problems, read


if __name__ == "__main__":
    entries = corpus()
    problems, read = differences(entries)
    for problem in problems:
        print(problem)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {len(entries)} argvs, {read} read by the exact reader, "
          f"{len(problems)} differences")
    sys.exit(1 if problems else 0)
