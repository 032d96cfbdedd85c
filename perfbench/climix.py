"""The cli-mix workload: seeded in-process ``npseq.cli.main`` calls.

One mix holds a fixed number of calls of each kind; the seed draws only the
arguments and the order, so the latency distribution does not depend on
which seed a run gets. The mix is replayed in a closed loop (one caller, the
next call starts when the previous returns) until the run's time is up.

Every call is checked against an oracle that does not use npseq: profiles are
evaluated numerically in C, the five difference classes and the
nonexistence verdict are recomputed from their definitions, and outputs with
no oracle (the n = 15 table, small searches) must match frozen digests.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from npseq import cli

from outcome import Outcome, exact_counts_repeat, median_of_dicts, peak_rss_mb
from pacer import Pacer
from spans import SpanRecorder, installed, layer_metrics

# One mix holds CALLS_PER_KIND calls of each CLI subcommand below. Nothing
# records how the CLI is used, so no kind is weighted above another, and the
# latency figures summarise each kind on its own (see kind_latencies). The
# self-test divides the count by TINY_DIVISOR.
KINDS = ("analyze", "verify-pdpds", "bounds", "table", "search", "roundtrip")
CALLS_PER_KIND = 167
TINY_DIVISOR = 20
PROBE_EVERY = 100  # calls between two machine-speed probes

# Sequences with a zero run at (0, 1) that are nearly perfect, as
# (p, exponents at positions 2..N-1); a phase shift keeps their type.
KNOWN_NPS = [
    (3, (1, 1, 1)),
    (3, (0, 1, 0)),
    (3, (2, 1, 0, 1, 2)),
    (3, (0, 1, 1, 1, 0)),
    (3, (0, 0, 1, 0, 1, 0, 0)),
    (3, (0, 1, 0, 0, 0, 1, 0)),
    (3, (0, 0, 1, 1, 1, 1, 0, 0)),
    (3, (0, 1, 1, 1, 2, 1, 1, 1, 0)),
    (5, (0,) * 6),
    (5, (0,) * 9),
    (7, (0,) * 5),
    (7, (0,) * 10),
]

TABLE_GRIDS = [
    ("-10,-7,-4,-1,2,5,8", "-8,-5,-2,1,4,7,10"),
    ("-6,-1,4,9", "-7,-2,3,8"),
]

# (p, period, zeros, full space) per scan subcommand; each runs with json and csv.
SCAN_CALLS = {
    "search": [(3, 7, 2, False), (5, 6, 2, False), (7, 5, 2, False)],
    "roundtrip": [(3, 7, 2, False), (5, 6, 2, False), (3, 6, 2, True)],
}

# sha256 of stdout for the outputs that have no independent oracle.
FROZEN = {
    "table --n 15 --gamma1-list=-10,-7,-4,-1,2,5,8 --gamma2-list=-8,-5,-2,1,4,7,10 --format json":
        "67f6dffae9ec3ef1d2fbad3d47515aa009c56cbd5d77bbf4a4437e4244bff9be",
    "table --n 15 --gamma1-list=-10,-7,-4,-1,2,5,8 --gamma2-list=-8,-5,-2,1,4,7,10 --format csv":
        "d6b4317c7f437f03c50ef98c767bd7b54d0f3bbc8469c840cb81e5e56e139833",
    "table --n 15 --gamma1-list=-6,-1,4,9 --gamma2-list=-7,-2,3,8 --format json":
        "7164b375ea38b67a4cb190c75b4f0e02b16eaff375d766ad575e8f6927bf91f8",
    "table --n 15 --gamma1-list=-6,-1,4,9 --gamma2-list=-7,-2,3,8 --format csv":
        "e6318dc4ab45ef62c4e5bcef112eedc8086a45fdc7e6586dbb36deb19c4884d7",
    "search --p 3 --period 7 --zeros 2 --jobs 1 --format json":
        "bd954736f7eaed0e0270f0e50b9526945b767ece8a9d2ebf2e2a2e5c05555fb4",
    "search --p 3 --period 7 --zeros 2 --jobs 1 --format csv":
        "ed2c30a5d16a2d40b4f9ea4e957391239fb4c226f5d8905aabc73657b27883fe",
    "search --p 5 --period 6 --zeros 2 --jobs 1 --format json":
        "1e9e38ce291377fd69072a7446866fb23a34c28c959d5a795073b71831f6b26b",
    "search --p 5 --period 6 --zeros 2 --jobs 1 --format csv":
        "c8cd7f53a0e6d989d499de9adef3a1df6aeaf1f9860da1bb6c3ee755c8ca582e",
    "search --p 7 --period 5 --zeros 2 --jobs 1 --format json":
        "1f7150f091a58b64c21f8863d7035921ac09d0dba355700a4093f8d75d336603",
    "search --p 7 --period 5 --zeros 2 --jobs 1 --format csv":
        "5f7e998823ae264444b898380c65cffa3cf823a295da0d232596d8c44ae2facc",
    "roundtrip --p 3 --period 7 --zeros 2 --jobs 1 --format json":
        "bd954736f7eaed0e0270f0e50b9526945b767ece8a9d2ebf2e2a2e5c05555fb4",
    "roundtrip --p 3 --period 7 --zeros 2 --jobs 1 --format csv":
        "ed2c30a5d16a2d40b4f9ea4e957391239fb4c226f5d8905aabc73657b27883fe",
    "roundtrip --p 5 --period 6 --zeros 2 --jobs 1 --format json":
        "1e9e38ce291377fd69072a7446866fb23a34c28c959d5a795073b71831f6b26b",
    "roundtrip --p 5 --period 6 --zeros 2 --jobs 1 --format csv":
        "c8cd7f53a0e6d989d499de9adef3a1df6aeaf1f9860da1bb6c3ee755c8ca582e",
    "roundtrip --p 3 --period 6 --zeros 2 --jobs 1 --format json --full-space":
        "4491a59ea17149bdabaeedb9e0bbfbbed3f22f951e1c90c0cba304beed1613fe",
    "roundtrip --p 3 --period 6 --zeros 2 --jobs 1 --format csv --full-space":
        "db66a1aadbd4029db99179dfa5bc9cb92c2e8d169bc1f739a56ebb1605c51887",
}

ENVELOPE_KEYS = {"version", "inputs", "results", "checks"}


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]
    candidates: int = 0  # candidates a search/roundtrip call scans


# ---- oracles -------------------------------------------------------------


def _envelope(out: str) -> dict | None:
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or set(payload) != ENVELOPE_KEYS:
        return None
    return payload


def _five_classes(N: int, p: int, elems: set[tuple[int, int]]) -> list[int] | None:
    """[N, p, k, lambda1, lambda2, lambda3, mu1, mu2] of a subset of Z_N x Z_p
    whose five difference classes are each constant, else None (N >= 4)."""
    grid: dict[tuple[int, int], int] = {}
    for h1, g1 in elems:
        for h2, g2 in elems:
            if (h1, g1) != (h2, g2):
                cell = ((h1 - h2) % N, (g1 - g2) % p)
                grid[cell] = grid.get(cell, 0) + 1

    def constant(cells) -> int | None:
        values = {grid.get(cell, 0) for cell in cells}
        return values.pop() if len(values) == 1 else None

    near, far, mixed = (1, N - 1), range(2, N - 1), range(1, p)
    classes = [
        constant((d, 0) for d in far),
        constant((0, e) for e in mixed),
        constant((d, 0) for d in near),
        constant((d, e) for d in far for e in mixed),
        constant((d, e) for d in near for e in mixed),
    ]
    return None if None in classes else [N, p, len(elems), *classes]


def _ra(symbols) -> set[tuple[int, int]]:
    return {(i, b) for i, b in enumerate(symbols) if b is not None}


def _check_analyze(p: int, symbols: tuple) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        env = _envelope(out)
        if code != 0 or env is None:
            return False
        r = env["results"]
        N = len(symbols)
        zeta = [cmath.exp(2j * math.pi * k / p) for k in range(p)]
        a = [0 if b is None else zeta[b] for b in symbols]
        prof = r["profile"]
        if len(prof) != N - 1:
            return False
        keys = []
        for t, value in enumerate(prof, 1):
            exact = sum(a[i] * a[(i + t) % N].conjugate() for i in range(N))
            if isinstance(value, int):
                got = value
                keys.append(value)
            elif len(value) == p - 1 and any(value[1:]):
                got = sum(c * zeta[j] for j, c in enumerate(value))
                keys.append(tuple(value))
            else:
                return False
            if abs(exact - got) > 1e-6:
                return False
        ints = [v for v in keys if isinstance(v, int)]
        nps = None
        if N >= 3 and len(ints) == N - 1 and ints[N - 2] == ints[0]:
            rest = ints[1 : N - 2] or [ints[0]]
            if len(set(rest)) == 1:
                nps = [ints[0], rest[0]]
        if (
            r["ell"] != len(set(keys))
            or r["all_integral"] != (len(ints) == N - 1)
            or r["nps_type"] != nps
            or r["zero_positions"] != [i for i, b in enumerate(symbols) if b is None]
        ):
            return False
        if r["zero_positions"] != [0, 1]:
            return "pdpds" not in r and env["checks"] == {}
        expected = _five_classes(N, p, _ra(symbols))
        if r.get("pdpds", "absent") != expected:
            return False
        # whenever pdpds is present, every check the CLI ran must hold
        return expected is None or (bool(env["checks"]) and all(env["checks"].values()))

    return check


def _check_verify(N: int, p: int, elems: set, params: list[int] | None):
    expected = _five_classes(N, p, elems)

    def check(code: int, out: str) -> bool:
        env = _envelope(out)
        if env is None:
            return False
        if params is None:
            ok = expected is not None
            return (
                code == (0 if ok else 1)
                and env["results"] == {"pdpds": expected}
                and env["checks"] == {"classified": ok}
            )
        # the residual compares only the five class values with the grid
        ok = expected is not None and params[3:] == expected[3:]
        residual = env["results"]["residual"]
        return (
            code == (0 if ok else 1)
            and env["checks"] == {"residual_zero": ok}
            and len(residual) == N
            and all(len(row) == p for row in residual)
            and ok == all(v == 0 for row in residual for v in row)
        )

    return check


def _check_bounds(n: int, p: int, g1: int, g2: int):
    a, c = n - g2 - 2, n - g1 - 1
    d = a * a - 4 * a + 8 * c
    B = None if d < 0 else (-a - 4 + math.isqrt(d)) // 2
    if a % p or c % p:
        status = "divisibility-fail"
    elif B is not None and g2 <= B:
        status = "bound-fail"
    elif g2 <= -3:
        status = "global-bound-fail"
    else:
        status = "undecided"
    checks = {
        "divides_n_gamma2": a % p == 0,
        "divides_n_gamma1": c % p == 0,
        "above_bound": B is None or g2 > B,
        "above_global_floor": g2 > -3,
    }

    def check(code: int, out: str) -> bool:
        env = _envelope(out)
        return (
            code == 0
            and env is not None
            and env["results"]["status"] == status
            and env["results"]["B"] == B
            and env["checks"] == checks
        )

    return check


def _check_frozen(key: str, fmt: str, corrupt: bool):
    expected = "0" * 64 if corrupt else FROZEN.get(key)

    def check(code: int, out: str) -> bool:
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != expected:
            return False
        if fmt == "json":
            try:
                json.loads(out)
            except json.JSONDecodeError:
                return False
            return True
        rows = list(csv.reader(io.StringIO(out)))
        return bool(rows) and len({len(row) for row in rows}) == 1

    return check


# ---- the mix -------------------------------------------------------------


def _seq_text(symbols) -> str:
    return ",".join("Z" if b is None else str(b) for b in symbols)


def _set_text(elems, rng: random.Random) -> str:
    items = sorted(elems)
    rng.shuffle(items)
    return ";".join(f"({h},{g})" for h, g in items)


def _known(rng: random.Random) -> tuple[int, tuple]:
    p, tail = rng.choice(KNOWN_NPS)
    c = rng.randrange(p)
    return p, (None, None) + tuple((b + c) % p for b in tail)


def _random_run01(rng: random.Random, N_lo: int = 4) -> tuple[int, tuple]:
    p = rng.choice((3, 5, 7))
    N = rng.randint(N_lo, 20 if N_lo == 4 else 12)
    return p, (None, None) + tuple(rng.randrange(p) for _ in range(N - 2))


def _analyze_calls(rng: random.Random, count: int) -> list[Call]:
    calls = []
    for i in range(count):
        kind = i % 5  # 2/5 anywhere-zeros, 2/5 zero run at (0,1), 1/5 known NPS
        if kind < 2:
            p = rng.choice((3, 5, 7))
            N = rng.randint(4, 20)
            symbols = tuple(None if rng.random() < 0.2 else rng.randrange(p) for _ in range(N))
            if all(b is None for b in symbols):
                symbols = (0,) + symbols[1:]
        elif kind < 4:
            p, symbols = _random_run01(rng)
        else:
            p, symbols = _known(rng)
        argv = ("analyze", "--p", str(p), "--seq", _seq_text(symbols), "--format", "json")
        calls.append(Call(argv, _check_analyze(p, symbols)))
    return calls


def _verify_calls(rng: random.Random, count: int) -> list[Call]:
    calls = []
    for i in range(count):
        kind = i % 10  # 3/10 known, 3/10 random, 2/10 right params, 2/10 wrong params
        if kind < 3 or kind >= 6:
            p, symbols = _known(rng)
        else:
            p, symbols = _random_run01(rng, N_lo=5)
        N, elems = len(symbols), _ra(symbols)
        argv = ["verify-pdpds", "--N", str(N), "--p", str(p), "--set", _set_text(elems, rng)]
        params = None
        if kind >= 6:
            params = _five_classes(N, p, elems)
            if kind >= 8:
                params[rng.randrange(3, 8)] += 1
            argv += ["--params", ",".join(map(str, params))]
        calls.append(Call(tuple(argv) + ("--format", "json"), _check_verify(N, p, elems, params)))
    return calls


def _bounds_calls(rng: random.Random, count: int) -> list[Call]:
    calls = []
    for _ in range(count):
        n, p = rng.randint(2, 40), rng.choice((2, 3, 5, 7, 11))
        g1, g2 = rng.randint(-10, 12), rng.randint(-10, 12)
        argv = ("bounds", "--n", str(n), "--p", str(p), "--gamma1", str(g1),
                "--gamma2", str(g2), "--format", "json")
        calls.append(Call(argv, _check_bounds(n, p, g1, g2)))
    return calls


def _table_argv(g1: str, g2: str, fmt: str) -> tuple[str, ...]:
    return ("table", "--n", "15", f"--gamma1-list={g1}", f"--gamma2-list={g2}", "--format", fmt)


def _scan_argv(cmd: str, p: int, period: int, zeros: int, full: bool, fmt: str) -> tuple[str, ...]:
    argv = (cmd, "--p", str(p), "--period", str(period), "--zeros", str(zeros),
            "--jobs", "1", "--format", fmt)
    return argv + (("--full-space",) if full else ())


def build_mix(seed: int, tiny: bool, corrupt: bool) -> list[Call]:
    rng = random.Random(seed)
    count = CALLS_PER_KIND // TINY_DIVISOR if tiny else CALLS_PER_KIND
    calls = _analyze_calls(rng, count)
    calls += _verify_calls(rng, count)
    calls += _bounds_calls(rng, count)
    tables = [_table_argv(g1, g2, fmt) for g1, g2 in TABLE_GRIDS for fmt in ("json", "csv")]
    for i in range(count):
        argv = tables[i % len(tables)]
        calls.append(Call(argv, _check_frozen(" ".join(argv), argv[-1], corrupt)))
    for cmd, specs in SCAN_CALLS.items():
        for i in range(count):
            p, period, zeros, full = spec = specs[(i // 2) % len(specs)]
            fmt = ("json", "csv")[i % 2]
            argv = _scan_argv(cmd, *spec, fmt)
            free = period - zeros
            calls.append(Call(argv, _check_frozen(" ".join(argv), fmt, corrupt),
                              candidates=p ** (free if full else free - 1)))
    rng.shuffle(calls)
    return calls


def kind_latencies(mix: list[Call], replays: list[list[float]]) -> dict[str, tuple[float, float]]:
    """(p50, p99) latency of each call kind, over all replays of the mix."""
    by_kind: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for latencies in replays:
        for call, t in zip(mix, latencies):
            by_kind[call.argv[0]].append(t)
    return {
        kind: (statistics.median(ts), statistics.quantiles(ts, n=100, method="inclusive")[98])
        for kind, ts in by_kind.items()
    }


# ---- the run -------------------------------------------------------------


def _call(main, argv) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), time.perf_counter() - t0


def run(seed: int, seconds: float, trace: bool, tiny: bool, corrupt: bool, spans_path) -> Outcome:
    mix = build_mix(seed, tiny, corrupt)
    out = Outcome()
    first: list[tuple[int, str] | None] = [None] * len(mix)
    first_ok = [False] * len(mix)

    def mix_pass(main, pacer: Pacer) -> list[float]:
        """One pass over the mix; per-call latencies in reference seconds."""
        latencies = []
        for lo in range(0, len(mix), PROBE_EVERY):
            block = []
            for i in range(lo, min(lo + PROBE_EVERY, len(mix))):
                code, text, dt = _call(main, mix[i].argv)
                block.append(dt)
                if first[i] is None:
                    first[i] = (code, text)
                    first_ok[i] = mix[i].check(code, text)
                out.attempt(first_ok[i] and first[i] == (code, text),
                            f"exit {code} for: npseq {' '.join(mix[i].argv)}")
            pacer.mark(sum(block))
            scale = pacer.scale(len(pacer.probes) - 2)
            latencies += [dt * scale for dt in block]
        return latencies

    def replay(main, seconds: float, after_pass=None) -> list[list[float]]:
        passes = []
        with Pacer() as pacer:
            deadline = time.perf_counter() + seconds
            while not passes or time.perf_counter() < deadline:
                passes.append(mix_pass(main, pacer))
                if after_pass is not None:
                    after_pass()
        out.record.setdefault("probe_s", []).extend(pacer.probes)
        return passes

    untraced = replay(cli.main, seconds / 2 if trace else seconds)
    out.record.update(
        calls_per_mix=len(mix),
        mix_passes=len(untraced),
        stdout_sha256=hashlib.sha256("".join(text for _, text in first).encode()).hexdigest(),
    )
    if not trace:
        scan_calls = [i for i, call in enumerate(mix) if call.candidates]
        candidates = sum(mix[i].candidates for i in scan_calls)
        out.add("cand_per_s",
                statistics.median(candidates / sum(lat[i] for i in scan_calls) for lat in untraced),
                "1/s", len(scan_calls) * len(untraced))
        # Each kind counts the same whatever its share of the mix: the figures
        # are geometric means over the kinds of each kind's p50 and p99.
        kinds = kind_latencies(mix, [[t * 1e3 for t in lat] for lat in untraced])
        calls = len(mix) * len(untraced)
        out.add("call_ms.p50", statistics.geometric_mean(p50 for p50, _ in kinds.values()),
                "ms", calls)
        out.add("call_ms.p99", statistics.geometric_mean(p99 for _, p99 in kinds.values()),
                "ms", calls)
        out.record["call_ms_by_kind"] = {
            kind: {"p50": p50, "p99": p99} for kind, (p50, p99) in kinds.items()
        }
        out.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
        return out

    recorder = SpanRecorder()
    per_pass: list[dict[str, float]] = []

    def after_traced_pass():
        if not per_pass:
            recorder.write(spans_path)
        per_pass.append(layer_metrics(recorder.summary(), len(mix)))
        recorder.clear()

    with installed(recorder) as absent:
        traced = replay(recorder.wrap("cli.main", cli.main), seconds / 2, after_traced_pass)
    metrics = median_of_dicts(per_pass)
    metrics["search.scaling_eff"] = 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(lat) for lat in traced)
        / statistics.median(sum(lat) for lat in untraced)
        - 1
    )
    out.layers = metrics
    out.record.update(absent=absent, exact_counts_repeat=exact_counts_repeat(per_pass))
    return out
