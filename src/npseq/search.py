"""Exhaustive enumeration of almost p-ary sequences with a leading zero run.

Candidates have their s zero-symbols pinned at positions 0..s-1 (lossless for
the consecutive-zero family, since autocorrelation is rotation-invariant) and,
by default, the first nonzero exponent pinned to 0 (lossless for any per-shift
statistic, since a global phase multiplies every term of C(t) by 1).

The exponent space is indexed in lexicographic order, but at most one
candidate per orbit of the group b -> c*b + a is profiled (c in Z_p^*; a in
Z_p over the full space, a = 0 under phase normalisation), and one per pair
of orbits under reversal (below). This loses nothing:

- a global phase b -> b + a leaves every difference b_i - b_{i+t}, and so the
  whole count matrix, exactly as it is;
- decimation b -> c*b moves count column d to column c*d, so C(t) becomes
  sigma_c(C(t)) with sigma_c: zeta -> zeta^c, a Galois automorphism of
  Q(zeta_p). It is injective and fixes the rational integers, so ell, the
  integral values, the NPS type and the ell bounds (which depend on n, s, p
  only) do not change. On the difference grid of R_a it fixes column 0 and
  permutes the nonzero columns d_g -> c*d_g, so each of the five PDPDS
  classes maps onto itself and the classification does not change.

So a match or a violation found for the representative holds for every
member of its orbit. The representatives are the free digits [0] + tail,
where the tail is zero or has 1 as its first nonzero digit. A depth-first
walk visits them in lexicographic (ordinal) order: only 0 and 1 are tried
until a nonzero digit is placed, and each step places one digit with three
big-int updates of its parent's node (`sequence._stepper`). The last digit
takes one: a loop over the siblings makes each leaf's matrix in that one
update and reads it in place (`sequence._reader`), with no recursive call
and no profile object.

Orbits also pair up under reversal rho: b_i -> b_{s-1-i mod N}, which keeps
the zero run 0..s-1 in place and reverses the free digits. It sends C(t) =
sum of a_i conj(a_{i+t}) to the sum of a_{s-1-i} conj(a_{s-1-i-t}), that is
conj(C(t)): count column d moves to -d, and decimation by -1 moves it back.
So rho(-x) has the count matrix of x, cell for cell. Every visitor is a
function of (f, ell, ints), so the orbit of x and that of y = canon(rho x),
the representative of rho(-x)'s orbit (reverse x, subtract its last digit,
scale the first nonzero one to 1), share one result. The walk reads a leaf
only when x <= y; y < x is read at y's own ordinal, in whatever range holds
it. rho is an involution that commutes with b -> c*b + a, so canon(rho y) =
x and each pair is read once.

An orbit has (p - 1 if the tail is nonzero, else 1) times (p over the full
space, else 1) members, as does its twin, and the report is expanded over
the orbits of x and, when y != x, y: every member is counted and recorded
with its own exponents and index, and matches and violations are sorted
into index order, so a report equals that of a candidate-by-candidate scan.
With job_count > 1 the orbit ordinals are cut into contiguous chunks (the
walk skips a subtree, or a leaf, outside its chunk by its leaf count), dealt
round-robin to job_count tasks, processed independently and merged, so
reports are byte-identical for any job count. The leaves read bunch at low
ordinals, so equal-count ranges, one per task, would leave the first task
the most reads; eight chunks per task spread them. One pool of worker
processes serves every parallel scan: the first one imports the pool
modules (a process that runs none never loads them) and starts the pool,
and the pool is shut down at exit.

The roundtrip compares each representative's five-class classification with
`expected_pdpds_params` of its type (None without one); for n >= 2 that is
exact. Each near row of the count matrix holds m_t = n - 1 pairs, each far
row n - 2, and row 0 none in a nonzero column, so lambda2 = 0. A classified
grid makes C(t) = lambda - mu one integer on the near rows and one on the
far rows: a type, and lambda + (p-1)*mu = m_t gives mu = (m_t - gamma)/p,
its expected tuple. Conversely, 1 + zeta + ... + zeta^(p-1) = 0 being the
only relation among the powers of zeta, a type makes each row's nonzero
columns equal, mu_t = (m_t - gamma)/p: the grid classifies as that tuple.
"""

from __future__ import annotations

import atexit
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter

from .cyclotomic import _require_grid
from .diffset import PdpdsParams, classify_grid, expected_pdpds_params
from .sequence import _counts, _nps_type, _reader, _stepper, _width
from .theory import ell_bounds

DEFAULT_BUDGET = 10**8
MAX_JOBS = 1024  # one task and one future per job
_CHUNKS_PER_JOB = 8  # ordinal chunks dealt to each task of a parallel scan
# (workers, ProcessPoolExecutor) of parallel scans, made by the first one
_pool: tuple[int, object] | None = None

# filter modes for enumerate_and_classify
FILTER_ALL = "all"  # record every candidate
FILTER_NPS = "nps"  # record candidates with a positional classification
FILTER_TYPE = "type"  # record only a specific (gamma1, gamma2)


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"search space has {required} candidates, exceeding budget {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class SearchConfig:
    p: int
    period: int
    zeros: int  # length of the zero run pinned at positions 0..zeros-1
    normalize_phase: bool = True
    filter_mode: str = FILTER_NPS
    target: tuple[int, int] | None = None  # required for FILTER_TYPE, else None
    job_count: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        _require_grid(self.period, self.p)
        if not 0 <= self.zeros < self.period:
            raise ValueError("need 0 <= zeros < period")
        if self.filter_mode not in (FILTER_ALL, FILTER_NPS, FILTER_TYPE):
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")
        if (self.filter_mode == FILTER_TYPE) != (self.target is not None):
            raise ValueError("the type filter, and only it, takes a target (gamma1, gamma2)")
        if self.target is not None:
            target = tuple(self.target)
            if len(target) != 2 or not all(isinstance(g, int) for g in target):
                raise ValueError(f"the type target needs two integers gamma1,gamma2, got {target}")
            object.__setattr__(self, "target", target)
        if self.job_count < 1:
            raise ValueError("job_count must be positive")
        if self.job_count > MAX_JOBS:
            raise ValueError(f"job_count {self.job_count} exceeds the limit of {MAX_JOBS}")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    @property
    def free_positions(self) -> int:
        return self.period - self.zeros

    @property
    def space_size(self) -> int:
        free = self.free_positions
        if self.normalize_phase and free > 0:
            free -= 1
        return self.p**free

    @property
    def orbit_count(self) -> int:
        """Orbits of b -> c*b (+ a) on the space: the ordinals the ranges
        split. A scan reads about half of them, one per reversal pair."""
        return _representatives(self.p, self.free_positions - 1)


def _representatives(p: int, r: int) -> int:
    """Tails of length r that are zero or led (after their zeros) by 1."""
    return 1 + (p**r - 1) // (p - 1)


@dataclass(frozen=True)
class Match:
    exponents: tuple[int, ...]  # exponents at the nonzero positions, in order
    gamma1: int | None  # None when the candidate has no positional type
    gamma2: int | None
    pdpds: PdpdsParams | None


@dataclass
class SearchReport:
    config: SearchConfig
    total_enumerated: int = 0
    matches: list[Match] = field(default_factory=list)
    ell_histogram: dict[int, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)


def _orbit(p: int, rep: tuple[int, ...], full: bool):
    """(index, free digits) of every member c*rep + a of rep's orbit; a
    member's digits, leading 0 included under phase normalisation, are its
    index in base p."""
    for c in range(1, p) if any(rep) else (1,):
        for a in range(p) if full else (0,):
            member = tuple([(c * b + a) % p for b in rep])
            index = 0
            for b in member:
                index = index * p + b
            yield index, member


def _merge(into: SearchReport, part: SearchReport) -> None:
    into.total_enumerated += part.total_enumerated
    into.matches.extend(part.matches)
    for ell, count in part.ell_histogram.items():
        into.ell_histogram[ell] = into.ell_histogram.get(ell, 0) + count
    into.violations.extend(part.violations)


def _violation_index(text: str) -> int:
    return int(text.split(" ", 2)[1])  # "index 17 [...]: ..."


def _shutdown_pool() -> None:
    """Shut the parallel scans' pool down at exit. The pool modules are
    imported after this one, so teardown clears their globals first, and a
    pool still live then fails to collect without them."""
    if _pool is not None:
        _pool[1].shutdown()


def _scan_in_pool(config: SearchConfig, tasks: list[tuple[tuple[int, int], ...]], visit):
    """Scan each task's ranges on the one pool, grown to min(tasks, usable CPUs).

    The pool modules are imported here, by the first parallel scan, so that
    a process that never runs one does not load them.
    """
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    global _pool
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    workers = min(len(tasks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if _pool is None or _pool[0] < workers:
        if _pool is not None:
            _pool[1].shutdown()
        atexit.unregister(_shutdown_pool)  # one hook, however many pools are made
        atexit.register(_shutdown_pool)
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    try:
        futures = [_pool[1].submit(_scan, config, ranges, visit) for ranges in tasks]
        parts = []
        for fut in futures:
            parts.append(fut.result())
        return parts
    except BrokenProcessPool:  # a worker died: the next call starts a fresh pool
        _pool = None
        raise
    finally:
        # a raised result's traceback holds this frame: it must not hold the
        # future that holds the exception
        futures = fut = None


def _ranges(orbits: int, jobs: int) -> list[tuple[tuple[int, int], ...]]:
    """Cut the ordinals [0, orbits) into min(orbits, 8 * jobs) contiguous
    chunks of equal count and deal them round-robin to jobs tasks (jobs <=
    orbits): task j gets chunks j, j + jobs, j + 2 * jobs, ..., in order."""
    chunks = min(orbits, _CHUNKS_PER_JOB * jobs)
    bounds = [orbits * c // chunks for c in range(chunks + 1)]
    return [tuple(zip(bounds[j:-1:jobs], bounds[j + 1 :: jobs])) for j in range(jobs)]


def _run_partitioned(config: SearchConfig, visit) -> SearchReport:
    """Deal the orbit ordinals to job_count tasks (`_ranges`), merge their
    reports and sort the expanded matches and violations into index order.

    Each task is one future, scanned by one of at most min(job_count, usable
    CPUs) workers, forked by the first parallel scan and reused for the rest
    of the process, so a monkeypatch made after that scan does not reach them.
    """
    total = config.space_size
    if total > config.budget:
        raise BudgetExceededError(total, config.budget)
    orbits = config.orbit_count
    jobs = min(config.job_count, orbits)
    try:
        if jobs == 1:
            report = _scan(config, ((0, orbits),), visit)
        else:
            report = SearchReport(config=config)
            for part in _scan_in_pool(config, _ranges(orbits, jobs), visit):
                _merge(report, part)
    except RecursionError:  # the walk nests one call per free position: no leaf was read
        raise ValueError(
            f"the walk over {config.free_positions} free positions and its callers "
            f"exceed the recursion limit of {sys.getrecursionlimit()}"
        ) from None
    # exponents (all free digits, zero-padded) sort in index order
    report.matches.sort(key=attrgetter("exponents"))
    report.violations.sort(key=_violation_index)
    return report


class _Lazy(dict):
    """A dict that makes a missing key's value as make(key), once."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


@lru_cache(maxsize=8)
def _canon(p: int) -> _Lazy:
    """canon[b][v]: str.translate's table of z -> (z - b) / (v - b) mod p, the
    phase and decimation that take digits led by b's and then v to digits led
    by 0's and then 1. Scans of one p share it; its entries, made as scans ask
    for them, number at most p^3."""

    def affine(b: int, v: str) -> _Lazy:
        c = pow(ord(v) - b, -1, p)
        return _Lazy(lambda z: (z - b) * c % p)

    return _Lazy(lambda b: _Lazy(partial(affine, b)))


def _scan(config: SearchConfig, ranges: tuple[tuple[int, int], ...], visit) -> SearchReport:
    """Walk the orbit representatives with ordinals in each [lo, hi) of
    ranges, one range after another, and pass the folded matrix f and the
    summary of each one read, the least of its reversal pair, to
    `visit(config, f, ell, ints)` (`sequence._reader`), a module-level
    function or a partial of one (workers unpickle it), which
    returns (record, violation): a match's (gamma1, gamma2, pdpds) or None,
    and a violation text or None. Both hold for every member of the pair's
    orbits, counted and recorded one by one."""
    p, zeros, N = config.p, config.zeros, config.period
    full = not config.normalize_phase
    part = SearchReport(config=config)
    histogram = part.ell_histogram
    # an orbit's members, by whether its tail is nonzero
    weights = (p if full else 1, (p - 1) * (p if full else 1))
    # the leaves of a subtree r positions deep, (before, after) a nonzero digit
    sizes = tuple([(_representatives(p, r), p**r) for r in range(N - zeros)])

    def walk(k: int, node: tuple[int, int, int], first: int, led: bool, digits, prefix) -> None:
        """Try each of digits, (b, chr(b), (p-b)*w, b*w), at position k after
        node and the free digits prefix (a str of chr(b)), then positions
        k+1 .. N-1; the leaves have ordinals first, ..."""
        if k < N - 1:
            r = N - 1 - k
            for b, char, _, _ in digits:
                if first >= hi:
                    return
                # every tail follows a nonzero digit, else representatives only
                nested = led or b > 0
                size = sizes[r][nested]
                if first + size > lo:
                    tried = every if nested else unled
                    walk(k + 1, step(node, b), first, nested, tried, prefix + char)
                first += size
            return
        # the last digit: the leaves in [lo, hi) (first <= hi here, so no
        # slice bound is negative), each made in one update of node and read
        # when it is not above y = canon(rho x). x and y are digits 1 .. n-1
        # (digit 0 of both is 0); rho, the prefix reversed, is rho x less b
        M, H, G = node
        tail, rho = prefix[1:], prefix[::-1]
        for b, char, h, g in digits[max(lo - first, 0) : hi - first]:
            x = tail + char  # at n = 1 the leaf is the pinned 0, its own twin
            rest = rho.lstrip(char)  # led by v, the first digit not b
            y = rho.translate(canon[b][rest[0]]) if rest else x
            if y < x:
                continue  # read at y's ordinal, for both orbits
            X = M + (H << h) + (G << g) + 1
            f = (X & low) + (X >> pw & low)
            ell, ints = read(f)
            twin = y != x
            histogram[ell] = histogram.get(ell, 0) + (weights[led or b > 0] << twin)
            record, violation = visit(config, f, ell, ints)
            if record is None and violation is None:
                continue
            for rep in (prefix + char, "\0" + y) if twin else (prefix + char,):
                for index, exponents in _orbit(p, tuple(map(ord, rep)), full):
                    if record is not None:
                        part.matches.append(Match(exponents, *record))
                    if violation is not None:
                        text = ",".join(["Z"] * zeros + [str(b) for b in exponents])
                        part.violations.append(f"index {index} [{text}]: {violation}")

    step, low = _stepper(p, N)
    read, w, canon = _reader(p, N), _width(N)[0], _canon(p)
    pw = p * w
    every = tuple([(b, chr(b), (p - b) * w, b * w) for b in range(p)])
    unled = every[:2]  # until a nonzero digit is placed
    try:
        for lo, hi in ranges:  # walk reads them from this scope
            walk(zeros, (0, 0, 0), 0, False, every[:1], "")  # the first free digit is pinned to 0
    finally:
        del walk  # it holds itself in its closure: drop the cycle, a RecursionError too
    part.total_enumerated = sum(histogram.values())
    return part


def _visit_classify(config: SearchConfig, f: int, ell: int, ints):
    nps = _nps_type(ints)
    if config.filter_mode == FILTER_NPS and nps is None:
        return None, None
    if config.filter_mode == FILTER_TYPE and (
        nps is None or (nps.gamma1, nps.gamma2) != config.target
    ):
        return None, None
    if nps is None:
        return (None, None, None), None
    pdpds = classify_grid(_counts(config.p, config.period, f)) if config.zeros == 2 else None
    return (nps.gamma1, nps.gamma2, pdpds), None


def enumerate_and_classify(config: SearchConfig) -> SearchReport:
    """Scan the whole space, recording classified sequences per the filter."""
    return _run_partitioned(config, _visit_classify)


def _visit_ell(bounds: tuple[int, int], config: SearchConfig, f: int, ell: int, ints):
    low, high = bounds
    if not low <= ell <= high:
        return None, f"ell={ell} outside [{low},{high}]"
    return None, None


def verify_ell_bounds(config: SearchConfig) -> SearchReport:
    """Histogram ell over all candidates; record any bound violation."""
    if config.zeros < 1:
        raise ValueError("ell bounds apply to sequences with at least one zero run")
    # n, s and p are the same for every candidate
    bounds = ell_bounds(config.free_positions, config.zeros, config.p)
    return _run_partitioned(config, partial(_visit_ell, bounds))


def _visit_roundtrip(config: SearchConfig, f: int, ell: int, ints):
    n = config.free_positions
    if n < 2:
        return None, None  # the equivalence is stated for n >= 2
    nps = _nps_type(ints)
    actual = classify_grid(_counts(config.p, config.period, f))
    typed = nps is not None
    expected = expected_pdpds_params(n, config.p, nps.gamma1, nps.gamma2) if typed else None
    if actual == expected:
        return ((nps.gamma1, nps.gamma2, actual) if typed else None), None
    name = f"({nps.gamma1},{nps.gamma2})" if typed else "none"
    return None, f"type {name} but difference set classified as {actual!r}, expected {expected!r}"


def verify_nps_pdpds_equivalence(config: SearchConfig) -> SearchReport:
    """Check that every candidate with a two-symbol zero run has the five-class
    classification `expected_pdpds_params` gives its type, and none without a
    type: one comparison covers both directions (see the module docstring)."""
    if config.zeros != 2:
        raise ValueError("equivalence check requires exactly two zero-symbols")
    return _run_partitioned(config, _visit_roundtrip)


def _match_dict(m: Match) -> dict:
    return {
        "exponents": list(m.exponents),
        "gamma1": m.gamma1,
        "gamma2": m.gamma2,
        "pdpds": list(m.pdpds.as_tuple()) if m.pdpds is not None else None,
    }


def report_to_json(report: SearchReport) -> str:
    payload = {
        "config": {
            "p": report.config.p,
            "period": report.config.period,
            "zeros": report.config.zeros,
            "normalize_phase": report.config.normalize_phase,
            "filter_mode": report.config.filter_mode,
            "target": list(report.config.target) if report.config.target else None,
        },
        "total_enumerated": report.total_enumerated,
        "matches": [_match_dict(m) for m in report.matches],
        "ell_histogram": {
            str(k): report.ell_histogram[k] for k in sorted(report.ell_histogram)
        },
        "violations": report.violations,
    }
    return json.dumps(payload, indent=None, separators=(",", ":"), sort_keys=True)


def report_to_csv(report: SearchReport) -> str:
    """Matches only: exponent pattern, type, difference-set tuple."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["exponents", "gamma1", "gamma2", "pdpds"])
    for m in report.matches:
        writer.writerow(
            [
                " ".join(str(b) for b in m.exponents),
                m.gamma1,
                m.gamma2,
                " ".join(str(x) for x in m.pdpds.as_tuple()) if m.pdpds else "",
            ]
        )
    return buf.getvalue()

