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
where the tail is zero or has 1 as its first nonzero digit. In ordinal order
they fall into batches that share all but their last L digits (`_depth`:
p^L <= 2^10 leaves, 2L <= n): batch j's leaves are its prefix, 0 and the
j-th such tail of r = n - 1 - L digits (`_prefixes`), then every S of L
digits, or under the zero prefix the S that are representatives. A scan
reads its batches one at a time, by one plan per (p, N, n) (`_plan`): it
folds `sequence._stepper`, three big-int updates a digit, over the batch's
prefix, the plan's kernel (`sequence._batch`) places the last L digits below
that node, the p^L leaf matrices packed side by side in one int, S_j of
digits s_0 .. s_{L-1} at j = s_0 + s_1*p + ... (the packing order), and the
kernel's reader gives every leaf read its ell from one K and one to_bytes,
with no bytecode run per leaf, and a leaf's integral values only when asked.
No profile object is built.

Orbits also pair up under reversal rho: b_i -> b_{s-1-i mod N}, which keeps
the zero run 0..s-1 in place and reverses the free digits. It sends C(t) =
sum of a_i conj(a_{i+t}) to the sum of a_{s-1-i} conj(a_{s-1-i-t}), that is
conj(C(t)): count column d moves to -d, and decimation by -1 moves it back.
So rho(-x) has the count matrix of x, cell for cell. Every visitor is a
function of (f, ell, nps), so the orbit of x and that of y = canon(rho x),
the representative of rho(-x)'s orbit (reverse x, subtract its last digit,
scale the first nonzero one to 1), share one result. A leaf is read only
when x <= y; y < x is read at y's own ordinal, in whatever batch holds it.
rho is an involution that commutes with b -> c*b + a, so canon(rho y) = x
and each pair is read once. For a leaf x = prefix + S whose last L digits
S are not constant, the canon map, and so y's first L-1 digits Y(S),
depend on S alone, while x's are the prefix's: a table of the Y(S),
sorted once per plan, is bisected once per batch (`_select`, which keeps
the byte offsets of the leaves it picks), so the S with Y(S) above are
read with their twins, those below are skipped, and only the ties and the
p constant S take the digit-by-digit test.

An orbit has (p - 1 if the tail is nonzero, else 1) times (p over the full
space, else 1) members, as does its twin, and the report is expanded over
the orbits of x and, when y != x, y: every member is counted and recorded
with its own exponents and index, and matches and violations are sorted
into index order, so a report equals that of a candidate-by-candidate scan.
With job_count > 1 the batches are dealt round-robin, batch j to task j
mod job_count, processed independently and merged, so reports are
byte-identical for any job count. The leaves read bunch at low ordinals,
so contiguous runs of batches, one per task, would leave the first task
the most reads; dealing single batches spreads them. The tasks are dealt
to min(job_count, usable CPUs) slots, task i to slot i mod slots: slot 0
is the calling process, which scans its share itself, and every other
slot is a worker process served over one pipe. The first scan with a
worker imports `multiprocessing` (a process that runs none never loads
it) and starts the workers, which serve every later scan and are stopped
at exit.

The roundtrip compares each representative's five-class classification with
`expected_pdpds_params` of its type (None without one); for n >= 2 that is
exact. Each near row of the count matrix holds m_t = n - 1 pairs, each far
row n - 2, and row 0 none in a nonzero column, so lambda2 = 0. A classified
grid makes C(t) = lambda - mu one integer on the near rows and one on the
far rows: a type, and lambda + (p-1)*mu = m_t gives mu = (m_t - gamma)/p,
its expected tuple. Conversely, 1 + zeta + ... + zeta^(p-1) = 0 being the
only relation among the powers of zeta, a type makes each row's nonzero
columns equal, mu_t = (m_t - gamma)/p: the grid classifies as that tuple.

Every scan visits its leaves by one rule. A leaf read with ell <= 2
(`_SHOWN_ELL`) is shown to the visitor with its folded matrix and its type,
None when it has none. Every other leaf takes the answer for no matrix and
no type, asked once per distinct ell: the search records an untyped leaf
alike, shown or not, the ell check reads ell alone, and the roundtrip
classifies each shown leaf's grid and compares it with its type's tuple, or
with None for an untyped leaf.

Only the leaves with ell <= 2 have their integral values read and typed and,
in the roundtrip, their grids classified. This loses nothing. A type makes
C(1) = C(N-1) = gamma1 (conjugate symmetry, C(N-1) being the conjugate of
C(1), makes them equal once integral) and every other C(t) = gamma2, so
ell <= 2. Five constant classes make the near rows 1 and N-1 one count
vector, (lambda3, mu2, ..., mu2), and the far rows 2 .. N-2 another,
(lambda1, mu1, ..., mu1), so ell <= 2. Neither step uses the sequence <=>
PDPDS equivalence, so the roundtrip still checks it independently: a leaf
with ell > 2 has neither a type nor a classification, and both its sides
are None without the theorem.
"""

from __future__ import annotations

import atexit
import csv
import io
import json
import os
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import islice, product
from operator import attrgetter

from .cyclotomic import _require_grid
from .diffset import PdpdsParams, classify_grid, expected_pdpds_params
from .sequence import NpsType, _batch, _batch_depth, _counts, _nps_type, _stepper
from .theory import ell_bounds

DEFAULT_BUDGET = 10**8
MAX_JOBS = 1024  # one task per job, dealt over the caller and its workers
# the most ell of a leaf with a type or five constant classes (module docstring)
_SHOWN_ELL = 2
# [(process, pipe end)] of the parallel scans' workers, started by the first one
_pool: list | None = None
_pool_lock = threading.Lock()  # held through a scan's sends and replies

# filter modes for enumerate_and_classify
FILTER_ALL = "all"  # record every candidate
FILTER_NPS = "nps"  # record candidates with a positional classification
FILTER_TYPE = "type"  # record only a specific (gamma1, gamma2)


def _decimal(x: int) -> str:
    """x in decimal, or in 7 significant digits when str() refuses so many."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # exact, and not bound by that limit
        return format(Decimal(x), ".6e")


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"search space has {_decimal(required)} candidates, exceeding budget {_decimal(budget)}"
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
        """Orbits of b -> c*b (+ a) on the space, p^L to a batch but the
        first (L of the scan's plan, `_plan`). A scan builds every one's
        leaf matrix, a batch at a time in packing order (`sequence._batch`),
        and reads about half of them, one per reversal pair."""
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


def _serve(conn, inherited) -> None:
    """A worker: answer each list of tasks sent with their parts, or with
    the exception a scan raised, until EOF. Ctrl-C is the caller's."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:  # the caller's ends, so that only the caller holds them
        end.close()
    try:
        while True:
            config, tasks, visit = conn.recv()
            try:
                reply = True, [_scan(config, batches, visit) for batches in tasks]
            except Exception as exc:
                reply = False, exc
            try:
                conn.send(reply)
            except Exception:  # the exception does not pickle: send its type and text
                conn.send((False, RuntimeError(f"{type(reply[1]).__name__}: {reply[1]}")))
            reply = None
    except (EOFError, OSError):  # the caller closed its end or died
        pass


def _start_pool(workers: int) -> list:
    """Start the workers, one pipe each. Every end is held by one process
    alone, so EOF reaches this process when a worker dies, and a worker when
    this process closes its end or dies."""
    import multiprocessing

    pool = []
    for _ in range(workers):
        ours, theirs = multiprocessing.Pipe()
        ends = [conn for _, conn in pool] + [ours]
        proc = multiprocessing.Process(target=_serve, args=(theirs, ends), daemon=True)
        proc.start()
        theirs.close()
        pool.append((proc, ours))
    atexit.unregister(_stop_pool)  # one hook, however many pools are started
    atexit.register(_stop_pool)
    return pool


def _stop_pool(timeout: float = 10.0) -> None:
    """Close the workers' pipes, so that each stops on EOF, and join them,
    killing any still running after the timeout."""
    global _pool
    pool, _pool = _pool or [], None
    for _, conn in pool:
        conn.close()
    for proc, _ in pool:
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()


def _scan_in_pool(config: SearchConfig, tasks: list[range], visit):
    """Scan the tasks over min(tasks, usable CPUs) slots, task i in slot i
    mod slots: slot 0 is this process, each other slot one worker of the
    pool, grown as needed; with one slot nothing is started or imported.

    Each worker is sent its tasks in one message before this process scans
    its own, and every reply is read before a visit's exception, here or in
    a worker, is raised, so no scan reads another's. Any other failure
    stops the pool; a dead worker's is BrokenProcessPool.
    """
    global _pool
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    slots = min(len(tasks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if slots == 1:
        return [_scan(config, batches, visit) for batches in tasks]
    parts, failure = [None] * len(tasks), None
    with _pool_lock:
        if _pool is None or len(_pool) < slots - 1:
            _stop_pool()
            _pool = _start_pool(slots - 1)
        try:
            for slot, (_, conn) in enumerate(_pool[: slots - 1], 1):
                conn.send((config, tasks[slot::slots], visit))
            try:
                for i in range(0, len(tasks), slots):
                    parts[i] = _scan(config, tasks[i], visit)
            except Exception as exc:
                failure = exc
            for slot, (_, conn) in enumerate(_pool[: slots - 1], 1):
                ok, reply = conn.recv()
                if ok:
                    parts[slot::slots] = reply
                elif failure is None:
                    failure = reply
            reply = None
        except BaseException as exc:  # replies may be left in the pipes
            _stop_pool(timeout=0)
            if isinstance(exc, (EOFError, OSError)):  # a worker died
                from concurrent.futures.process import BrokenProcessPool

                raise BrokenProcessPool("a worker process of the parallel scans died") from None
            raise
    if failure is not None:
        try:
            raise failure
        finally:
            # the traceback holds this frame: it must not hold the exception
            failure = None
    return parts


def _run_partitioned(config: SearchConfig, visit) -> SearchReport:
    """Deal the batches round-robin to job_count tasks (no more tasks than
    batches), batch j to task j mod job_count, merge their reports and sort
    the expanded matches and violations into index order.

    The tasks are dealt over this process and at most min(job_count, usable
    CPUs) - 1 workers (`_scan_in_pool`), forked by the first parallel scan
    and reused for the rest of the process, so a monkeypatch made after that
    scan reaches this process's share but not theirs.
    """
    total = config.space_size
    if total > config.budget:
        raise BudgetExceededError(total, config.budget)
    n = config.free_positions
    batches = _representatives(config.p, n - 1 - _depth(config.p, n, config.period))
    jobs = min(config.job_count, batches)
    if jobs == 1:
        report = _scan(config, range(batches), visit)
    else:
        report = SearchReport(config=config)
        tasks = [range(j, batches, jobs) for j in range(jobs)]
        for part in _scan_in_pool(config, tasks, visit):
            _merge(report, part)
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


def _mirror(canon: _Lazy, digits: str) -> str:
    """Digits 1 .. n-1 of y = canon(rho x), x the free digits (digit 0 is 0,
    one chr(b) each): rho x reversed, less its last digit b, scaled so that
    its first digit v other than b becomes 1; x's own when x is constant."""
    b, rho = digits[-1], digits[-2::-1]
    rest = rho.lstrip(b)
    return rho.translate(canon[ord(b)][rest[0]]) if rest else digits[1:]


def _depth(p: int, n: int, N: int) -> int:
    """L, the digits a batch places: at most `sequence._batch_depth` (p^L <=
    2^10 leaves in 2^21 bits), and 2L <= n, so digits 1 .. L-1 lie above it."""
    return min(n // 2, _batch_depth(p, N))


@lru_cache(maxsize=8)
def _plan(p: int, N: int, n: int):
    """(L, step, leaves, read, matrix, select): the setup of the scans of
    (p, N) with n free positions, L (`_depth`), the stepper, the batches'
    kernel (`sequence._batch`) and select(prefix), the leaves read
    below the free digits prefix (a str of chr(b)): (picked, names, ties),
    their byte offsets, those read with their twins first, their last L
    digits S, and (y, twin, nonzero) of the last len(ties), which the
    digit-by-digit test reads: y = canon(rho x), whether y is another orbit
    and whether the tail is nonzero.

    The tables list the p^L strings S in the kernel's packing order, S_j of
    digits s_0 .. s_{L-1} at j = s_0 + s_1*p + ...: for S not constant, the
    translate table T(S) of its canon map and Y(S); then the Y(S), sorted,
    with the byte offsets and S of their leaves, the j of the constant S and
    the j of the tails an unled batch holds (zero, or led by 1 after their
    zeros). For x = prefix + S with S not constant, rho x starts with S
    reversed, so S alone fixes b and v: y = canon(rho x) is Y(S), the canon
    of S's first L-1 digits reversed, then the prefix reversed translated by
    T(S). x's digits 1 .. L-1 are the prefix's, so x is below its twin, and
    read, when Y(S) is above them, and above it, and skipped, when Y(S) is
    below."""
    L = _depth(p, n, N)
    leaves, read, matrix, offsets = _batch(p, N, L)
    canon = _canon(p)
    suffixes = ["".join(map(chr, reversed(s))) for s in product(range(p), repeat=L)]
    rests = [s[-2::-1].lstrip(s[-1:]) for s in suffixes]  # empty: S is constant
    tables = [canon[ord(s[-1])][rest[0]] if rest else None for s, rest in zip(suffixes, rests)]
    mirrors = [s[-2::-1].translate(t) if t is not None else None for s, t in zip(suffixes, tables)]
    js = sorted((j for j, y in enumerate(mirrors) if y is not None), key=mirrors.__getitem__)
    ys, ranked, named = ([table[j] for j in js] for table in (mirrors, offsets, suffixes))
    constants = [j for j, table in enumerate(tables) if table is None]
    unled = [j for j, s in enumerate(suffixes) if s.lstrip("\0")[:1] in ("", "\1")]

    def select(prefix: str):
        tail, back, led = prefix[1:], prefix[::-1], prefix.strip("\0") != ""
        if led:
            # Y(S) above x's digits 1 .. L-1: read with its twin; equal: a tie
            below = bisect_left(ys, tail[: L - 1])
            above = bisect_right(ys, tail[: L - 1], below)
            ties = js[below:above] + constants
        else:  # the zero prefix: its leaves are unled's tails
            above, ties = len(ys), unled
        picked, names, tested = ranked[above:], named[above:], []
        for j in ties:
            x = tail + suffixes[j]
            if tables[j] is not None:
                y = mirrors[j] + back.translate(tables[j])
            else:
                y = _mirror(canon, prefix + suffixes[j])
            if y >= x:
                picked.append(offsets[j])
                names.append(suffixes[j])
                tested.append((y, y != x, led or j > 0))
        return tuple(picked), tuple(names), tuple(tested)

    return L, _stepper(p, N), leaves, read, matrix, select


def _prefixes(p: int, r: int):
    """The free digits above each batch's leaves (a str of chr(b)), in
    ordinal order: 0 and an r-digit tail, the zero tail first, then the
    tails led by 1 after their zeros, base-p values in [p^e, 2*p^e) for
    e = 0 .. r-1. There are _representatives(p, r)."""
    yield "\0" * (r + 1)
    digits = [chr(b) for b in range(p)]
    for e in range(r):
        lead = "\0" * (r - e) + "\1"
        for rest in product(digits, repeat=e):
            yield lead + "".join(rest)


@lru_cache(maxsize=256)
def _select(p: int, N: int, n: int, prefix: str):
    """`_plan(p, N, n)`'s select(prefix); a repeated scan finds it here."""
    return _plan(p, N, n)[-1](prefix)


def _scan(config: SearchConfig, batches: range, visit) -> SearchReport:
    """Read the orbit representatives of the given batches, in order, one
    batch at a time, from the plan of (p, N, n) (`_plan`): each batch's
    node is its prefix (`_prefixes`) placed from (0, 0, 0), L digits above
    its leaves, its p^L leaf matrices are built at once, and the ell of
    each leaf that is the least of its reversal pair (`_select`) is read in
    one call, the integral values of those with ell <= 2 when the type test
    asks. visit(config, f, ell, nps), a module-level function or a partial
    of one (workers unpickle it), returns (record, violation): a match's
    (gamma1, gamma2, pdpds) or None, and a violation text or None. It is
    shown the folded matrix f and type nps, which may be None, of each leaf
    read with ell <= _SHOWN_ELL, read at run time (see the module
    docstring); every other leaf takes its answer for f and nps None, asked
    once per distinct ell. Both hold for every member of the pair's orbits,
    counted and recorded one by one, and `_run_partitioned` sorts them."""
    p, zeros, N, n = config.p, config.zeros, config.period, config.free_positions
    full = not config.normalize_phase
    part = SearchReport(config=config)
    histogram = part.ell_histogram
    # an orbit's members, by whether its tail is nonzero
    weights = (p if full else 1, (p - 1) * (p if full else 1))
    pair = weights[1] << 1  # a led leaf read for itself and its twin
    L, step, leaves, read, matrix, _ = _plan(p, N, n)
    answers = {}  # ell -> the answer for a leaf shown no matrix
    loud = set()  # the ells whose answer records or flags
    r = n - 1 - L  # the tail digits above a batch
    # batches may hold more than sys.maxsize, too many for islice
    prefixes = islice(_prefixes(p, r), batches.start, min(batches.stop, sys.maxsize), batches.step)
    for prefix in prefixes:
        # leaves prefix + S_j not above their twins: read with them, then the others
        picked, names, ties = _select(p, N, n, prefix)
        if not picked:
            continue
        at = len(picked) - len(ties)
        blocks = leaves(reduce(step, map(ord, prefix), (0, 0, 0)))
        ells, integral = read(blocks, picked)
        for ell, times in Counter(ells[:at]).items() if at else ():
            histogram[ell] = histogram.get(ell, 0) + times * pair
        for ell, (_, twin, nonzero) in zip(ells[at:], ties):
            histogram[ell] = histogram.get(ell, 0) + (weights[nonzero] << twin)
        for ell in set(ells).difference(answers):
            answers[ell] = answer = visit(config, None, ell, None)
            if answer != (None, None):
                loud.add(ell)
        results = {k: answers[ell] for k, ell in enumerate(ells) if ell in loud} if loud else {}
        for k, ell in enumerate(ells):
            if ell <= _SHOWN_ELL:
                nps = _nps_type(integral(k))
                results[k] = visit(config, matrix(blocks, picked, k), ell, nps)
        for k, (record, violation) in results.items():
            if record is None and violation is None:
                continue
            digits = prefix + names[k]
            y = _mirror(_canon(p), digits) if k < at else ties[k - at][0]
            for rep in (digits, "\0" + y) if y != digits[1:] else (digits,):
                for index, exponents in _orbit(p, tuple(map(ord, rep)), full):
                    if record is not None:
                        part.matches.append(Match(exponents, *record))
                    if violation is not None:
                        text = ",".join(["Z"] * zeros + [str(b) for b in exponents])
                        part.violations.append(f"index {index} [{text}]: {violation}")
    part.total_enumerated = sum(histogram.values())
    return part


def _visit_classify(config: SearchConfig, f: int | None, ell: int, nps: NpsType | None):
    if nps is None:
        return ((None, None, None) if config.filter_mode == FILTER_ALL else None), None
    if config.filter_mode == FILTER_TYPE and (nps.gamma1, nps.gamma2) != config.target:
        return None, None
    pdpds = classify_grid(_counts(config.p, config.period, f)) if config.zeros == 2 else None
    return (nps.gamma1, nps.gamma2, pdpds), None


def enumerate_and_classify(config: SearchConfig) -> SearchReport:
    """Scan the whole space, recording classified sequences per the filter."""
    return _run_partitioned(config, _visit_classify)


def _visit_ell(bounds: tuple[int, int], config: SearchConfig, f: int | None, ell: int, nps):
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


def _visit_roundtrip(config: SearchConfig, f: int | None, ell: int, nps: NpsType | None):
    n = config.free_positions
    if n < 2 or f is None:
        return None, None  # stated for n >= 2; no f: ell > 2, untyped and unclassified
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

