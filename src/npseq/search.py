"""Exhaustive enumeration of almost p-ary sequences with a leading zero run.

Candidates have their s zero-symbols pinned at positions 0..s-1 (lossless for
the consecutive-zero family, since autocorrelation is rotation-invariant) and,
by default, the first nonzero exponent pinned to 0 (lossless for any per-shift
statistic, since a global phase multiplies every term of C(t) by 1).

The exponent space is scanned in lexicographic order. With job_count > 1 it is
split into contiguous index ranges that are processed independently and merged
in range order, so reports are byte-identical for any job count.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .cyclotomic import _require_cells, _require_prime
from .diffset import PdpdsParams, classify_grid, expected_pdpds_params
from .sequence import AlmostParySequence, NpsType, profile
from .theory import ell_bounds

DEFAULT_BUDGET = 10**8

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
    target: tuple[int, int] | None = None  # required for FILTER_TYPE
    job_count: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        _require_cells(self.period, self.p)
        _require_prime(self.p)
        if not 0 <= self.zeros < self.period:
            raise ValueError("need 0 <= zeros < period")
        if self.filter_mode not in (FILTER_ALL, FILTER_NPS, FILTER_TYPE):
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")
        if self.filter_mode == FILTER_TYPE and self.target is None:
            raise ValueError("type filter requires a target (gamma1, gamma2)")
        if self.job_count < 1:
            raise ValueError("job_count must be positive")
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


def _candidate(config: SearchConfig, index: int) -> AlmostParySequence:
    """Candidate at a lexicographic index: base-p digits fill the free slots."""
    p = config.p
    free = config.free_positions
    digits = []
    x = index
    var = free - 1 if (config.normalize_phase and free > 0) else free
    for _ in range(var):
        digits.append(x % p)
        x //= p
    digits.reverse()
    if config.normalize_phase and free > 0:
        digits = [0] + digits
    symbols: list[int | None] = [None] * config.zeros + digits
    return AlmostParySequence(p, tuple(symbols))


def _merge(into: SearchReport, part: SearchReport) -> None:
    into.total_enumerated += part.total_enumerated
    into.matches.extend(part.matches)
    for ell, count in part.ell_histogram.items():
        into.ell_histogram[ell] = into.ell_histogram.get(ell, 0) + count
    into.violations.extend(part.violations)


def _run_partitioned(config: SearchConfig, visit) -> SearchReport:
    """Split [0, space) into job_count contiguous ranges and merge in order.

    The ranges are scanned by at most os.cpu_count() worker processes.
    """
    total = config.space_size
    if total > config.budget:
        raise BudgetExceededError(total, config.budget)
    jobs = min(config.job_count, total)
    if jobs == 1:
        return _scan(config, 0, total, visit)
    bounds = [total * j // jobs for j in range(jobs + 1)]
    ranges = [(bounds[j], bounds[j + 1]) for j in range(jobs)]
    report = SearchReport(config=config)
    with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(_scan, config, lo, hi, visit) for lo, hi in ranges]
        for fut in futures:
            _merge(report, fut.result())
    return report


def _scan(config: SearchConfig, lo: int, hi: int, visit) -> SearchReport:
    """Profile each candidate of [lo, hi) once and pass it to `visit(part, seq,
    prof)`, a module-level function (workers unpickle it) that records matches
    in `part` and returns a violation text or None."""
    part = SearchReport(config=config)
    for index in range(lo, hi):
        seq = _candidate(config, index)
        part.total_enumerated += 1
        prof = profile(seq)
        part.ell_histogram[prof.ell] = part.ell_histogram.get(prof.ell, 0) + 1
        violation = visit(part, seq, prof)
        if violation is not None:
            symbols = ",".join("Z" if b is None else str(b) for b in seq.symbols)
            part.violations.append(f"index {index} [{symbols}]: {violation}")
    return part


def _add_match(part: SearchReport, seq, nps: NpsType | None, pdpds) -> None:
    exponents = tuple(b for b in seq.symbols if b is not None)
    gamma1, gamma2 = (nps.gamma1, nps.gamma2) if nps else (None, None)
    part.matches.append(Match(exponents, gamma1, gamma2, pdpds))


def _visit_classify(part: SearchReport, seq, prof) -> None:
    config = part.config
    nps = prof.nps_type
    if config.filter_mode == FILTER_NPS and nps is None:
        return
    if config.filter_mode == FILTER_TYPE and (
        nps is None or (nps.gamma1, nps.gamma2) != config.target
    ):
        return
    pdpds = None
    if nps is not None and config.zeros == 2:
        pdpds = classify_grid(prof.difference_grid, seq.n)
    _add_match(part, seq, nps, pdpds)


def enumerate_and_classify(config: SearchConfig) -> SearchReport:
    """Scan the whole space, recording classified sequences per the filter."""
    return _run_partitioned(config, _visit_classify)


def _visit_ell(part: SearchReport, seq, prof) -> str | None:
    low, high = ell_bounds(seq.n, seq.s, seq.p)
    if not low <= prof.ell <= high:
        return f"ell={prof.ell} outside [{low},{high}]"
    return None


def verify_ell_bounds(config: SearchConfig) -> SearchReport:
    """Histogram ell over all candidates; record any bound violation."""
    if config.zeros < 1:
        raise ValueError("ell bounds apply to sequences with at least one zero run")
    return _run_partitioned(config, _visit_ell)


def _visit_roundtrip(part: SearchReport, seq, prof) -> str | None:
    n = seq.n
    if n < 2:
        return None  # the equivalence is stated for n >= 2
    nps = prof.nps_type
    actual = classify_grid(prof.difference_grid, n)
    if nps is None:
        # backward direction: an unclassified sequence's difference set must
        # not match the expected tuple of any type. Any expected tuple has
        # lambda2 = 0 and determines its type via gamma2 = lambda1 - mu1,
        # gamma1 = lambda3 - mu2, so one inversion suffices.
        if actual is not None and actual.lambda2 == 0:
            g1 = actual.lambda3 - actual.mu2
            g2 = actual.lambda1 - actual.mu1
            if actual == expected_pdpds_params(n, seq.p, g1, g2):
                return (
                    f"no NPS type but difference set matches "
                    f"expected params for ({g1},{g2})"
                )
        return None
    expected = expected_pdpds_params(n, seq.p, nps.gamma1, nps.gamma2)
    if expected is None or actual != expected:
        return (
            f"type ({nps.gamma1},{nps.gamma2}) but difference "
            f"set classified as {actual!r}, expected {expected!r}"
        )
    _add_match(part, seq, nps, actual)
    return None


def verify_nps_pdpds_equivalence(config: SearchConfig) -> SearchReport:
    """Check, for every candidate with a two-symbol zero run, that the
    positional classification and the five-class difference-set classification
    succeed or fail together with matching parameters. Both read the
    candidate's count matrix: the type its canonical rows, the classes its
    reflected rows (the difference multiset of R_a)."""
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

