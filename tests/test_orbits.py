"""The orbit reduction of the scans loses nothing.

The scans walk one representative per orbit of b -> c*b (+ a), read one per
pair of orbits under reversal and expand what they find over both orbits.
Here the expanded members cover the space exactly once, the reads number the
classes under both maps, and a candidate-by-candidate scan that calls the
same visitors gives byte-identical reports on every configuration of
acceptance criteria 5-8 and 10.
"""

import itertools
from dataclasses import replace
from functools import partial

import pytest

from npseq import search
from npseq.search import (
    FILTER_ALL,
    FILTER_NPS,
    Match,
    SearchConfig,
    SearchReport,
    enumerate_and_classify,
    report_to_json,
    verify_ell_bounds,
    verify_nps_pdpds_equivalence,
)
from npseq.sequence import AlmostParySequence, profile
from npseq.theory import ell_bounds
from test_search import class_key

SMALL_SPACES = [
    SearchConfig(p=p, period=period, zeros=zeros, normalize_phase=normalize)
    for p, max_period in ((2, 9), (3, 7), (5, 5), (7, 5))
    for period in range(2, max_period + 1)
    for zeros in range(period)
    for normalize in (True, False)
]


def candidates(config):
    """(index, free digits) of every candidate, in index order."""
    p, free = config.p, config.free_positions
    if config.normalize_phase:
        tails = itertools.product(range(p), repeat=free - 1)
        return enumerate((0, *tail) for tail in tails)
    return enumerate(itertools.product(range(p), repeat=free))


@pytest.mark.parametrize("config", SMALL_SPACES, ids=str)
def test_orbit_members_cover_the_space_once(monkeypatch, config):
    # the representatives are the ones the walk expands: under FILTER_ALL
    # every representative read, and its reversal twin, is passed to _orbit
    p, full = config.p, not config.normalize_phase
    reps = []
    expand = search._orbit

    def recording_orbit(p, rep, full):
        reps.append(rep)
        return expand(p, rep, full)

    monkeypatch.setattr(search, "_orbit", recording_orbit)
    enumerate_and_classify(replace(config, filter_mode=FILTER_ALL))
    assert len(reps) == config.orbit_count
    by_index = dict(candidates(config))
    seen = []
    for rep in reps:
        for index, digits in expand(p, rep, full):
            assert by_index[index] == digits
            seen.append(index)
    assert sorted(seen) == list(range(config.space_size))


@pytest.mark.parametrize("config", SMALL_SPACES, ids=str)
def test_one_read_per_reversal_class(monkeypatch, config):
    reads = []
    reader = search._reader

    def counting_reader(p, N):
        read = reader(p, N)

        def counted(f):
            reads.append(f)
            return read(f)

        return counted

    monkeypatch.setattr(search, "_reader", counting_reader)
    enumerate_and_classify(config)
    assert len(reads) == len({class_key(config, digits) for _, digits in candidates(config)})


@pytest.mark.parametrize("config", SMALL_SPACES[::3], ids=str)
def test_expanded_report_counts_every_candidate(monkeypatch, config):
    every = replace(config, filter_mode=FILTER_ALL)
    report = enumerate_and_classify(every)
    assert report.total_enumerated == sum(report.ell_histogram.values()) == config.space_size
    assert [m.exponents for m in report.matches] == [d for _, d in candidates(config)]
    if config.zeros:
        monkeypatch.setattr(search, "ell_bounds", lambda n, s, p: (0, 0))
        indices = [int(v.split()[1]) for v in verify_ell_bounds(config).violations]
        assert indices == list(range(config.space_size))


def brute_force(config, visit):
    """Profile and visit every candidate in index order, with no reduction."""
    report = SearchReport(config=config)
    for index, digits in candidates(config):
        seq = AlmostParySequence(config.p, (None,) * config.zeros + tuple(digits))
        prof = profile(seq)
        report.total_enumerated += 1
        report.ell_histogram[prof.ell] = report.ell_histogram.get(prof.ell, 0) + 1
        record, violation = visit(config, prof.matrix, prof.ell, prof.integral_values)
        if record is not None:
            report.matches.append(Match(tuple(digits), *record))
        if violation is not None:
            symbols = ",".join("Z" if b is None else str(b) for b in seq.symbols)
            report.violations.append(f"index {index} [{symbols}]: {violation}")
    return report


EQUIVALENCE = [(3, 5), (3, 6), (3, 7), (3, 8), (5, 5), (5, 6), (5, 7)]
ACCEPTANCE_SCANS = sorted(
    # criteria 5 and 10: the round trip over the full space
    {(verify_nps_pdpds_equivalence, "_visit_roundtrip", p, period, 2, False, FILTER_NPS)
     for p, period in EQUIVALENCE}
    # criterion 6: the NPS search, p = 3, periods 4-10
    | {(enumerate_and_classify, "_visit_classify", 3, period, 2, True, FILTER_NPS)
       for period in range(4, 11)}
    # criterion 7: the ell bounds, p = 3 and 5, zero runs 1-3, periods up to 9
    | {(verify_ell_bounds, "_visit_ell", p, period, zeros, True, FILTER_NPS)
       for p in (3, 5) for zeros in (1, 2, 3) for period in range(zeros + 1, 10)}
    # criterion 8: the NPS search, normalised phase
    | {(enumerate_and_classify, "_visit_classify", p, period, 2, True, FILTER_NPS)
       for p, period in EQUIVALENCE},
    key=lambda case: (case[1],) + case[2:],
)


@pytest.mark.parametrize(
    "scan,visit,p,period,zeros,normalize,mode",
    ACCEPTANCE_SCANS,
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_reports_match_brute_force(scan, visit, p, period, zeros, normalize, mode):
    config = SearchConfig(
        p=p, period=period, zeros=zeros, normalize_phase=normalize, filter_mode=mode
    )
    visitor = getattr(search, visit)
    if visit == "_visit_ell":  # the scan fixes the bounds once per call
        visitor = partial(visitor, ell_bounds(period - zeros, zeros, p))
    reference = report_to_json(brute_force(config, visitor))
    for jobs in (1, 3):
        assert report_to_json(scan(replace(config, job_count=jobs))) == reference
