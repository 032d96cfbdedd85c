"""The orbit reduction of the scans loses nothing.

The scans walk one representative per orbit of b -> c*b (+ a), read one per
pair of orbits under reversal and expand what they find over both orbits.
Here the expanded members cover the space exactly once, the reads are the
classes under both maps, a candidate-by-candidate scan that calls the same
visitors gives byte-identical reports on every configuration of acceptance
criteria 5-8 and 10, and the batch scan over any range of batches reports
what that scan does on the candidates those batches cover. No leaf or
planted grid with ell above the scans' gate has a type or a
classification, so every scan shows its visit the matrix and type of each
leaf it reads with ell <= 2, and of no other leaf, and the roundtrip
classifies those leaves alone. Shown any leaf, the search and roundtrip
visits answer as profile and classify_grid do, the roundtrip flags each
planted grid that classifies as an untyped leaf's, and only the roundtrip
classifies an untyped leaf.
"""

import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from scanhooks import (
    SHOWN_ELL,
    batch_count,
    batch_leaves,
    brute_force,
    candidates,
    class_profiles,
    classified,
    covered,
    every_leaf_shown,
    expansions,
    refusing,
    run_scan,
    visited,
    visits,
)

from npseq import search
from npseq.diffset import PDPDS_CLASSES, _part_rows, classify_grid
from npseq.search import (
    FILTER_ALL,
    FILTER_NPS,
    SearchConfig,
    enumerate_and_classify,
    report_to_json,
    verify_ell_bounds,
    verify_nps_pdpds_equivalence,
)
from npseq.sequence import (
    AlmostParySequence,
    AutocorrelationProfile,
    _counts,
    _row,
    _width,
    profile,
)

SMALL_SPACES = [
    SearchConfig(p=p, period=period, zeros=zeros, normalize_phase=normalize)
    for p, max_period in ((2, 9), (3, 7), (5, 5), (7, 5))
    for period in range(2, max_period + 1)
    for zeros in range(period)
    for normalize in (True, False)
]


@pytest.mark.parametrize("config", SMALL_SPACES, ids=str)
def test_orbit_members_cover_the_space_once(config):
    # the representatives are the ones the scan expands: under FILTER_ALL
    # every representative read, and its reversal twin, is expanded
    orbits = expansions(config)
    assert len(orbits) == config.orbit_count
    members = sorted(member for orbit in orbits for member in orbit)
    assert members == list(enumerate(candidates(config)))


@pytest.mark.parametrize("config", SMALL_SPACES, ids=str)
def test_one_read_per_reversal_class(config):
    # a gate that passes every ell shows the visit each leaf read: once
    # per class, with its least member's matrix
    with every_leaf_shown():
        report, shown, _ = visited(config)
    reads = Counter(f for f, _, _ in shown)
    assert reads == Counter(prof.matrix for prof in class_profiles(config))
    assert report.total_enumerated == config.space_size


@pytest.mark.parametrize("config", SMALL_SPACES[::3], ids=str)
def test_expanded_report_counts_every_candidate(monkeypatch, config):
    every = replace(config, filter_mode=FILTER_ALL)
    report = enumerate_and_classify(every)
    assert report.total_enumerated == sum(report.ell_histogram.values()) == config.space_size
    assert [m.exponents for m in report.matches] == candidates(config)
    if config.zeros:
        monkeypatch.setattr(search, "ell_bounds", lambda n, s, p: (0, 0))
        indices = [int(v.split()[1]) for v in verify_ell_bounds(config).violations]
        assert indices == list(range(config.space_size))


EQUIVALENCE = [(3, 5), (3, 6), (3, 7), (3, 8), (5, 5), (5, 6), (5, 7)]
ACCEPTANCE_SCANS = sorted(
    # criteria 5 and 10: the round trip over the full space
    {(verify_nps_pdpds_equivalence, p, period, 2, False, FILTER_NPS)
     for p, period in EQUIVALENCE}
    # criterion 6: the NPS search, p = 3, periods 4-10
    | {(enumerate_and_classify, 3, period, 2, True, FILTER_NPS) for period in range(4, 11)}
    # criterion 7: the ell bounds, p = 3 and 5, zero runs 1-3, periods up to 9
    | {(verify_ell_bounds, p, period, zeros, True, FILTER_NPS)
       for p in (3, 5) for zeros in (1, 2, 3) for period in range(zeros + 1, 10)}
    # criterion 8: the NPS search, normalised phase
    | {(enumerate_and_classify, p, period, 2, True, FILTER_NPS) for p, period in EQUIVALENCE},
    key=lambda case: (case[0].__name__,) + case[1:],
)


@pytest.mark.parametrize(
    "scan,p,period,zeros,normalize,mode",
    ACCEPTANCE_SCANS,
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_reports_match_brute_force(scan, p, period, zeros, normalize, mode):
    config = SearchConfig(
        p=p, period=period, zeros=zeros, normalize_phase=normalize, filter_mode=mode
    )
    reference = report_to_json(brute_force(config, visits(config)[scan]))
    for jobs in (1, 3):
        assert report_to_json(scan(replace(config, job_count=jobs))) == reference


def assert_same_report(report, reference):
    assert report.total_enumerated == reference.total_enumerated
    assert report.ell_histogram == reference.ell_histogram
    assert sorted(report.matches, key=lambda m: m.exponents) == reference.matches
    assert sorted(report.violations, key=lambda v: int(v.split()[1])) == reference.violations


def random_batch_cases(count, seed=20):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        p = rng.choice((2, 3, 5, 7))
        zeros = rng.randrange(4)
        free = rng.randrange(1, {2: 11, 3: 8, 5: 6, 7: 5}[p])
        config = SearchConfig(
            p=p,
            period=zeros + free,
            zeros=zeros,
            normalize_phase=rng.random() < 0.6,
            filter_mode=rng.choice((FILTER_NPS, FILTER_ALL)),
        )
        total = batch_count(config)
        start = rng.randrange(total)
        batches = range(start, rng.randrange(start + 1, total + 1), rng.randrange(1, 4))
        cases.append((config, batches))
    return cases


# n = 1, 2 and 3 (L = 0 and 1), the zero prefix's batch alone (a zero tail
# weighing 1, or p over the full space) and without it, p^L at the 2^10
# cap, and wide p: p = 11 places L = 2, 121 leaves in packing order with
# T(S) tables above p = 7, p = 13 and 23 place L = 2 too, a level of 13 and
# 23 byte copies of a node, and p = 31 places L = 1, every S constant, so
# every leaf takes the digit-by-digit test
EDGE_BATCH_CASES = [
    (SearchConfig(p=p, period=zeros + free, zeros=zeros, normalize_phase=normalize,
                  filter_mode=FILTER_ALL), batches)
    for p in (2, 3, 7) for zeros in (1, 2) for free in (1, 2, 3) for normalize in (True, False)
    for batches in (range(1), range(1, 10**9))
] + [
    (SearchConfig(p=3, period=9, zeros=2, normalize_phase=False, filter_mode=FILTER_ALL),
     range(0, 14, 3)),
    (SearchConfig(p=2, period=22, zeros=2), range(1, 512, 170)),
    (SearchConfig(p=11, period=6, zeros=2), range(2)),
    (SearchConfig(p=13, period=7, zeros=2), range(2)),
    (SearchConfig(p=23, period=6, zeros=2), range(2)),
    (SearchConfig(p=31, period=5, zeros=2), range(2)),
]


@pytest.mark.parametrize("config,batches", random_batch_cases(40) + EDGE_BATCH_CASES, ids=str)
def test_batch_scan_matches_brute_force(config, batches):
    # every visit on any range of batches: the batch scan's report equals
    # that of profiling, one by one, every candidate those batches cover
    batches = range(batches.start, min(batches.stop, batch_count(config)), batches.step)
    keep = covered(config, batches)
    # the visits of the scans config admits; some candidates violate ell bounds (2, 3)
    for visit in visits(config, bounds=(2, 3)).values():
        reference = brute_force(config, visit, keep)
        assert_same_report(run_scan(config, visit, batches), reference)


def test_scan_past_the_recursion_limit_returns():
    # 1,098 free positions, more than the interpreter's limit of nested
    # calls: each batch's prefix is placed in a loop
    config = SearchConfig(p=2, period=1100, zeros=2, budget=10**400, filter_mode=FILTER_ALL)
    assert config.free_positions > sys.getrecursionlimit()
    report = run_scan(config, visits(config)[enumerate_and_classify], range(3))
    keep = covered(config, range(3))
    assert report.total_enumerated == len(keep) == len(report.matches)
    assert sorted(m.exponents for m in report.matches) == sorted(keep)
    # the whole space, 2^1093 batches, more than len() and islice take,
    # starts as any other: the first leaf read reaches the visit
    with pytest.raises(ValueError, match="visit refused"):
        run_scan(config, refusing())


GATED_SPACES = sorted({(c.p, c.period, c.zeros) for c in SMALL_SPACES if c.period >= 3}) + [
    (3, 130, 124),  # 16-bit columns
]
GATED_CASES = [
    (SearchConfig(p=p, period=N, zeros=zeros), range(10**9)) for p, N, zeros in GATED_SPACES
] + [case for case in EDGE_BATCH_CASES if case[0].period >= 3]


def planted_grids(p, N):
    """Count grids with chosen classes constant, which no scan with two
    zeros reaches, their cells below 2^(w-1); N = 130 has 16-bit columns."""
    rng = random.Random(p * 1000 + N)
    w = _width(N)[0]
    rows = _part_rows(N)
    grids = []
    for _ in range(60):
        top = rng.choice((2, 3, 1 << w - 1))
        grid = [[rng.randrange(top) for _ in range(p)] for _ in range(N)]
        for cls in PDPDS_CLASSES:
            if rng.random() < 0.8:
                value = rng.randrange(top)
                columns = range(1) if cls.pure else range(1, p)
                for row in grid[rows[cls.h_part]]:
                    for d in columns:
                        row[d] = value
        if rng.random() < 0.2:  # one cell off
            grid[rng.randrange(N)][rng.randrange(p)] = rng.randrange(top)
        grids.append(grid)
    return grids


def packed(p, N, grid):
    """The folded matrix of a count grid."""
    pack = _row(p, N).pack
    return int.from_bytes(b"".join(pack(*row) for row in grid), "little")


@pytest.mark.parametrize("config,batches", GATED_CASES, ids=str)
def test_no_leaf_above_the_shown_ell_has_a_type_or_a_class(config, batches):
    # the scans type and classify only the leaves of ell <= SHOWN_ELL: on all
    # p^L leaves of each batch, every leaf above it has neither a type nor a
    # classification, by profile and classify_grid
    for leaf in batch_leaves(config, batches):
        prof = profile(AlmostParySequence(config.p, (None,) * config.zeros + leaf.digits))
        assert prof.matrix == leaf.matrix
        shown = prof.nps_type is not None or classify_grid(prof.counts) is not None
        assert not shown or prof.ell <= SHOWN_ELL, (leaf.digits, prof.ell)


@pytest.mark.parametrize("config,batches", GATED_CASES, ids=str)
def test_every_leaf_shown_is_visited_as_its_profile(config, batches):
    # what a scan shows a leaf, and every_leaf_shown shows any leaf: on all
    # p^L leaves of each batch, read or not, the batch's reader gives the
    # profile's ell and type, the folded matrix unpacks to the profile's
    # count grid, and the search and roundtrip visits answer as profile and
    # classify_grid do
    p, N, zeros = config.p, config.period, config.zeros
    every = replace(config, filter_mode=FILTER_ALL)
    classify = visits(every)[enumerate_and_classify]
    roundtrip = visits(config).get(verify_nps_pdpds_equivalence)
    for leaf in batch_leaves(config, batches):
        prof = profile(AlmostParySequence(p, (None,) * zeros + leaf.digits))
        f, nps = leaf.matrix, leaf.nps
        assert (leaf.ell, nps) == (prof.ell, prof.nps_type), leaf.digits
        assert _counts(p, N, f) == prof.counts
        pdpds = classify_grid(prof.counts) if zeros == 2 else None
        record = (nps.gamma1, nps.gamma2, pdpds) if nps else (None, None, None)
        assert classify(every, f, prof.ell, nps) == (record, None)
        if roundtrip:
            # no violation: an untyped leaf's grid classifies as None
            typed = nps and config.free_positions >= 2
            assert roundtrip(config, f, prof.ell, nps) == ((record if typed else None), None)


@pytest.mark.parametrize("N", [3, 4, 5, 8, 130])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_roundtrip_flags_each_planted_untyped_grid_it_classifies(p, N):
    # a planted grid shown to the roundtrip as an untyped leaf, whatever its
    # ell, unpacks to its cells, and is flagged just when classify_grid
    # classifies it; N = 3 leaves one free position, below the n >= 2 the
    # roundtrip checks
    config = SearchConfig(p=p, period=N, zeros=2)
    visit = visits(config)[verify_nps_pdpds_equivalence]
    grids = planted_grids(p, N)
    flagged = 0
    for grid in grids:
        f = packed(p, N, grid)
        assert _counts(p, N, f) == tuple(map(tuple, grid))
        actual = classify_grid(grid)
        flagged += actual is not None
        ell = AutocorrelationProfile(p, N, f).ell
        record, violation = visit(config, f, ell, None)
        assert record is None
        if actual is None or N == 3:
            assert violation is None
        else:
            assert violation == f"type none but difference set classified as {actual!r}, expected None"
    assert 0 < flagged < len(grids)


# (p, N, search, roundtrip): the calls of classify_grid; p = 997, N = 4
# shows one leaf, a typed one, and p = 5, N = 5 two, one of them untyped
@pytest.mark.parametrize("p,N,searched,roundtrip", [(997, 4, 1, 1), (5, 5, 1, 2)])
def test_only_the_roundtrip_classifies_untyped_leaves(p, N, searched, roundtrip):
    # the three scans of a two-zero space show the same leaves: the search
    # classifies the typed ones, the ell check none, the roundtrip all
    config = SearchConfig(p=p, period=N, zeros=2)
    counts = []
    for scan in (enumerate_and_classify, verify_ell_bounds, verify_nps_pdpds_equivalence):
        with classified() as grids:
            scan(config)
        counts.append(len(grids))
    assert counts == [searched, 0, roundtrip]


@pytest.mark.parametrize("N", [3, 4, 5, 8, 130])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_no_planted_grid_above_the_shown_ell_has_a_type_or_a_class(p, N):
    # five constant classes make the near rows one count vector and the far
    # rows another, in any grid, and a type makes C(1) = C(N-1) = gamma1 and
    # C(2) .. C(N-2) = gamma2; each grid is also checked made symmetric as a
    # sequence's count matrix is (row N-t is row t with column d at -d)
    for grid in planted_grids(p, N):
        mirrored = [
            row if 2 * t <= N else [grid[N - t][-d % p] for d in range(p)]
            for t, row in enumerate(grid)
        ]
        for cells in (grid, mirrored):
            prof = AutocorrelationProfile(p, N, packed(p, N, cells))
            if prof.ell > SHOWN_ELL:
                assert classify_grid(cells) is None
                assert prof.nps_type is None


def classify_counts(config):
    """(calls, shown, reads) of config's roundtrip: its calls of `classify_grid`,
    and the profiles of the leaves it reads with ell <= SHOWN_ELL and of all."""
    with classified() as calls:
        assert verify_nps_pdpds_equivalence(config).violations == []
    reads = class_profiles(config)
    shown = [prof for prof in reads if prof.ell <= SHOWN_ELL]
    return calls, shown, reads


# (p, N, calls, untyped): over the full space, N = 8 reads one leaf with
# ell <= 2, a typed one, and N = 9 four, three of them untyped
@pytest.mark.parametrize("p,N,count,untyped", [(5, 8, 1, 0), (5, 9, 4, 3)])
def test_roundtrip_classifies_each_leaf_up_to_the_shown_ell(p, N, count, untyped):
    # one classification per leaf read with ell <= 2, typed or not, and
    # none for the rest
    config = SearchConfig(p=p, period=N, zeros=2, normalize_phase=False)
    calls, shown, reads = classify_counts(config)
    assert len(calls) == len(shown) == count < len(reads)
    assert sum(prof.nps_type is None for prof in shown) == untyped


def test_p2_roundtrip_classifies_only_its_typed_leaves():
    # p = 2, N = 14 over the full space: every leaf read is rational, but
    # only 2 of the 1,056 have ell <= 2, and both have a type
    config = SearchConfig(p=2, period=14, zeros=2, normalize_phase=False)
    calls, shown, reads = classify_counts(config)
    assert all(prof.all_integral for prof in reads)
    assert all(prof.nps_type for prof in shown)
    assert len(calls) == len(shown) == 2 and len(reads) == 1056


@pytest.mark.parametrize("config", SMALL_SPACES, ids=str)
def test_scans_show_every_leaf_up_to_the_shown_ell(config):
    # each leaf read with ell <= 2 is shown its matrix, ell and type (None
    # or not), once, and no other leaf: the rest take the answer for no
    # matrix, asked once per ell; so in every scan config admits
    profiles = class_profiles(config)
    near = Counter(
        (prof.matrix, prof.ell, prof.nps_type) for prof in profiles if prof.ell <= SHOWN_ELL
    )
    for visit in visits(config).values():
        _, shown, unshown = visited(config, visit)
        assert Counter(shown) == near
        assert Counter(unshown) == Counter({(prof.ell, None) for prof in profiles})
