"""The orbit reduction of the scans loses nothing.

The scans walk one representative per orbit of b -> c*b (+ a), read one per
pair of orbits under reversal and expand what they find over both orbits.
Here the expanded members cover the space exactly once, the reads are the
classes under both maps, a candidate-by-candidate scan that calls the same
visitors gives byte-identical reports on every configuration of acceptance
criteria 5-8 and 10, and the batch scan over any range of batches reports
what that scan does on the candidates those batches cover. The batch walk
of the five PDPDS classes agrees with `classify_grid` on every leaf, and no
leaf or planted grid with ell above the scans' gate has a type or a
classification. Every scan shows its visit the matrix of the typed leaves
it reads and, in the roundtrip, of those the walk lets through, and of no
other leaf, and only the roundtrip builds the walk's class structs.
"""

import itertools
import random
import sys
from collections import Counter
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
from npseq.diffset import PDPDS_CLASSES, _part_rows, classify_grid
from npseq.sequence import (
    AlmostParySequence,
    AutocorrelationProfile,
    _counts,
    _row,
    _width,
    profile,
)
from npseq.theory import ell_bounds
from test_search import _visit_refuse, batch_count, class_key, every_leaf

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


def class_profiles(config):
    """The profiles of the least members of the classes under b -> c*b (+ a)
    and reversal: the leaves a scan reads."""
    reps = {class_key(config, digits) for _, digits in candidates(config)}
    return [profile(AlmostParySequence(config.p, (None,) * config.zeros + rep)) for rep in reps]


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
    # a walk that passes every leaf shows the visit each leaf read: once
    # per class, with its least member's matrix
    reads = []

    def recording(config, f, ell, nps):
        if f is not None:
            reads.append(f)
        return None, None

    monkeypatch.setattr(search, "_classified", every_leaf)
    report = search._run_partitioned(config, recording, walk=True)
    assert Counter(reads) == Counter(prof.matrix for prof in class_profiles(config))
    assert report.total_enumerated == config.space_size


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


def brute_force(config, visit, keep=None):
    """Profile and visit every candidate (in keep, if given) in index order,
    with no reduction."""
    report = SearchReport(config=config)
    chosen = candidates(config) if keep is None else sorted(
        (sum(b * config.p**k for k, b in enumerate(digits[::-1])), digits) for digits in keep
    )
    for index, digits in chosen:
        seq = AlmostParySequence(config.p, (None,) * config.zeros + tuple(digits))
        prof = profile(seq)
        report.total_enumerated += 1
        report.ell_histogram[prof.ell] = report.ell_histogram.get(prof.ell, 0) + 1
        record, violation = visit(config, prof.matrix, prof.ell, prof.nps_type)
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


def representative(p, r, i):
    """The i-th tail of length r, in lexicographic order, that is zero or led
    by 1 after its zeros: zero, then the base-p values in [p^e, 2*p^e) for
    e = 0, 1, ..., r-1."""
    value, e = 0, 0
    if i:
        i -= 1
        while i >= p**e:
            i, e = i - p**e, e + 1
        value = p**e + i
    digits = []
    for _ in range(r):
        value, digit = divmod(value, p)
        digits.append(digit)
    return tuple(digits[::-1])


def covered(config, batches):
    """The candidates a scan of the given batches counts: the classes (under
    b -> c*b (+ a) and reversal) whose least member is a leaf of one of
    them, batch j's leaves being 0, the j-th tail of r = n - 1 - L digits,
    then any L digits."""
    p, n = config.p, config.free_positions
    L = search._depth(p, n, config.period)
    members = set()
    for j in batches:
        prefix = (0, *representative(p, n - 1 - L, j))
        for last in itertools.product(range(p), repeat=L):
            rep = prefix + last
            if class_key(config, rep) == rep:
                members |= {
                    m
                    for z in (rep, rep[::-1])
                    for c in range(1, p)
                    for a in range(p)
                    for m in [tuple((c * b + a) % p for b in z)]
                    if not config.normalize_phase or m[0] == 0
                }
    return members


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
    visits = [search._visit_classify]
    if config.zeros:
        visits.append(partial(search._visit_ell, (2, 3)))  # some candidates violate it
    if config.zeros == 2:
        visits.append(search._visit_roundtrip)
    for visit in visits:
        reference = brute_force(config, visit, keep)
        walk = visit is search._visit_roundtrip
        assert_same_report(search._scan(config, batches, visit, walk), reference)


def test_scan_past_the_recursion_limit_returns():
    # 1,098 free positions, more than the interpreter's limit of nested
    # calls: each batch's prefix is placed in a loop
    config = SearchConfig(p=2, period=1100, zeros=2, budget=10**400, filter_mode=FILTER_ALL)
    assert config.free_positions > sys.getrecursionlimit()
    report = search._scan(config, range(3), search._visit_classify)
    keep = covered(config, range(3))
    assert report.total_enumerated == len(keep) == len(report.matches)
    assert sorted(m.exponents for m in report.matches) == sorted(keep)
    # the whole space, 2^1093 batches, more than len() and islice take,
    # starts as any other: the first leaf read reaches the visit
    with pytest.raises(ValueError, match="visit refused"):
        search._run_partitioned(config, _visit_refuse)


def walk(p, N):
    """`_classified` with the roundtrip's classes of (p, N), which read any
    folded (p, N) matrix."""
    return partial(search._classified, search._classes(p, N))


def classified(p, N, matrices):
    """The k of the matrices that `classify_grid` classifies."""
    return [k for k, f in enumerate(matrices) if classify_grid(_counts(p, N, f)) is not None]


WALKED_SPACES = sorted({(c.p, c.period, c.zeros) for c in SMALL_SPACES if c.period >= 3}) + [
    (3, 130, 124),  # 16-bit columns
]
WALKED_CASES = [
    (SearchConfig(p=p, period=N, zeros=zeros), range(10**9)) for p, N, zeros in WALKED_SPACES
] + [case for case in EDGE_BATCH_CASES if case[0].period >= 3]


def batch_leaves(config, batches):
    """(prefix, blocks, read, matrix, offsets) of each of the given batches
    of config's space, with the byte offsets of all its p^L leaves, read or
    not, in packing order."""
    p, N, n = config.p, config.period, config.free_positions
    L, step, leaves, read, matrix, _ = search._plan(p, N, n)
    offsets = [j * N * 2 * p * _width(N)[0] // 8 for j in range(p**L)]
    batches = range(batches.start, min(batches.stop, batch_count(config)), batches.step)
    prefixes = search._prefixes(p, n - 1 - L)
    for prefix in itertools.islice(prefixes, batches.start, batches.stop, batches.step):
        node = (0, 0, 0)
        for b in map(ord, prefix):
            node = step(node, b)
        yield prefix, leaves(node), read, matrix, offsets


@pytest.mark.parametrize("config,batches", WALKED_CASES, ids=str)
def test_walk_matches_classify_grid_on_every_leaf(config, batches):
    # all p^L leaves of each batch, read or not: N = 4 has one far row, p = 2
    # one-column mixed classes, p = 11 and 31 wide rows. The walk as the
    # scan runs it, on the leaves of ell <= 2, and on every leaf
    p, N = config.p, config.period
    for _, blocks, read, matrix, offsets in batch_leaves(config, batches):
        leaf = partial(matrix, blocks, offsets)
        expected = classified(p, N, map(leaf, range(len(offsets))))
        ells, _ = read(blocks, offsets)
        assert walk(p, N)(ells, {}, leaf) == expected
        assert walk(p, N)([0] * len(offsets), {}, leaf) == expected


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


@pytest.mark.parametrize("N", [3, 4, 5, 8, 130])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_walk_matches_classify_grid_on_planted_matrices(p, N):
    # every planted grid walked, whatever its ell
    grids = planted_grids(p, N)
    matrices = [packed(p, N, grid) for grid in grids]
    expected = [k for k, grid in enumerate(grids) if classify_grid(grid) is not None]
    assert 0 < len(expected) < len(grids)
    assert walk(p, N)([0] * len(grids), {}, matrices.__getitem__) == expected


@pytest.mark.parametrize("config,batches", WALKED_CASES, ids=str)
def test_no_leaf_above_the_shown_ell_has_a_type_or_a_class(config, batches):
    # the scans type and walk only the leaves of ell <= search._SHOWN_ELL:
    # on all p^L leaves of each batch, every leaf above it has neither a
    # type nor a classification, by profile and classify_grid
    p, N = config.p, config.period
    L = search._depth(p, config.free_positions, N)
    for prefix, blocks, _, matrix, offsets in batch_leaves(config, batches):
        for tail in itertools.product(range(p), repeat=L):
            j = sum(b * p**k for k, b in enumerate(tail))
            digits = (*map(ord, prefix), *tail)
            prof = profile(AlmostParySequence(p, (None,) * config.zeros + digits))
            assert prof.matrix == matrix(blocks, offsets, j)
            shown = prof.nps_type is not None or classify_grid(prof.counts) is not None
            assert not shown or prof.ell <= search._SHOWN_ELL, (digits, prof.ell)


@pytest.mark.parametrize("N", [3, 4, 5, 8, 130])
@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_no_planted_grid_above_the_shown_ell_has_a_type_or_a_class(p, N):
    # five constant classes make the near rows one count vector and the far
    # rows another, in any grid; a type needs C(1) = C(N-1) too, which a
    # count matrix's symmetry gives (row N-t is row t with column d at -d),
    # so the type is checked on the planted grids made symmetric so
    for grid in planted_grids(p, N):
        mirrored = [
            row if 2 * t <= N else [grid[N - t][-d % p] for d in range(p)]
            for t, row in enumerate(grid)
        ]
        for cells, symmetric in ((grid, False), (mirrored, True)):
            prof = AutocorrelationProfile(p, N, packed(p, N, cells))
            if prof.ell > search._SHOWN_ELL:
                assert classify_grid(cells) is None
                assert not symmetric or prof.nps_type is None


def classify_counts(monkeypatch, config):
    """(calls, wanted, reads) of config's roundtrip: its calls of
    `classify_grid`, and the profiles of the leaves it reads that have a type
    or that `classify_grid` classifies, and of all the leaves it reads."""
    calls = []

    def counted(grid):
        calls.append(grid)
        return classify_grid(grid)

    monkeypatch.setattr(search, "classify_grid", counted)
    assert verify_nps_pdpds_equivalence(config).violations == []
    reads = class_profiles(config)
    wanted = [prof for prof in reads if prof.nps_type or classify_grid(prof.counts)]
    return calls, wanted, reads


def test_roundtrip_classifies_only_the_leaves_the_walk_passes(monkeypatch):
    # p = 5, N = 8 over the full space: one classification per leaf read
    # that has a type or all five classes constant, none for the rest
    config = SearchConfig(p=5, period=8, zeros=2, normalize_phase=False)
    calls, wanted, reads = classify_counts(monkeypatch, config)
    assert len(calls) == len(wanted) < len(reads)


def test_p2_roundtrip_classifies_only_its_typed_leaves(monkeypatch):
    # p = 2, N = 14 over the full space: every leaf read is rational, but
    # only 2 of the 1,056 have a type, and no other has its classes constant
    config = SearchConfig(p=2, period=14, zeros=2, normalize_phase=False)
    calls, wanted, reads = classify_counts(monkeypatch, config)
    assert all(prof.all_integral for prof in reads)
    assert len(calls) == len(wanted) == 2 and len(reads) == 1056


@pytest.mark.parametrize("config", SMALL_SPACES, ids=str)
def test_search_and_ell_show_only_typed_leaves(monkeypatch, config):
    # each leaf read that has a type is shown its matrix, once, and no other
    # leaf: the rest take the answer for no matrix, asked once per ell
    profiles = class_profiles(config)
    typed = Counter((prof.matrix, prof.ell, prof.nps_type) for prof in profiles if prof.nps_type)
    scans = [(enumerate_and_classify, "_visit_classify")]
    if config.zeros:
        scans.append((verify_ell_bounds, "_visit_ell"))
    for scan, name in scans:
        calls = []

        def spy(*args, visit=getattr(search, name)):
            calls.append(args[-3:])  # (f, ell, nps)
            return visit(*args)

        monkeypatch.setattr(search, name, spy)
        scan(config)
        assert Counter(call for call in calls if call[0] is not None) == typed
        unshown = Counter((ell, nps) for f, ell, nps in calls if f is None)
        assert unshown == Counter({(prof.ell, None) for prof in profiles})


@pytest.mark.parametrize("p,N", [(997, 4), (3, 7)])
def test_only_the_roundtrip_builds_class_structs(monkeypatch, p, N):
    # a two-zero search or ell scan builds no struct of the five classes;
    # the roundtrip of the same space does, here through the refusing _cells
    def refuse(*args):
        raise AssertionError("a class struct was built")

    search._classes.cache_clear()
    monkeypatch.setattr(search, "_cells", refuse)
    config = SearchConfig(p=p, period=N, zeros=2)
    enumerate_and_classify(config)
    verify_ell_bounds(config)
    with pytest.raises(AssertionError, match="class struct"):
        verify_nps_pdpds_equivalence(config)
