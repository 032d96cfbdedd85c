"""Exhaustive search driver: content, completeness, and determinism."""

import concurrent.futures.process
import gc
import itertools
import os
import signal
import time
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

import pytest

from npseq import cli, search, sequence
from npseq.diffset import PdpdsParams, expected_pdpds_params
from npseq.search import (
    FILTER_ALL,
    FILTER_NPS,
    FILTER_TYPE,
    BudgetExceededError,
    Match,
    SearchConfig,
    SearchReport,
    enumerate_and_classify,
    report_to_csv,
    report_to_json,
    verify_ell_bounds,
    verify_nps_pdpds_equivalence,
)
from npseq.sequence import AlmostParySequence, classify_nps


def cycles_left(run):
    """The objects the cyclic collector finds unreachable after run(), its
    result dropped."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def free_digits(config):
    """The free digits of every candidate, in index order."""
    p, free = config.p, config.free_positions
    if config.normalize_phase:
        return [(0, *tail) for tail in itertools.product(range(p), repeat=free - 1)]
    return list(itertools.product(range(p), repeat=free))


def orbit_key(config, digits):
    """The least member of the orbit of digits under b -> c*b (+ a)."""
    p = config.p
    shifts = (0,) if config.normalize_phase else range(p)
    return min(
        tuple((c * b + a) % p for b in digits) for c in range(1, p) for a in shifts
    )


def batch_count(config):
    """The batches of config's space: one per tail of r = n - 1 - L free
    digits that is zero or led by 1 after its zeros."""
    p, n = config.p, config.free_positions
    r = n - 1 - search._depth(p, n, config.period)
    return 1 + (p**r - 1) // (p - 1)


def every_leaf(classes, ells, known, leaf):
    """A batch walk (`search._classified`) that passes every leaf not in
    known, whatever its ell, so that a scan shows its visit every leaf it
    reads."""
    return [k for k in range(len(ells)) if k not in known]


def class_key(config, digits):
    """The least member of the space in the class of digits under b -> c*b + a
    and the reversal of the free digits (positions i -> s-1-i mod N); under
    phase normalisation the space holds the members that start with 0."""
    p = config.p
    members = (
        tuple((c * b + a) % p for b in z)
        for z in (digits, digits[::-1])
        for c in range(1, p)
        for a in range(p)
    )
    return min(m for m in members if not config.normalize_phase or m[0] == 0)


class TestEnumeration:
    @pytest.mark.parametrize("target", [(2, 1), [2, 1]])
    def test_type21_single_normalized_match(self, target):
        config = SearchConfig(
            p=3, period=5, zeros=2, filter_mode=FILTER_TYPE, target=target
        )
        assert config.target == (2, 1)
        report = enumerate_and_classify(config)
        assert report.total_enumerated == 9
        assert len(report.matches) == 1
        match = report.matches[0]
        assert match.exponents == (0, 0, 0)
        assert match.pdpds.as_tuple() == (5, 3, 3, 1, 0, 2, 0, 0)

    def test_no_gamma2_below_minus2(self):
        config = SearchConfig(p=3, period=7, zeros=2)
        report = enumerate_and_classify(config)
        assert report.total_enumerated == 3**4
        assert all(m.gamma2 > -3 for m in report.matches)

    def test_no_uniform_type_with_two_zeros(self):
        config = SearchConfig(p=3, period=6, zeros=2)
        report = enumerate_and_classify(config)
        assert not [m for m in report.matches if m.gamma1 == m.gamma2]

    def test_filter_all_records_everything(self):
        config = SearchConfig(p=3, period=4, zeros=1, filter_mode=FILTER_ALL)
        report = enumerate_and_classify(config)
        assert len(report.matches) == report.total_enumerated == 9

    def test_completeness_odometer(self):
        # independent count of the space the scanner claims to cover
        config = SearchConfig(p=3, period=6, zeros=2, normalize_phase=False)
        report = enumerate_and_classify(config)
        odometer = sum(1 for _ in itertools.product(range(3), repeat=4))
        assert report.total_enumerated == odometer

    def test_phase_normalization_soundness(self):
        base = SearchConfig(p=3, period=6, zeros=2, filter_mode=FILTER_NPS)
        full = SearchConfig(
            p=3, period=6, zeros=2, filter_mode=FILTER_NPS, normalize_phase=False
        )
        normalized = enumerate_and_classify(base)
        unnormalized = enumerate_and_classify(full)
        assert len(unnormalized.matches) == 3 * len(normalized.matches)
        assert unnormalized.total_enumerated == 3 * normalized.total_enumerated

    def test_budget_refusal(self):
        config = SearchConfig(p=7, period=20, zeros=2, budget=10**8)
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_and_classify(config)
        assert exc.value.required == 7**17


class TestEllBounds:
    def test_histogram_support(self):
        config = SearchConfig(p=3, period=6, zeros=2)
        report = verify_ell_bounds(config)
        assert report.violations == []
        assert set(report.ell_histogram) <= {2, 3, 4, 5}
        # the four known representatives realize every value in the range
        assert set(report.ell_histogram) == {2, 3, 4, 5}

    def test_small_case(self):
        config = SearchConfig(p=3, period=3, zeros=1, normalize_phase=False)
        report = verify_ell_bounds(config)
        assert report.total_enumerated == 9
        assert report.violations == []
        assert set(report.ell_histogram) <= {1, 2}

    def test_zero_run_required(self):
        with pytest.raises(ValueError):
            verify_ell_bounds(SearchConfig(p=3, period=4, zeros=0))


class TestEquivalence:
    def test_period5_no_violations(self):
        config = SearchConfig(p=3, period=5, zeros=2, normalize_phase=False)
        report = verify_nps_pdpds_equivalence(config)
        assert report.total_enumerated == 27
        assert report.violations == []

    def test_period7_contains_paper_pattern(self):
        config = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False)
        report = verify_nps_pdpds_equivalence(config)
        assert report.total_enumerated == 243
        assert report.violations == []
        wanted = [m for m in report.matches if m.exponents == (2, 1, 0, 1, 2)]
        assert len(wanted) == 1
        assert wanted[0].pdpds.as_tuple() == (7, 3, 5, 1, 0, 0, 1, 2)

    def test_p5_no_violations(self):
        config = SearchConfig(p=5, period=7, zeros=2)
        report = verify_nps_pdpds_equivalence(config)
        assert report.violations == []

    def test_requires_two_zeros(self):
        with pytest.raises(ValueError):
            verify_nps_pdpds_equivalence(SearchConfig(p=3, period=5, zeros=1))

    # the violation paths, reached by replacing the classification the
    # roundtrip compares with each candidate's expected tuple, and the batch
    # walk with one that passes every leaf on to it
    BROKEN = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False)
    FIXED = PdpdsParams(7, 3, 5, 9, 9, 9, 9, 9)  # lambda2 = 9: no type's tuple

    @staticmethod
    def break_classification(monkeypatch, actual, walked=True):
        # job_count 1 runs in this process, so the patches reach the scan;
        # the walk passes every untyped leaf or none
        monkeypatch.setattr(search, "classify_grid", lambda grid: actual)
        monkeypatch.setattr(search, "_classified", every_leaf if walked else lambda *args: [])

    def expected_violations(self, actual):
        """The roundtrip's violations on BROKEN when every candidate's
        classification is actual: one per candidate whose type (or none)
        expects another tuple."""
        lines = []
        for index, digits in enumerate(free_digits(self.BROKEN)):
            nps = classify_nps(AlmostParySequence(3, (None, None) + digits))
            expected = nps and expected_pdpds_params(5, 3, nps.gamma1, nps.gamma2)
            if expected == actual:
                continue
            name = "none" if nps is None else f"({nps.gamma1},{nps.gamma2})"
            text = ",".join(["Z", "Z", *map(str, digits)])
            lines.append(
                f"index {index} [{text}]: type {name} but difference set "
                f"classified as {actual!r}, expected {expected!r}"
            )
        return lines

    # None flags the 15 typed candidates of the 243; FIXED flags all of them
    @pytest.mark.parametrize("actual,flagged", [(None, 15), (FIXED, 243)], ids=["none", "fixed"])
    def test_mismatch_is_a_violation(self, monkeypatch, actual, flagged):
        self.break_classification(monkeypatch, actual)
        report = verify_nps_pdpds_equivalence(self.BROKEN)
        expected = self.expected_violations(actual)
        assert report.violations == expected
        assert len(expected) == flagged
        assert report.matches == []

    def test_typed_leaves_are_classified_whatever_the_walk(self, monkeypatch):
        # a walk that passes no leaf still leaves the typed ones to the visit
        self.break_classification(monkeypatch, None, walked=False)
        report = verify_nps_pdpds_equivalence(self.BROKEN)
        assert report.violations == self.expected_violations(None)
        assert len(report.violations) == 15

    @pytest.mark.parametrize("actual", [None, FIXED], ids=["none", "fixed"])
    def test_cli_exits_1_on_mismatch(self, monkeypatch, capsys, actual):
        self.break_classification(monkeypatch, actual)
        argv = ["roundtrip", "--p", "3", "--period", "7", "--zeros", "2", "--full-space"]
        assert cli.main([*argv, "--jobs", "1"]) == 1
        printed = capsys.readouterr().out.splitlines()
        violations = self.expected_violations(actual)
        assert printed[-len(violations) - 1:] == [
            f"violations: {len(violations)}", *(f"  {v}" for v in violations)
        ]


class TestDeterminism:
    def test_reports_identical_across_job_counts(self):
        base = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False)
        reference = report_to_json(verify_nps_pdpds_equivalence(base))
        for jobs in (2, 8):
            report = verify_nps_pdpds_equivalence(replace(base, job_count=jobs))
            assert report_to_json(report) == reference

    def test_search_reports_identical_across_job_counts(self):
        base = SearchConfig(p=3, period=6, zeros=2, filter_mode=FILTER_ALL)
        reference = report_to_json(enumerate_and_classify(base))
        for jobs in (2, 8):
            report = enumerate_and_classify(replace(base, job_count=jobs))
            assert report_to_json(report) == reference


class TestSingleScan:
    SCANS = [
        (enumerate_and_classify, SearchConfig(p=3, period=6, zeros=2, filter_mode=FILTER_ALL)),
        (verify_ell_bounds, SearchConfig(p=3, period=6, zeros=1)),
        (verify_nps_pdpds_equivalence, SearchConfig(p=3, period=6, zeros=2, normalize_phase=False)),
    ]

    @pytest.mark.parametrize("scan,config", SCANS)
    def test_one_profile_per_candidate(self, monkeypatch, scan, config):
        # a walk that passes every leaf shows the visit each leaf read, once,
        # with the leaf's folded matrix, ell and type; the visit is asked
        # for no matrix once per distinct ell
        reads, unshown = [], []

        def recording(config, f, ell, nps):
            if f is None:
                unshown.append((ell, nps))
            else:
                reads.append((f, ell, nps))
            return None, None

        assert scan(config).total_enumerated == config.space_size
        monkeypatch.setattr(search, "_classified", every_leaf)
        report = search._scan(config, range(batch_count(config)), recording, walk=True)
        assert report.total_enumerated == config.space_size
        assert Counter(unshown) == Counter({(ell, None) for _, ell, _ in reads})
        # one read per class of b -> c*b (+ a) and reversal, and no class
        # read twice: the reads are the profiles of the classes' least members
        reps = sorted({class_key(config, digits) for digits in free_digits(config)})
        assert len(reads) == len(reps) < config.orbit_count
        orbits = {orbit_key(config, digits) for digits in free_digits(config)}
        assert len(orbits) == config.orbit_count
        profiles = [
            sequence.profile(AlmostParySequence(3, (None,) * config.zeros + rep)) for rep in reps
        ]
        assert Counter(reads) == Counter(
            (prof.matrix, prof.ell, prof.nps_type) for prof in profiles
        )
        # and every candidate enters the histogram once, with its own ell
        ells = Counter(
            sequence.profile(AlmostParySequence(3, (None,) * config.zeros + digits)).ell
            for digits in free_digits(config)
        )
        assert report.ell_histogram == dict(ells)

    @pytest.mark.parametrize("scan,config", SCANS)
    def test_scan_leaves_no_cycles(self, scan, config):
        # the scan's batch loop leaves no reference cycle behind: the
        # collector finds nothing
        assert cycles_left(partial(scan, config)) == 0

    @pytest.mark.parametrize("job_count", [1, 2])
    def test_worker_exception_leaves_no_cycles(self, job_count):
        # a worker's exception reaches the caller through its future: the pool
        # must not keep that future in a frame the exception's traceback holds
        config = SearchConfig(p=3, period=7, zeros=2, job_count=job_count)
        # the first parallel scan imports the pool modules, whose import
        # leaves garbage of its own, and starts the pool
        enumerate_and_classify(config)

        def refused():
            with pytest.raises(ValueError, match="visit refused"):
                search._run_partitioned(config, _visit_refuse)

        assert cycles_left(refused) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("free", [1, 2, 4])
    def test_single_batch_ranges_merge_to_the_whole_scan(self, p, normalize, free):
        # single batches, and every batch at a stride, merge to the whole scan
        config = SearchConfig(
            p=p, period=free + 2, zeros=2, normalize_phase=normalize, filter_mode=FILTER_ALL
        )
        total = batch_count(config)
        for visit in (
            search._visit_classify,
            partial(search._visit_ell, (0, 0)),  # every candidate is a violation
            search._visit_roundtrip,
        ):
            scan = partial(search._scan, visit=visit, walk=visit is search._visit_roundtrip)
            whole = scan(config, range(total))
            assert whole.total_enumerated == config.space_size
            single = []
            for j in range(total):
                assert scan(config, range(j, j)).total_enumerated == 0
                single.append(scan(config, range(j, j + 1)))
            merged = SearchReport(config=config)
            for part in single:
                search._merge(merged, part)
            assert merged == whole
            # each task of a dealt scan reads its batches as they read alone
            for start, step in ((0, 2), (1, 2), (2, 3)):
                dealt = SearchReport(config=config)
                for j in range(start, total, step):
                    search._merge(dealt, single[j])
                assert scan(config, range(start, total, step)) == dealt

    def test_ranges_past_sys_maxsize_stop_at_the_last_batch(self):
        # a range stop above sys.maxsize, which islice refuses, reads as the
        # batch count: the scan ends where the batches do
        config = SearchConfig(p=3, period=12, zeros=2)
        total = batch_count(config)
        assert total == 41
        visit = search._visit_classify
        whole = search._scan(config, range(total), visit)
        assert search._scan(config, range(0, 2**70), visit) == whole
        dealt = search._scan(config, range(1, total, 3), visit)
        assert search._scan(config, range(1, 2**70, 3), visit) == dealt

    def test_plans_hold_bounded_memory(self):
        # nine distinct (p, N), 64 batches each: eight plans stay, and the
        # cached selections of all of them, 576 asked, total at most 256
        search._plan.cache_clear()
        search._select.cache_clear()
        for period in range(40, 49):
            config = SearchConfig(p=2, period=period, zeros=period - 14)
            assert batch_count(config) == 64
            search._scan(config, range(64), search._visit_classify)
        assert search._plan.cache_info().currsize == 8
        selections = search._select.cache_info()
        assert selections.misses == 9 * 64
        assert selections.currsize <= 256

    @pytest.mark.parametrize("p,period,zeros", [(3, 130, 124), (2, 32768, 32764)])
    def test_walk_at_wide_columns(self, p, period, zeros):
        # 16- and 32-bit columns: every candidate against its own profile
        config = SearchConfig(p=p, period=period, zeros=zeros, filter_mode=FILTER_ALL)
        report = enumerate_and_classify(config)
        histogram, matches = {}, []
        for digits in free_digits(config):
            prof = sequence.profile(AlmostParySequence(p, (None,) * zeros + digits))
            histogram[prof.ell] = histogram.get(prof.ell, 0) + 1
            nps = prof.nps_type
            types = (nps.gamma1, nps.gamma2) if nps else (None, None)
            matches.append(Match(digits, *types, None))
        assert report.total_enumerated == len(matches) == config.space_size
        assert report.ell_histogram == histogram
        assert report.matches == matches

    def test_scan_types_match_classify_nps(self):
        for zeros in range(7):
            config = SearchConfig(
                p=3, period=7, zeros=zeros, normalize_phase=False, filter_mode=FILTER_ALL
            )
            report = enumerate_and_classify(config)
            assert len(report.matches) == report.total_enumerated == config.space_size
            for m in report.matches:
                nps = classify_nps(AlmostParySequence(3, (None,) * zeros + m.exponents))
                assert (m.gamma1, m.gamma2) == ((nps.gamma1, nps.gamma2) if nps else (None, None))

    def test_violation_names_symbols(self, monkeypatch):
        monkeypatch.setattr(search, "ell_bounds", lambda n, s, p: (0, 0))
        report = verify_ell_bounds(SearchConfig(p=3, period=5, zeros=2))
        assert report.violations[0] == "index 0 [Z,Z,0,0,0]: ell=2 outside [0,0]"
        assert report.violations[5] == "index 5 [Z,Z,0,1,2]: ell=4 outside [0,0]"
        assert len(report.violations) == 9

    @pytest.mark.parametrize(
        "affinity,cpus,workers", [(3, 64, 3), (None, 3, 3), (None, None, 1)]
    )
    def test_pool_capped_at_cpu_count(self, monkeypatch, affinity, cpus, workers):
        pools = []

        class InlineExecutor:
            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.submitted = 0
                pools.append(self)

            def submit(self, fn, *args):
                self.submitted += 1
                future = Future()
                future.set_result(fn(*args))
                return future

        # an empty pool slot: the fake executor is dropped, and any live pool
        # put back, on teardown
        monkeypatch.setattr(search, "_pool", None)
        # the name _scan_in_pool imports when it makes a pool
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InlineExecutor)
        # the CPUs this process may use, else the host's CPUs, else 1
        if affinity is None:
            monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(affinity)))
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        base = SearchConfig(p=3, period=7, zeros=2, filter_mode=FILTER_ALL)
        report = enumerate_and_classify(replace(base, job_count=1024))
        # one task per batch: 41 orbits of b -> c*b among the 81 candidates,
        # read 9 at a time after the 5 with a zero prefix
        assert [(pool.max_workers, pool.submitted) for pool in pools] == [(workers, 5)]
        assert report_to_json(report) == report_to_json(enumerate_and_classify(base))


def dealt_tasks(config):
    """The batches _run_partitioned gives each task of config's scan, with
    no scan run."""
    tasks = []

    def scan(config, batches, visit, walk=False):
        tasks.append(batches)
        return SearchReport(config=config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_scan", scan)
        patch.setattr(search, "_scan_in_pool", lambda c, t, v, w: [scan(c, b, v, w) for b in t])
        search._run_partitioned(config, search._visit_classify)
    return tasks


# (p, period, zeros): from one batch (n = 1) to thousands, at L = 0 .. 10
DEALT_SPACES = [
    (2, 3, 2), (2, 4, 2), (2, 6, 1), (2, 8, 2), (2, 12, 2), (2, 22, 2), (2, 26, 1),
    (3, 3, 2), (3, 5, 2), (3, 6, 1), (3, 7, 2), (3, 9, 2), (3, 11, 2), (3, 15, 2),
    (3, 19, 2), (5, 4, 2), (5, 5, 1), (5, 6, 2), (5, 8, 2), (5, 10, 2), (5, 13, 2),
    (7, 3, 1), (7, 5, 2), (7, 7, 2), (7, 8, 2), (7, 10, 2), (11, 6, 2), (13, 7, 2),
    (3, 130, 124), (2, 40, 16),
]


class TestDealing:
    @pytest.mark.parametrize("jobs", range(1, 10))
    @pytest.mark.parametrize("p,period,zeros", DEALT_SPACES)
    def test_tasks_partition_the_batches(self, jobs, p, period, zeros):
        config = SearchConfig(p=p, period=period, zeros=zeros, job_count=jobs)
        total = batch_count(config)
        tasks = dealt_tasks(config)
        # no more tasks than batches, each task at least one batch, in order
        assert len(tasks) == min(jobs, total)
        owners = [None] * total
        for j, batches in enumerate(tasks):
            assert batches
            assert list(batches) == sorted(batches)
            for i in batches:
                assert 0 <= i < total and owners[i] is None, (i, owners[i], j)
                owners[i] = j
        assert None not in owners
        # round-robin: batch i goes to task i mod the tasks
        assert owners == [i % len(tasks) for i in range(total)]

    def test_roundtrip_reads_split_evenly(self, monkeypatch):
        # the benchmark's jobs-2 roundtrip (p = 5, N = 8, full space): the
        # reads bunch at low ordinals, so one run of batches per task, the
        # first four of its seven and the last three, would give the first
        # task 76 % of them; a walk that passes every leaf shows each read
        config = SearchConfig(p=5, period=8, zeros=2, normalize_phase=False, job_count=2)
        reads = []

        def count(config, f, ell, nps):
            reads[-1] += f is not None
            return None, None

        tasks = dealt_tasks(config)
        monkeypatch.setattr(search, "_classified", every_leaf)
        for batches in tasks:
            reads.append(0)
            search._scan(config, batches, count, walk=True)
        assert len(reads) == 2 and sum(reads) == 410
        assert max(reads) <= 0.6 * sum(reads), reads


def _visit_refuse(config, f, ell, nps):
    """Fail the scan, in whichever process reads the first leaf."""
    raise ValueError("visit refused")


def _visit_pid(config, f, ell, nps):
    """Name the process that profiled the representative, as a violation."""
    return None, f"pid {os.getpid()}"


def worker_pids(job_count):
    """The processes that served one scan."""
    config = SearchConfig(p=3, period=7, zeros=2, job_count=job_count)
    report = search._run_partitioned(config, _visit_pid)
    return {int(text.rsplit(" ", 1)[1]) for text in report.violations}


class TestWorkerPool:
    SCANS = [
        (verify_nps_pdpds_equivalence, SearchConfig(p=3, period=7, zeros=2, normalize_phase=False)),
        (enumerate_and_classify, SearchConfig(p=5, period=6, zeros=2)),
        (verify_ell_bounds, SearchConfig(p=3, period=8, zeros=1)),
    ]

    def test_consecutive_scans_share_workers(self):
        first = worker_pids(2)
        pool = search._pool
        second = worker_pids(2)
        assert search._pool is pool
        assert os.getpid() not in first | second
        assert len(first | second) <= pool[0]
        # the first scan's workers were not shut down after it
        for pid in first | second:
            os.kill(pid, 0)

    def test_smaller_need_reuses_larger_pool(self, monkeypatch):
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        worker_pids(3)
        pool = search._pool
        assert pool[0] >= 3
        worker_pids(2)
        assert search._pool is pool

    def test_interleaved_scans_match_jobs_1(self):
        def outputs(scan, config):
            report = scan(config)
            return report_to_json(report), report_to_csv(report)

        expected = [outputs(scan, config) for scan, config in self.SCANS]
        for jobs in (2, 3, 8):
            for (scan, config), want in zip(self.SCANS, expected):
                assert outputs(scan, replace(config, job_count=jobs)) == want, (scan, jobs)

    def test_killed_worker_fails_one_call(self):
        config = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False, job_count=2)
        expected = report_to_json(verify_nps_pdpds_equivalence(replace(config, job_count=1)))
        victim = min(worker_pids(2))
        os.kill(victim, signal.SIGKILL)
        # the pool marks itself broken before it reaps the dead worker
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        else:
            pytest.fail("the pool did not reap the killed worker")
        with pytest.raises(BrokenProcessPool):
            verify_nps_pdpds_equivalence(config)
        assert search._pool is None
        assert report_to_json(verify_nps_pdpds_equivalence(config)) == expected
        assert victim not in worker_pids(2)


class TestSerialization:
    def test_csv_lists_matches(self):
        config = SearchConfig(
            p=3, period=5, zeros=2, filter_mode=FILTER_TYPE, target=(2, 1)
        )
        text = report_to_csv(enumerate_and_classify(config))
        assert text.splitlines() == [
            "exponents,gamma1,gamma2,pdpds",
            "0 0 0,2,1,5 3 3 1 0 2 0 0",
        ]

    def test_json_is_stable(self):
        config = SearchConfig(p=3, period=5, zeros=2)
        a = report_to_json(enumerate_and_classify(config))
        b = report_to_json(enumerate_and_classify(config))
        assert a == b
        assert '"total_enumerated":9' in a


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            SearchConfig(p=4, period=5, zeros=2)
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=5)
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=2, filter_mode="bogus")
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=2, filter_mode=FILTER_TYPE)
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=2, target=(2, 1))
        with pytest.raises(ValueError, match="needs two integers"):
            SearchConfig(p=3, period=5, zeros=2, filter_mode=FILTER_TYPE, target=(2, 1, 0))
        with pytest.raises(ValueError, match="needs two integers"):
            SearchConfig(p=3, period=5, zeros=2, filter_mode=FILTER_TYPE, target=())
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=2, job_count=0)
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=2, job_count=1025)
        with pytest.raises(ValueError):
            SearchConfig(p=3, period=5, zeros=2, budget=0)
