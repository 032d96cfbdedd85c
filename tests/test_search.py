"""Exhaustive search driver: content, completeness, and determinism."""

import gc
import itertools
import os
import signal
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

import pytest
from scanhooks import (
    batch_count,
    brute_force,
    candidates,
    class_profiles,
    classified,
    dealt_tasks,
    every_leaf_shown,
    merged,
    orbit_key,
    plan_caches,
    refusing,
    run_scan,
    stop_workers,
    visited,
    visits,
    worker_pids,
    workers,
)

from npseq import cli, search
from npseq.diffset import PdpdsParams, expected_pdpds_params
from npseq.search import (
    FILTER_ALL,
    FILTER_NPS,
    FILTER_TYPE,
    BudgetExceededError,
    SearchConfig,
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
    # roundtrip compares with each candidate's expected tuple, and by
    # showing the visit every leaf read, whatever its ell; job_count 1 runs
    # in this process, so the spies reach the scan
    BROKEN = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False)
    FIXED = PdpdsParams(7, 3, 5, 9, 9, 9, 9, 9)  # lambda2 = 9: no type's tuple

    def expected_violations(self, actual):
        """The roundtrip's violations on BROKEN when every candidate's
        classification is actual: one per candidate whose type (or none)
        expects another tuple."""
        lines = []
        for index, digits in enumerate(candidates(self.BROKEN)):
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
    def test_mismatch_is_a_violation(self, actual, flagged):
        with every_leaf_shown(), classified(lambda grid: actual):
            report = verify_nps_pdpds_equivalence(self.BROKEN)
        expected = self.expected_violations(actual)
        assert report.violations == expected
        assert len(expected) == flagged
        assert report.matches == []

    def test_typed_leaves_are_classified_under_the_shown_ell(self):
        # the scan's own gate shows the visit every typed leaf: the untyped
        # leaves it also shows expect None, as the broken classification gives
        with classified(lambda grid: None):
            report = verify_nps_pdpds_equivalence(self.BROKEN)
        assert report.violations == self.expected_violations(None)
        assert len(report.violations) == 15

    @pytest.mark.parametrize("actual", [None, FIXED], ids=["none", "fixed"])
    def test_cli_exits_1_on_mismatch(self, capsys, actual):
        argv = ["roundtrip", "--p", "3", "--period", "7", "--zeros", "2", "--full-space"]
        with every_leaf_shown(), classified(lambda grid: actual):
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
    def test_one_profile_per_candidate(self, scan, config):
        # a gate that passes every ell shows the visit each leaf read, once,
        # with the leaf's folded matrix, ell and type; the visit is asked
        # for no matrix once of each ell 0 .. N-1, every ell a row set has
        assert scan(config).total_enumerated == config.space_size
        with every_leaf_shown():
            report, reads, unshown = visited(config)
        assert report.total_enumerated == config.space_size
        assert Counter(unshown) == Counter((ell, None) for ell in range(config.period))
        assert {ell for _, ell, _ in reads} <= set(range(config.period))
        # one read per class of b -> c*b (+ a) and reversal, and no class
        # read twice: the reads are the profiles of the classes' least members
        profiles = class_profiles(config)
        assert len(reads) == len(profiles) < config.orbit_count
        assert len({orbit_key(config, d) for d in candidates(config)}) == config.orbit_count
        assert Counter(reads) == Counter((p.matrix, p.ell, p.nps_type) for p in profiles)
        # and every candidate enters the histogram once, with its own ell
        quiet = brute_force(config, lambda config, f, ell, nps: (None, None))
        assert report.ell_histogram == quiet.ell_histogram

    @pytest.mark.parametrize("scan,config", SCANS)
    def test_scan_leaves_no_cycles(self, scan, config):
        # the scan's batch loop leaves no reference cycle behind: the
        # collector finds nothing
        assert cycles_left(partial(scan, config)) == 0

    @pytest.mark.parametrize("job_count", [1, 2])
    def test_worker_exception_leaves_no_cycles(self, job_count):
        # a worker's exception reaches the caller as its reply over the pipe:
        # the caller must not keep it in a frame the exception's traceback holds
        config = SearchConfig(p=3, period=7, zeros=2, job_count=job_count)
        # the first parallel scan imports the pool modules, whose import
        # leaves garbage of its own, and starts the pool
        enumerate_and_classify(config)

        def refused():
            with pytest.raises(ValueError, match="visit refused"):
                run_scan(config, refusing())

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
        # the three scans' visits; under bounds (0, 0) every candidate is a violation
        for visit in visits(config, bounds=(0, 0)).values():
            scan = partial(run_scan, config, visit)
            whole = scan(range(total))
            assert whole.total_enumerated == config.space_size
            single = []
            for j in range(total):
                assert scan(range(j, j)).total_enumerated == 0
                single.append(scan(range(j, j + 1)))
            assert merged(config, single) == whole
            # each process of a dealt scan reads its batches as they read alone
            for start, step in ((0, 2), (1, 2), (2, 3)):
                dealt = merged(config, single[start:total:step])
                assert scan(range(start, total, step)) == dealt

    def test_ranges_past_sys_maxsize_stop_at_the_last_batch(self):
        # a range stop above sys.maxsize, which islice refuses, reads as the
        # batch count: the scan ends where the batches do
        config = SearchConfig(p=3, period=12, zeros=2)
        total = batch_count(config)
        assert total == 41
        scan = partial(run_scan, config, visits(config)[enumerate_and_classify])
        whole = scan(range(total))
        assert scan(range(0, 2**70)) == whole
        dealt = scan(range(1, total, 3))
        assert scan(range(1, 2**70, 3)) == dealt

    def test_plans_hold_bounded_memory(self):
        # nine distinct (p, N), 64 batches each: eight plans stay, and the
        # cached selections of all of them, 576 asked, total at most 256
        plan_caches(clear=True)
        for period in range(40, 49):
            config = SearchConfig(p=2, period=period, zeros=period - 14)
            assert batch_count(config) == 64
            run_scan(config, visits(config)[enumerate_and_classify], range(64))
        plans, selections = plan_caches()
        assert plans.currsize == 8
        assert selections.misses == 9 * 64
        assert selections.currsize <= 256

    @pytest.mark.parametrize("p,period,zeros", [(3, 130, 124), (2, 32768, 32764)])
    def test_walk_at_wide_columns(self, p, period, zeros):
        # 16- and 32-bit columns: every candidate against its own profile
        config = SearchConfig(p=p, period=period, zeros=zeros, filter_mode=FILTER_ALL)
        report = enumerate_and_classify(config)
        assert report.total_enumerated == len(report.matches) == config.space_size
        assert report == brute_force(config, visits(config)[enumerate_and_classify])

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
        "affinity,cpus,slots", [(3, 64, 3), (None, 3, 3), (None, None, 1)]
    )
    def test_pool_capped_at_cpu_count(self, monkeypatch, affinity, cpus, slots):
        # the CPUs this process may use, else the host's CPUs, else 1: one
        # slot is this process, and each other slot one worker
        if affinity is None:
            monkeypatch.delattr(search.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(affinity)))
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        stop_workers()
        # 1024 jobs: 41 orbits of b -> c*b among the 81 candidates, read 9
        # at a time after the 5 with a zero prefix, in 5 batches dealt over
        # min(jobs, batches, CPUs) processes; with one no pool is started
        pids = worker_pids(1024)
        pool = workers() or []
        assert len(pool) == slots - 1
        assert pids == {os.getpid(), *(proc.pid for proc in pool)}
        base = SearchConfig(p=3, period=7, zeros=2, filter_mode=FILTER_ALL)
        report = enumerate_and_classify(replace(base, job_count=1024))
        assert report_to_json(report) == report_to_json(enumerate_and_classify(base))


# (p, period, zeros): from one batch (n = 1) to thousands, at L = 0 .. 10
DEALT_SPACES = [
    (2, 3, 2), (2, 4, 2), (2, 6, 1), (2, 8, 2), (2, 12, 2), (2, 22, 2), (2, 26, 1),
    (3, 3, 2), (3, 5, 2), (3, 6, 1), (3, 7, 2), (3, 9, 2), (3, 11, 2), (3, 15, 2),
    (3, 19, 2), (5, 4, 2), (5, 5, 1), (5, 6, 2), (5, 8, 2), (5, 10, 2), (5, 13, 2),
    (7, 3, 1), (7, 5, 2), (7, 7, 2), (7, 8, 2), (7, 10, 2), (11, 6, 2), (13, 7, 2),
    (3, 130, 124), (2, 40, 16),
]


class TestDealing:
    @pytest.mark.parametrize("cpus", [None, 1, 2, 3])
    @pytest.mark.parametrize("jobs", range(1, 10))
    @pytest.mark.parametrize("p,period,zeros", DEALT_SPACES)
    def test_tasks_partition_the_batches(self, jobs, cpus, p, period, zeros):
        # cpus None: as many usable CPUs as jobs
        config = SearchConfig(p=p, period=period, zeros=zeros, job_count=jobs)
        total = batch_count(config)
        tasks = dealt_tasks(config, cpus)
        # P = min(jobs, batches, CPUs) processes, each at least one batch, in order
        assert len(tasks) == min(jobs, total, cpus or jobs)
        owners = [None] * total
        for j, batches in enumerate(tasks):
            assert batches
            assert list(batches) == sorted(batches)
            for i in batches:
                assert 0 <= i < total and owners[i] is None, (i, owners[i], j)
                owners[i] = j
        assert None not in owners
        # round-robin: batch i goes to process i mod P
        assert owners == [i % len(tasks) for i in range(total)]

    def test_roundtrip_reads_split_evenly(self):
        # the benchmark's jobs-2 roundtrip on 2 CPUs (p = 5, N = 8, full
        # space): the reads bunch at low ordinals, so one run of batches per
        # process, the first four of its seven and the last three, would give
        # the first process 76 % of them; a gate that passes every ell shows
        # each read
        config = SearchConfig(p=5, period=8, zeros=2, normalize_phase=False, job_count=2)
        with every_leaf_shown():
            tasks = dealt_tasks(config, cpus=2)
            reads = [len(visited(config, batches=batches)[1]) for batches in tasks]
        assert len(reads) == 2 and sum(reads) == 410
        assert max(reads) <= 0.6 * sum(reads), reads


class TestWorkerPool:
    SCANS = [
        (verify_nps_pdpds_equivalence, SearchConfig(p=3, period=7, zeros=2, normalize_phase=False)),
        (enumerate_and_classify, SearchConfig(p=5, period=6, zeros=2)),
        (verify_ell_bounds, SearchConfig(p=3, period=8, zeros=1)),
    ]

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Two usable CPUs, so a parallel scan has one worker on any host."""
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_consecutive_scans_share_workers(self):
        first = worker_pids(2)
        pool = workers()
        second = worker_pids(2)
        assert workers() == pool
        # this process scans a share of each, its workers the rest
        assert os.getpid() in first & second
        assert first | second <= {os.getpid(), *(proc.pid for proc in pool or ())}
        # the first scan's workers were not stopped after it
        for pid in first | second:
            os.kill(pid, 0)

    def test_smaller_need_reuses_larger_pool(self, monkeypatch):
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        worker_pids(3)
        pool = workers()
        assert len(pool) >= 2
        worker_pids(2)
        assert workers() == pool

    def test_interleaved_scans_match_jobs_1(self):
        def outputs(scan, config):
            report = scan(config)
            return report_to_json(report), report_to_csv(report)

        expected = [outputs(scan, config) for scan, config in self.SCANS]
        for jobs in (2, 3, 8):
            for (scan, config), want in zip(self.SCANS, expected):
                assert outputs(scan, replace(config, job_count=jobs)) == want, (scan, jobs)

    @pytest.mark.parametrize("here", [True, False], ids=["caller", "worker"])
    def test_exception_leaves_no_reply_behind(self, two_cpus, here):
        # a visit that refuses in one process alone: its ValueError reaches
        # the caller, and every reply of the failed scan is read before it is
        # raised, so the next scan on the same pool reads its own
        config = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False, job_count=2)
        expected = report_to_json(verify_nps_pdpds_equivalence(replace(config, job_count=1)))
        worker_pids(2)
        pool = workers()
        with pytest.raises(ValueError, match="^visit refused$"):
            run_scan(config, refusing(os.getpid(), here))
        assert workers() == pool
        assert report_to_json(verify_nps_pdpds_equivalence(config)) == expected

    def test_unpicklable_exception_reaches_the_caller_as_text(self, two_cpus):
        # a worker sends the type and text of an exception that does not pickle
        config = SearchConfig(p=3, period=7, zeros=2, job_count=2)
        worker_pids(2)
        pool = workers()
        with pytest.raises(RuntimeError, match="^UnpicklableError: visit refused$"):
            run_scan(config, refusing(os.getpid(), here=False, unpicklable=True))
        assert workers() == pool
        assert worker_pids(2) == {os.getpid(), pool[0].pid}

    def test_killed_worker_fails_one_call(self, two_cpus):
        config = SearchConfig(p=3, period=7, zeros=2, normalize_phase=False, job_count=2)
        expected = report_to_json(verify_nps_pdpds_equivalence(replace(config, job_count=1)))
        victim = min(worker_pids(2) - {os.getpid()})
        os.kill(victim, signal.SIGKILL)
        # reaped, so that it is dead before the next scan sends to it
        next(proc for proc in workers() if proc.pid == victim).join(30)
        with pytest.raises(BrokenProcessPool):
            verify_nps_pdpds_equivalence(config)
        assert workers() is None
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
