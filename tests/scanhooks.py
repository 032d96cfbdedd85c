"""The one seam between the tests and the scans' internals: only this module
names a private attribute of `npseq.search` or calls the batch kernel
(`sequence._batch`, `_stepper`, `_new_reader`), so a change to an internal
signature is restated here alone. Beside them are the tests' oracles, which
profile candidates one by one, and the visits that fail a scan, defined at
module level so that a worker unpickles them."""

import itertools
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial, reduce
from typing import NamedTuple

import pytest

from npseq import search, sequence
from npseq.diffset import classify_grid
from npseq.search import FILTER_ALL, Match, SearchConfig, SearchReport
from npseq.sequence import AlmostParySequence, profile
from npseq.theory import ell_bounds

SHOWN_ELL = search._SHOWN_ELL  # the most ell of a leaf a scan shows its matrix


def candidates(config):
    """The free digits of every candidate of config's space, in index order."""
    p, free = config.p, config.free_positions
    if config.normalize_phase:
        return [(0, *tail) for tail in itertools.product(range(p), repeat=free - 1)]
    return list(itertools.product(range(p), repeat=free))


def orbit_key(config, digits):
    """The least member of the orbit of digits under b -> c*b (+ a)."""
    p = config.p
    shifts = (0,) if config.normalize_phase else range(p)
    return min(tuple((c * b + a) % p for b in digits) for c in range(1, p) for a in shifts)


def _class(config, digits):
    """The members of the space in the class of digits under b -> c*b + a
    and the reversal of the free digits (positions i -> s-1-i mod N); under
    phase normalisation the space holds the members that start with 0."""
    p = config.p
    members = (
        tuple((c * b + a) % p for b in z)
        for z in (digits, digits[::-1])
        for c in range(1, p)
        for a in range(p)
    )
    return {m for m in members if not config.normalize_phase or m[0] == 0}


def class_profiles(config):
    """The profiles of the least members of the classes under b -> c*b (+ a)
    and reversal: the leaves a scan reads."""
    reps = {min(_class(config, digits)) for digits in candidates(config)}
    return [profile(AlmostParySequence(config.p, (None,) * config.zeros + rep)) for rep in reps]


def brute_force(config, visit, keep=None):
    """Profile and visit every candidate (in keep, if given) in index order,
    with no reduction."""
    report = SearchReport(config=config)
    chosen = enumerate(candidates(config)) if keep is None else sorted(
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


def _depth(config):
    """L, the digits each batch of config's space places below its prefix."""
    return search._depth(config.p, config.free_positions, config.period)


def batch_count(config):
    """The batches of config's space: one per tail of r = n - 1 - L free
    digits that is zero or led by 1 after its zeros."""
    p, r = config.p, config.free_positions - 1 - _depth(config)
    return 1 + (p**r - 1) // (p - 1)


def _representative(p, r, i):
    """The i-th tail of length r that is zero or led by 1 after its zeros:
    zero, then the base-p values in [p^e, 2*p^e) for e = 0, 1, ..., r-1."""
    value, e = 0, 0
    if i:
        i -= 1
        while i >= p**e:
            i, e = i - p**e, e + 1
        value = p**e + i
    return tuple(value // p**k % p for k in reversed(range(r)))


def covered(config, batches):
    """The candidates a scan of the given batches counts: the classes (under
    b -> c*b (+ a) and reversal) whose least member is a leaf of one of
    them, batch j's leaves being 0, the j-th tail of r = n - 1 - L digits,
    then any L digits."""
    p, L = config.p, _depth(config)
    members = set()
    for j in batches:
        prefix = (0, *_representative(p, config.free_positions - 1 - L, j))
        for last in itertools.product(range(p), repeat=L):
            cls = _class(config, prefix + last)
            if min(cls) == prefix + last:
                members |= cls
    return members


def visits(config, bounds=None):
    """{scan: visit}: each public scan that config's zero run admits, with the
    visit it gives its batches; the ell check's holds bounds, by default
    those the scan takes from the paper."""
    found = {search.enumerate_and_classify: search._visit_classify}
    if config.zeros:
        bounds = bounds or ell_bounds(config.free_positions, config.zeros, config.p)
        found[search.verify_ell_bounds] = partial(search._visit_ell, bounds)
    if config.zeros == 2:
        found[search.verify_nps_pdpds_equivalence] = search._visit_roundtrip
    return found


def run_scan(config, visit, batches=None):
    """config's report with visit: of all its batches, dealt to job_count
    tasks and merged, as the public scans run, or of one task that scans
    the given batches in this process, its matches and violations unsorted."""
    if batches is None:
        return search._run_partitioned(config, visit)
    return search._scan(config, batches, visit)


def merged(config, parts):
    """The report the scan's merge makes of parts."""
    report = SearchReport(config=config)
    for part in parts:
        search._merge(report, part)
    return report


def dealt_tasks(config):
    """The batches a scan of config gives each of its tasks, with no scan run."""
    tasks = []

    def fake(config, batches, visit):
        tasks.append(batches)
        return SearchReport(config=config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_scan", fake)
        patch.setattr(search, "_scan_in_pool", lambda c, t, v: [fake(c, b, v) for b in t])
        run_scan(config, search._visit_classify)
    return tasks


def plan_caches(clear=False):
    """(plans, selections): the cache_info of the scans' plans and of their
    selections, both emptied first when clear."""
    if clear:
        search._plan.cache_clear()
        search._select.cache_clear()
    return search._plan.cache_info(), search._select.cache_info()


@contextmanager
def every_leaf_shown():
    """Show the visit each leaf a scan in this process reads, whatever its ell."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_SHOWN_ELL", sys.maxsize)
        yield


@contextmanager
def classified(answer=classify_grid):
    """The grids the scans in this process classify, each as answer(grid)."""
    grids = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "classify_grid", lambda grid: grids.append(grid) or answer(grid))
        yield grids


def visited(config, visit=None, batches=None):
    """(report, shown, unshown) of `run_scan(config, visit, batches)` in this
    process (a config of job_count 1 when batches is None), visit by default
    one that answers (None, None): the (f, ell, nps) of each leaf shown its
    matrix, and the (ell, nps) of each answer asked for no matrix."""
    shown, unshown = [], []

    def spy(config, f, ell, nps):
        if f is None:
            unshown.append((ell, nps))
        else:
            shown.append((f, ell, nps))
        return (None, None) if visit is None else visit(config, f, ell, nps)

    return run_scan(config, spy, batches), shown, unshown


def expansions(config):
    """The members (index, free digits) of each representative that a
    FILTER_ALL search of config expands, one list per expansion."""
    found = []

    def recording(p, rep, full, expand=search._orbit):
        found.append(list(expand(p, rep, full)))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_orbit", recording)
        search.enumerate_and_classify(replace(config, filter_mode=FILTER_ALL))
    return found


class Leaf(NamedTuple):
    """A leaf of a batch: its digits, its packing index j, its folded matrix,
    and its ell and integral values as the batch's reader reads them."""

    digits: tuple[int, ...]
    j: int
    matrix: int
    ell: int
    integral: tuple[int, ...] | None

    @property
    def nps(self):
        """The type the scans give the leaf, or None."""
        return sequence._nps_type(self.integral)


def place(p, N, digits, node=(0, 0, 0)):
    """The node (M, H, G) with digits placed below node, one stepper update
    each; (0, 0, 0) holds no digit."""
    return reduce(sequence._stepper(p, N), digits, node)


def leaves_below(p, N, node, L, order=None):
    """(blocks, leaves): the blocks of the p^L leaf matrices L digits below
    node, built at once by the batches' kernel, and the Leaf of each packing
    index j in order (all of them, in packing order, by default), digits
    s_0 .. s_{L-1} those of j = s_0 + s_1*p + ..., picked and read in that
    order by the kernel's matrix and reader."""
    leaves, read, matrix, offsets = sequence._batch(p, N, L)
    blocks = leaves(node)
    order = range(p**L) if order is None else order
    picked = [offsets[j] for j in order]
    ells, integral = read(blocks, picked)
    return blocks, [
        Leaf(digits, j, matrix(blocks, picked, k), ells[k], integral(k))
        for k, j in enumerate(order)
        for digits in [tuple(j // p**i % p for i in range(L))]
    ]


def batch_leaves(config, batches):
    """Each leaf, read or not, of the given batches of config's space, in
    batch and then packing order, with its free digits."""
    p, N, L = config.p, config.period, _depth(config)
    prefixes = search._prefixes(p, config.free_positions - 1 - L)
    stop = min(batches.stop, batch_count(config))
    for prefix in itertools.islice(prefixes, batches.start, stop, batches.step):
        head = tuple(map(ord, prefix))
        for leaf in leaves_below(p, N, place(p, N, head), L)[1]:
            yield leaf._replace(digits=head + leaf.digits)


def read_matrix(p, N, f):
    """(ell, integral values) of the folded matrix f, read by the batches'
    reader as a batch of one."""
    ells, integral = sequence._new_reader(p, N, 1)([f], [0])
    return ells[0], integral(0)


def workers():
    """The parallel scans' worker processes, or None while none is started."""
    return None if search._pool is None else [proc for proc, _ in search._pool]


def stop_workers():
    """Stop the parallel scans' workers; the next parallel scan starts its own."""
    search._stop_pool()


def _visit_pid(config, f, ell, nps):
    """Name the process that read the leaf, as a violation."""
    return None, f"pid {os.getpid()}"


def worker_pids(job_count):
    """The processes that served one scan."""
    config = SearchConfig(p=3, period=7, zeros=2, job_count=job_count)
    report = run_scan(config, _visit_pid)
    return {int(text.rsplit(" ", 1)[1]) for text in report.violations}


def refusing(caller=None, here=True, unpicklable=False):
    """A visit that fails the scan with ValueError("visit refused"): in
    whichever process reads the first leaf, or, given the caller's pid, in
    the caller alone when here is set, else in its workers alone, there
    with an exception that does not pickle when unpicklable is set."""
    return partial(_refuse, caller, here, unpicklable)


def _refuse(caller, here, unpicklable, config, f, ell, nps):
    if caller is None or (os.getpid() == caller) == here:
        raise UnpicklableError() if unpicklable else ValueError("visit refused")
    return None, None


class UnpicklableError(ValueError):
    def __init__(self):
        super().__init__("visit refused")
        self.hook = lambda: None  # pickle refuses a lambda
