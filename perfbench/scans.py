"""The three scan workloads: closed-loop passes over one fixed search config.

A pass is one call of a public ``npseq.search`` entry point; the next pass
starts when the previous one returns. Every pass is checked: the whole space
was enumerated, no violation was recorded, and the sha256 of
``report_to_json`` equals the digest frozen below for that config (the same
digest for every job count, since reports are byte-identical across jobs).
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, replace

from npseq import search

from outcome import Outcome, exact_counts_repeat, median_of_dicts, peak_rss_mb, rss_kib
from pacer import Pacer
from spans import SpanRecorder, installed, layer_metrics


@dataclass(frozen=True)
class Scan:
    api: str  # name of the npseq.search entry point
    config: dict
    digest: str  # sha256 of report_to_json for config
    tiny_config: dict  # small space for the self-test
    tiny_digest: str


SCANS = {
    "search-p3": Scan(
        "enumerate_and_classify",
        dict(p=3, period=12, zeros=2),
        "ccc8c57e4f0001a1e0d788fc224481dec474ffd3f143a3d2cd29810dbd9aab93",
        dict(p=3, period=7, zeros=2),
        "99ae3879205b51040583cb4ab313f18e13efc9221d430f5612684c2f553b8d8e",
    ),
    "roundtrip-p5": Scan(
        "verify_nps_pdpds_equivalence",
        dict(p=5, period=8, zeros=2, normalize_phase=False, job_count=2),
        "081885517bb4f48d49ab1a6975b24fb313ecf024bbdc7840b72effd8d12c20dc",
        dict(p=5, period=5, zeros=2, normalize_phase=False, job_count=2),
        "96e2f9372da61bbcaae48b52dc808328855f350bc184204c9d4f15b0c85e6213",
    ),
    "ell-p7": Scan(
        "verify_ell_bounds",
        dict(p=7, period=8, zeros=2),
        "544b90a0ebc92c9f3f1448088f711170e11d7ed7861730ad6c0c0943c304d006",
        dict(p=7, period=5, zeros=2),
        "144fba970b4b9df29da736167ef06f011d8d5ee404a319b0ccf6fe860c454bd5",
    ),
}

MIN_PASSES = 3

# Bound at import, before tracing wraps npseq.search.report_to_json, so the
# output check never records a span.
_report_to_json = search.report_to_json


def report_digest(report) -> str:
    return hashlib.sha256(_report_to_json(report).encode()).hexdigest()


def _closed_loop(step, seconds: float, min_steps: int, width: int) -> Pacer:
    """Run `step` back to back until `seconds` have passed and at least
    `min_steps` steps are done, with a speed probe on `width` cores around
    every step."""
    with Pacer(width) as pacer:
        deadline = time.perf_counter() + seconds
        steps = 0
        while steps < min_steps or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            step()
            pacer.mark(time.perf_counter() - t0)
            steps += 1
    return pacer


def run(name: str, seconds: float, trace: bool, tiny: bool, corrupt: bool,
        spans_path) -> Outcome:
    scan = SCANS[name]
    config = search.SearchConfig(**(scan.tiny_config if tiny else scan.config))
    expected = scan.tiny_digest if tiny else scan.digest
    if corrupt:
        expected = "0" * 64
    space = config.space_size
    out = Outcome()
    out.record.update(config=scan.tiny_config if tiny else scan.config, space_size=space)
    digests = set()
    # The most a pool worker added to the pages it shares with this process:
    # its peak RSS (read after the pass, while the probe's helper process, a
    # child too, still runs and so is not counted) less this process's RSS
    # when the pool forked it, at the start of the pass.
    worker_extra_kib = 0

    def timed(api, cfg, times: list[float]):
        nonlocal worker_extra_kib
        at_fork_kib = rss_kib()
        t0 = time.perf_counter()
        report = api(cfg)
        times.append(time.perf_counter() - t0)
        if cfg.job_count > 1:
            worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            worker_extra_kib = max(worker_extra_kib, worker_kib - at_fork_kib)
        digest = report_digest(report)
        digests.add(digest)
        out.attempt(
            report.total_enumerated == space and not report.violations and digest == expected,
            f"pass digest {digest[:16]} enumerated {report.total_enumerated} "
            f"violations {report.violations[:2]}",
        )

    api = getattr(search, scan.api)
    workers = min(config.job_count, space)
    if not trace:
        raw: list[float] = []
        pacer = _closed_loop(lambda: timed(api, config, raw), seconds, MIN_PASSES, workers)
        times = pacer.normalise(raw)
        out.add("cand_per_s", statistics.median(space / t for t in times), "1/s", len(times))
        # A pass is one call: call_ms is the pass time, the inverse of
        # cand_per_s, and a run has too few passes for a p99 of its own.
        pass_ms = statistics.median(times) * 1e3
        out.add("call_ms.p50", pass_ms, "ms", len(times))
        out.add("call_ms.p99", pass_ms, "ms", len(times))
        out.add("peak_rss_mb", peak_rss_mb(workers if workers > 1 else 0, worker_extra_kib),
                "MB", 1)
        out.record.update(pass_s=raw, probe_s=pacer.probes, report_sha256=sorted(digests))
        return out

    # Traced run: untraced passes first as the reference (for a parallel
    # config, alternating with its jobs-1 twin), then traced jobs-1 passes.
    serial = replace(config, job_count=1)
    parallel_raw: list[float] = []
    serial_raw: list[float] = []

    def untraced_step():
        if config.job_count > 1:
            timed(api, config, parallel_raw)
        timed(api, serial, serial_raw)

    untraced = _closed_loop(untraced_step, seconds / 2, 1, workers)

    recorder = SpanRecorder()
    per_pass: list[dict[str, float]] = []
    traced_raw: list[float] = []
    with installed(recorder) as absent:
        traced_api = getattr(search, scan.api)

        def traced_step():
            recorder.clear()
            timed(traced_api, serial, traced_raw)
            if not per_pass:
                recorder.write(spans_path)
            per_pass.append(layer_metrics(recorder.summary(), space))

        traced = _closed_loop(traced_step, seconds / 2, 1, 1)

    serial_s = statistics.median(untraced.normalise(serial_raw))
    metrics = median_of_dicts(per_pass)
    metrics["search.scaling_eff"] = (
        serial_s / (config.job_count * statistics.median(untraced.normalise(parallel_raw)))
        if parallel_raw
        else 0.0
    )
    metrics["trace.overhead_frac"] = statistics.median(traced.normalise(traced_raw)) / serial_s - 1
    out.layers = metrics
    out.record.update(
        absent=absent,
        exact_counts_repeat=exact_counts_repeat(per_pass),
        traced_pass_s=traced_raw,
        untraced_serial_pass_s=serial_raw,
        untraced_parallel_pass_s=parallel_raw,
        report_sha256=sorted(digests),
    )
    return out
