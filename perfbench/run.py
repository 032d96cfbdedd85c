"""npseq benchmark: one command, four workloads, end-to-end or traced metrics.

Run from the repository root:

    python3 perfbench/run.py --workload search-p3 --seed 1 --seconds 20 --trace 0

The program under test is imported from ./src (no install step). The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 gives the end-to-end metrics and --trace 1 the
per-layer ones. Earlier lines are the same figures for people, with sample
counts. A record of the run (machine, seed, raw samples, output digests) is
written under .perfbench_out/. The exit code is 0 only if every output
check passed; it is 2 when ./src/npseq is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("search-p3", "roundtrip-p5", "ell-p7", "cli-mix")
SETUP_REPEATS = 31
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); "
    "from npseq.cli import main; sys.exit(main(['--version']))"
)
# Start-up time of a bare interpreter (`-c pass`) on the reference machine.
BARE_START_REF_S = 0.07

END_TO_END = ("cand_per_s", "call_ms.p50", "call_ms.p99", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = {
    "sequence.profile.calls_per_cand": "count",
    "sequence.profile.us_per_call": "us",
    "sequence.self_frac": "frac",
    "sequence.classify_nps.self_us_per_call": "us",
    "cyclotomic.values_per_cand": "count",
    "cyclotomic.self_frac": "frac",
    "diffset.difference_multiset.calls_per_cand": "count",
    "diffset.difference_multiset.us_per_call": "us",
    "diffset.self_frac": "frac",
    "theory.calls_per_cand": "count",
    "theory.self_frac": "frac",
    "search.self_frac": "frac",
    "search.scaling_eff": "frac",
    "cli.self_ms_per_call": "ms",
    "trace.overhead_frac": "frac",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small spaces and a short mix, for the self-test")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="expect wrong digests, for the self-test")
    return parser.parse_args(argv)


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _measure_setup(outcome, version: str, repeats: int) -> None:
    """Fresh-interpreter start-up: import npseq.cli and run --version.

    Start-up is mostly exec, import and page-fault time, which a pure-Python
    probe does not track, so each start is paired with the start of a bare
    interpreter just before it and scaled by BARE_START_REF_S over that
    start's time. The bare start does not touch npseq, so a slower import
    shows in full. The median of the scaled starts is reported; the first
    pair only warms the caches and is not timed."""

    def start(snippet: str, check: bool) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if check:
            outcome.attempt(proc.returncode == 0 and proc.stdout.strip() == version,
                            f"setup run exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return elapsed

    start("pass", False)
    start(SETUP_SNIPPET, True)
    raw, bare = [], []
    for _ in range(repeats):
        bare.append(start("pass", False))
        raw.append(start(SETUP_SNIPPET, True))
    scaled = [t * BARE_START_REF_S / b for t, b in zip(raw, bare)]
    outcome.add("setup_s", statistics.median(scaled), "s", repeats)
    outcome.record.update(setup_raw_s=raw, setup_bare_s=bare)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "npseq" / "__init__.py").is_file():
        print(f"perfbench: {src / 'npseq'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import npseq

    import climix
    import scans

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    spans_path = OUT_DIR / "spans" / f"{tag}.tsv.gz"
    if args.workload == "cli-mix":
        outcome = climix.run(args.seed, args.seconds, bool(args.trace), args.tiny,
                             args.corrupt_digest, spans_path)
    else:
        outcome = scans.run(args.workload, args.seconds, bool(args.trace), args.tiny,
                            args.corrupt_digest, spans_path)
    if args.trace:
        metrics = {name: (outcome.layers[name], unit, 0) for name, unit in PER_LAYER_UNITS.items()}
    else:
        _measure_setup(outcome, npseq.__version__, 3 if args.tiny else SETUP_REPEATS)
        metrics = {name: outcome.metrics[name] for name in END_TO_END}

    machine = _machine()
    print(f"# npseq benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={machine['nproc']} python={machine['python']} cpu={machine['cpu']}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f" (n={samples})" if samples else ""))
    print(f"fail_frac = {outcome.failed / max(outcome.attempted, 1)!r} "
          f"({outcome.failed} of {outcome.attempted} checks failed)")
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    for key in ("call_ms_by_kind", "stdout_sha256", "report_sha256", "absent",
                "exact_counts_repeat"):
        if key in outcome.record:
            print(f"{key} = {outcome.record[key]}")
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    record = {
        "args": vars(args),
        "machine": machine,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in metrics.items()},
        **outcome.record,
    }
    (OUT_DIR / "runs").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
