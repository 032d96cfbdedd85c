"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the exact per-layer counts repeat and match the values the code implies,
that a corrupted digest is a failure with a non-zero exit, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from outcome import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]

# Exact counts the tiny configs must give. search-p3 (p=3, N=7) has 5 matches
# in 81 candidates; every roundtrip candidate builds one difference multiset;
# a profile makes N-1 values.
EXPECTED_TINY = {
    "search-p3": {"sequence.profile.calls_per_cand": 2, "cyclotomic.values_per_cand": 12,
                  "diffset.difference_multiset.calls_per_cand": 5 / 81,
                  "theory.calls_per_cand": 0},
    "roundtrip-p5": {"sequence.profile.calls_per_cand": 2, "cyclotomic.values_per_cand": 8,
                     "diffset.difference_multiset.calls_per_cand": 1,
                     "theory.calls_per_cand": 0},
    "ell-p7": {"sequence.profile.calls_per_cand": 1, "cyclotomic.values_per_cand": 4,
               "diffset.difference_multiset.calls_per_cand": 0,
               "theory.calls_per_cand": 1},
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(cwd: Path, workload: str, trace: int, *extra: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        traced = []
        for trace, metrics in groups.items():
            code, out = bench(ROOT, name, trace)
            res = result(out)
            expect(code == 0 and res["correct"] and res["failed"] == 0
                   and set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: correct, exit 0")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            expect(got == want, f"{name} trace={trace}: every metric printed with its unit")
            if trace:
                traced.append(res["metrics"])
        code, out = bench(ROOT, name, 1)
        traced.append(result(out)["metrics"])
        expect(all(t[k]["value"] == traced[0][k]["value"] for t in traced for k in EXACT_COUNTS),
               f"{name}: exact counts repeat run to run")
        for key, value in EXPECTED_TINY.get(name, {}).items():
            got = traced[0][key]["value"]
            expect(abs(got - value) < 1e-12, f"{name}: {key} = {got} (expected {value})")

        code, out = bench(ROOT, name, 0, "--corrupt-digest")
        res = result(out)
        expect(code != 0 and not res["correct"] and res["failed"] > 0,
               f"{name}: a corrupted digest fails with exit {code}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench(bare, "ell-p7", 0)
    expect(code != 0 and not out.strip(), f"without src/: exit {code} and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
