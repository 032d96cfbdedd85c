"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from benchmark code: each wrapped name is a public
function of an npseq module, replaced in the namespace where its caller looks
it up (for example ``npseq.search.profile`` is the call made by the scan loop,
``npseq.sequence.profile`` the one made inside ``classify_nps``). Nothing
under ``src/`` is edited. A span is (name, start, end, parent); the layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (module the caller resolves the name in, attribute, span name)
TARGETS = (
    # the scan entry points, as the benchmark and the CLI call them
    ("npseq.search", "enumerate_and_classify", "search.enumerate_and_classify"),
    ("npseq.search", "verify_nps_pdpds_equivalence", "search.verify_nps_pdpds_equivalence"),
    ("npseq.search", "verify_ell_bounds", "search.verify_ell_bounds"),
    ("npseq.search", "report_to_json", "search.report_to_json"),
    ("npseq.search", "report_to_csv", "search.report_to_csv"),
    # calls made by the scan loops
    ("npseq.search", "profile", "sequence.profile"),
    ("npseq.search", "classify_nps", "sequence.classify_nps"),
    ("npseq.search", "build_ra", "diffset.build_ra"),
    ("npseq.search", "classify_pdpds", "diffset.classify_pdpds"),
    ("npseq.search", "expected_pdpds_params", "diffset.expected_pdpds_params"),
    ("npseq.search", "ell_bounds", "theory.ell_bounds"),
    # calls made inside the library modules
    ("npseq.sequence", "profile", "sequence.profile"),
    ("npseq.sequence", "CyclotomicInt", "cyclotomic.CyclotomicInt"),
    ("npseq.diffset", "difference_multiset", "diffset.difference_multiset"),
    # calls made by the CLI handlers
    ("npseq.cli", "parse_sequence", "sequence.parse_sequence"),
    ("npseq.cli", "profile", "sequence.profile"),
    ("npseq.cli", "classify_nps", "sequence.classify_nps"),
    ("npseq.cli", "two_valued_set", "sequence.two_valued_set"),
    ("npseq.cli", "parse_subset", "diffset.parse_subset"),
    ("npseq.cli", "build_ra", "diffset.build_ra"),
    ("npseq.cli", "classify_pdpds", "diffset.classify_pdpds"),
    ("npseq.cli", "expected_pdpds_params", "diffset.expected_pdpds_params"),
    ("npseq.cli", "group_ring_residual", "diffset.group_ring_residual"),
    ("npseq.cli", "residual_is_zero", "diffset.residual_is_zero"),
    ("npseq.cli", "nonexistence_verdict", "theory.nonexistence_verdict"),
    ("npseq.cli", "generate_bound_table", "theory.generate_bound_table"),
    ("npseq.cli", "pdpds_counting_identity", "theory.pdpds_counting_identity"),
    ("npseq.cli", "second_component_counts", "theory.second_component_counts"),
    ("npseq.cli", "second_component_identities", "theory.second_component_identities"),
    ("npseq.cli", "table_to_csv", "theory.table_to_csv"),
    ("npseq.cli", "table_to_json", "theory.table_to_json"),
)


class SpanRecorder:
    """Columnar span store; ``wrap`` returns a function that records one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def clear(self) -> None:
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        del self._stack[1:]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns and self ns; plus the root total.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans partition the root spans.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        root_ns = 0
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
            else:
                root_ns += dur[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            total[nid] += dur[i]
            self_ns[nid] += dur[i] - child[i]
        by_name = {
            name: {"calls": calls[i], "ns": total[i], "self_ns": self_ns[i]}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        return {"root_ns": root_ns, "spans": by_name}

    def write(self, path: Path) -> None:
        """Write every span as `name<TAB>parent<TAB>start_ns<TAB>end_ns`, gzip'd."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"fields": ["name", "parent", "start_ns", "end_ns"]}) + "\n")
            names = self.names
            f.writelines(
                f"{names[n]}\t{p}\t{s}\t{e}\n"
                for n, p, s, e in zip(self.name_id, self.parent, self.start, self.end)
            )


@contextmanager
def installed(recorder: SpanRecorder):
    """Replace every target with its traced wrapper; restore on exit.

    Yields the list of targets that no longer exist, so a name a later change
    removes is reported as absent instead of failing the run.
    """
    saved = []
    absent = []
    try:
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            if not hasattr(module, attr):
                absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(summary: dict, units: int) -> dict[str, float]:
    """The per-layer figures of one traced pass; `units` is candidates (or CLI calls)."""
    spans = summary["spans"]
    root_ns = summary["root_ns"] or 1

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def per_call_us(name: str, key: str) -> float:
        n = calls(name)
        return spans[name][key] / n / 1e3 if n else 0.0

    layer_self: dict[str, int] = {}
    layer_calls: dict[str, int] = {}
    for name, s in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + s["self_ns"]
        layer_calls[layer] = layer_calls.get(layer, 0) + s["calls"]

    def self_frac(layer: str) -> float:
        return layer_self.get(layer, 0) / root_ns

    return {
        "sequence.profile.calls_per_cand": calls("sequence.profile") / units,
        "sequence.profile.us_per_call": per_call_us("sequence.profile", "ns"),
        "sequence.self_frac": self_frac("sequence"),
        "sequence.classify_nps.self_us_per_call": per_call_us("sequence.classify_nps", "self_ns"),
        "cyclotomic.values_per_cand": calls("cyclotomic.CyclotomicInt") / units,
        "cyclotomic.self_frac": self_frac("cyclotomic"),
        "diffset.difference_multiset.calls_per_cand": calls("diffset.difference_multiset") / units,
        "diffset.difference_multiset.us_per_call": per_call_us("diffset.difference_multiset", "ns"),
        "diffset.self_frac": self_frac("diffset"),
        "theory.calls_per_cand": layer_calls.get("theory", 0) / units,
        "theory.self_frac": self_frac("theory"),
        "search.self_frac": self_frac("search"),
        "cli.self_ms_per_call": layer_self.get("cli", 0) / 1e6 / units if "cli.main" in spans else 0.0,
    }
