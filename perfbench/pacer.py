"""Machine-speed normalisation for a shared, noisy host.

On a small shared machine the speed of the CPUs this process gets drifts by
±20% over tens of seconds (neighbours, not the program), and the drift is
much the same for all pure-Python work. So a fixed probe that does not use
npseq runs before the first step and after every step of a measurement, and
each step's time is scaled by UNIT_REF_S / (mean probe-unit time on either
side). A reported time is thus the time the step would take on a machine
where a probe unit takes UNIT_REF_S; the raw times are kept in the run
record. A step that keeps several cores busy is probed on as many cores at
once, since its time depends on the slowest of them.
"""

from __future__ import annotations

import multiprocessing
import time

UNIT_REF_S = 0.01  # one probe unit's time on the reference machine


def _probe_unit() -> int:
    """Fixed interpreter-bound work shaped like the correlation kernel:
    modular difference counts over every shift, tuples and a dict."""
    seq = [(i * 7 + 3) % 5 for i in range(40)]
    seen: dict[tuple[int, ...], int] = {}
    for _ in range(40):
        for t in range(1, 40):
            counts = [0] * 5
            for i in range(40):
                counts[(seq[i] - seq[(i + t) % 40]) % 5] += 1
            key = tuple(counts)
            seen[key] = seen.get(key, 0) + 1
    return len(seen)


def _run_units(units: int) -> float:
    t0 = time.perf_counter()
    for _ in range(units):
        _probe_unit()
    return time.perf_counter() - t0


def _helper(conn, parent_end) -> None:
    """Probe on another core: run the units asked for, answer with the time.
    Stops on None, or when the parent has gone and the pipe is closed."""
    parent_end.close()
    try:
        while (units := conn.recv()) is not None:
            conn.send(_run_units(units))
    except EOFError:
        pass


class Pacer:
    """Probe before the first step and after each `mark(step_s)`.

    A probe runs back-to-back probe units for about PROBE_SHARE of the step
    before it (at least MIN_UNITS): the speed a probe sees must stand for the
    whole step, so longer steps get longer probes. With `width` > 1 the probe
    also runs in width - 1 helper processes at the same time; use it as a
    context manager so they are stopped."""

    PROBE_SHARE = 0.1
    MIN_UNITS = 4

    def __init__(self, width: int = 1) -> None:
        # fork, not spawn: this process runs no threads, and spawn would also
        # start multiprocessing's resource tracker, which outlives the run.
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(width - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs, ours), daemon=True)
            proc.start()
            theirs.close()
            self._helpers.append((proc, ours))
        self.probes = [self._probe(self.MIN_UNITS)]  # seconds per unit

    def __enter__(self) -> Pacer:
        return self

    def __exit__(self, *exc) -> None:
        for proc, conn in self._helpers:
            conn.send(None)
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def _probe(self, units: int) -> float:
        for _, conn in self._helpers:
            conn.send(units)
        elapsed = _run_units(units)
        for _, conn in self._helpers:
            elapsed = max(elapsed, conn.recv())
        return elapsed / units

    def mark(self, step_s: float) -> None:
        units = max(self.MIN_UNITS, round(self.PROBE_SHARE * step_s / self.probes[-1]))
        self.probes.append(self._probe(units))

    def scale(self, step: int) -> float:
        """Factor that turns step `step`'s raw time into reference time."""
        return UNIT_REF_S / ((self.probes[step] + self.probes[step + 1]) / 2)

    def normalise(self, times: list[float]) -> list[float]:
        return [t * self.scale(i) for i, t in enumerate(times)]
