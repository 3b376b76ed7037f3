"""Measurement helpers shared by every workload.

Everything here measures from outside the program: the ledger times calls
into ``repro`` modules, the RSS probe reads ``/proc``, and quantiles are
computed from raw per-request samples, never from histogram buckets.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Percentiles the tail search walks down, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

#: Samples a reported percentile must have beyond it.
MIN_TAIL_SAMPLES = 10

#: Source string recorded next to every peak-RSS figure.
RSS_SOURCE = "VmHWM after /proc/<pid>/clear_refs reset (Linux)"


def quantile_ms(seconds, q: float) -> float:
    """Exact ``q``-th percentile of raw samples, in ms (NaN for none).

    ``inverted_cdf`` returns an observed sample, never an interpolation
    between two of them.
    """
    if len(seconds) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(seconds), q,
                               method="inverted_cdf")) * 1e3


def tail_percentile(n_samples: int) -> float:
    """Highest percentile of :data:`TAIL_PERCENTILES` that keeps at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it (the median for tiny runs)."""
    for q in TAIL_PERCENTILES:
        if n_samples * (1.0 - q / 100.0) >= MIN_TAIL_SAMPLES:
            return q
    return 50.0


def median(values) -> float:
    return float(statistics.median(values))


# --------------------------------------------------------------- peak RSS


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


class PeakRSS:
    """Peak resident memory of this process (and its workers) over a window.

    :meth:`reset` writes ``5`` to each process's ``clear_refs``, which sets
    ``VmHWM`` back to the current RSS, so the peak belongs to the window and
    not to whatever the process did before it.  A forked worker's RSS
    starts out as pages it shares copy-on-write with this process; only its
    growth over that baseline is added, so shared pages count once.
    """

    def __init__(self) -> None:
        self._worker_base_kb: dict[int, int] = {}

    def reset(self, worker_pids=()) -> None:
        self._worker_base_kb = {}
        for pid in ("self", *worker_pids):
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
            if pid != "self":
                self._worker_base_kb[pid] = _status_kb(pid, "VmHWM")

    def read_mb(self) -> float:
        """Peak MB since :meth:`reset` (read before workers exit)."""
        kb = _status_kb("self", "VmHWM")
        for pid, base in self._worker_base_kb.items():
            kb += max(0, _status_kb(pid, "VmHWM") - base)
        return kb / 1024.0


# ----------------------------------------------------------------- ledger


class Ledger:
    """Named layer timings taken around calls into the program.

    Always accumulates seconds per name; with a
    :class:`repro.obs.tracer.Tracer` attached, every region also becomes a
    run-log span of the same name, and the time spent inside the tracer
    is added to :attr:`overhead_s` so the traced run reports its own cost.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str, **fields):
        if self.tracer is None:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)
            return
        entered = time.perf_counter()
        with self.tracer.span(name, **fields):
            start = time.perf_counter()
            try:
                yield
            finally:
                stop = time.perf_counter()
                self.add(name, stop - start)
        self.overhead_s += (start - entered) + (time.perf_counter() - stop)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds

    def record(self, name: str, seconds: float, **fields) -> None:
        """Trace a region timed elsewhere (ends now); not added to totals."""
        if self.tracer is None:
            return
        start = time.perf_counter()
        self.tracer.record_span(name, seconds, **fields)
        self.overhead_s += time.perf_counter() - start

    def take(self) -> dict[str, float]:
        """Seconds per name since the last call, then reset the totals."""
        taken = dict(self.seconds)
        self.seconds.clear()
        return taken


def write_trace(tracer, path) -> None:
    """Write an in-memory run log to ``path`` in one go, at exit."""
    import pathlib

    from repro.obs.runlog import RunLogWriter

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with RunLogWriter(path) as writer:
        for record in tracer.records:
            writer.write(record)


# ----------------------------------------------------------------- result


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The result object, printed as the last line of stdout."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
