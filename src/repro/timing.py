"""Step-level wall-clock instrumentation for Table III / Fig 7.

The paper profiles five operation steps of each training algorithm (loading
data, transforming the format, inner optimization, calculating the
meta-losses, backward propagation) and reports per-step and whole-epoch
times.  :class:`StepTimer` is threaded through every trainer so the same
steps can be measured on our substrate; its Table III column is
:meth:`repro.obs.report.TimingTable.from_timer`, the same view a traced
run log yields.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["StepTimer", "StepStats", "STEP_NAMES", "Measurement", "measure"]

#: Canonical step names, in Table III row order.
STEP_NAMES = (
    "loading_data",
    "transforming_format",
    "inner_optimization",
    "calculating_meta_losses",
    "backward_propagation",
)


@dataclass
class StepStats:
    """Accumulated wall time and invocation count of one step."""

    total_seconds: float = 0.0
    count: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class StepTimer:
    """Accumulates per-step wall-clock time across a training run.

    Usage inside a trainer::

        with timer.step("inner_optimization"):
            ...

    A disabled timer (``enabled=False``) keeps the same interface with
    near-zero overhead, so trainers always call it unconditionally.

    The optional ``on_step``/``on_epoch`` hooks mirror measurements into
    an external sink without the timer knowing about it — this is how a
    :class:`~repro.obs.tracer.Tracer` turns timer steps into run-log
    spans (``tracer.attach_timer(timer)``).
    """

    enabled: bool = True
    stats: dict[str, StepStats] = field(default_factory=dict)
    _epoch_start: float | None = None
    epoch_seconds: list[float] = field(default_factory=list)
    #: Called with ``(step_name, elapsed_seconds)`` after every step.
    on_step: Callable[[str, float], None] | None = None
    #: Called with ``(elapsed_seconds)`` after every completed epoch.
    on_epoch: Callable[[float], None] | None = None

    @contextmanager
    def step(self, name: str):
        """Time one occurrence of a named step."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            entry = self.stats.setdefault(name, StepStats())
            entry.total_seconds += elapsed
            entry.count += 1
            if self.on_step is not None:
                self.on_step(name, elapsed)

    def begin_epoch(self) -> None:
        """Mark the start of an epoch (for whole-epoch timing)."""
        if self.enabled:
            self._epoch_start = time.perf_counter()

    def end_epoch(self) -> None:
        """Mark the end of an epoch."""
        if self.enabled and self._epoch_start is not None:
            elapsed = time.perf_counter() - self._epoch_start
            self.epoch_seconds.append(elapsed)
            self._epoch_start = None
            if self.on_epoch is not None:
                self.on_epoch(elapsed)

    @contextmanager
    def epoch(self):
        """Context-manager form of :meth:`begin_epoch`/:meth:`end_epoch`."""
        self.begin_epoch()
        try:
            yield
        finally:
            self.end_epoch()

    @property
    def n_epochs(self) -> int:
        """Number of completed (begin/end-bracketed) epochs."""
        return len(self.epoch_seconds)

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.epoch_seconds:
            # Epoch bookkeeping was never entered (a trainer timed steps
            # but no epochs): estimate one epoch as the sum of per-step
            # means instead of silently reporting zero.
            return sum(s.mean_seconds for s in self.stats.values())
        return sum(self.epoch_seconds) / len(self.epoch_seconds)

    def mean_step_seconds(self, name: str) -> float:
        """Mean seconds per invocation of a step (0 if never hit)."""
        entry = self.stats.get(name)
        return entry.mean_seconds if entry else 0.0

    def total_step_seconds(self, name: str) -> float:
        """Total seconds spent in a step."""
        entry = self.stats.get(name)
        return entry.total_seconds if entry else 0.0


@dataclass(frozen=True)
class Measurement:
    """Repeated wall-clock timings of one callable.

    Attributes:
        seconds: Per-repeat wall times, in run order (warmup excluded).
    """

    seconds: tuple[float, ...]

    @property
    def median_seconds(self) -> float:
        """Median of the repeats — robust to scheduler noise."""
        return statistics.median(self.seconds)

    @property
    def repeats(self) -> int:
        return len(self.seconds)


def measure(fn: Callable[[], object], repeats: int = 5,
            warmup: int = 1) -> Measurement:
    """Time ``fn()`` ``repeats`` times after ``warmup`` discarded calls.

    The perf microbenchmarks report :attr:`Measurement.median_seconds`
    (median-of-k) so one preempted run cannot skew a tracked number.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return Measurement(seconds=tuple(seconds))
