"""Instrumentation cost, counted exactly instead of timed.

Every trainer epoch runs through StepTimer/Tracer call sites
unconditionally; the null-object pattern keeps the disabled cost to a
guard check per call.  These tests count, exactly, the Python calls one
epoch of disabled instrumentation makes (via ``sys.setprofile``) and
check it against a fixed bound, and that the disabled path never reads
a clock.  The enabled live plane is held to a per-row call bound the same
way.  All of it is deterministic; the wall-clock costs are measured by
the repository benchmark (``trace.overhead_pct`` of ``bench/run.py``),
not asserted here.
"""

import sys

import numpy as np

from repro.obs.live.monitors import CalibrationMonitor, ScoreDriftMonitor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.timing import STEP_NAMES, StepTimer
from repro.train.registry import make_trainer

#: Python calls (function entries and generator resumes) one disabled
#: epoch may make.  Today's call sites make 102; a disabled path that
#: starts doing real work (formatting, allocation, bookkeeping) exceeds it.
DISABLED_CALL_BUDGET = 118

#: Python calls per resolved row the live plane's collector path may
#: make.  Today it makes 2.2: the two ``observe`` calls plus the drift
#: monitor's chunked ``StreamingPSI`` flush, amortised.  Flushing every
#: row (the unchunked update that once cost ~18% of the serving wall)
#: makes 11.
LIVE_CALLS_PER_ROW_BUDGET = 3.0

#: Clock reads the disabled path must never make.
CLOCKS = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                    "monotonic_ns", "time", "time_ns", "process_time"})


def _disabled_epoch_instrumentation() -> None:
    """Every instrumentation call one trainer epoch makes, all disabled.

    Mirrors the per-epoch call sites of the most instrumented trainer
    (LightMIRM with 3 environments): the epoch bracket, a step context
    per Table III step and environment, the tracer-enabled guard of
    ``_record`` and the ``fit`` span.
    """
    timer = StepTimer(enabled=False)
    tracer = NULL_TRACER
    with timer.epoch():
        for name in STEP_NAMES:
            for _ in range(3):  # once per environment
                with timer.step(name):
                    pass
    if tracer.enabled:  # the _record guard
        raise AssertionError("unreachable")
    with tracer.span("fit"):
        pass


class TestDisabledOverhead:
    def test_null_objects_are_shared(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")
        assert NULL_TRACER.enabled is False

    def test_disabled_instrumentation_under_budget(self):
        """One disabled epoch stays within the call budget, clock-free."""
        _disabled_epoch_instrumentation()  # first-use imports happen here
        python_calls, c_calls = [], []

        def profile(frame, event, arg):
            if event == "call":
                python_calls.append(frame.f_code.co_name)
            elif event == "c_call":
                c_calls.append(arg.__name__)

        sys.setprofile(profile)
        try:
            _disabled_epoch_instrumentation()
        finally:
            sys.setprofile(None)
        # The first entry is the instrumented epoch function itself.
        assert python_calls[0] == "_disabled_epoch_instrumentation"
        n_calls = len(python_calls) - 1
        assert n_calls <= DISABLED_CALL_BUDGET, (
            f"disabled instrumentation made {n_calls} Python calls per "
            f"epoch (budget {DISABLED_CALL_BUDGET}): "
            f"{sorted(set(python_calls))}"
        )
        assert not CLOCKS.intersection(c_calls), c_calls

    def test_fit_results_identical_with_null_tracer(self, train_envs):
        """Passing NULL_TRACER explicitly is the same as passing nothing."""
        a = make_trainer("ERM", n_epochs=5, seed=0).fit(train_envs)
        b = make_trainer("ERM", n_epochs=5, seed=0).fit(
            train_envs, tracer=NULL_TRACER
        )
        np.testing.assert_array_equal(a.theta, b.theta)


class TestLiveOverhead:
    def test_live_resolve_path_under_budget(self):
        """Per resolved row, the enabled live plane's monitor calls stay
        within a fixed Python-call budget."""
        baseline = np.random.default_rng(0).random(2_000)
        drift = ScoreDriftMonitor(baseline, window_rows=500)
        calibration = CalibrationMonitor(float(baseline.mean()))
        scores = [float(s) for s in baseline]
        python_calls = []

        def profile(frame, event, arg):
            if event == "call":
                python_calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for score in scores:  # the collector's per-row resolve calls
                drift.observe(score)
                calibration.observe(score)
        finally:
            sys.setprofile(None)
        per_row = len(python_calls) / len(scores)
        assert per_row <= LIVE_CALLS_PER_ROW_BUDGET, (
            f"live plane made {per_row:.2f} Python calls per row "
            f"(budget {LIVE_CALLS_PER_ROW_BUDGET})"
        )
