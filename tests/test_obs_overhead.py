"""Disabled instrumentation must stay a handful of guard checks per epoch.

Every trainer epoch runs through StepTimer/Tracer call sites
unconditionally; the null-object pattern keeps the disabled cost to a
guard check per call.  This test counts, exactly, the Python calls one
epoch of disabled instrumentation makes (via ``sys.setprofile``) and
checks it against a fixed bound, and that the disabled path never reads
a clock.  Both are deterministic; the wall-clock cost of tracing is
measured by the benchmark (``trace.overhead_pct``), not asserted here.
"""

import sys

from repro.obs.profile import active
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.timing import STEP_NAMES, StepTimer
from repro.train.registry import make_trainer

#: Python calls (function entries and generator resumes) one disabled
#: epoch may make.  Today's call sites make 112; a disabled path that
#: starts doing real work (formatting, allocation, bookkeeping) exceeds it.
DISABLED_CALL_BUDGET = 128

#: Clock reads the disabled path must never make.
CLOCKS = frozenset({"perf_counter", "perf_counter_ns", "monotonic",
                    "monotonic_ns", "time", "time_ns", "process_time"})


def _disabled_epoch_instrumentation() -> None:
    """Every instrumentation call one trainer epoch makes, all disabled.

    Mirrors the per-epoch call sites of the most instrumented trainer
    (LightMIRM with 3 environments): the epoch bracket, a step context
    per Table III step and environment, the tracer-enabled guard of
    ``_record`` and the hot-path profiler gate.
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
    for _ in range(10):  # hot-path profiler gates (histogram builds etc.)
        if active() is not None:
            raise AssertionError("unreachable")


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
        import numpy as np

        a = make_trainer("ERM", n_epochs=5, seed=0).fit(train_envs)
        b = make_trainer("ERM", n_epochs=5, seed=0).fit(
            train_envs, tracer=NULL_TRACER
        )
        np.testing.assert_array_equal(a.theta, b.theta)
