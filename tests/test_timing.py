"""Unit tests for the step timer."""

import time

import pytest

from repro.experiments.table3_timing import step_proportions
from repro.obs.report import TimingTable
from repro.timing import STEP_NAMES, StepStats, StepTimer


class TestStepTimer:
    def test_accumulates_time_and_count(self):
        timer = StepTimer(enabled=True)
        for _ in range(3):
            with timer.step("work"):
                time.sleep(0.002)
        stats = timer.stats["work"]
        assert stats.count == 3
        assert stats.total_seconds >= 0.006
        assert stats.mean_seconds == pytest.approx(
            stats.total_seconds / 3
        )

    def test_disabled_timer_records_nothing(self):
        timer = StepTimer(enabled=False)
        with timer.step("work"):
            pass
        timer.begin_epoch()
        timer.end_epoch()
        assert timer.stats == {}
        assert timer.epoch_seconds == []

    def test_records_on_exception(self):
        timer = StepTimer(enabled=True)
        with pytest.raises(RuntimeError):
            with timer.step("boom"):
                raise RuntimeError("x")
        assert timer.stats["boom"].count == 1

    def test_epoch_timing(self):
        timer = StepTimer(enabled=True)
        for _ in range(2):
            timer.begin_epoch()
            time.sleep(0.002)
            timer.end_epoch()
        assert len(timer.epoch_seconds) == 2
        assert timer.mean_epoch_seconds >= 0.002

    def test_end_epoch_without_begin_is_noop(self):
        timer = StepTimer(enabled=True)
        timer.end_epoch()
        assert timer.epoch_seconds == []

    def test_proportions_sum_to_one(self):
        timer = StepTimer(enabled=True)
        with timer.step("inner_optimization"):
            time.sleep(0.002)
        with timer.step("backward_propagation"):
            time.sleep(0.002)
        proportions = step_proportions(TimingTable.from_timer("m", timer, 1))
        assert sum(proportions.values()) == pytest.approx(1.0)

    def test_proportions_empty(self):
        table = TimingTable.from_timer("m", StepTimer(enabled=True), 1)
        assert step_proportions(table) == dict.fromkeys(STEP_NAMES, 0.0)

    def test_missing_step_reads_zero(self):
        timer = StepTimer(enabled=True)
        assert timer.mean_step_seconds("absent") == 0.0
        assert timer.total_step_seconds("absent") == 0.0

    def test_table_row_uses_canonical_names(self):
        table = TimingTable.from_timer("m", StepTimer(enabled=True), 1)
        assert tuple(table.mean_step_seconds) == STEP_NAMES


class TestStepTimerHooks:
    def test_on_step_fires_with_name_and_elapsed(self):
        seen = []
        timer = StepTimer(enabled=True)
        timer.on_step = lambda name, elapsed: seen.append((name, elapsed))
        with timer.step("inner_optimization"):
            time.sleep(0.001)
        assert len(seen) == 1
        name, elapsed = seen[0]
        assert name == "inner_optimization"
        assert elapsed >= 0.001
        assert elapsed == pytest.approx(
            timer.stats["inner_optimization"].total_seconds
        )

    def test_on_step_fires_even_on_exception(self):
        seen = []
        timer = StepTimer(enabled=True)
        timer.on_step = lambda name, elapsed: seen.append(name)
        with pytest.raises(ValueError):
            with timer.step("boom"):
                raise ValueError("x")
        assert seen == ["boom"]

    def test_on_epoch_fires_per_completed_epoch(self):
        seen = []
        timer = StepTimer(enabled=True)
        timer.on_epoch = seen.append
        for _ in range(2):
            with timer.epoch():
                time.sleep(0.001)
        assert len(seen) == 2
        assert seen == timer.epoch_seconds

    def test_disabled_timer_never_fires_hooks(self):
        timer = StepTimer(enabled=False)
        timer.on_step = lambda *a: pytest.fail("on_step fired while disabled")
        timer.on_epoch = lambda *a: pytest.fail("on_epoch fired while disabled")
        with timer.step("work"):
            pass
        with timer.epoch():
            pass
        assert timer.stats == {}
        assert timer.epoch_seconds == []


class TestEpochBookkeeping:
    def test_epoch_contextmanager_records_on_exception(self):
        timer = StepTimer(enabled=True)
        with pytest.raises(RuntimeError):
            with timer.epoch():
                raise RuntimeError("x")
        assert timer.n_epochs == 1

    def test_n_epochs_counts_completed_epochs(self):
        timer = StepTimer(enabled=True)
        assert timer.n_epochs == 0
        for _ in range(3):
            with timer.epoch():
                pass
        assert timer.n_epochs == 3

    def test_no_epoch_fallback_sums_per_step_means(self):
        # Steps timed but epochs never bracketed: mean_epoch_seconds must
        # estimate one epoch from the per-step means, not report zero.
        timer = StepTimer(enabled=True)
        timer.stats["a"] = StepStats(total_seconds=4.0, count=2)
        timer.stats["b"] = StepStats(total_seconds=3.0, count=3)
        assert timer.epoch_seconds == []
        assert timer.mean_epoch_seconds == pytest.approx(2.0 + 1.0)

    def test_empty_timer_mean_epoch_is_zero(self):
        assert StepTimer(enabled=True).mean_epoch_seconds == 0.0


class TestStepStats:
    def test_zero_count_mean(self):
        assert StepStats().mean_seconds == 0.0
