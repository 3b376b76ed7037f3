"""Fault injection against the multi-worker scoring front-end.

Every failure mode a production scorer must survive, injected
deterministically: a worker killed mid-batch, under load or partway
through writing an answer (in-flight requests requeue, never hang), a
worker that dies before its handshake (``start`` fails at once), a poison
request among clean ones (refused at admission, so its blast radius is
exactly that request), and queue overflow (backpressure sheds with an
explicit Overloaded result, never silently).
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.streaming import StreamingPSI
from repro.serve.degradation import DriftGuard
from repro.serve.frontend import (
    _POLL_TIMEOUT_S,
    ERROR,
    OK,
    OVERLOADED,
    FrontendConfig,
    ScoringFrontend,
    _resolve_batch,
)
from repro.serve.service import ScoringService
from repro.serve.telemetry import FrontendTelemetry


def _start(model, **overrides) -> ScoringFrontend:
    config = FrontendConfig(**{"n_workers": 2, "max_batch_size": 16,
                               **overrides})
    return ScoringFrontend(model, config).start()


def _settle(frontend: ScoringFrontend) -> None:
    """Give the paused workers time to read their control messages."""
    time.sleep(10 * _POLL_TIMEOUT_S)


class _StalledTelemetry(FrontendTelemetry):
    """Holds the collector inside its first resolution until ``release``.

    While it waits, nothing reads the workers' pipes.
    """

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def record_request(self, seconds: float) -> None:
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(60)
        super().record_request(seconds)


class TestWorkerDeath:
    def test_kill_worker_mid_batch_requeues_to_survivors(
            self, scoring_model, request_rows):
        reference = scoring_model.predict_proba(request_rows)
        frontend = _start(scoring_model, n_workers=2)
        try:
            # Freeze consumption so both workers provably hold queued
            # requests, then kill one mid-flight.
            frontend.pause_workers()
            _settle(frontend)
            tickets = [frontend.submit(row) for row in request_rows]
            victim = frontend.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            frontend.resume_workers()
            results = [t.result(timeout=60) for t in tickets]
        finally:
            frontend.stop()

        # Requeue path: every request still resolves, bit-identically.
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]), reference
        )
        snap = frontend.telemetry.snapshot()
        assert snap["worker_deaths"] >= 1
        assert snap["requeued"] >= 1

    def test_kill_sole_worker_respawns_and_recovers(self, scoring_model,
                                                    request_rows):
        rows = request_rows[:60]
        frontend = _start(scoring_model, n_workers=1)
        try:
            frontend.pause_workers()
            _settle(frontend)
            tickets = [frontend.submit(row) for row in rows]
            os.kill(frontend.worker_pids[0], signal.SIGKILL)
            # The replacement starts unpaused, so no resume is needed:
            # recovery must not depend on operator action.
            results = [t.result(timeout=60) for t in tickets]
        finally:
            frontend.stop()
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(rows),
        )
        assert frontend.telemetry.worker_deaths >= 1

    def test_death_under_load_is_reaped_at_once(self, scoring_model,
                                                 request_rows):
        """A survivor that never stops answering does not delay the reap:
        four closed-loop submitters keep one of two workers busy while the
        other is killed holding 20 of 40 admitted requests."""
        rows = request_rows[:40]
        frontend = _start(scoring_model, n_workers=2)
        done = threading.Event()
        failures: list = []

        def closed_loop(offset: int) -> None:
            index = offset
            while not done.is_set():
                result = frontend.submit(
                    request_rows[index % len(request_rows)]).result(60)
                if not result.ok:
                    failures.append(result)
                index += 4

        submitters = [threading.Thread(target=closed_loop, args=(k,))
                      for k in range(4)]
        try:
            frontend.pause_workers()
            _settle(frontend)
            tickets = [frontend.submit(row) for row in rows]
            for thread in submitters:
                thread.start()
            os.kill(frontend.worker_pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 1.0
            frontend.resume_workers()
            results = [t.result(timeout=max(0.0, deadline - time.monotonic()))
                       for t in tickets]
            deaths = frontend.telemetry.worker_deaths
        finally:
            done.set()
            for thread in submitters:
                thread.join(timeout=60)
            frontend.stop()
        assert not any(thread.is_alive() for thread in submitters)
        assert deaths == 1
        assert failures == []
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(rows),
        )

    def test_kill_partway_through_a_large_answer(self, scoring_model,
                                                 request_rows):
        """The worker dies blocked in the write of an answer larger than
        its pipe holds: the truncated answer is dropped with the pipe and
        every request it held is requeued onto the replacement."""
        # ~19 bytes per answered request: far past the ~210 kB a Unix
        # socket pair buffers while the collector reads nothing.
        n = 16_000
        indices = np.arange(n) % len(request_rows)
        telemetry = _StalledTelemetry()
        frontend = ScoringFrontend(
            scoring_model,
            FrontendConfig(n_workers=1, max_batch_size=n, max_queue=n + 1),
            telemetry=telemetry,
        ).start()
        try:
            first = frontend.submit(request_rows[0])
            assert telemetry.entered.wait(60)
            frontend.pause_workers()
            _settle(frontend)
            tickets = [frontend.submit(request_rows[i]) for i in indices]
            frontend.resume_workers()
            worker = frontend._workers[0]
            assert worker.conn.poll(60)  # its answer has begun
            time.sleep(0.5)  # ...and stalled once the socket is full
            os.kill(worker.process.pid, signal.SIGKILL)
            telemetry.release.set()
            results = [t.result(timeout=60) for t in tickets]
        finally:
            telemetry.release.set()
            frontend.stop()
        assert first.result(timeout=0).ok
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(request_rows)[indices],
        )
        snap = telemetry.snapshot()
        assert snap["worker_deaths"] == 1
        assert snap["requeued"] >= 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the crash is monkeypatched into a forked "
                               "worker")
    def test_a_worker_dead_before_ready_fails_start_at_once(
            self, scoring_model, monkeypatch):
        def crash(spec):
            os._exit(3)

        monkeypatch.setattr("repro.serve.frontend.attach_model", crash)
        frontend = ScoringFrontend(scoring_model, FrontendConfig(n_workers=2))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"\(code 3\) before it was "
                                               r"ready"):
            frontend.start()
        assert time.monotonic() - started < 10.0
        assert frontend._publisher.generations == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="scans /proc")
    def test_exit_without_stop_leaves_no_worker(self, tmp_path,
                                                fitted_pipeline):
        """An interpreter that exits with a running frontend stops it
        first: the workers exiting at shutdown are not reaped as deaths
        and respawned into orphans."""
        from repro.serve.registry import ModelRegistry

        ModelRegistry(tmp_path / "registry").save(fitted_pipeline,
                                                  slot="champion")
        script = tmp_path / "serve_and_exit.py"
        script.write_text(
            "import sys\n"
            "from repro.serve.frontend import FrontendConfig, "
            "ScoringFrontend\n"
            "from repro.serve.registry import ModelRegistry\n"
            "model = ModelRegistry(sys.argv[1]).load('champion')\n"
            "ScoringFrontend(model, FrontendConfig(n_workers=2)).start()\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        subprocess.run(
            [sys.executable, str(script), str(tmp_path / "registry")],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            check=True, timeout=120,
        )

        def survivors() -> list[str]:
            found = []
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
                        if str(script).encode() in cmdline.read():
                            found.append(pid)
                except OSError:  # exited meanwhile
                    pass
            return found

        deadline = time.monotonic() + 5.0
        while survivors() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = survivors()
        for pid in left:
            os.kill(int(pid), signal.SIGKILL)
        assert left == []


#: One drained request: (generation, pool row index).  Generation 2 is
#: never loaded.
_REQUEST = st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 299))


class TestResolveBatch:
    """The worker's drained batch, resolved in process on real services."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(requests=st.lists(_REQUEST, min_size=1, max_size=40))
    def test_generations_order_and_one_call_per_group(
            self, requests, scoring_model, scoring_model_alt, request_rows):
        models = {0: scoring_model, 1: scoring_model_alt}
        services = {g: ScoringService(m) for g, m in models.items()}
        batch = [(1000 + 7 * i, request_rows[index], generation)
                 for i, (generation, index) in enumerate(requests)]

        responses = _resolve_batch(services, batch)

        assert [r[0] for r in responses] == [req_id for req_id, _, __ in batch]
        for (req_id, row, generation), response in zip(batch, responses):
            _, status, value, got_generation = response
            assert got_generation == generation
            if generation not in models:
                assert status == ERROR and "not loaded" in value
            else:
                assert status == OK
                assert value == models[generation].predict_proba(
                    row[None])[0]
        drained = {generation for _, __, generation in batch}
        for generation, service in services.items():
            assert service.telemetry.batches == int(generation in drained)

    def test_a_raising_call_fails_its_whole_group_as_one(
            self, scoring_model, scoring_model_alt, request_rows):
        # A NaN row that bypasses admission makes its group's one
        # score_batch call raise; the other group scores untouched.
        poison = request_rows[2].copy()
        poison[5] = np.nan
        services = {0: ScoringService(scoring_model),
                    1: ScoringService(scoring_model_alt)}
        calls = {0: 0, 1: 0}
        for generation, service in services.items():
            def counted(rows, _score=service.score_batch, _g=generation):
                calls[_g] += 1
                return _score(rows)
            service.score_batch = counted
        batch = [(10, request_rows[0], 0), (11, request_rows[1], 1),
                 (12, poison, 0), (13, request_rows[3], 1),
                 (14, request_rows[4], 0)]

        responses = _resolve_batch(services, batch)

        assert calls == {0: 1, 1: 1}
        assert [r[0] for r in responses] == [10, 11, 12, 13, 14]
        for req_id, status, value, generation in responses:
            if generation == 0:
                assert status == ERROR
                assert value.startswith("scoring failed:")
                assert "finite" in value
            else:
                assert status == OK
        assert [r[2] for r in responses if r[3] == 1] == list(
            scoring_model_alt.predict_proba(request_rows[[1, 3]]))


#: One submitted row: (kind, pool row index, column).  A non-finite kind
#: writes that value into the column; "short"/"long" change the width.
_NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
_SUBMISSION = st.tuples(
    st.sampled_from(["clean", "clean", "clean", "nan", "inf", "-inf",
                     "short", "long"]),
    st.integers(0, 299),
    st.integers(0, 1000),
)


def _submitted_row(pool_row: np.ndarray, kind: str,
                   column: int) -> np.ndarray:
    width = pool_row.shape[0]
    if kind == "short":
        return pool_row[:column % width]
    if kind == "long":
        return np.concatenate([pool_row, pool_row[:1 + column % 3]])
    row = pool_row.copy()
    if kind in _NON_FINITE:
        row[column % width] = _NON_FINITE[kind]
    return row


class TestAdmission:
    """Input is checked once, in ``submit``: no malformed row gets past."""

    def test_malformed_rows_are_refused_at_once(self, scoring_model,
                                                request_rows):
        guard = DriftGuard(StreamingPSI.from_baseline(request_rows,
                                                      n_bins=10))
        frontend = ScoringFrontend(
            scoring_model,
            FrontendConfig(n_workers=1, max_batch_size=64,
                           max_queue=100_000),
            drift_guard=guard,
        ).start()
        clean_tickets: list = []
        clean_rows: list[int] = []
        try:
            frontend.pause_workers()
            _settle(frontend)

            @settings(max_examples=40, deadline=None, derandomize=True)
            @given(submissions=st.lists(_SUBMISSION, min_size=1,
                                        max_size=30))
            def admit(submissions):
                for kind, index, column in submissions:
                    row = _submitted_row(request_rows[index], kind, column)
                    refused = frontend.telemetry.refused
                    ticket = frontend.submit(row)
                    if kind == "clean":
                        # The paused worker holds every admitted row.
                        assert not ticket.done
                        clean_tickets.append(ticket)
                        clean_rows.append(index)
                        continue
                    assert ticket.done
                    result = ticket.result(timeout=0)
                    assert result.status == ERROR
                    assert result.context.startswith("malformed request:")
                    assert ("finite" if kind in _NON_FINITE
                            else "feature row") in result.context
                    assert frontend.telemetry.refused == refused + 1
                    assert guard.stream.n_rows_seen == len(clean_rows)

            admit()
            frontend.resume_workers()
            results = [t.result(timeout=60) for t in clean_tickets]
        finally:
            frontend.stop()

        assert [r.status for r in results] == [OK] * len(clean_rows)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(request_rows[clean_rows]),
        )
        snap = frontend.telemetry.snapshot()
        assert snap["admitted"] == len(clean_rows)
        assert snap["errors"] == 0


class TestPoisonRequest:
    @pytest.mark.parametrize("poison_value", [np.nan, np.inf])
    def test_blast_radius_is_the_poison_request_only(
            self, poison_value, scoring_model, request_rows):
        rows = request_rows[:40]
        poison = rows[7].copy()
        poison[3] = poison_value

        frontend = _start(scoring_model, n_workers=1, max_batch_size=64)
        try:
            # One worker + paused consumption guarantees every request
            # lands in the same micro-batch as the poison row.
            frontend.pause_workers()
            _settle(frontend)
            tickets = [frontend.submit(row) for row in rows[:20]]
            poison_ticket = frontend.submit(poison)
            tickets += [frontend.submit(row) for row in rows[20:]]
            frontend.resume_workers()
            results = [t.result(timeout=60) for t in tickets]
            poison_result = poison_ticket.result(timeout=60)
        finally:
            frontend.stop()

        assert poison_result.status == ERROR
        assert "finite" in poison_result.context
        assert all(r.status == OK for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(rows),
        )

    def test_malformed_width_is_refused_at_the_door(self, scoring_model):
        frontend = _start(scoring_model, n_workers=1)
        try:
            ticket = frontend.submit(np.zeros(3))
        finally:
            frontend.stop()
        result = ticket.result(timeout=5)
        assert result.status == ERROR
        assert "feature row" in result.context
        assert frontend.telemetry.refused == 1


class TestBackpressure:
    def test_overflow_sheds_deterministically_with_503(self, scoring_model,
                                                       request_rows):
        rows = request_rows[:12]
        frontend = _start(scoring_model, n_workers=1, max_queue=8)
        try:
            frontend.pause_workers()
            _settle(frontend)
            admitted = [frontend.submit(row) for row in rows[:8]]
            shed = [frontend.submit(row) for row in rows[8:]]
            # Sheds resolve immediately — no queueing, no silent drop.
            assert all(t.done for t in shed)
            shed_results = [t.result(timeout=1) for t in shed]
            frontend.resume_workers()
            admitted_results = [t.result(timeout=60) for t in admitted]
        finally:
            frontend.stop()

        assert [r.status for r in shed_results] == [OVERLOADED] * 4
        assert all("queue full" in r.context for r in shed_results)
        assert all(r.ok for r in admitted_results)
        np.testing.assert_array_equal(
            np.array([r.score for r in admitted_results]),
            scoring_model.predict_proba(rows[:8]),
        )
        snap = frontend.telemetry.snapshot()
        assert snap["shed"] == 4
        assert snap["admitted"] == 8

    def test_capacity_recovers_after_drain(self, scoring_model,
                                           request_rows):
        frontend = _start(scoring_model, n_workers=1, max_queue=4)
        try:
            first = frontend.score_stream(request_rows[:4])
            # The queue drained, so a second wave admits fully.
            second = frontend.score_stream(request_rows[4:8])
        finally:
            frontend.stop()
        assert all(r.ok for r in first + second)
        assert frontend.telemetry.shed == 0


class TestAsyncioSurface:
    def test_tickets_resolve_through_the_event_loop(self, scoring_model,
                                                    request_rows):
        async def score_all(rows):
            tickets = [frontend.submit(row) for row in rows]
            return await asyncio.gather(*(t.wait() for t in tickets))

        rows = request_rows[:32]
        frontend = _start(scoring_model, n_workers=2)
        try:
            results = asyncio.run(score_all(rows))
        finally:
            frontend.stop()
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(rows),
        )
