"""Fault injection against the multi-worker scoring front-end.

Every failure mode a production scorer must survive, injected
deterministically: a worker killed mid-batch (in-flight requests requeue
or error *with context*, never hang), a poison request inside a
micro-batch (blast radius is exactly that request), and queue overflow
(backpressure sheds with an explicit Overloaded result, never silently).
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _start(model, **overrides) -> ScoringFrontend:
    config = FrontendConfig(**{"n_workers": 2, "max_batch_size": 16,
                               **overrides})
    return ScoringFrontend(model, config).start()


def _settle(frontend: ScoringFrontend) -> None:
    """Give the paused workers time to drain their control queues."""
    time.sleep(10 * _POLL_TIMEOUT_S)


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


#: One drained request: (generation, pool row index, poison value or
#: None, poisoned column).  Generation 2 is never loaded.
_REQUEST = st.tuples(
    st.sampled_from([0, 1, 2]),
    st.integers(0, 299),
    st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]),
    st.integers(0, 39),
)


class TestResolveBatch:
    """The worker's drained batch, resolved in process on real services."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(requests=st.lists(_REQUEST, min_size=1, max_size=40))
    def test_scores_poison_and_order(self, requests, scoring_model,
                                     scoring_model_alt, request_rows):
        models = {0: scoring_model, 1: scoring_model_alt}
        services = {g: ScoringService(m) for g, m in models.items()}
        batch = []
        for i, (generation, index, poison, column) in enumerate(requests):
            row = request_rows[index].copy()
            if poison is not None:
                row[column % row.shape[0]] = poison
            batch.append((1000 + 7 * i, row, generation))

        responses = _resolve_batch(services, batch)

        assert [r[0] for r in responses] == [req_id for req_id, _, __ in batch]
        groups: dict[int, list[bool]] = {}
        for (req_id, row, generation), response in zip(batch, responses):
            _, status, value, got_generation = response
            assert got_generation == generation
            clean = bool(np.isfinite(row).all())
            groups.setdefault(generation, []).append(clean)
            if generation not in models:
                assert status == ERROR and "not loaded" in value
            elif not clean:
                assert status == ERROR and "finite" in value
            else:
                assert status == OK
                assert value == models[generation].predict_proba(
                    row[None])[0]
        for generation, service in services.items():
            cleans = groups.get(generation, [])
            # One scoring call per clean group; a poisoned group rescores
            # its clean rows one by one.
            expected = (0 if not cleans else 1 if all(cleans)
                        else sum(cleans))
            assert service.telemetry.batches == expected


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
    def test_score_many_resolves_through_the_event_loop(self, scoring_model,
                                                        request_rows):
        import asyncio

        rows = request_rows[:32]
        frontend = _start(scoring_model, n_workers=2)
        try:
            results = asyncio.run(frontend.score_many(rows))
        finally:
            frontend.stop()
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(
            np.array([r.score for r in results]),
            scoring_model.predict_proba(rows),
        )
