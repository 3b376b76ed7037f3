"""Generation retirement: serving memory stays flat across model swaps.

A superseded generation is retired once no admitted request holds it: the
parent disposes its shared-memory block and every worker drops its service
and closes its mapping.  Checked three ways:

* the worker's control handling, run in process over a scripted pipe
  (a ``pause`` or ``retire`` that lands while the worker waits for a
  generation is kept, not dropped);
* K publishes under load, then a drain: the parent and each worker hold
  exactly one generation (``/dev/shm`` and ``/proc/<pid>/maps``);
* a derandomized state machine over a 1-worker frontend (admit, publish,
  pause/resume, SIGKILL at any step, drain) with the frontend's
  invariants.

No timing or RSS is asserted; waits are bounded polls for a state.
"""

import os
import queue
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    rule,
    run_state_machine_as_test,
)

from repro.serve.frontend import (
    _POLL_TIMEOUT_S,
    ERROR,
    OK,
    OVERLOADED,
    FrontendConfig,
    ScoringFrontend,
    _worker_main,
)
from repro.serve.shm_publish import ModelPublisher

LINUX_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /dev/shm and /proc/<pid>/maps",
)


def wait_for(predicate, timeout: float = 30.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def segment(frontend: ScoringFrontend, generation: int) -> str:
    """The shared-memory block name of one live generation."""
    return frontend._publisher.get(generation).spec.shm_name


def mapped_segments(pid: int, names) -> set[str]:
    """The blocks among ``names`` that process ``pid`` still maps."""
    with open(f"/proc/{pid}/maps") as maps:
        text = maps.read()
    return {name for name in names if f"/{name}" in text}


def existing_segments(names) -> set[str]:
    """The blocks among ``names`` that still exist under ``/dev/shm``."""
    return {name for name in names if os.path.exists(f"/dev/shm/{name}")}


def assert_holds_only(frontend: ScoringFrontend, names) -> None:
    """The parent and every worker hold the latest generation and no other."""
    latest = frontend.generation
    assert frontend._publisher.generations == [latest]
    live = {segment(frontend, latest)}
    assert existing_segments(names) == live
    for pid in frontend.worker_pids:
        assert wait_for(lambda: mapped_segments(pid, names) == live), (
            f"worker {pid} maps {mapped_segments(pid, names)}, "
            f"expected only {live}"
        )


# ------------------------------------------------- the worker, in process


class _ScriptedPipe:
    """The worker's end of its pipe: control in, answers out.

    Answers ``("stop",)`` at the second idle poll after the results.
    Timed polls (the worker waiting for a generation, or paused) return at
    once and are counted in ``waits``.
    """

    def __init__(self):
        self.control = queue.Queue()
        self.sent = []
        self.idle_polls = 0
        self.waits = 0

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        return self.control.get_nowait()

    def poll(self, timeout=0.0):
        if not self.control.empty():
            return True
        if timeout:
            self.waits += 1
        elif len(self.sent) >= 2:  # idle after "ready" and the results
            self.idle_polls += 1
            if self.idle_polls == 2:
                self.control.put(("stop",))
                return True
        return False


class _ScriptedRequests(queue.Queue):
    """Hands the worker one batch; taking it sends ``on_take`` to control.

    The worker polls control before it takes a batch, so ``on_take``
    arrives while it waits for the batch's generations.  Blocking takes
    after the batch find nothing and are counted in ``late_takes``.
    """

    def __init__(self, batch, pipe, on_take):
        super().__init__()
        self.batch = list(batch)
        self.pipe = pipe
        self.on_take = list(on_take)
        self.late_takes = 0

    def get(self, block=True, timeout=None):
        if self.batch:
            for message in self.on_take:
                self.pipe.control.put(message)
            self.on_take = []
            return self.batch.pop(0)
        if block:
            self.late_takes += 1
        raise queue.Empty


def _run_worker(initial, batch, on_take=()):
    """Run ``_worker_main`` in a thread over a scripted queue and pipe.

    Returns the worker's messages, its request queue and its pipe.
    """
    pipe = _ScriptedPipe()
    request_q = _ScriptedRequests(batch, pipe, on_take)
    worker = threading.Thread(
        target=_worker_main,
        args=(0, request_q, pipe, initial, 8),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "worker did not stop"
    return pipe.sent, request_q, pipe


class TestWorkerControl:
    def test_pause_during_a_generation_wait_is_kept(
            self, scoring_model, scoring_model_alt, request_rows):
        row = request_rows[0]
        with ModelPublisher() as publisher:
            first = publisher.publish(scoring_model)
            second = publisher.publish(scoring_model_alt)
            messages, requests, _ = _run_worker(
                [(0, first.spec)], [(7, row, 1)],
                on_take=[("pause",), ("load", 1, second.spec)],
            )
        expected = scoring_model_alt.predict_proba(row[None])[0]
        assert messages == [("ready",), ("results", [(7, OK, expected, 1)])]
        # Paused after the batch: the worker takes no further request.
        assert requests.late_takes == 0

    def test_retire_during_a_generation_wait_drops_that_generation(
            self, scoring_model, scoring_model_alt, request_rows):
        row = request_rows[0]
        with ModelPublisher() as publisher:
            first = publisher.publish(scoring_model)
            second = publisher.publish(scoring_model_alt)
            messages, _, __ = _run_worker(
                [(0, first.spec)], [(7, row, 1), (8, row, 0)],
                on_take=[("retire", 0), ("load", 1, second.spec)],
            )
        expected = scoring_model_alt.predict_proba(row[None])[0]
        assert messages == [("ready",), ("results", [
            (7, OK, expected, 1),
            (8, ERROR, "generation 0 is not loaded in this worker", 0),
        ])]

    def test_a_block_retired_before_attach_is_skipped(
            self, scoring_model, request_rows):
        with ModelPublisher() as publisher:
            gone = publisher.publish(scoring_model)
            publisher.retire(gone.generation)
            messages, _, pipe = _run_worker([(0, gone.spec)],
                                            [(7, request_rows[0], 0)])
        assert messages == [("ready",), ("results", [
            (7, ERROR, "generation 0 is not loaded in this worker", 0),
        ])]
        # Known retired: answered without waiting for a "load".
        assert pipe.waits == 0


# ------------------------------------------------------ a running frontend


@LINUX_ONLY
def test_k_publishes_under_load_leave_one_generation(
        scoring_model, scoring_model_alt, request_rows):
    models = (scoring_model, scoring_model_alt)
    references = [model.predict_proba(request_rows) for model in models]
    frontend = ScoringFrontend(
        scoring_model, FrontendConfig(n_workers=2, max_batch_size=16)
    ).start()
    names = [segment(frontend, 0)]
    tickets = []
    try:
        for k in range(1, 13):
            busy = k % 3 == 0
            if busy:  # the old generation still has requests at publish
                frontend.pause_workers()
                time.sleep(10 * _POLL_TIMEOUT_S)
            old = frontend.generation
            tickets += [(frontend.submit(row), index)
                        for index, row in enumerate(request_rows[:25])]
            if not busy:
                for ticket, _ in tickets:
                    ticket.result(timeout=60)
            generation = frontend.publish(models[k % 2])
            names.append(segment(frontend, generation))
            tickets += [(frontend.submit(row), index)
                        for index, row in enumerate(request_rows[25:50], 25)]
            if busy:
                assert frontend._publisher.generations == [old, generation]
                frontend.resume_workers()
            else:  # idle at publish: retired on the spot
                assert frontend._publisher.generations == [generation]
        for ticket, index in tickets:
            result = ticket.result(timeout=60)
            assert result.ok
            assert result.score == references[result.generation % 2][index]
        assert_holds_only(frontend, names)
        assert frontend.telemetry.swaps == 12
    finally:
        frontend.stop()
    assert existing_segments(names) == set()


@LINUX_ONLY
def test_concurrent_admission_and_swaps_lose_no_count(
        scoring_model, scoring_model_alt, request_rows):
    """Four submitting threads race twenty publishes over three workers.

    A lost update to a generation's in-flight count would either keep it
    live after the drain or retire it under a pending request (which then
    fails "not loaded").
    """
    models = (scoring_model, scoring_model_alt)
    references = [model.predict_proba(request_rows) for model in models]
    frontend = ScoringFrontend(
        scoring_model, FrontendConfig(n_workers=3, max_batch_size=8)
    ).start()
    names = [segment(frontend, 0)]
    model_of = {0: 0}
    submitted: list[list] = [[] for _ in range(4)]

    def submit_all(out: list) -> None:
        for index in range(0, 300, 3):
            out.append((frontend.submit(request_rows[index]), index))

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=submit_all, args=(out,))
                   for out in submitted]
        for thread in threads:
            thread.start()
        for k in range(1, 21):
            generation = frontend.publish(models[k % 2])
            model_of[generation] = k % 2
            names.append(segment(frontend, generation))
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        sys.setswitchinterval(interval)
        for out in submitted:
            for ticket, index in out:
                result = ticket.result(timeout=60)
                assert result.ok, result
                model = model_of[result.generation]
                assert result.score == references[model][index]
        assert_holds_only(frontend, names)
    finally:
        sys.setswitchinterval(interval)
        frontend.stop()
    assert existing_segments(names) == set()


class FrontendMachine(RuleBasedStateMachine):
    """Interleavings of admission, swaps, pauses and worker deaths.

    Subclasses set ``models`` (two scorers), ``rows`` and ``references``
    (each model's ``predict_proba`` of ``rows``).
    """

    models: tuple
    rows: np.ndarray
    references: list

    def __init__(self):
        super().__init__()
        self.frontend = ScoringFrontend(
            self.models[0],
            FrontendConfig(n_workers=1, max_batch_size=4, max_queue=12),
        ).start()
        self.model_of = {0: 0}  # generation -> index into models
        self.names = [segment(self.frontend, 0)]
        self.tickets: list = []  # (ticket, row index, admission generation)
        self.paused = False

    @rule(indices=st.lists(st.integers(0, 299), min_size=1, max_size=6))
    def admit(self, indices):
        for index in indices:
            generation = self.frontend.generation
            ticket = self.frontend.submit(self.rows[index])
            self.tickets.append((ticket, index, generation))

    @rule()
    def publish(self):
        index = 1 - self.model_of[self.frontend.generation]
        generation = self.frontend.publish(self.models[index])
        self.model_of[generation] = index
        self.names.append(segment(self.frontend, generation))

    @rule()
    def pause(self):
        self.frontend.pause_workers()
        self.paused = True

    @rule()
    def resume(self):
        self.frontend.resume_workers()
        self.paused = False

    @rule()
    def kill(self):
        # At any step, paused or not: a worker killed inside an answer's
        # write truncates only its own pipe.
        victim = self.frontend.worker_pids[0]
        os.kill(victim, signal.SIGKILL)
        assert wait_for(lambda: self.frontend.worker_pids[0] != victim)
        self.paused = False  # the replacement starts unpaused

    @rule()
    def drain(self):
        self.resume()
        admitted = 0
        for ticket, index, generation in self.tickets:
            result = ticket.result(timeout=60)
            assert ticket.result(timeout=0) is result  # resolved once
            if result.status == OVERLOADED:
                continue
            admitted += 1
            assert result.status == OK, result
            assert result.generation == generation
            model = self.model_of[generation]
            assert result.score == self.references[model][index]
        snap = self.frontend.telemetry.snapshot()
        assert snap["admitted"] == admitted
        assert snap["request_latency"]["count"] == admitted
        assert snap["errors"] == 0
        assert self.frontend.snapshot()["pending"] == 0
        assert_holds_only(self.frontend, self.names)

    def teardown(self):
        try:
            self.drain()
        finally:
            self.frontend.stop()
        assert existing_segments(self.names) == set()


@LINUX_ONLY
def test_frontend_state_machine(scoring_model, scoring_model_alt,
                                request_rows):
    models = (scoring_model, scoring_model_alt)
    machine = type("Machine", (FrontendMachine,), {
        "models": models,
        "rows": request_rows,
        "references": [model.predict_proba(request_rows)
                       for model in models],
    })
    run_state_machine_as_test(machine, settings=settings(
        max_examples=30, stateful_step_count=20, deadline=None,
        derandomize=True, suppress_health_check=list(HealthCheck),
    ))
