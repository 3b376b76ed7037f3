"""Multi-worker scoring front-end: admission control, fan-out, recovery.

:class:`ScoringFrontend` is the request layer in front of N scoring
*worker processes*.  The parent publishes model artifacts once into shared
memory (:mod:`repro.serve.shm_publish`) and workers attach zero-copy
views.  Each worker drains up to ``max_batch_size`` queued requests and
scores them in one call to its own
:class:`~repro.serve.service.ScoringService` over the shared arrays.  A
:class:`FrontendTicket` resolves for sync callers (``result``) and
asyncio ones (``await ticket.wait()``), so benches, the CLI and tests
need no event loop.

Operating contract:

* **Backpressure, never silent drops.**  Admission is bounded by
  ``max_queue`` outstanding requests; request ``max_queue + 1`` resolves
  *immediately* to an explicit 503-style :data:`OVERLOADED` result and is
  counted in telemetry.  Nothing is ever dropped without a result.
* **Generation-stamped scoring.**  Every admitted request carries the
  model generation that was live at admission.  Publishing a new model is
  an atomic pack-swap: a fresh immutable generation, loaded by workers on
  their next control poll — requests admitted before the swap score on
  their old generation, bit-identically.  A superseded generation is
  retired, in the parent and in every worker, once its last admitted
  request resolves, so memory stays flat however often models swap.
* **Fault isolation.**  Each worker talks to the parent over its own
  request queue and duplex pipe, so a worker killed at any instant (even
  partway through sending an answer) damages only its own channel.  Its
  process sentinel wakes the collector at once, under any load: the
  worker is respawned and its in-flight requests are re-dispatched.  A
  poison row (not a finite ``(n_features,)`` vector) is
  refused in :meth:`ScoringFrontend.submit`, before the drift guard or a
  worker sees it: it fails *only its own request*, at once.
* **Bit-identity.**  Scores are exactly single-process
  ``ScoringService.predict_proba`` for every worker count: batching and
  fan-out change when/where a score is computed, never its value.
* **Observable live.**  With ``FrontendConfig.live_metrics`` on, every
  worker publishes its :class:`~repro.serve.telemetry.ServingTelemetry`
  into a per-worker shared-memory slab row
  (:class:`~repro.obs.live.MetricsSlab`, seqlock torn-free reads) and
  the parent aggregates, monitors and exposes the merged state — see
  :meth:`ScoringFrontend.live_snapshot` and ``docs/serving.md``.  The
  plane never touches a score: scoring is bit-identical with it on or
  off (asserted in tests), and the disabled path adds nothing.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import multiprocessing
import queue as queue_mod
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait

import numpy as np

from repro.numerics import check_finite
from repro.obs.live.slab import MetricsAggregator, MetricsSlab
from repro.parallel.engine import default_start_method
from repro.parallel.shared import PackSpec
from repro.persist.artifacts import ScoringModel
from repro.serve.degradation import DriftGuard
from repro.serve.service import ScoringService
from repro.serve.shm_publish import ModelPublisher, attach_model
from repro.serve.telemetry import FrontendTelemetry, ServingTelemetry

__all__ = [
    "FrontendConfig",
    "FrontendResult",
    "FrontendTicket",
    "ScoringFrontend",
    "OK",
    "OVERLOADED",
    "ERROR",
]

#: Result statuses.
OK = "ok"
OVERLOADED = "overloaded"
ERROR = "error"

#: Worker block time waiting for the first request of a batch (also the
#: cadence of control-message polling).
_POLL_TIMEOUT_S = 0.02
#: Collector cadence for the SLO feed and health evaluation.
_LIVE_POLL_INTERVAL_S = 0.25
#: Slower resolutions count against the ``latency`` SLO (rounded up to a
#: latency bucket edge).
_SLO_LATENCY_BOUND_S = 0.3


@dataclass(frozen=True)
class FrontendConfig:
    """Operating knobs of one :class:`ScoringFrontend`.

    Attributes:
        n_workers: Scoring worker process count.
        max_batch_size: Most requests a worker drains into one scoring
            call.
        max_queue: Admission bound — outstanding (admitted, unresolved)
            requests; the ``max_queue + 1``-th submit sheds.
        live_metrics: Allocate the shared-memory metrics slab and have
            each worker publish its service telemetry after every batch
            (plus heartbeats while idle).  Off by default; the disabled
            path allocates no slab and publishes nothing.
    """

    n_workers: int = 2
    max_batch_size: int = 64
    max_queue: int = 1024
    live_metrics: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


@dataclass(frozen=True)
class FrontendResult:
    """Terminal outcome of one scoring request.

    Attributes:
        status: ``"ok"``, ``"overloaded"`` or ``"error"``.
        score: The default probability (``ok`` only).
        generation: Model generation that scored the request (``ok``
            only; ``-1`` otherwise).
        context: Human-readable failure context (non-``ok`` only).
    """

    status: str
    score: float = float("nan")
    generation: int = -1
    context: str = ""

    @property
    def ok(self) -> bool:
        return self.status == OK


class FrontendTicket:
    """Handle to one admitted (or immediately refused) request."""

    __slots__ = ("request_id", "_future")

    def __init__(self, request_id: int, future: Future):
        self.request_id = request_id
        self._future = future

    @property
    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> FrontendResult:
        """Block until the request resolves (sync callers)."""
        return self._future.result(timeout)

    async def wait(self) -> FrontendResult:
        """Await resolution (asyncio callers)."""
        return await asyncio.wrap_future(self._future)


# --------------------------------------------------------------- worker side


def _resolve_batch(services: dict, batch: list) -> list[tuple]:
    """Score one drained batch with one call per generation group.

    A call that raises fails its whole group (admission has refused
    malformed rows).  Returns response tuples ``(req_id, status, value,
    generation)`` in the same order requests were drained.
    """
    responses: dict[int, tuple] = {}
    by_generation: dict[int, list[tuple[int, np.ndarray]]] = {}
    for req_id, row, generation in batch:
        by_generation.setdefault(generation, []).append((req_id, row))
    for generation, members in by_generation.items():
        service = services.get(generation)
        if service is None:
            status = ERROR
            values = [f"generation {generation} is not loaded in this "
                      f"worker"] * len(members)
        else:
            try:
                values = service.score_batch(
                    np.stack([row for _, row in members])).tolist()
                status = OK
            except Exception as exc:  # noqa: BLE001 - shipped as context
                status = ERROR
                values = [f"scoring failed: {exc!r}"] * len(members)
        for (req_id, _), value in zip(members, values):
            responses[req_id] = (req_id, status, value, generation)
    return [responses[req_id] for req_id, _, __ in batch]


def _worker_main(worker_id: int, request_q, conn,
                 initial: list[tuple[int, PackSpec]], max_batch_size: int,
                 slab_spec: PackSpec | None = None) -> None:
    """One scoring worker: attach shared models, batch, score, respond.

    Module-level (picklable) so it runs under ``fork`` and ``spawn``.
    ``conn`` is the worker's end of its duplex pipe: control messages come
    down it; ``("ready",)`` and one ``("results", responses)`` per batch go
    up it.

    With ``slab_spec``, the worker shares one
    :class:`~repro.serve.telemetry.ServingTelemetry` across all its
    per-generation services (one slab row per *worker*, not per model)
    and publishes absolute totals into its row after every scored batch;
    idle polls refresh only the heartbeat word.
    """
    packs: dict[int, object] = {}
    services: dict[int, ScoringService] = {}
    newest = -1  # newest generation announced; older unloaded ones are gone
    slab = slab_writer = telemetry = None
    if slab_spec is not None:
        slab = MetricsSlab.attach(slab_spec)
        slab_writer = slab.writer(worker_id)
        telemetry = ServingTelemetry()

    def load(generation: int, spec: PackSpec) -> None:
        nonlocal newest
        newest = max(newest, generation)
        if generation in services:
            return
        try:
            model, pack = attach_model(spec)
        except FileNotFoundError:  # retired before this worker attached it
            return
        packs[generation] = pack
        services[generation] = ScoringService(model, telemetry=telemetry)

    paused = False
    running = True

    def control(message: tuple) -> None:
        nonlocal paused, running
        kind = message[0]
        if kind == "load":
            load(message[1], message[2])
        elif kind == "retire":
            services.pop(message[1], None)  # drops the views into the pack
            pack = packs.pop(message[1], None)
            if pack is not None:
                pack.close()
        elif kind == "pause":
            paused = True
        elif kind == "resume":
            paused = False
        elif kind == "stop":
            running = False

    for generation, spec in initial:
        load(generation, spec)
    conn.send(("ready",))
    if slab_writer is not None:
        slab_writer.publish(telemetry)  # row live before traffic

    while running:
        while running and conn.poll():  # control first: swaps/pauses beat data
            control(conn.recv())
        if not running:
            break
        if paused:
            conn.poll(_POLL_TIMEOUT_S)  # wakes at the next control message
            continue
        try:
            first = request_q.get(timeout=_POLL_TIMEOUT_S)
        except queue_mod.Empty:
            if slab_writer is not None:
                slab_writer.heartbeat()
            continue
        batch = [first]
        while len(batch) < max_batch_size:
            try:
                batch.append(request_q.get_nowait())
            except queue_mod.Empty:
                break
        # A swap racing admission: requests can carry a generation whose
        # "load" control message has not been polled yet.  Handle control
        # until every requested generation is resolvable (bounded wait); an
        # older one is retired and only reaches here as a requeued
        # duplicate.
        deadline = time.monotonic() + 5.0
        while (running and time.monotonic() < deadline
               and any(gen > newest for _, __, gen in batch)):
            if conn.poll(0.01):
                control(conn.recv())
        conn.send(("results", _resolve_batch(services, batch)))
        if slab_writer is not None:
            slab_writer.publish(telemetry)

    for pack in packs.values():
        pack.close()
    if slab is not None:
        slab_writer.publish(telemetry)  # final absolute totals
        slab.close()


# --------------------------------------------------------------- parent side


class _WorkerHandle:
    """Parent-side state of one worker: its process, request queue and the
    parent's end of its pipe."""

    def __init__(self, worker_id: int, process, request_q, conn):
        self.worker_id = worker_id
        self.process = process
        self.request_q = request_q
        self.conn = conn


class ScoringFrontend:
    """Bounded-queue scoring front door over N shared-memory workers.

    Usage (sync)::

        frontend = ScoringFrontend(model, FrontendConfig(n_workers=2))
        frontend.start()
        tickets = [frontend.submit(row) for row in rows]
        results = [t.result(timeout=30) for t in tickets]
        frontend.stop()

    Asyncio callers ``await frontend.submit(row).wait()``.

    Args:
        model: The initial champion scorer (published as generation 0).
        config: Operating knobs.
        telemetry: Optional externally-owned telemetry sink.
        drift_guard: Optional :class:`DriftGuard` observed over admitted
            rows (the closed-loop controller watches its trip).
        version: Optional registry version id of ``model`` (telemetry).
        score_drift: Optional :class:`~repro.obs.live.ScoreDriftMonitor`
            fed every resolved OK score (with its admission province).
        calibration: Optional :class:`~repro.obs.live.CalibrationMonitor`
            fed every resolved OK score.
        slo_tracker: Optional :class:`~repro.obs.live.SLOTracker`; the
            collector feeds objectives named ``"admission"`` (bad =
            sheds) and ``"latency"`` (bad = resolutions slower than
            ``_SLO_LATENCY_BOUND_S``) from telemetry deltas each live
            tick, when those objectives are configured.
        health_monitor: Optional :class:`~repro.obs.live.HealthMonitor`
            evaluated each live tick with the signals described in
            ``docs/serving.md`` (score_psi, feature_psi, mean_shift,
            slo_burn, stale_workers).
    """

    def __init__(
        self,
        model: ScoringModel,
        config: FrontendConfig | None = None,
        telemetry: FrontendTelemetry | None = None,
        drift_guard: DriftGuard | None = None,
        version: str | None = None,
        score_drift=None,
        calibration=None,
        slo_tracker=None,
        health_monitor=None,
    ):
        self.config = config or FrontendConfig()
        self.telemetry = telemetry or FrontendTelemetry()
        self.drift_guard = drift_guard
        self.score_drift = score_drift
        self.calibration = calibration
        self.slo_tracker = slo_tracker
        self.health_monitor = health_monitor
        self._slab: MetricsSlab | None = None
        self._aggregator: MetricsAggregator | None = None
        self._final_workers: dict | None = None
        self._last_tick = 0.0
        self._last_frontend_sample: dict | None = None
        self._publisher = ModelPublisher()
        self._initial_model = model
        self._initial_version = version
        self._n_features = model.scorer.n_features
        self._context = multiprocessing.get_context(default_start_method())
        #: Indexed by worker id; a respawn replaces its dead worker's slot.
        self._workers: list[_WorkerHandle] = []
        self._collector: threading.Thread | None = None
        self._lock = threading.Lock()
        self._pending: dict[int, dict] = {}
        #: Admitted, unresolved requests per generation (under ``_lock``).
        self._in_flight: Counter = Counter()
        self._request_ids = itertools.count()
        self._rr = itertools.count()
        self._started = False
        self._stopping = False

    # ----------------------------------------------------------- lifecycle

    @property
    def generation(self) -> int:
        """The generation new admissions are stamped with."""
        return self._publisher.latest.generation

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the current worker processes (fault-injection hook)."""
        return [w.process.pid for w in self._workers]

    def start(self) -> "ScoringFrontend":
        """Publish generation 0 and spawn + handshake the workers."""
        if self._started:
            raise RuntimeError("frontend already started")
        self._started = True
        self._publisher.publish(self._initial_model,
                                version=self._initial_version)
        if self.config.live_metrics:
            self._slab = MetricsSlab.allocate(self.config.n_workers)
            self._aggregator = MetricsAggregator(self._slab)
        for worker_id in range(self.config.n_workers):
            self._workers.append(self._spawn(worker_id))
        self._await_ready()
        self._collector = threading.Thread(
            target=self._collect_loop, name="frontend-collector", daemon=True
        )
        self._collector.start()
        # Stop before multiprocessing's exit hook terminates the workers:
        # otherwise the collector reaps them as deaths and respawns them.
        atexit.register(self.stop)
        return self

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        request_q = self._context.Queue()
        conn, worker_conn = self._context.Pipe()
        initial = [
            (g, self._publisher.get(g).spec)
            for g in self._publisher.generations
        ]
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, request_q, worker_conn, initial,
                  self.config.max_batch_size,
                  self._slab.spec if self._slab is not None else None),
            daemon=True,
        )
        process.start()
        worker_conn.close()  # the worker holds the only other end
        return _WorkerHandle(worker_id, process, request_q, conn)

    def _await_ready(self) -> None:
        """Wait for every worker's ``ready`` on its pipe.

        A worker that exits first (its sentinel fires, or its pipe closes)
        fails :meth:`start` at once.
        """
        waiting = {}
        for worker in self._workers:
            waiting[worker.conn] = waiting[worker.process.sentinel] = worker
        while waiting:
            for ready in wait(list(waiting)):
                worker = waiting.get(ready)
                if worker is None:  # settled earlier in this round
                    continue
                del waiting[worker.conn], waiting[worker.process.sentinel]
                if ready is worker.conn and self._receive(worker):
                    continue
                self.stop()
                raise RuntimeError(
                    f"worker {worker.worker_id} exited (code "
                    f"{worker.process.exitcode}) before it was ready"
                )

    def stop(self) -> None:
        """Stop workers, resolve leftovers with an error, free the packs."""
        with self._lock:  # a reap racing this spawns nothing after it
            if self._stopping:
                return
            self._stopping = True
            self._broadcast(("stop",))
        atexit.unregister(self.stop)
        if self._collector is not None:
            self._collector.join(timeout=5.0)
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
        with self._lock:
            leftovers = list(self._pending)
        for request_id in leftovers:
            entry = self._take(request_id)
            if entry is not None:  # not resolved meanwhile
                self._resolve_future(
                    entry["future"],
                    FrontendResult(status=ERROR,
                                   context="frontend stopped before scoring"),
                )
        for worker in self._workers:
            self._discard(worker)
        if self._slab is not None:
            # Keep the final merged view readable after the slab is gone.
            self._final_workers = self._aggregator.aggregate()
            self._slab.dispose()
            self._slab = None
            self._aggregator = None
        self._publisher.close()

    @staticmethod
    def _discard(worker: _WorkerHandle) -> None:
        """Close a handle's pipe and abandon its request queue.

        A killed (or stopped) worker leaves its request pipe full; the
        queue's background feeder blocks in ``send`` and multiprocessing's
        atexit hook would join it forever.  ``cancel_join_thread`` breaks
        that dependency so abandoning the queue is safe.
        """
        worker.request_q.cancel_join_thread()
        worker.request_q.close()
        worker.conn.close()

    def __enter__(self) -> "ScoringFrontend":
        return self.start() if not self._started else self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ admission

    def submit(self, row: np.ndarray,
               province: str | None = None) -> FrontendTicket:
        """Admit one request (or refuse it *now*); never blocks on scoring.

        Args:
            row: One feature row.
            province: Optional environment tag for the per-province
                quality monitors; stays parent-side (never shipped to
                workers) and has no effect on the score.

        Returns:
            A ticket.  Refusals — queue overflow (:data:`OVERLOADED`) and
            malformed rows (not a finite ``(n_features,)`` vector,
            :data:`ERROR`) — come back already resolved; nothing is
            silently dropped.  A malformed row never reaches the drift
            guard or a worker.
        """
        if not self._started or self._stopping:
            raise RuntimeError("frontend is not running")
        request_id = next(self._request_ids)
        future: Future = Future()
        ticket = FrontendTicket(request_id, future)

        try:
            row = np.asarray(row, dtype=np.float64)
            if row.ndim != 1 or row.shape[0] != self._n_features:
                raise ValueError(
                    f"expected a ({self._n_features},) feature row, "
                    f"got shape {row.shape}"
                )
            check_finite(row)
        except Exception as exc:  # noqa: BLE001 - refusal with context
            self.telemetry.record_refused()
            future.set_result(
                FrontendResult(status=ERROR,
                               context=f"malformed request: {exc}")
            )
            return ticket

        with self._lock:
            if len(self._pending) >= self.config.max_queue:
                self.telemetry.record_shed()
                future.set_result(
                    FrontendResult(
                        status=OVERLOADED,
                        context=(
                            f"admission queue full "
                            f"({self.config.max_queue} outstanding)"
                        ),
                    )
                )
                return ticket
            generation = self.generation
            entry = {
                "future": future,
                "row": row,
                "generation": generation,
                "worker_id": -1,
                "t_submit": time.perf_counter(),
                "province": province,
            }
            self._pending[request_id] = entry
            self._in_flight[generation] += 1
            self.telemetry.record_admitted()
            self._dispatch(request_id, entry)
        if self.drift_guard is not None:
            self.drift_guard.observe(row[None, :])
        return ticket

    def _dispatch(self, request_id: int, entry: dict) -> None:
        """Route one admitted request to a worker, round-robin (lock held).

        No liveness check: a request routed to a worker that has just died
        is requeued by that worker's reap, which collects its orphans under
        the same lock.
        """
        worker = self._workers[next(self._rr) % len(self._workers)]
        entry["worker_id"] = worker.worker_id
        worker.request_q.put(
            (request_id, entry["row"], entry["generation"])
        )

    def score_stream(self, rows: np.ndarray,
                     timeout: float | None = 60.0,
                     provinces=None) -> list[FrontendResult]:
        """Synchronous convenience: submit all rows, wait for all results.

        Args:
            rows: ``(n, d)`` feature matrix.
            timeout: Per-result wait bound.
            provinces: Optional per-row environment tags (len n) for the
                quality monitors.
        """
        if provinces is None:
            tickets = [self.submit(row) for row in rows]
        else:
            tickets = [self.submit(row, province=str(p))
                       for row, p in zip(rows, provinces)]
        return [t.result(timeout) for t in tickets]

    # ---------------------------------------------------------- model swap

    def publish(self, model: ScoringModel,
                version: str | None = None) -> int:
        """Atomically swap in a new model; returns the new generation.

        The new generation is published to shared memory first, then
        announced to every worker; admissions observe it only after the
        pack exists, so no request can ever reference a half-written
        model.  Requests admitted before this call keep their old
        generation stamp and score on the old arrays; a superseded
        generation no request holds is retired here, the others when
        their last request resolves (:meth:`_take`).
        """
        if not self._started or self._stopping:
            raise RuntimeError("frontend is not running")
        with self._lock:  # workers see generations in publish order
            published = self._publisher.publish(model, version=version)
            self._broadcast(("load", published.generation, published.spec))
            for generation in self._publisher.generations:
                if (generation != published.generation
                        and not self._in_flight[generation]):
                    self._retire(generation)
        self.telemetry.record_swap()
        return published.generation

    def _take(self, request_id: int) -> dict | None:
        """Remove one request from ``_pending``, releasing its generation.

        The one way out of ``_pending``.  A superseded generation whose
        last request this was is retired on the spot.
        """
        with self._lock:
            entry = self._pending.pop(request_id, None)
            if entry is not None:
                generation = entry["generation"]
                self._in_flight[generation] -= 1
                if (not self._in_flight[generation]
                        and generation != self.generation):
                    self._retire(generation)
        return entry

    def _retire(self, generation: int) -> None:
        """Dispose a generation's pack, in every worker too (lock held)."""
        del self._in_flight[generation]
        self._publisher.retire(generation)
        self._broadcast(("retire", generation))

    def _broadcast(self, message: tuple) -> None:
        """Send a control message down every worker's pipe (lock held, so
        sends from different threads never interleave)."""
        for worker in self._workers:
            try:
                worker.conn.send(message)
            except OSError:  # a dead worker: its reap respawns it
                pass

    # ------------------------------------------------- fault-injection hooks

    def pause_workers(self) -> None:
        """Suspend batch consumption in every worker (tests/draining)."""
        with self._lock:
            self._broadcast(("pause",))

    def resume_workers(self) -> None:
        """Resume batch consumption."""
        with self._lock:
            self._broadcast(("resume",))

    # ------------------------------------------------------------ collector

    def _collect_loop(self) -> None:
        """Resolve answers and reap deaths as each worker's pipe or
        process sentinel becomes ready: one message per ready pipe per
        round, so no worker's traffic starves another's death."""
        while not self._stopping:
            workers = list(self._workers)
            ready = wait([w.conn for w in workers]
                         + [w.process.sentinel for w in workers],
                         timeout=_LIVE_POLL_INTERVAL_S)
            for worker in workers:
                if worker.conn in ready and not self._receive(worker):
                    # A closed pipe: the worker is exiting, and its
                    # sentinel is where the death is handled.
                    wait([worker.process.sentinel])
                    ready.append(worker.process.sentinel)
                if worker.process.sentinel in ready:
                    self._reap(worker)
            self._live_tick()

    def _receive(self, worker: _WorkerHandle) -> bool:
        """Take one message off a worker's pipe, resolving its answers.

        Returns False once the pipe is closed or ends in a truncated
        message (the worker was killed partway through a send); that read
        error is dropped with the worker, whose reap requeues the requests
        the lost answer held.
        """
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            return False
        if message[0] == "results":
            for req_id, status, value, generation in message[1]:
                self._resolve(req_id, status, value, generation)
        return True

    def _resolve(self, request_id: int, status: str, value,
                 generation: int) -> None:
        entry = self._take(request_id)
        if entry is None:  # already resolved (by stop())
            return
        latency = time.perf_counter() - entry["t_submit"]
        self.telemetry.record_request(latency)
        if status == OK:
            score = float(value)
            if self.score_drift is not None:
                self.score_drift.observe(score,
                                         province=entry.get("province"))
            if self.calibration is not None:
                self.calibration.observe(score)
            result = FrontendResult(status=OK, score=score,
                                    generation=generation)
        else:
            self.telemetry.record_request_error()
            result = FrontendResult(status=ERROR, context=str(value),
                                    generation=generation)
        self._resolve_future(entry["future"], result)

    @staticmethod
    def _resolve_future(future: Future, result: FrontendResult) -> None:
        if not future.done():
            future.set_result(result)

    def _reap(self, worker: _WorkerHandle) -> None:
        """A worker's sentinel fired: resolve the answers it left on its
        pipe, then respawn it and requeue its pending requests."""
        while worker.conn.poll() and self._receive(worker):
            pass
        with self._lock:
            if self._stopping:  # it left on "stop"
                return
            self.telemetry.record_worker_death()
            # Fold the dead worker's final slab row into the aggregate
            # before the replacement (fresh telemetry, restarts at zero)
            # reuses the row — its history must survive the respawn.
            if self._aggregator is not None:
                self._aggregator.absorb_retired(worker.worker_id)
            # Respawn first so capacity survives and orphans can land on
            # the replacement; the old request queue is abandoned (its
            # unconsumed items are exactly the orphans being re-sent).
            # Under the lock, so every publish and retirement either
            # precedes the generations it starts with or reaches it, and
            # no submit routes to the dead worker after this.
            orphans = [
                (req_id, entry)
                for req_id, entry in self._pending.items()
                if entry["worker_id"] == worker.worker_id
            ]
            self._workers[worker.worker_id] = self._spawn(worker.worker_id)
            self._discard(worker)
            if orphans:
                self.telemetry.record_requeued(len(orphans))
            for req_id, entry in orphans:
                self._dispatch(req_id, entry)

    # ------------------------------------------------------------ live plane

    def _live_tick(self) -> None:
        """Feed SLO deltas and evaluate health, throttled to the interval.

        Runs on the collector thread only.  Monitor/health failures are
        contained — the live plane must never take scoring down with it.
        """
        if self.slo_tracker is None and self.health_monitor is None:
            return
        now = time.monotonic()
        if now - self._last_tick < _LIVE_POLL_INTERVAL_S:
            return
        self._last_tick = now
        try:
            self._feed_slo(now)
            self._evaluate_health()
        except Exception:  # noqa: BLE001 - observability is best-effort
            pass

    def _feed_slo(self, now: float) -> None:
        if self.slo_tracker is None:
            return
        sample = self.telemetry.snapshot()
        # This thread is request_latency's only writer: no lock needed.
        sample["slow"] = self.telemetry.request_latency.count_above(
            _SLO_LATENCY_BOUND_S)
        previous = self._last_frontend_sample
        self._last_frontend_sample = sample
        if previous is None:
            return
        configured = self.slo_tracker.configs
        if "admission" in configured:
            shed = sample["shed"] - previous["shed"]
            admitted = sample["admitted"] - previous["admitted"]
            self.slo_tracker.observe("admission", good=admitted, bad=shed,
                                     now=now)
        if "latency" in configured:
            slow = sample["slow"] - previous["slow"]
            resolved = (sample["request_latency"]["count"]
                        - previous["request_latency"]["count"])
            self.slo_tracker.observe("latency", good=resolved - slow,
                                     bad=slow, now=now)

    def _evaluate_health(self) -> None:
        if self.health_monitor is None:
            return
        signals: dict = {}
        detail: dict = {}
        if self.score_drift is not None:
            province, psi = self.score_drift.worst()
            signals["score_psi"] = psi
            if province is not None:
                detail["score_psi"] = {"province": province}
        if (self.drift_guard is not None
                and self.drift_guard.stream.n_rows_seen
                >= self.drift_guard.min_rows):
            # Same warm-up gate the guard itself applies: quantile-bin
            # PSI over a near-empty stream is noise, not a signal.
            signals["feature_psi"] = self.drift_guard.stream.max_psi()
        if self.calibration is not None and self.calibration.n_seen:
            signals["mean_shift"] = self.calibration.mean_shift()
        if self.slo_tracker is not None:
            objective, burn = self.slo_tracker.worst_burn(
                now=time.monotonic()
            )
            signals["slo_burn"] = burn
            if objective is not None:
                detail["slo_burn"] = {"objective": objective}
        if self._aggregator is not None:
            liveness = self._aggregator.liveness()
            signals["stale_workers"] = sum(
                1 for entry in liveness.values()
                if entry["reporting"] and entry["stale"]
            )
        self.health_monitor.evaluate(signals, detail=detail)

    # ------------------------------------------------------------ reporting

    def snapshot(self) -> dict:
        """JSON-compatible frontend state (telemetry + workers + guard).

        With ``live_metrics`` on, the payload additionally carries
        ``workers`` — the cross-process merge of every worker's service
        telemetry (counters summed, histograms rebuilt with
        :class:`~repro.obs.metrics.Histogram` snapshot semantics) — and
        per-worker ``liveness``.  The merged schema is documented in
        ``docs/serving.md``.
        """
        return {"n_workers": self.config.n_workers,
                "max_queue": self.config.max_queue, **self._state()}

    def live_snapshot(self) -> dict:
        """The full live-plane payload (exposition + ``repro obs top``).

        One JSON-compatible dict per call: :meth:`snapshot`'s state (its
        ``telemetry`` under ``frontend``), monitor snapshots and health —
        the shape ``docs/observability.md`` documents and
        :class:`~repro.obs.live.MetricsExporter` serves.  Cheap and
        thread-safe (slab reads are seqlock-guarded, telemetry is
        locked), so it is called once per scrape.
        """
        payload = {"unix": time.time(), **self._state()}
        payload["frontend"] = payload.pop("telemetry")
        monitors = payload["monitors"] = {}
        if self.score_drift is not None:
            monitors["score_drift"] = self.score_drift.snapshot()
        if self.calibration is not None:
            monitors["calibration"] = self.calibration.snapshot()
        if self.slo_tracker is not None:
            monitors["slo"] = self.slo_tracker.snapshot(now=time.monotonic())
        if self.health_monitor is not None:
            payload["health"] = self.health_monitor.snapshot()
        return payload

    def _state(self) -> dict:
        """The fields both snapshots carry, assembled once per call."""
        state = {
            "generation": (self._publisher.latest.generation
                           if self._publisher.generations else -1),
            "workers_alive": sum(w.process.is_alive() for w in self._workers),
            "pending": len(self._pending),
            "telemetry": self.telemetry.snapshot(),
        }
        if self.drift_guard is not None:
            state["drift_guard"] = self.drift_guard.snapshot()
        if self._aggregator is not None:
            state["workers"] = self._aggregator.aggregate()
            state["liveness"] = self._aggregator.liveness()
        elif self._final_workers is not None:  # stopped: the final capture
            state["workers"] = self._final_workers
        return state
