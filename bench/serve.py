"""Serving workloads: ``serve_steady`` and ``serve_mixed``.

A 1-worker :class:`~repro.serve.frontend.ScoringFrontend` serves a fixture
model trained once per run, in a spawned child, into a registry under the
run's work directory (not timed, and kept out of this process's memory).
One asyncio thread drives the load:

* ``lo`` and ``hi``: open-loop Poisson arrivals at the workload's two
  reference rates; latency is timed from when a request was *due*, so a
  stalled generator shows up in latency, and lateness is recorded;
* ``flood``: a closed loop of :data:`FLOOD_CLIENTS` clients, each sending
  its next request when the previous one resolves, which measures the
  rows per second the server answers when it is never idle.

``serve_mixed`` poisons a share of rows with a NaN (each must resolve
``error``) and swaps the live model between two heads during the run.
Every ``ok`` score must equal ``ScoringModel.predict_proba`` of the
generation it reports, bit for bit.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.frontend import ERROR, OVERLOADED

from bench.measure import Ledger, PeakRSS, median, quantile_ms, tail_percentile

#: Closed-loop clients of the flood phase; below the frontend's default
#: admission bound (1024), so nothing is shed.
FLOOD_CLIENTS = 512

#: Share of the measured window each phase gets; lo feeds p50_ms.
PHASES = (("lo", 0.5), ("hi", 0.25), ("flood", 0.25))

#: Unmeasured lo-rate traffic before the window: the forked worker copies
#: the pages it writes, and the first batches pay for it.
WARMUP_S = 1.0

#: Setups (registry load + frontend start) per run; setup_s is their median.
SETUP_REPEATS = 60

#: Generator seed of the fixture, whatever the run's seed: test_mauc and
#: test_wks are the served model's, so they gate its accuracy, not the
#: variation of accuracy across inputs.  The run's seed picks the traffic.
FIXTURE_SEED = 0

#: A request still unresolved this long after it was sent has failed.
RESOLVE_TIMEOUT_S = 30.0

#: Rate search (traced runs only): a x1.5 ladder, then bisection.  A step
#: passes when its p99 is within bound, no clean request fails, and every
#: request resolves soon after the step's last send.
SEARCH_START_RPS = 250.0
SEARCH_FACTOR = 1.5
SEARCH_MAX_RPS = 20_000.0
SEARCH_BISECTIONS = 3
SEARCH_P99_MS = 100.0
SEARCH_RESOLVE_S = 1.0

#: Every this many requests one admit->resolve span is traced.
REQUEST_SPAN_EVERY = 100


@dataclass(frozen=True)
class ServeSizes:
    """Fixture and traffic of one serving workload.

    Attributes:
        lo_rps, hi_rps: The two open-loop reference rates.
        poison_share: Share of requests carrying a NaN.
        swap_every_s: Seconds between model swaps (0: never).
        rows: Rows the fixture is generated with; its 2020 slice is the
            pool requests are drawn from.
        features, spurious: Generator width.
        epochs: LR-head epochs of the fixture.
    """

    lo_rps: float
    hi_rps: float
    poison_share: float = 0.0
    swap_every_s: float = 0.0
    rows: int = 20_000
    features: int = 210
    spurious: int = 16
    epochs: int = 30


SIZES = {
    "serve_steady": ServeSizes(lo_rps=200.0, hi_rps=2000.0),
    "serve_mixed": ServeSizes(lo_rps=200.0, hi_rps=400.0,
                              poison_share=0.005, swap_every_s=2.5),
}
SMOKE_SIZES = {
    "serve_steady": ServeSizes(lo_rps=200.0, hi_rps=600.0, rows=3_000,
                               features=40, spurious=4, epochs=3),
    "serve_mixed": ServeSizes(lo_rps=200.0, hi_rps=400.0, poison_share=0.05,
                              swap_every_s=0.3, rows=3_000, features=40,
                              spurious=4, epochs=3),
}


# ---------------------------------------------------------------- fixture


def train_fixture(sizes: ServeSizes, seed: int, root: str,
                  challenger: bool):
    """Train the served model(s) into a registry at ``root``.

    Runs in a spawned child.  The champion is the paper's model (default
    GBDT + LightMIRM head); the challenger, when asked for, is an ERM head
    on the same extractor, so a swap changes only the head.

    Returns:
        The 2020 rows requests are drawn from, their labels and provinces.
    """
    from repro.baselines.erm import ERMTrainer
    from repro.core.config import LightMIRMConfig
    from repro.core.lightmirm import LightMIRMTrainer
    from repro.data.generator import GeneratorConfig, LoanDataGenerator
    from repro.data.splits import temporal_split
    from repro.pipeline.pipeline import LoanDefaultPipeline
    from repro.serve.registry import ModelRegistry
    from repro.train.base import BaseTrainConfig

    dataset = LoanDataGenerator(GeneratorConfig(
        n_samples=sizes.rows, total_features=sizes.features,
        n_spurious=sizes.spurious, seed=seed)).generate()
    split = temporal_split(dataset)
    registry = ModelRegistry(root)
    champion = LoanDefaultPipeline(
        LightMIRMTrainer(LightMIRMConfig(n_epochs=sizes.epochs)))
    champion.fit(split.train)
    registry.save(champion)
    if challenger:
        other = LoanDefaultPipeline(
            ERMTrainer(BaseTrainConfig(n_epochs=sizes.epochs)),
            extractor=champion.extractor)
        other.fit(split.train)
        registry.save(other, slot="challenger")
    test = split.test
    return (np.ascontiguousarray(test.features), test.labels,
            np.asarray(test.provinces, dtype=str))


def _fixture_in_child(sizes: ServeSizes, seed: int, root: str,
                      challenger: bool):
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        return pool.apply(train_fixture, (sizes, seed, root, challenger))


def _quality(scores, labels, provinces):
    """2020 report of the served model (mean AUC, worst KS, ...)."""
    from repro.metrics.fairness import evaluate_environments

    names = np.unique(provinces)
    return evaluate_environments(
        {name: labels[provinces == name] for name in names},
        {name: scores[provinces == name] for name in names},
    )


# --------------------------------------------------------------- load gen


class Phase:
    """Raw per-request samples of one load phase."""

    def __init__(self, name: str, search: bool = False) -> None:
        self.name = name
        #: In a rate-search step a request that is not answered (shed,
        #: timed out) fails the step, not the run.
        self.search = search
        self.latency: list[float] = []    # clean ok requests, from due
        self.late: list[float] = []       # sent - due
        self.submit: list[float] = []     # caller-side submit() cost
        self.sent = 0
        self.failed = 0
        self.clean_failed = 0
        self.active_s = 0.0
        self.scheduled_s = self.sending_s = 0.0
        self.last_due = self.last_sent = self.last_resolved = 0.0


class LoadGen:
    """Drives one frontend from the event loop and checks every answer."""

    def __init__(self, frontend, rows, references, sizes: ServeSizes,
                 rng: np.random.Generator, ledger: Ledger) -> None:
        self.frontend = frontend
        self.rows = rows
        #: Reference scores per model index; generation -> model index.
        self.references = references
        self.generation_model = {frontend.generation: 0}
        self.sizes = sizes
        self.rng = rng
        self.ledger = ledger
        self.phases: list[Phase] = []
        self.failures: list[str] = []
        self.published_at: dict[int, float] = {}
        self.swap_visible: list[float] = []
        self.publish_seconds: list[float] = []
        # Poison every n-th request from a seeded offset: a fixed share
        # per phase, where Bernoulli draws would make it vary by seed.
        self._poison_every = (round(1.0 / sizes.poison_share)
                              if sizes.poison_share else 0)
        self._poison_offset = (int(rng.integers(self._poison_every))
                               if self._poison_every else 0)
        self._sequence = itertools.count()

    # ---------------------------------------------------------- requests

    def _send(self, phase: Phase, due: float):
        """Submit one request now; returns the coroutine that settles it."""
        sequence = next(self._sequence)
        index = int(self.rng.integers(self.rows.shape[0]))
        poisoned = bool(self._poison_every) and (
            sequence + self._poison_offset) % self._poison_every == 0
        row = self.rows[index]
        if poisoned:
            row = row.copy()
            row[int(self.rng.integers(row.shape[0]))] = np.nan
        admitted = self.frontend.generation
        sent = time.perf_counter()
        ticket = self.frontend.submit(row)
        phase.submit.append(time.perf_counter() - sent)
        phase.late.append(sent - due)
        phase.sent += 1
        phase.last_due, phase.last_sent = due, sent
        return self._settle(phase, ticket, index, poisoned, admitted, due,
                            sent)

    async def _settle(self, phase: Phase, ticket, index: int,
                      poisoned: bool, admitted: int, due: float,
                      sent: float) -> None:
        try:
            result = await asyncio.wait_for(ticket.wait(), RESOLVE_TIMEOUT_S)
        except asyncio.TimeoutError:
            result = None
        now = time.perf_counter()
        phase.last_resolved = max(phase.last_resolved, now)
        if (result is not None
                and ticket.request_id % REQUEST_SPAN_EVERY == 0):
            self.ledger.record("serve.request", now - sent,
                               request_id=ticket.request_id,
                               phase=phase.name, status=result.status)
        problem = self._check(result, index, poisoned, admitted, now)
        if problem is None:
            if not poisoned:
                phase.latency.append(now - due)
            return
        unanswered = result is None or result.status == OVERLOADED
        if not poisoned and (unanswered or not result.ok):
            phase.clean_failed += 1
        if phase.search and unanswered:
            return
        phase.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{phase.name}: {problem}")

    def _check(self, result, index: int, poisoned: bool, admitted: int,
               now: float) -> str | None:
        """Why an answer is wrong, or None when it is right."""
        if result is None:
            return f"row {index} unresolved after {RESOLVE_TIMEOUT_S} s"
        if poisoned:
            if result.status != ERROR:
                return f"poison row {index} resolved {result.status}"
            return None
        if not result.ok:
            return f"row {index} resolved {result.status}: {result.context}"
        if result.generation != admitted:
            return (f"row {index} scored on generation {result.generation},"
                    f" admitted on {admitted}")
        expected = self.references[self.generation_model[admitted]][index]
        if result.score != expected:
            return (f"row {index} generation {admitted}: score "
                    f"{result.score!r} != predict_proba {expected!r}")
        published = self.published_at.pop(admitted, None)
        if published is not None:
            self.swap_visible.append(now - published)
        return None

    # ------------------------------------------------------------ phases

    async def open_loop(self, phase: Phase, rate: float,
                        duration: float) -> None:
        """Poisson arrivals at ``rate`` for ``duration`` seconds."""
        gaps = self.rng.exponential(1.0 / rate,
                                    size=int(rate * duration * 1.5) + 16)
        offsets = np.cumsum(gaps)
        offsets = offsets[offsets < duration]
        tasks = []
        with self.ledger.span(f"loadgen.{phase.name}", rate=rate):
            start = time.perf_counter()
            for offset in offsets:
                due = start + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                tasks.append(asyncio.ensure_future(self._send(phase, due)))
            await asyncio.gather(*tasks)
            phase.active_s += time.perf_counter() - start
            if tasks:
                phase.scheduled_s += phase.last_due - start
                phase.sending_s += phase.last_sent - start

    async def closed_loop(self, phase: Phase, clients: int,
                          duration: float) -> None:
        """``clients`` back-to-back senders for ``duration`` seconds."""

        async def client() -> None:
            while time.perf_counter() < deadline:
                await self._send(phase, time.perf_counter())

        with self.ledger.span(f"loadgen.{phase.name}", clients=clients):
            start = time.perf_counter()
            deadline = start + duration
            await asyncio.gather(*(client() for _ in range(clients)))
            phase.active_s += time.perf_counter() - start

    async def swap_models(self, models, every: float) -> None:
        """Publish the other head every ``every`` seconds until cancelled."""
        for model_index in itertools.cycle((1, 0)):
            await asyncio.sleep(every)
            start = time.perf_counter()
            with self.ledger.span("serve.frontend.publish_ms"):
                generation = self.frontend.publish(models[model_index])
            self.publish_seconds.append(time.perf_counter() - start)
            self.generation_model[generation] = model_index
            self.published_at[generation] = start

    async def _step_passes(self, rate: float, duration: float) -> bool:
        phase = Phase(f"search_{rate:.0f}", search=True)
        self.phases.append(phase)
        await self.open_loop(phase, rate, duration)
        return (phase.clean_failed == 0 and bool(phase.latency)
                and quantile_ms(phase.latency, 99) <= SEARCH_P99_MS
                and phase.last_resolved - phase.last_sent
                <= SEARCH_RESOLVE_S)

    async def max_rate(self, step_s: float, bisect_s: float) -> float:
        """Highest rate whose step passes (0 if none does)."""
        passed, rate = 0.0, SEARCH_START_RPS
        while rate <= SEARCH_MAX_RPS and await self._step_passes(rate, step_s):
            passed, rate = rate, rate * SEARCH_FACTOR
        if rate > SEARCH_MAX_RPS:
            return passed
        low, high = passed, rate
        for _ in range(SEARCH_BISECTIONS):
            middle = (low + high) / 2
            if await self._step_passes(middle, bisect_s):
                low = middle
            else:
                high = middle
        return low

    async def drive(self, models, seconds: float, traced: bool) -> dict:
        """Warm up, then the measured phases (and, traced, the rate search)."""
        swapper = None
        if self.sizes.swap_every_s:
            swapper = asyncio.ensure_future(
                self.swap_models(models, self.sizes.swap_every_s))
        out: dict = {}
        try:
            warmup = Phase("warmup")
            self.phases.append(warmup)
            await self.open_loop(warmup, self.sizes.lo_rps, WARMUP_S)
            rss = PeakRSS()
            rss.reset(self.frontend.worker_pids)
            start = time.perf_counter()
            # Worker counters before and after each phase (traced only:
            # they come from the live metrics plane).
            out["marks"] = marks = [_workers(self.frontend)] if traced else []
            for name, share in PHASES:
                phase = out[name] = Phase(name)
                self.phases.append(phase)
                if name == "flood":
                    await self.closed_loop(phase, FLOOD_CLIENTS,
                                           share * seconds)
                else:
                    rate = (self.sizes.lo_rps if name == "lo"
                            else self.sizes.hi_rps)
                    await self.open_loop(phase, rate, share * seconds)
                if traced:
                    marks.append(_workers(self.frontend))
            out["peak_rss_mb"] = rss.read_mb()
            out["window_s"] = time.perf_counter() - start
            if traced:
                out["max_rate_rps"] = await self.max_rate(
                    step_s=max(0.2, seconds / 10),
                    bisect_s=max(0.3, seconds / 6))
        finally:
            if swapper is not None:
                swapper.cancel()
                try:
                    await swapper
                except asyncio.CancelledError:
                    pass
        return out


# ---------------------------------------------------------- measurements


def _workers(frontend) -> dict:
    """Rows, batches and batch seconds the workers have scored so far."""
    workers = frontend.snapshot()["workers"]
    batch = workers["histograms"]["batch_latency"]
    return {"rows": workers["counters"]["rows_scored"],
            "batches": workers["counters"]["batches"],
            "batch_s": batch["mean"] * batch["count"],
            "timed_batches": batch["count"]}


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _kernels(model, rows: np.ndarray) -> dict:
    """The served model's layers, by per-layer metric prefix."""
    from repro.serve.service import ScoringService

    gbdt, encoder = model.encoder.model, model.encoder
    binned = gbdt.bin_features(rows)
    leaves = gbdt.predict_leaves_binned(binned)
    encoded = encoder.encode_leaves(leaves)
    service = ScoringService(model)
    return {
        "serve.service.us_per_row": lambda: service.score_batch(rows),
        "gbdt.binning.us_per_row": lambda: gbdt.bin_features(rows),
        "gbdt.tree.route_us_per_row":
            lambda: gbdt.predict_leaves_binned(binned),
        "gbdt.leaf_encoder.encode_us_per_row":
            lambda: encoder.encode_leaves(leaves),
        "models.logistic.head_us_per_row":
            lambda: model.model.predict_proba(model.theta, encoded),
    }


def kernel_costs(model, rows: np.ndarray, n: int, tag: str,
                 ledger: Ledger) -> dict:
    """Per-row microseconds of each layer on ``n``-row batches."""
    from repro.timing import measure

    batch = np.ascontiguousarray(rows[:n])
    costs = {}
    for prefix, call in _kernels(model, batch).items():
        name = f"{prefix}_{tag}"
        with ledger.span(name, rows=n):
            seconds = measure(call, repeats=200 if n == 1 else 50,
                              warmup=5).median_seconds
        costs[name] = seconds / n * 1e6
    return costs


def run(workload: str, seed: int, seconds: float, ledger: Ledger,
        work_dir, smoke: bool = False) -> dict:
    """Measure one serving run; same return shape as ``train.run``."""
    from repro.serve.frontend import FrontendConfig, ScoringFrontend
    from repro.serve.registry import CHALLENGER, CHAMPION, ModelRegistry

    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    traced = ledger.tracer is not None
    mixed = bool(sizes.swap_every_s)
    root = str(work_dir / "registry")
    rows, labels, provinces = _fixture_in_child(sizes, FIXTURE_SEED, root,
                                                mixed)

    registry = ModelRegistry(root)
    config = FrontendConfig(n_workers=1, live_metrics=traced)
    loads, starts, frontend = [], [], None
    for _ in range(SETUP_REPEATS):
        if frontend is not None:
            frontend.stop()
        start = time.perf_counter()
        with ledger.span("serve.registry.load_s"):
            model = registry.load(CHAMPION)
        loaded = time.perf_counter()
        with ledger.span("serve.frontend.start_s"):
            frontend = ScoringFrontend(model, config).start()
        starts.append(time.perf_counter() - loaded)
        loads.append(loaded - start)
    models = [model] + ([registry.load(CHALLENGER)] if mixed else [])
    references = [m.predict_proba(rows) for m in models]

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C6F6164]))
    loadgen = LoadGen(frontend, rows, references, sizes, rng, ledger)
    try:
        out = asyncio.run(loadgen.drive(models, seconds, traced))
        snapshot = frontend.snapshot()
    finally:
        frontend.stop()

    lo, flood = out["lo"], out["flood"]
    quality = _quality(references[0], labels, provinces)
    values = {
        "setup_s": median([a + b for a, b in zip(loads, starts)]),
        "peak_rss_mb": out["peak_rss_mb"],
        "test_mauc": quality.mean_auc,
        "test_wks": quality.worst_ks,
    }
    report = []
    for phase in (lo, out["hi"], flood):
        q = tail_percentile(len(phase.latency))
        report.append(
            f"{phase.name}: sent {phase.sent}, latency samples "
            f"{len(phase.latency)}, p50 {quantile_ms(phase.latency, 50):.2f}"
            f" ms, p{q:g} {quantile_ms(phase.latency, q):.2f} ms, generator "
            f"late p99 {quantile_ms(phase.late, 99):.2f} ms, wrong "
            f"{phase.failed}")
    report.append(f"setup x{SETUP_REPEATS}: "
                  + ", ".join(f"{a + b:.4f}" for a, b in zip(loads, starts))
                  + " s")
    capacity = (flood.sent - flood.failed) / flood.active_s
    report.append(f"flood answered {capacity:.0f} rows/s")
    layers = {}
    if traced:
        layers = _layers(model, rows, loads, starts, snapshot, out, loadgen,
                         capacity, ledger, report)
    return {
        "values": values,
        "layers": layers,
        "attempted": sum(p.sent for p in loadgen.phases),
        "failed": sum(p.failed for p in loadgen.phases),
        "failures": loadgen.failures,
        "report": report,
    }


def _layers(model, rows, loads, starts, snapshot, out: dict,
            loadgen: LoadGen, capacity: float, ledger: Ledger,
            report: list[str]) -> dict:
    lo, hi = out["lo"], out["hi"]
    marks = out["marks"]
    whole = _delta(marks[-1], marks[0])
    at_lo = _delta(marks[1], marks[0])
    at_flood = _delta(marks[3], marks[2])
    batch_n = max(1, round(at_flood["rows"] / max(1, at_flood["batches"])))
    submits = lo.submit + hi.submit
    telemetry = snapshot["telemetry"]
    layers = {
        "p50_ms": quantile_ms(lo.latency, 50),
        "serve.registry.load_s": median(loads),
        "serve.frontend.start_s": median(starts),
        "serve.frontend.submit_us_p50": quantile_ms(submits, 50) * 1e3,
        "serve.frontend.submit_us_p99": quantile_ms(submits, 99) * 1e3,
        "serve.worker.batches": whole["batches"],
        "serve.worker.rows_per_batch":
            whole["rows"] / max(1, whole["batches"]),
        "serve.worker.batch_ms_mean":
            whole["batch_s"] / max(1, whole["timed_batches"]) * 1e3,
        "serve.max_rate_rps": out["max_rate_rps"],
        "loadgen.flood_rows_per_s": capacity,
        "loadgen.lo_p99_ms": quantile_ms(lo.latency, 99),
        "loadgen.hi_p50_ms": quantile_ms(hi.latency, 50),
        "loadgen.hi_p99_ms": quantile_ms(hi.latency, 99),
        "loadgen.late_p99_ms": quantile_ms(lo.late + hi.late, 99),
        # How far the send schedule stretched: 1.0 when every request
        # went out on time.
        "loadgen.achieved_share": min(p.scheduled_s / p.sending_s
                                      for p in (lo, hi)),
        "serve.frontend.shed": telemetry["shed"],
        "serve.frontend.requeued": telemetry["requeued"],
        "serve.frontend.worker_deaths": telemetry["worker_deaths"],
    }
    if loadgen.publish_seconds:
        layers["serve.frontend.publish_ms"] = (
            median(loadgen.publish_seconds) * 1e3)
    if loadgen.swap_visible:
        layers["serve.shm_publish.swap_visible_ms"] = (
            median(loadgen.swap_visible) * 1e3)
    layers.update(kernel_costs(model, rows, 1, "b1", ledger))
    layers.update(kernel_costs(model, rows, batch_n, "bN", ledger))
    # Per-row cost of the frontend beyond the in-process service at the
    # batch size the flooded worker runs: both sides saturated.
    layers["serve.frontend.overhead_us_per_row"] = (
        1e6 / capacity - layers["serve.service.us_per_row_bN"])
    # Latency at the lo rate that neither the caller's submit() nor the
    # worker's batch accounts for: queues, IPC, collector, wake-ups.
    attributed = (float(np.mean(lo.submit))
                  + at_lo["batch_s"] / max(1, at_lo["timed_batches"]))
    layers["trace.untimed_share"] = 1.0 - attributed / float(
        np.mean(lo.latency))
    layers["trace.overhead_pct"] = (100.0 * ledger.overhead_s
                                    / out["window_s"])
    report.append(f"bN uses N={batch_n} (rows per batch while flooded); "
                  f"max rate {layers['serve.max_rate_rps']:.0f} rps")
    return layers
