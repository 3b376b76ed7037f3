"""Tracked serving benchmarks: batching, registry, multi-worker, telemetry.

Four tracked scenarios, written to ``BENCH_serving.json`` (run via
``python -m repro serve-bench``):

* ``micro_batching`` — scoring the same rows through the
  :class:`~repro.serve.service.ScoringService` micro-batch queue vs a
  row-at-a-time ``predict_proba`` loop on the same artifact.  Reports the
  throughput ratio and asserts the scores are **bit-identical** — the
  speedup is free of numerical drift by construction.
* ``registry_load`` — wall time of ``ModelRegistry.load("champion")``,
  the cost of a serving process (re)start or a promote-triggered reload.
* ``workers`` — the multi-worker shared-memory front-end
  (:class:`~repro.serve.frontend.ScoringFrontend`) at each tracked worker
  count: end-to-end p50/p99 request latency, sustained rows/sec, and the
  bit-identity flag against single-process ``predict_proba`` (the CI soak
  gate).
* ``metrics_overhead`` — the same front-end stream with the live
  telemetry plane fully enabled (metrics slab + every online monitor)
  vs disabled.  The enabled path must stay bit-identical (gated by
  :data:`SERVING_PAYLOAD`) and its per-row cost is recorded against a
  <2% budget (``within_budget``, reported, not gated).

The fixture artifact is a real (small) GBDT+LR pipeline trained on the
synthetic platform, stored in a temporary :class:`ModelRegistry`.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.perfbench.payload import BenchPayload
from repro.timing import measure

__all__ = ["SERVING_PAYLOAD", "ServingBenchConfig", "run_serving_suite"]

#: Relative wall-clock budget of the enabled telemetry plane, percent.
METRICS_OVERHEAD_BUDGET_PCT = 2.0


@dataclass(frozen=True)
class ServingBenchConfig:
    """Sizes and repetition counts of one serving-suite run.

    The default is the tracked configuration; :meth:`smoke` shrinks
    everything for CI rot-protection.

    Attributes:
        n_train: Rows of the synthetic platform the fixture model trains on.
        n_score: Request rows scored by each scenario.
        batch_size: Micro-batch auto-flush threshold.
        n_epochs: LR-head epochs of the fixture model (quality irrelevant).
        repeats: Timing repeats per scenario (median reported).
        seed: Data/trainer seed.
        worker_counts: Front-end worker counts the ``workers`` scenario
            sweeps (the tracked file reports 1/2/4).
    """

    n_train: int = 8_000
    n_score: int = 2_000
    batch_size: int = 256
    n_epochs: int = 10
    repeats: int = 3
    warmup: int = 1
    seed: int = 0
    worker_counts: tuple[int, ...] = (1, 2, 4)

    @classmethod
    def smoke(cls) -> "ServingBenchConfig":
        """Tiny sizes: every scenario exercised once, nothing timed long."""
        return cls(n_train=1_500, n_score=200, batch_size=32, n_epochs=2,
                   repeats=1, warmup=0, worker_counts=(1, 2))


def _fixture(config: ServingBenchConfig, root: pathlib.Path,
             model_path: str | pathlib.Path | None = None):
    """Train a small pipeline, store it in a registry, return the pieces.

    With ``model_path`` set, no fixture is trained: the saved artifact
    (e.g. the scale benchmark's 1.4M-row model, via
    ``scale-bench --save-model``) is imported as champion instead, and
    request rows are generated at that model's feature width — the
    "does the ScoringService sustain the paper-scale model" mode.
    """
    from repro.baselines.erm import ERMTrainer
    from repro.data.generator import GeneratorConfig, LoanDataGenerator
    from repro.data.splits import temporal_split
    from repro.pipeline.pipeline import LoanDefaultPipeline
    from repro.serve.registry import ModelRegistry
    from repro.train.base import BaseTrainConfig

    if model_path is not None:
        registry = ModelRegistry(root)
        registry.import_file(model_path, metadata={"bench": "serving"},
                             slot="champion")
        model = registry.load("champion")
        # The artifact's binner fixes the raw feature width it scores.
        n_features = len(model.encoder.model.binner.bin_edges_)
        dataset = LoanDataGenerator(
            GeneratorConfig(
                n_samples=max(config.n_score, 2_000),
                total_features=n_features,
                n_spurious=min(8, max(1, n_features // 8)),
                seed=config.seed,
            )
        ).generate()
        rng = np.random.default_rng(config.seed)
        take = rng.choice(dataset.features.shape[0], size=config.n_score,
                          replace=True)
        return registry, np.ascontiguousarray(dataset.features[take])

    dataset = LoanDataGenerator(
        GeneratorConfig(n_samples=config.n_train, total_features=40,
                        n_spurious=4, seed=config.seed)
    ).generate()
    split = temporal_split(dataset)
    pipeline = LoanDefaultPipeline(
        ERMTrainer(BaseTrainConfig(n_epochs=config.n_epochs))
    )
    pipeline.fit(split.train)
    registry = ModelRegistry(root)
    registry.save(pipeline, metadata={"bench": "serving"})

    rng = np.random.default_rng(config.seed)
    rows = split.test.features
    take = rng.choice(rows.shape[0], size=config.n_score, replace=True)
    return registry, np.ascontiguousarray(rows[take])


def bench_micro_batching(config: ServingBenchConfig, registry,
                         request_rows: np.ndarray) -> dict:
    """Micro-batched service throughput vs a row-at-a-time loop."""
    from repro.serve.service import ScoringService, ServiceConfig

    model = registry.load("champion")

    def rows_loop() -> np.ndarray:
        return np.array(
            [model.predict_proba(row[None, :])[0] for row in request_rows]
        )

    def batched() -> np.ndarray:
        service = ScoringService(
            model, config=ServiceConfig(max_batch_size=config.batch_size)
        )
        tickets = [service.submit(row) for row in request_rows]
        service.flush()
        return np.array([t.score for t in tickets])

    row_scores = rows_loop()
    batch_scores = batched()
    bit_identical = bool(np.array_equal(row_scores, batch_scores))

    row_time = measure(rows_loop, repeats=config.repeats,
                       warmup=config.warmup)
    batch_time = measure(batched, repeats=config.repeats,
                         warmup=config.warmup)
    n = request_rows.shape[0]
    return {
        "n_rows": n,
        "batch_size": config.batch_size,
        "row_at_a_time_s": row_time.median_seconds,
        "micro_batched_s": batch_time.median_seconds,
        "row_at_a_time_rows_per_s": n / row_time.median_seconds,
        "micro_batched_rows_per_s": n / batch_time.median_seconds,
        "speedup_batched_vs_rows": (
            row_time.median_seconds / batch_time.median_seconds
            if batch_time.median_seconds > 0 else float("inf")
        ),
        "bit_identical": bit_identical,
        "repeats": config.repeats,
    }


def bench_registry_load(config: ServingBenchConfig, registry,
                        request_rows: np.ndarray) -> dict:
    """Champion load latency: the cost of a serving (re)start."""
    del request_rows
    load_time = measure(lambda: registry.load("champion"),
                        repeats=max(config.repeats, 3),
                        warmup=config.warmup)
    return {
        "median_s": load_time.median_seconds,
        "best_s": load_time.best_seconds,
        "repeats": load_time.repeats,
    }


def bench_workers(config: ServingBenchConfig, registry,
                  request_rows: np.ndarray) -> dict:
    """Multi-worker shared-memory front-end at each tracked worker count.

    One :class:`~repro.serve.frontend.ScoringFrontend` per count scores
    the whole request stream; latency percentiles come from the
    front-end's own admission→resolution histogram (so they include
    queueing delay, not just compute), and every count's scores are
    checked bit-identical against single-process ``predict_proba`` — the
    flag the CI soak step gates on.
    """
    from repro.serve.frontend import FrontendConfig, ScoringFrontend

    model = registry.load("champion")
    reference = model.predict_proba(request_rows)
    n = request_rows.shape[0]
    per_workers: dict[str, dict] = {}
    for count in config.worker_counts:
        frontend = ScoringFrontend(
            model,
            FrontendConfig(n_workers=count,
                           max_batch_size=config.batch_size,
                           max_queue=max(2 * n, 64)),
        )
        frontend.start()
        try:
            def stream() -> np.ndarray:
                results = frontend.score_stream(request_rows)
                return np.array([r.score for r in results])

            scores = stream()
            bit_identical = bool(np.array_equal(scores, reference))
            wall = measure(stream, repeats=config.repeats,
                           warmup=config.warmup)
            latency = frontend.telemetry.request_latency
            per_workers[str(count)] = {
                "n_rows": n,
                "p50_ms": latency.percentile(50) * 1e3,
                "p99_ms": latency.percentile(99) * 1e3,
                "rows_per_s": n / wall.median_seconds,
                "wall_s": wall.median_seconds,
                "bit_identical": bit_identical,
                "shed": frontend.telemetry.shed,
                "errors": frontend.telemetry.errors,
            }
        finally:
            frontend.stop()
    return {
        "worker_counts": [int(c) for c in config.worker_counts],
        "batch_size": config.batch_size,
        "per_workers": per_workers,
        "bit_identical": all(
            entry["bit_identical"] for entry in per_workers.values()
        ),
        "repeats": config.repeats,
    }


def bench_metrics_overhead(config: ServingBenchConfig, registry,
                           request_rows: np.ndarray) -> dict:
    """Enabled-vs-disabled cost of the live telemetry plane.

    Two 2-worker front-ends score the same stream: one plain, one with
    the metrics slab and the full monitor set (score drift, calibration,
    SLO burn, health) attached.  Re-checks bit-identity and records the
    enabled path's per-row cost against a <2% budget — observability
    must cost (almost) nothing and change nothing.

    The recorded ratio deliberately does not compare the two end-to-end
    walls: a 2000-row multi-process stream takes ~0.2 s and jitters by
    ±15% on a busy machine, so a 2% wall delta is unmeasurable (both
    walls are still reported for context).  Instead the per-row work the
    plane adds on the collector thread — the front-end's serialization
    point, so extra per-row work there is critical-path time at
    saturation — is timed in a tight loop over the exact monitor calls
    the resolve path makes, and compared to the plain front-end's
    per-row service time.  The score-drift monitor once cost 16 µs/row
    (~18% of the wall) before its updates were chunked; the tier-1 suite
    guards that path by counting its Python calls per row, which does
    not depend on the machine.
    """
    from repro.obs.live.health import HealthMonitor
    from repro.obs.live.monitors import (
        CalibrationMonitor, ScoreDriftMonitor, SLOConfig, SLOTracker,
    )
    from repro.serve.frontend import FrontendConfig, ScoringFrontend

    model = registry.load("champion")
    reference = model.predict_proba(request_rows)
    n = request_rows.shape[0]
    n_workers = 2
    repeats = max(config.repeats, 3)

    def make(live: bool) -> ScoringFrontend:
        kwargs = {}
        if live:
            kwargs = dict(
                score_drift=ScoreDriftMonitor(reference, window_rows=500),
                calibration=CalibrationMonitor(float(reference.mean())),
                slo_tracker=SLOTracker([
                    SLOConfig("admission", error_budget=0.01),
                    SLOConfig("latency", error_budget=0.05),
                ]),
                health_monitor=HealthMonitor(),
            )
        frontend = ScoringFrontend(
            model,
            FrontendConfig(n_workers=n_workers,
                           max_batch_size=config.batch_size,
                           max_queue=max(2 * n, 64),
                           live_metrics=live),
            **kwargs,
        )
        return frontend.start()

    def stream(frontend: ScoringFrontend) -> np.ndarray:
        results = frontend.score_stream(request_rows)
        return np.array([r.score for r in results])

    off_frontend = make(live=False)
    try:
        stream(off_frontend)                          # warm the pool
        off_wall = measure(lambda: stream(off_frontend), repeats=repeats,
                           warmup=0)
    finally:
        off_frontend.stop()
    on_frontend = make(live=True)
    try:
        on_scores = stream(on_frontend)
        on_wall = measure(lambda: stream(on_frontend), repeats=repeats,
                          warmup=0)
    finally:
        on_frontend.stop()

    # Deterministic per-row cost of the live resolve path: the same
    # observe() calls the collector makes per OK resolution.
    drift = ScoreDriftMonitor(reference, window_rows=500)
    calibration = CalibrationMonitor(float(reference.mean()))
    scores = [float(s) for s in reference]

    def live_row_path() -> None:
        for score in scores:
            drift.observe(score)
            calibration.observe(score)

    per_row = measure(live_row_path, repeats=repeats, warmup=1)
    monitor_us_per_row = per_row.best_seconds / n * 1e6
    service_us_per_row = off_wall.median_seconds / n * 1e6
    overhead_pct = monitor_us_per_row / service_us_per_row * 100.0
    return {
        "n_rows": n,
        "n_workers": n_workers,
        "plane_off_s": off_wall.median_seconds,
        "plane_on_s": on_wall.median_seconds,
        "monitor_us_per_row": monitor_us_per_row,
        "service_us_per_row": service_us_per_row,
        "overhead_pct": overhead_pct,
        "budget_pct": METRICS_OVERHEAD_BUDGET_PCT,
        "within_budget": bool(overhead_pct <= METRICS_OVERHEAD_BUDGET_PCT),
        "bit_identical": bool(np.array_equal(on_scores, reference)),
        "repeats": repeats,
    }


#: Scenario id -> runner, in report order.
SERVING_BENCHMARKS = {
    "micro_batching": bench_micro_batching,
    "registry_load": bench_registry_load,
    "workers": bench_workers,
    "metrics_overhead": bench_metrics_overhead,
}


def run_serving_suite(config: ServingBenchConfig | None = None,
                      only: list[str] | None = None,
                      tracer: Tracer | None = None,
                      model_path: str | pathlib.Path | None = None) -> dict:
    """Run the serving benchmarks and return JSON-compatible results.

    Args:
        config: Sizes/repeats; defaults to the tracked configuration.
        only: Optional subset of :data:`SERVING_BENCHMARKS` keys.
        tracer: Optional run tracer; each scenario runs inside a span and
            its result lands in a ``serving_bench`` event.
        model_path: Optional saved artifact to serve instead of training
            the fixture model (``serve-bench --model``; see
            :func:`_fixture`).

    Returns:
        Mapping scenario id -> result entry.
    """
    config = config or ServingBenchConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    names = list(SERVING_BENCHMARKS) if only is None else list(only)
    unknown = set(names) - set(SERVING_BENCHMARKS)
    if unknown:
        raise ValueError(f"unknown serving benchmarks: {sorted(unknown)}")
    results: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        with tracer.span("serving_fixture"):
            registry, request_rows = _fixture(
                config, pathlib.Path(tmp) / "reg", model_path=model_path
            )
        for name in names:
            with tracer.span(f"bench:{name}"):
                results[name] = SERVING_BENCHMARKS[name](
                    config, registry, request_rows
                )
            tracer.event("serving_bench", scenario=name, **results[name])
    return results


#: Schema of BENCH_serving.json (format 3 added ``metrics_overhead``).
SERVING_PAYLOAD = BenchPayload(
    format=3,
    fields={
        "micro_batching.micro_batched_rows_per_s": float,
        "micro_batching.bit_identical": bool,
        "registry_load.median_s": float,
        "workers.per_workers.*.p50_ms": float,
        "workers.per_workers.*.p99_ms": (0, 60_000),
        "workers.per_workers.*.rows_per_s": float,
        "workers.per_workers.*.bit_identical": bool,
        "workers.bit_identical": bool,
        "metrics_overhead.plane_off_s": float,
        "metrics_overhead.plane_on_s": float,
        "metrics_overhead.monitor_us_per_row": float,
        "metrics_overhead.service_us_per_row": float,
        "metrics_overhead.overhead_pct": float,
        "metrics_overhead.budget_pct": float,
        "metrics_overhead.within_budget": bool,
        "metrics_overhead.bit_identical": bool,
    },
    show=("micro_batched_rows_per_s", "row_at_a_time_rows_per_s",
          "speedup_batched_vs_rows", "median_s", "rows_per_s", "p50_ms",
          "p99_ms", "overhead_pct", "within_budget", "bit_identical"),
)
