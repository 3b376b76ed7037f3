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
  vs disabled.  The enabled path carries a <2% overhead budget and must
  stay bit-identical; both are CI gates via
  :func:`validate_serving_payload`.

The fixture artifact is a real (small) GBDT+LR pipeline trained on the
synthetic platform, stored in a temporary :class:`ModelRegistry`.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.timing import measure

__all__ = [
    "ServingBenchConfig",
    "run_serving_suite",
    "summarize_serving",
    "validate_serving_payload",
    "write_serving_bench_json",
]

#: Format version of BENCH_serving.json (3 added ``metrics_overhead``).
SERVING_BENCH_FORMAT = 3

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
    SLO burn, health) attached.  Re-checks bit-identity and gates the
    enabled path's per-row cost against a <2% budget — observability
    must cost (almost) nothing and change nothing.

    The *gate* deliberately does not compare the two end-to-end walls:
    a 2000-row multi-process stream takes ~0.2 s and jitters by ±15% on
    a busy machine, so a 2% wall delta is unmeasurable (both walls are
    still reported for context).  Instead the per-row work the plane
    adds on the collector thread — the front-end's serialization point,
    so extra per-row work there is critical-path time at saturation —
    is timed deterministically in a tight loop over the exact monitor
    calls the resolve path makes, and compared to the plain front-end's
    per-row service time.  That ratio is stable, and a real regression
    trips it hard: the gate exists because the score-drift monitor once
    cost 16 µs/row (~18% of the wall) before its updates were chunked.
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


def write_serving_bench_json(
    path: str | pathlib.Path,
    results: dict,
    config: ServingBenchConfig,
) -> dict:
    """Write the tracked ``BENCH_serving.json`` payload and return it."""
    from repro.perfbench.suites import machine_info

    payload = {
        "format": SERVING_BENCH_FORMAT,
        "config": {
            "n_train": config.n_train,
            "n_score": config.n_score,
            "batch_size": config.batch_size,
            "repeats": config.repeats,
            "worker_counts": [int(c) for c in config.worker_counts],
        },
        "machine": machine_info(),
        "benchmarks": results,
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def validate_serving_payload(payload: dict) -> list[str]:
    """Schema-check one ``BENCH_serving.json`` payload (CI gate).

    Returns a list of human-readable problems; an empty list means the
    payload is structurally sound.  Checked: format version, the
    presence/shape of every scenario that appears, and — for the
    ``workers`` scenario — that every swept count reports p50/p99
    latency, rows/sec and a bit-identity flag.
    """
    problems: list[str] = []
    if payload.get("format") != SERVING_BENCH_FORMAT:
        problems.append(
            f"format is {payload.get('format')!r}, "
            f"expected {SERVING_BENCH_FORMAT}"
        )
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict) or not benchmarks:
        return problems + ["benchmarks section missing or empty"]
    unknown = set(benchmarks) - set(SERVING_BENCHMARKS)
    if unknown:
        problems.append(f"unknown scenarios: {sorted(unknown)}")
    required_scalar = {
        "micro_batching": ("micro_batched_rows_per_s", "bit_identical"),
        "registry_load": ("median_s",),
        "metrics_overhead": ("plane_off_s", "plane_on_s",
                             "monitor_us_per_row", "service_us_per_row",
                             "overhead_pct", "budget_pct", "within_budget",
                             "bit_identical"),
    }
    for name, keys in required_scalar.items():
        entry = benchmarks.get(name)
        if entry is None:
            continue
        for key in keys:
            if key not in entry:
                problems.append(f"{name}: missing key {key!r}")
    workers = benchmarks.get("workers")
    if workers is not None:
        per_workers = workers.get("per_workers")
        if not isinstance(per_workers, dict) or not per_workers:
            problems.append("workers: per_workers missing or empty")
        else:
            for count, entry in per_workers.items():
                for key in ("p50_ms", "p99_ms", "rows_per_s",
                            "bit_identical"):
                    if key not in entry:
                        problems.append(
                            f"workers[{count}]: missing key {key!r}"
                        )
                if entry.get("bit_identical") is not True:
                    problems.append(
                        f"workers[{count}]: bit_identical is not true"
                    )
                p99 = entry.get("p99_ms")
                if not (isinstance(p99, (int, float)) and 0 < p99 < 60_000):
                    problems.append(
                        f"workers[{count}]: p99_ms {p99!r} fails sanity "
                        f"(0 < p99 < 60000 ms)"
                    )
        if "bit_identical" in workers and workers["bit_identical"] is not True:
            problems.append("workers: aggregate bit_identical is not true")
    overhead = benchmarks.get("metrics_overhead")
    if overhead is not None:
        if overhead.get("within_budget") is not True:
            problems.append(
                f"metrics_overhead: enabled plane costs "
                f"{overhead.get('overhead_pct')!r}% against a "
                f"{overhead.get('budget_pct')!r}% budget"
            )
        if overhead.get("bit_identical") is not True:
            problems.append("metrics_overhead: bit_identical is not true")
    return problems


def summarize_serving(results: dict) -> str:
    """Human-readable one-line-per-scenario rendering."""
    lines = []
    if "micro_batching" in results:
        entry = results["micro_batching"]
        lines.append(
            f"micro_batching   "
            f"{entry['micro_batched_rows_per_s']:10.0f} rows/s batched"
            f"   {entry['row_at_a_time_rows_per_s']:8.0f} rows/s looped"
            f"   speedup {entry['speedup_batched_vs_rows']:6.2f}x"
            f"   bit_identical={entry['bit_identical']}"
        )
    if "registry_load" in results:
        entry = results["registry_load"]
        lines.append(
            f"registry_load    {entry['median_s'] * 1e3:10.3f} ms median"
        )
    if "workers" in results:
        for count, entry in sorted(results["workers"]["per_workers"].items(),
                                   key=lambda item: int(item[0])):
            lines.append(
                f"workers={count}        "
                f"{entry['rows_per_s']:10.0f} rows/s"
                f"   p50 {entry['p50_ms']:7.3f} ms"
                f"   p99 {entry['p99_ms']:7.3f} ms"
                f"   bit_identical={entry['bit_identical']}"
            )
    if "metrics_overhead" in results:
        entry = results["metrics_overhead"]
        lines.append(
            f"metrics_overhead {entry['overhead_pct']:10.2f} % per-row"
            f"   {entry['monitor_us_per_row']:8.2f} us/row"
            f"   budget {entry['budget_pct']:.1f}%"
            f"   within_budget={entry['within_budget']}"
            f"   bit_identical={entry['bit_identical']}"
        )
    return "\n".join(lines)
