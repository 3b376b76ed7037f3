"""Command-line interface for the LightMIRM reproduction.

Usage (after ``pip install -e .``)::

    python -m repro generate --n-samples 40000 --out platform.npz
    python -m repro train --method LightMIRM --data platform.npz --out model.json
    python -m repro train --method LightMIRM --data platform.npz --registry reg/
    python -m repro evaluate --model model.json --data platform.npz
    python -m repro registry list --root reg/
    python -m repro registry promote --root reg/ --version v0002
    python -m repro serve-score --registry reg/ --data platform.npz
    python -m repro serve-run --registry reg/ --data platform.npz --workers 4
    python -m repro serve-run --registry reg/ --data platform.npz \\
        --workers 4 --metrics-port 9100 --trace serve.jsonl
    python -m repro obs top --url http://127.0.0.1:9100
    python -m repro experiment table1
    python -m repro experiment table1 table2 fig4 --jobs 4
    python -m repro bench --jobs 2 4 8 --out BENCH_parallel.json
    python -m repro scale-bench --out BENCH_scale.json
    python -m repro scale-bench --smoke --save-model scale_model.json
    python -m repro tune-bench --out BENCH_tune.json
    python -m repro verify --out VERIFY_invariance.json
    python -m repro tune --trainers LightMIRM IRMv1 --jobs 4
    python -m repro tune --smoke --trace tune.jsonl
    python -m repro train --method LightMIRM --data platform.npz --trace run.jsonl
    python -m repro obs report run.jsonl
    python -m repro list

``experiment`` runs the paper's tables/figures named on its command line,
each on its platform (``repro.experiments.runner.EXPERIMENTS``), and
prints the same rows/series the paper reports.  ``--trace PATH``
(on ``train``, ``verify``, ``serve-run``, ``tune`` and ``experiment``)
records a structured JSONL run log; ``repro obs report|summary|diff``
renders it offline (see ``docs/observability.md``).
``serve-run --metrics-port`` turns on the live telemetry plane
(Prometheus + JSON exposition, online drift/SLO monitors, health alerts)
and ``repro obs top`` watches it.
The ``bench``/``*-bench`` commands write their ``BENCH_*.json`` payload
and exit 1 when it fails its schema (see ``repro.perfbench.payload``).
They measure only what the repository benchmark (``bench/run.py``)
cannot: the parallel fan-out, the paper-scale points and the tune
encoding cache.  A command whose output directory is missing exits 2
before it runs anything.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator

import numpy as np

from repro.baselines.finetune import FineTuneTrainer
from repro.data.dataset import LoanDataset
from repro.data.generator import GeneratorConfig, LoanDataGenerator
from repro.data.splits import temporal_split
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentContext,
    ExperimentSettings,
)
from repro.metrics.fairness import evaluate_environments
from repro.obs.runlog import run_manifest_fields
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.serve.registry import ModelRegistry
from repro.train.registry import make_trainer, trainer_names

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LightMIRM reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The run-log flag of every command that can trace its run.
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", metavar="PATH",
                        help="write a structured JSONL run log")

    gen = sub.add_parser("generate", help="generate a synthetic platform")
    gen.add_argument("--n-samples", type=int, default=40_000)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--total-features", type=int, default=60)
    gen.add_argument("--out", required=True, help="output .npz path")

    train = sub.add_parser("train", parents=[traced],
                           help="train a GBDT+LR pipeline")
    train.add_argument("--method", default="LightMIRM",
                       help="trainer name or alias (see `repro list`)")
    train.add_argument("--data", required=True, help="dataset .npz path")
    train.add_argument("--out", help="save the fitted model as JSON")
    train.add_argument("--registry",
                       help="save the fitted model as a new registry version")
    train.add_argument("--slot", choices=("champion", "challenger"),
                       help="promote the saved version into a slot "
                            "(with --registry)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--epochs", type=int,
                       help="override the trainer's epoch count")

    evaluate = sub.add_parser("evaluate", help="evaluate a saved model")
    evaluate.add_argument("--model", required=True, help="model JSON path")
    evaluate.add_argument("--data", required=True, help="dataset .npz path")

    registry = sub.add_parser(
        "registry", help="inspect or mutate a model registry"
    )
    registry.add_argument("action",
                          choices=("list", "promote", "rollback", "show"))
    registry.add_argument("--root", required=True, help="registry directory")
    registry.add_argument("--version", help="version id (promote/show)")
    registry.add_argument("--slot", default="champion",
                          choices=("champion", "challenger"),
                          help="slot for promote/rollback")

    # The arguments both serving commands take.
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--registry", required=True,
                         help="registry directory")
    serving.add_argument("--data", required=True, help="dataset .npz path")
    serving.add_argument("--limit", type=int,
                         help="score only the first N test rows")
    serving.add_argument("--drift-threshold", type=float,
                         help="enable the PSI drift guard at this threshold")

    serve = sub.add_parser(
        "serve-score", parents=[serving],
        help="score a dataset through the scoring service in batches",
    )
    serve.add_argument("--batch-size", type=int, default=256)

    serve_run = sub.add_parser(
        "serve-run", parents=[serving, traced],
        help="score a dataset through the multi-worker shared-memory "
             "front-end",
        description="Score a dataset through the multi-worker "
                    "shared-memory front-end.  With --trace, health "
                    "alerts and transitions land in the run log.",
    )
    serve_run.add_argument("--workers", type=int, default=2,
                           help="scoring worker processes (default: 2)")
    serve_run.add_argument("--batch-size", type=int, default=64,
                           help="per-worker micro-batch size")
    serve_run.add_argument("--max-queue", type=int, default=1024,
                           help="admission bound before requests shed")
    serve_run.add_argument("--repeat", type=int, default=1,
                           help="score the row stream N times (soak runs)")
    serve_run.add_argument("--metrics-port", type=int, metavar="PORT",
                           help="enable the live telemetry plane and serve "
                                "Prometheus text + JSON snapshots on this "
                                "port (0 picks an ephemeral port)")
    serve_run.add_argument("--metrics-snapshot", metavar="PATH",
                           help="enable the live telemetry plane and append "
                                "periodic JSON snapshot lines to PATH "
                                "(headless CI alternative to a scraper)")
    serve_run.add_argument("--snapshot-interval", type=float, default=2.0,
                           help="seconds between --metrics-snapshot lines")

    experiment = sub.add_parser(
        "experiment", parents=[traced],
        help="regenerate paper tables/figures, in order",
    )
    experiment.add_argument("ids", nargs="+", metavar="id",
                            choices=list(EXPERIMENTS),
                            help="experiment ids (see `repro list`)")
    experiment.add_argument("--n-samples", type=int,
                            help="platform size (default: each "
                                 "platform's own)")
    experiment.add_argument("--data-seed", type=int, default=7)
    experiment.add_argument("--trainer-seeds", type=int, nargs="+",
                            help="trainer seeds (default: each "
                                 "platform's own)")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the trainer fan-out "
                                 "(results are bit-identical to --jobs 1)")

    bench = sub.add_parser(
        "bench",
        help="run the parallel-scaling benchmark: experiment fan-out "
             "serial vs worker pools",
    )
    bench.add_argument("--out", default="BENCH_parallel.json",
                       help="output JSON path (default: BENCH_parallel.json)")
    bench.add_argument("--quick", action="store_true",
                       help="tiny smoke sizes instead of the tracked config")
    bench.add_argument("--jobs", type=int, nargs="+", metavar="N",
                       help="worker counts to compare against the serial "
                            "run (default: 2 4 8; 2 with --quick)")

    scale_bench = sub.add_parser(
        "scale-bench",
        help="run the paper-scale end-to-end benchmark (wall-clock + RSS)",
    )
    scale_bench.add_argument("--out", default="BENCH_scale.json",
                             help="output JSON path "
                                  "(default: BENCH_scale.json)")
    scale_bench.add_argument("--smoke", action="store_true",
                             help="one 20k-row point instead of the "
                                  "tracked 100k/500k/1.4M configuration")
    scale_bench.add_argument("--rows", type=int, nargs="+", metavar="N",
                             help="override the measured row counts")
    scale_bench.add_argument("--dtype", choices=("float32", "float64"),
                             help="override the GBDT hot-path dtype")
    scale_bench.add_argument("--chunk-rows", type=int,
                             help="override the streaming chunk size")
    scale_bench.add_argument("--no-isolate", action="store_true",
                             help="run points in-process (faster, but peak "
                                  "RSS becomes the parent's lifetime peak)")
    scale_bench.add_argument("--save-model", metavar="PATH",
                             help="save the largest point's trained "
                                  "pipeline as a serving artifact")

    verify = sub.add_parser(
        "verify", parents=[traced],
        help="run the invariance scorecard on the SEM bed",
    )
    verify.add_argument("--out", default="VERIFY_invariance.json",
                        help="output JSON path "
                             "(default: VERIFY_invariance.json)")
    verify.add_argument("--smoke", action="store_true",
                        help="CI-sized bed instead of the tracked config")
    verify.add_argument("--seed", type=int, default=0,
                        help="SEM bed seed (trainer seeds are fixed)")
    verify.add_argument("--n-per-env", type=int,
                        help="override rows per training environment")
    verify.add_argument("--epochs", type=int,
                        help="override trainer epochs")

    tune = sub.add_parser(
        "tune", parents=[traced],
        help="ASHA hyper-parameter search over the parallel engine",
        description="ASHA hyper-parameter search over the parallel "
                    "engine.  The --trace log is also the search's "
                    "resumable state (see --resume).",
    )
    tune.add_argument("--trainers", nargs="+", metavar="NAME",
                      default=["LightMIRM"],
                      help="trainers to search with their registered "
                           "default spaces (default: LightMIRM)")
    tune.add_argument("--trials", type=int, default=9,
                      help="configurations sampled per trainer")
    tune.add_argument("--eta", type=int, default=3,
                      help="halving rate between rungs")
    tune.add_argument("--min-epochs", type=int, default=5,
                      help="epoch budget of rung 0")
    tune.add_argument("--max-epochs", type=int, default=45,
                      help="epoch budget cap of the last rung")
    tune.add_argument("--objective", default="blend",
                      choices=("mKS", "wKS", "mAUC", "wAUC", "blend"),
                      help="trial-ranking metric (default: blend)")
    tune.add_argument("--blend-weight", type=float, default=0.5,
                      help="worst-province weight of the blend objective")
    tune.add_argument("--validation-fraction", type=float, default=0.25,
                      help="held-out share of each training environment")
    tune.add_argument("--n-samples", type=int, default=40_000,
                      help="synthetic platform size")
    tune.add_argument("--data-seed", type=int, default=7,
                      help="seed of the synthetic platform")
    tune.add_argument("--seed", type=int, default=0,
                      help="search seed (split, sampling, trial seeds)")
    tune.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the trial fan-out "
                           "(results are bit-identical to --jobs 1)")
    tune.add_argument("--resume", metavar="RUNLOG",
                      help="replay matching trials from a previous "
                           "run's --trace log instead of retraining")
    tune.add_argument("--out", default="TUNE_leaderboard.json",
                      help="leaderboard JSON path "
                           "(default: TUNE_leaderboard.json)")
    tune.add_argument("--registry", metavar="DIR",
                      help="refit the winning trial and import it as "
                           "the registry's challenger")
    tune.add_argument("--smoke", action="store_true",
                      help="CI-sized search: 2-rung ASHA over ERM and "
                           "LightMIRM on a small generator")
    tune.add_argument("--joint", action="store_true",
                      help="search the GBDT extractor jointly with each "
                           "head (default extractor space; distinct "
                           "extractor encodings are fitted once and "
                           "shared through the shm cache)")
    tune.add_argument("--extractors", type=int, default=3,
                      help="distinct extractor configurations shared "
                           "round-robin across --joint trials")
    tune.add_argument("--no-cache", action="store_true",
                      help="--joint only: re-encode inline per trial "
                           "instead of using the cache (bit-identical, "
                           "slower; for verification)")

    tune_bench = sub.add_parser(
        "tune-bench",
        help="benchmark the joint search cached vs uncached "
             "(BENCH_tune.json)",
    )
    tune_bench.add_argument("--out", default="BENCH_tune.json",
                            help="output path (default: BENCH_tune.json)")
    tune_bench.add_argument("--smoke", action="store_true",
                            help="tiny CI-sized comparison")
    tune_bench.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the trial fan-out")

    obs = sub.add_parser(
        "obs",
        help="render a run log (report/summary/diff) or the live plane "
             "(top)",
    )
    obs.add_argument("action", choices=("report", "summary", "diff", "top"))
    obs.add_argument("paths", nargs="*", metavar="RUNLOG",
                     help="run log path (diff takes exactly two; top takes "
                          "none)")
    obs.add_argument("--max-curve-rows", type=int, default=20,
                     help="rows per convergence-curve table in `report`")
    obs.add_argument("--url", metavar="URL",
                     help="top: exporter base URL "
                          "(e.g. http://127.0.0.1:9100)")
    obs.add_argument("--file", metavar="PATH",
                     help="top: tail a --metrics-snapshot file instead")
    obs.add_argument("--interval", type=float, default=2.0,
                     help="top: refresh period in seconds")
    obs.add_argument("--iterations", type=int,
                     help="top: stop after N redraws (default: until ^C)")

    sub.add_parser("list", help="list trainers and experiments")
    return parser


@contextlib.contextmanager
def _traced(args: argparse.Namespace, command: str,
            **fields) -> Iterator[Tracer]:
    """Tracer for a CLI run: opens ``--trace`` and writes the manifest.

    The log is closed on the way out, also when the command raises, so a
    failed run leaves a readable log; on success the path is printed.
    """
    if getattr(args, "trace", None) is None:
        yield NULL_TRACER
        return
    tracer = Tracer(path=args.trace)
    tracer.write_manifest(**run_manifest_fields(command, **fields))
    try:
        yield tracer
    finally:
        tracer.close()
    print(f"wrote run log to {args.trace}")


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_samples=args.n_samples,
        seed=args.seed,
        total_features=args.total_features,
    )
    dataset = LoanDataGenerator(config).generate()
    dataset.save(args.out)
    print(f"wrote {dataset} to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    overrides = {} if args.epochs is None else {"n_epochs": args.epochs}
    trainer = make_trainer(args.method, seed=args.seed, **overrides)
    if (args.out or args.registry) and isinstance(trainer, FineTuneTrainer):
        print(f"repro train: error: {trainer.name} fits per-environment "
              "heads, which a saved model cannot hold", file=sys.stderr)
        return 2
    split = temporal_split(LoanDataset.load(args.data))
    pipeline = LoanDefaultPipeline(trainer)
    with _traced(args, "train",
                 config={"method": args.method, **overrides},
                 seed=args.seed,
                 dataset=split.train,
                 method=args.method,
                 data=args.data) as tracer:
        pipeline.fit(split.train, tracer=tracer)
    report = pipeline.evaluate(split.test)
    summary = report.summary()
    print(
        f"{args.method}: "
        + "  ".join(f"{k}={v:.4f}" for k, v in summary.items())
        + f"  (worst province: {report.worst_ks_environment})"
    )
    metadata = {"method": args.method, "seed": args.seed}
    if args.out:
        ModelRegistry.save_file(pipeline, args.out, metadata=metadata)
        print(f"saved model to {args.out}")
    if args.registry:
        registry = ModelRegistry(args.registry)
        version = registry.save(pipeline, metadata=metadata, slot=args.slot)
        print(f"saved registry version {version} "
              f"(slots: {registry.slots()})")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    scorer = ModelRegistry.load_file(args.model)
    dataset = LoanDataset.load(args.data)
    test = temporal_split(dataset).test
    scores = scorer.predict_proba(test)
    report = evaluate_environments(test.by_province(test.labels),
                                   test.by_province(scores))
    print(f"model: {scorer.trainer_name} (metadata: {scorer.metadata})")
    for name, env_scores in report.per_environment.items():
        print(f"  {name:14s} KS={env_scores.ks:.4f} AUC={env_scores.auc:.4f}")
    summary = report.summary()
    print("  " + "  ".join(f"{k}={v:.4f}" for k, v in summary.items()))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    seeds = None if args.trainer_seeds is None else tuple(args.trainer_seeds)
    contexts: dict[str, ExperimentContext] = {}
    with _traced(args, "experiment",
                 config={"ids": args.ids, "n_samples": args.n_samples,
                         "trainer_seeds": args.trainer_seeds,
                         "jobs": args.jobs},
                 seed=args.data_seed) as tracer:
        for index, key in enumerate(args.ids):
            experiment = EXPERIMENTS[key]
            context = contexts.get(experiment.platform)
            if context is None:
                context = contexts[experiment.platform] = ExperimentContext(
                    ExperimentSettings(
                        n_samples=args.n_samples,
                        data_seed=args.data_seed,
                        trainer_seeds=seeds,
                        platform=experiment.platform,
                        n_jobs=args.jobs,
                    ),
                    tracer=tracer,
                )
            if index:
                print()
            print(experiment.render(context), flush=True)
    return 0


def _finish_bench(schema, path: str, results: dict, config,
                  **sections) -> int:
    """Write one ``BENCH_*.json`` payload, print its summary and problems.

    Returns the exit code: 1 when the payload fails its schema (a false
    ``bit_identical``/``passed`` flag included), else 0.  The file is
    written either way so a failing run can be inspected.
    """
    payload = schema.write(path, results, config, **sections)
    print(schema.summarize(payload))
    print(f"wrote {path}")
    problems = schema.validate(payload)
    for problem in problems:
        print(f"invalid {path}: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perfbench.parallel import (
        PARALLEL_PAYLOAD, ParallelBenchConfig, run_parallel_suite,
    )

    config = (ParallelBenchConfig.smoke() if args.quick
              else ParallelBenchConfig())
    if args.jobs:
        import dataclasses

        config = dataclasses.replace(config, worker_counts=tuple(args.jobs))
    results = run_parallel_suite(config)
    return _finish_bench(PARALLEL_PAYLOAD, args.out, results, config)


def _cmd_registry(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.root)
    if args.action == "list":
        slots = registry.slots()
        by_version = {v: s for s, v in slots.items()}
        for entry in registry.versions():
            marker = f"  <- {by_version[entry.version]}" \
                if entry.version in by_version else ""
            print(f"{entry.version}  {entry.trainer_name:20s} "
                  f"{entry.metadata}{marker}")
        if not registry.versions():
            print("(empty registry)")
        return 0
    if args.action == "show":
        if not args.version:
            print("--version is required for show", file=sys.stderr)
            return 2
        entry = registry.describe(args.version)
        print(f"version:  {entry.version}")
        print(f"trainer:  {entry.trainer_name}")
        print(f"path:     {entry.path}")
        print(f"metadata: {entry.metadata}")
        return 0
    if args.action == "promote":
        if not args.version:
            print("--version is required for promote", file=sys.stderr)
            return 2
        registry.promote(args.version, slot=args.slot)
        print(f"promoted {args.version} to {args.slot} "
              f"(slots: {registry.slots()})")
        return 0
    registry_version = registry.rollback(slot=args.slot)
    print(f"rolled back {args.slot} to {registry_version} "
          f"(slots: {registry.slots()})")
    return 0


def _drift_guard(args: argparse.Namespace, split):
    """The ``--drift-threshold`` guard over the train rows, or None."""
    if args.drift_threshold is None:
        return None
    from repro.monitor.streaming import StreamingPSI
    from repro.serve.degradation import DriftGuard

    return DriftGuard(StreamingPSI.from_dataset(split.train),
                      psi_threshold=args.drift_threshold)


def _head(dataset: LoanDataset, limit: int | None) -> LoanDataset:
    """The dataset's first ``limit`` rows (every row for None), as a
    selection: reading its features gathers only those rows."""
    return dataset.select(np.arange(dataset.n_samples)[:limit])


def _cmd_serve_score(args: argparse.Namespace) -> int:
    from repro.serve.service import ScoringService

    if args.batch_size < 1:
        raise ValueError("--batch-size must be >= 1")
    registry = ModelRegistry(args.registry)
    dataset = LoanDataset.load(args.data)
    split = temporal_split(dataset)
    rows = _head(split.test, args.limit).features

    guard = _drift_guard(args, split)
    service = ScoringService.from_registry(registry, drift_guard=guard)
    scores: list[float] = []
    for start in range(0, len(rows), args.batch_size):
        scores += service.score_batch(
            rows[start:start + args.batch_size]).tolist()
    print(f"scored {len(scores)} rows "
          f"(mean p={sum(scores) / len(scores):.4f}, "
          f"serving slot: {service.snapshot()['serving']})")
    print(service.telemetry.summary())
    if guard is not None:
        state = guard.snapshot()
        print(f"drift guard     max_psi={state['max_psi']:.4f} "
              f"tripped={state['tripped']}")
    return 0


def _cmd_serve_run(args: argparse.Namespace) -> int:
    with _traced(args, "serve-run",
                 config={"workers": args.workers,
                         "batch_size": args.batch_size}) as tracer:
        return _serve_run(args, tracer)


def _serve_run(args: argparse.Namespace, tracer: Tracer) -> int:
    from repro.serve.frontend import FrontendConfig, ScoringFrontend

    registry = ModelRegistry(args.registry)
    dataset = LoanDataset.load(args.data)
    split = temporal_split(dataset)
    test = _head(split.test, args.limit)
    rows, provinces = test.features, test.provinces

    guard = _drift_guard(args, split)

    live = args.metrics_port is not None or args.metrics_snapshot is not None
    pipeline = registry.load("champion")
    monitors: dict = {}
    if live:
        from repro.obs.live.health import HealthMonitor
        from repro.obs.live.monitors import (
            CalibrationMonitor, ScoreDriftMonitor, SLOConfig, SLOTracker,
        )

        # Baseline the score monitors on the champion's own training
        # scores: that is the distribution it was gated on, so any walk
        # away from it is drift by definition.
        baseline_scores = pipeline.predict_proba(_head(split.train, 5000))
        monitors = {
            "score_drift": ScoreDriftMonitor(
                baseline_scores,
                window_rows=max(50, min(500, len(rows) // 4 or 50)),
            ),
            "calibration": CalibrationMonitor(
                reference_mean=float(baseline_scores.mean())
            ),
            "slo_tracker": SLOTracker([
                SLOConfig("admission", error_budget=0.01),
                SLOConfig("latency", error_budget=0.05),
            ]),
            "health_monitor": HealthMonitor(tracer=tracer),
        }
    frontend = ScoringFrontend(
        pipeline,
        FrontendConfig(n_workers=args.workers,
                       max_batch_size=args.batch_size,
                       max_queue=args.max_queue,
                       live_metrics=live),
        drift_guard=guard,
        **monitors,
    )
    frontend.start()
    exporter = writer = None
    try:
        if args.metrics_port is not None:
            from repro.obs.live.export import MetricsExporter

            exporter = MetricsExporter(frontend.live_snapshot,
                                       port=args.metrics_port)
            port = exporter.start()
            print(f"metrics         http://127.0.0.1:{port}/metrics "
                  f"(JSON at /snapshot)")
        if args.metrics_snapshot is not None:
            from repro.obs.live.export import SnapshotFileWriter

            writer = SnapshotFileWriter(frontend.live_snapshot,
                                        args.metrics_snapshot,
                                        interval_s=args.snapshot_interval)
            writer.start()
        results = []
        for _ in range(max(1, args.repeat)):
            results.extend(frontend.score_stream(rows, provinces=provinces))
        snap = frontend.snapshot()  # before stop() retires the packs
    finally:
        if writer is not None:
            writer.stop()
        if exporter is not None:
            exporter.stop()
        frontend.stop()
    scored = [r.score for r in results if r.ok]
    latency = snap["telemetry"]["request_latency"]
    print(f"scored {len(scored)}/{len(results)} rows across "
          f"{args.workers} workers "
          f"(mean p={sum(scored) / max(len(scored), 1):.4f}, "
          f"generation {snap['generation']})")
    print(f"latency         p50 {latency['p50'] * 1e3:.3f} ms   "
          f"p99 {latency['p99'] * 1e3:.3f} ms")
    print(f"admission       admitted={snap['telemetry']['admitted']} "
          f"shed={snap['telemetry']['shed']} "
          f"refused={snap['telemetry']['refused']} "
          f"errors={snap['telemetry']['errors']}")
    if guard is not None:
        state = guard.snapshot()
        print(f"drift guard     max_psi={state['max_psi']:.4f} "
              f"tripped={state['tripped']}")
    workers = snap.get("workers")
    if workers is not None:
        print(f"workers         rows={workers['counters']['rows_scored']} "
              f"batches={workers['counters']['batches']} "
              f"reporting={workers['workers_reporting']}")
    if live:
        health = frontend.health_monitor.snapshot()
        print(f"health          state={health['state']} "
              f"alerts={health['n_alerts']}")
        if args.metrics_snapshot is not None:
            print(f"wrote snapshots to {args.metrics_snapshot}")
    return 0


def _cmd_scale_bench(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.perfbench.scale import (
        SCALE_PAYLOAD, ScaleBenchConfig, dtype_tolerance_check,
        run_scale_suite,
    )

    config = ScaleBenchConfig.smoke() if args.smoke else ScaleBenchConfig()
    overrides = {}
    if args.rows:
        overrides["row_counts"] = tuple(args.rows)
    if args.dtype:
        overrides["dtype"] = args.dtype
    if args.chunk_rows:
        overrides["chunk_rows"] = args.chunk_rows
    if overrides:
        config = dataclasses.replace(config, **overrides)

    tolerance = dtype_tolerance_check(config)
    results = run_scale_suite(config, isolate=not args.no_isolate,
                              save_model=args.save_model)
    if args.save_model:
        print(f"saved scale model to {args.save_model}")
    return _finish_bench(SCALE_PAYLOAD, args.out, results, config,
                         tolerance=tolerance)


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.verify.scorecard import (
        VerifyConfig, run_verification, summarize_verification,
        write_verify_json,
    )
    from repro.verify.sem import SEMConfig

    config = (VerifyConfig.smoke(seed=args.seed) if args.smoke
              else VerifyConfig(sem=SEMConfig(seed=args.seed)))
    if args.n_per_env is not None:
        config = dataclasses.replace(
            config, sem=dataclasses.replace(config.sem,
                                            n_per_env=args.n_per_env)
        )
    if args.epochs is not None:
        config = dataclasses.replace(config, n_epochs=args.epochs)
    with _traced(args, "verify",
                 config={"smoke": bool(args.smoke),
                         "n_epochs": config.n_epochs},
                 seed=args.seed) as tracer:
        payload = run_verification(config, tracer=tracer)
    print(summarize_verification(payload))
    write_verify_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0 if payload["all_passed"] else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    import dataclasses
    import tempfile

    from repro.train.registry import resolve_trainer_name
    from repro.tune.asha import ASHAConfig, run_asha, run_joint_asha
    from repro.tune.leaderboard import build_leaderboard, write_leaderboard
    from repro.tune.search import load_trial_records
    from repro.tune.space import (
        HPSpace, default_extractor_space, default_space,
    )

    if args.smoke:
        trainers = ["ERM", "LightMIRM"]
        schedule = dict(n_trials=4, eta=2, min_epochs=4, max_epochs=8)
        n_samples = 3_000
    else:
        trainers = list(args.trainers)
        schedule = dict(n_trials=args.trials, eta=args.eta,
                        min_epochs=args.min_epochs,
                        max_epochs=args.max_epochs)
        n_samples = args.n_samples
    config = ASHAConfig(
        **schedule,
        objective=args.objective, blend_weight=args.blend_weight,
        validation_fraction=args.validation_fraction, seed=args.seed,
    )
    # Resolve (and validate) names up front so a typo fails before any
    # data is generated.
    trainers = [resolve_trainer_name(name) for name in trainers]

    resume = load_trial_records(args.resume) if args.resume else None

    joint_fields = {}
    if args.joint:
        joint_fields = {"joint": True, "n_extractors": args.extractors,
                       "cached": not args.no_cache}
    context = ExperimentContext(
        ExperimentSettings(n_samples=n_samples, data_seed=args.data_seed)
    )
    if args.joint:
        # Joint searches own the encoding: hand them the *raw*
        # per-province environments, not the GBDT-encoded ones.
        raw_environments = context.split.train.environments()
    results = []
    with _traced(args, "tune",
                 config={**dataclasses.asdict(config), "trainers": trainers,
                         "n_samples": n_samples, "jobs": args.jobs,
                         **joint_fields},
                 seed=args.seed) as tracer:
        for name in trainers:
            if args.joint:
                result, stats = run_joint_asha(
                    HPSpace.joint(default_extractor_space(),
                                  default_space(name)),
                    raw_environments,
                    config,
                    n_extractors=args.extractors,
                    n_jobs=args.jobs,
                    tracer=tracer,
                    resume=resume,
                    use_cache=not args.no_cache,
                )
                if stats is not None:
                    print(f"{name}: cache hits={stats.hits} "
                          f"misses={stats.misses} "
                          f"hit-rate={stats.hit_rate:.2f} "
                          f"encode={stats.encode_seconds:.2f}s "
                          f"saved={stats.encode_seconds_saved:.2f}s "
                          f"published={stats.published_bytes}B")
            else:
                result = run_asha(
                    default_space(name),
                    context.train_environments,
                    config,
                    n_jobs=args.jobs,
                    tracer=tracer,
                    resume=resume,
                )
            best = result.best
            value = best.objective_value(config.objective, config.blend_weight)
            print(f"{name}: best {best.trial_id} "
                  f"{config.objective}={value:.4f} "
                  f"params={dict(best.params)}")
            results.append(result)
    if resume is not None:
        # Count what was replayed, not what was loaded: records whose
        # work or data no longer match retrain.
        evaluations = sum(len(r.evaluated) for s in results for r in s.rungs)
        print(f"replayed {sum(s.replayed for s in results)} of "
              f"{evaluations} evaluations from {args.resume}")

    leaderboard = build_leaderboard(
        results,
        seed=args.seed,
        search_config={**dataclasses.asdict(config), "trainers": trainers,
                       "n_samples": n_samples, "data_seed": args.data_seed,
                       **joint_fields},
    )
    write_leaderboard(leaderboard, args.out)
    winner = leaderboard["leaderboard"][0]
    print(f"wrote {args.out} "
          f"({len(leaderboard['leaderboard'])} trials; winner: "
          f"{winner['trainer']} {winner['trial']})")

    if args.registry:
        overrides = dict(winner["params"])
        # Joint winners carry their extractor half as a sub-dict: refit
        # the pipeline's GBDT with it instead of handing it to the head.
        extractor_overrides = overrides.pop("extractor", None)
        gbdt_params = None
        if extractor_overrides is not None:
            from repro.pipeline.extractor import default_gbdt_params

            gbdt_params = default_gbdt_params().replace_flat(
                extractor_overrides
            )
        if winner["budget"] is not None:
            overrides["n_epochs"] = winner["budget"]
        pipeline = LoanDefaultPipeline(
            make_trainer(winner["trainer"], seed=winner["seed"], **overrides),
            gbdt_params=gbdt_params,
        )
        pipeline.fit(context.split.train)
        metadata = {
            "tuned": True,
            "trainer": winner["trainer"],
            "trial": winner["trial"],
            "objective": leaderboard["objective"],
            "objective_value": winner["objective_value"],
            "search_seed": args.seed,
        }
        registry = ModelRegistry(args.registry)
        with tempfile.TemporaryDirectory() as tmp:
            artifact = f"{tmp}/tuned_model.json"
            ModelRegistry.save_file(pipeline, artifact, metadata=metadata)
            version = registry.import_file(artifact, slot="challenger")
        print(f"imported winner as challenger version {version} "
              f"(slots: {registry.slots()})")
    return 0


def _cmd_tune_bench(args: argparse.Namespace) -> int:
    from repro.perfbench.tune import (
        TUNE_PAYLOAD, TuneBenchConfig, run_tune_benchmark,
    )

    config = TuneBenchConfig.smoke() if args.smoke else TuneBenchConfig()
    if args.jobs != 1:
        import dataclasses

        config = dataclasses.replace(config, n_jobs=args.jobs)
    results = run_tune_benchmark(config)
    return _finish_bench(TUNE_PAYLOAD, args.out, results, config)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        format_diff, format_report, format_summary, load_run,
    )

    if args.action == "top":
        from repro.obs.live.top import run_top

        if args.paths or (args.url is None) == (args.file is None):
            print("obs top takes no run logs; give exactly one of "
                  "--url or --file", file=sys.stderr)
            return 2
        return run_top(url=args.url, file=args.file,
                       interval_s=args.interval,
                       iterations=args.iterations)
    if args.action == "diff":
        if len(args.paths) != 2:
            print("obs diff takes exactly two run logs", file=sys.stderr)
            return 2
        run_a, run_b = (load_run(p) for p in args.paths)
        print(format_diff(run_a, run_b,
                          label_a=args.paths[0], label_b=args.paths[1]))
        return 0
    if len(args.paths) != 1:
        print(f"obs {args.action} takes exactly one run log",
              file=sys.stderr)
        return 2
    run = load_run(args.paths[0])
    if args.action == "report":
        print(format_report(run, max_curve_rows=args.max_curve_rows))
    else:
        print(format_summary(run))
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("trainers:")
    for info in trainer_names():
        config_class = info.trainer_class.config_class
        line = f"  {info.name:20s} config={config_class.__name__}"
        if info.penalty_parameter:
            line += f"  penalty={info.penalty_parameter}"
        if info.aliases:
            line += f"  aliases: {', '.join(info.aliases)}"
        print(line)
    print('  meta-IRM(S)  # sampled variant, e.g. "meta-IRM(5)"')
    print("experiments:")
    for key, experiment in EXPERIMENTS.items():
        print(f"  {key:7s} {experiment.platform:9s} "
              f"{experiment.module}.{experiment.run}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "registry": _cmd_registry,
    "serve-score": _cmd_serve_score,
    "serve-run": _cmd_serve_run,
    "experiment": _cmd_experiment,
    "bench": _cmd_bench,
    "scale-bench": _cmd_scale_bench,
    "verify": _cmd_verify,
    "tune": _cmd_tune,
    "tune-bench": _cmd_tune_bench,
    "obs": _cmd_obs,
    "list": _cmd_list,
}


def _missing_output_dir(args: argparse.Namespace) -> str | None:
    """The first output path whose directory does not exist, if any.

    Checked before a command runs, so a long suite is not lost to a
    typo in where its result goes.
    """
    for path in (getattr(args, "out", None),
                 getattr(args, "save_model", None)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            return path
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    missing = _missing_output_dir(args)
    if missing is not None:
        print(f"repro {args.command}: error: output directory of "
              f"{missing!r} does not exist", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
