"""Parallel-scaling benchmark: the experiment fan-out, serial vs pools.

Times the same trainer×seed grid through
:meth:`~repro.experiments.runner.ExperimentContext.score_methods` at
``n_jobs=1`` and at each configured worker count, asserting along the way
that every parallel run returns **bit-identical** :class:`MethodScores`
— the speedup is only worth tracking if the answers don't move.  The
payload (:data:`PARALLEL_PAYLOAD`) lands in tracked
``BENCH_parallel.json`` with the machine's *effective* CPU count recorded
so a 1-core container honestly showing ~1.0x is distinguishable from a
regression on a real multi-core runner.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.experiments.runner import ExperimentContext, ExperimentSettings
from repro.perfbench.payload import BenchPayload
from repro.train.registry import TrainerSpec

__all__ = ["PARALLEL_PAYLOAD", "ParallelBenchConfig", "run_parallel_suite"]


@dataclass(frozen=True)
class ParallelBenchConfig:
    """Sizes of one parallel-scaling run.

    The default is the tracked configuration: four methods × three seeds
    gives a 12-task grid — enough to keep 8 workers busy without making
    the serial baseline take minutes.  :meth:`smoke` shrinks the data and
    epoch budget for CI rot-protection.

    Attributes:
        n_samples: Synthetic platform size.
        data_seed: Platform seed.
        trainer_seeds: Per-method repeats (entropy labels; actual RNG
            seeds are spawned by the runner).
        methods: Registry names forming the grid's method axis.
        worker_counts: Pool sizes to compare against the serial run.
        trainer_overrides: Config overrides applied to every method's
            spec (the smoke config caps epochs here).
        repeats: Timing repeats per point; median is reported.
    """

    n_samples: int = 20_000
    data_seed: int = 7
    trainer_seeds: tuple[int, ...] = (0, 1, 2)
    methods: tuple[str, ...] = ("ERM", "V-REx", "meta-IRM", "LightMIRM")
    worker_counts: tuple[int, ...] = (2, 4, 8)
    trainer_overrides: tuple[tuple[str, object], ...] = ()
    repeats: int = 1

    @classmethod
    def smoke(cls) -> "ParallelBenchConfig":
        """Tiny grid: every path exercised once, nothing timed long."""
        return cls(
            n_samples=2_000,
            trainer_seeds=(0, 1),
            methods=("ERM", "LightMIRM"),
            worker_counts=(2,),
            trainer_overrides=(("n_epochs", 2),),
        )


def _timed(fn, repeats: int) -> tuple[object, float, float]:
    """(last result, median seconds, best seconds) over ``repeats`` runs."""
    times = []
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, float(statistics.median(times)), float(min(times))


def run_parallel_suite(config: ParallelBenchConfig | None = None) -> dict:
    """Run the scaling comparison and return its JSON-compatible results.

    Returns:
        ``{"fan_out": ...}`` holding the serial time, one entry per worker
        count (seconds, speedup and the per-count ``bit_identical`` flag)
        and the grid description.
    """
    config = config or ParallelBenchConfig()
    context = ExperimentContext(
        ExperimentSettings(
            n_samples=config.n_samples,
            data_seed=config.data_seed,
            trainer_seeds=config.trainer_seeds,
        )
    )
    # Materialise the cached stages (generation, split, GBDT encoding)
    # before timing — they are shared overhead, not fan-out work.
    context.train_environments, context.test_environments
    overrides = dict(config.trainer_overrides)
    methods = [
        (name, TrainerSpec.of(name, **overrides)) for name in config.methods
    ]

    serial_scores, serial_median, serial_best = _timed(
        lambda: context.score_methods(methods, n_jobs=1), config.repeats
    )
    workers: dict[str, dict] = {}
    all_identical = True
    for count in config.worker_counts:
        scores, median_s, best_s = _timed(
            lambda: context.score_methods(methods, n_jobs=count),
            config.repeats,
        )
        identical = scores == serial_scores
        all_identical &= identical
        workers[str(count)] = {
            "seconds": median_s,
            "best_s": best_s,
            "speedup_vs_serial": (
                serial_median / median_s if median_s > 0 else float("inf")
            ),
            "bit_identical": identical,
        }
    fan_out = {
        "methods": list(config.methods),
        "trainer_seeds": list(config.trainer_seeds),
        "n_tasks": len(config.methods) * len(config.trainer_seeds),
        "n_samples": config.n_samples,
        "serial_s": serial_median,
        "serial_best_s": serial_best,
        "workers": workers,
        "bit_identical": all_identical,
    }
    return {"fan_out": fan_out}


#: Schema of BENCH_parallel.json (format 2 dropped ``tree_fit``).
PARALLEL_PAYLOAD = BenchPayload(
    format=2,
    fields={
        "fan_out.serial_s": float,
        "fan_out.workers.*.seconds": float,
        "fan_out.workers.*.speedup_vs_serial": float,
        "fan_out.workers.*.bit_identical": bool,
        "fan_out.bit_identical": bool,
    },
    show=("n_tasks", "serial_s", "seconds", "speedup_vs_serial",
          "bit_identical"),
)
