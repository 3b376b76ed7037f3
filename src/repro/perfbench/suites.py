"""Microbenchmark suite: vectorised kernels vs the preserved seed kernels.

Five tracked benchmarks, each reporting median-of-k seconds (and, where a
seed baseline exists, the seed time and the speedup ratio):

* ``histogram_build`` — fused-index :class:`HistogramBuilder` vs the
  per-feature ``bincount`` loop, full-matrix node at (n, d, max_bins).
* ``tree_fit`` — one leaf-wise tree grown with the shared builder vs the
  seed tree (loop histograms + sliced matrix).
* ``leaf_predict`` — flattened ``O(depth × n)`` routing vs the
  ``O(n_nodes × n)`` per-node mask loop.
* ``leaf_encode`` — leaf-column design assembly vs the seed's COO→CSR
  round-trip.
* ``trainer_epoch`` — end-to-end ``LightMIRMTrainer`` epochs over encoded
  environments (no seed baseline; tracked for trajectory).

``run_suite`` returns a JSON-compatible dict; :data:`GBDT_PAYLOAD` writes,
validates and summarizes it as ``BENCH_gbdt.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gbdt.binning import QuantileBinner
from repro.gbdt.histogram import HistogramBuilder
from repro.gbdt.leaf_encoder import encode_leaf_matrix
from repro.gbdt.tree import DecisionTree, TreeParams
from repro.perfbench import reference
from repro.perfbench.payload import BenchPayload
from repro.timing import Measurement, measure

__all__ = ["GBDT_PAYLOAD", "BenchConfig", "run_suite"]


@dataclass(frozen=True)
class BenchConfig:
    """Sizes and repetition counts of one suite run.

    The default is the tracked configuration (n=50k, d=50, 64 bins);
    :meth:`smoke` shrinks everything so the whole suite runs in well under
    a second for CI rot-protection.
    """

    n_rows: int = 50_000
    n_features: int = 50
    max_bins: int = 64
    n_leaves: int = 31
    n_trees: int = 20
    repeats: int = 5
    warmup: int = 1
    epoch_rows: int = 4_000
    epochs: int = 3
    seed: int = 0

    @classmethod
    def smoke(cls) -> "BenchConfig":
        """Tiny sizes: every benchmark exercised once, nothing timed long."""
        return cls(n_rows=300, n_features=5, max_bins=8, n_leaves=7,
                   n_trees=3, repeats=1, warmup=0, epoch_rows=300, epochs=1)


def _synthetic_problem(config: BenchConfig):
    """Binned matrix + logloss-shaped gradient statistics."""
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((config.n_rows, config.n_features))
    logit = 1.5 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] * x[:, 0]
    y = (rng.random(config.n_rows) < 1 / (1 + np.exp(-logit))).astype(float)
    binner = QuantileBinner(max_bins=config.max_bins).fit(x)
    binned = binner.transform(x)
    prob = np.full(config.n_rows, float(y.mean()))
    gradients = prob - y
    hessians = np.maximum(prob * (1.0 - prob), 1e-12)
    return binned, gradients, hessians


def _entry(name: str, vectorized: Measurement,
           seed: Measurement | None = None, **extra) -> dict:
    entry = {
        "median_s": vectorized.median_seconds,
        "best_s": vectorized.best_seconds,
        "repeats": vectorized.repeats,
        **extra,
    }
    if seed is not None:
        entry["seed_median_s"] = seed.median_seconds
        entry["speedup_vs_seed"] = (
            seed.median_seconds / vectorized.median_seconds
            if vectorized.median_seconds > 0 else float("inf")
        )
    return entry


def bench_histogram(config: BenchConfig) -> dict:
    """Full-node histogram build, vectorised vs seed."""
    binned, gradients, hessians = _synthetic_problem(config)
    rows = np.arange(config.n_rows)
    builder = HistogramBuilder(binned, config.max_bins)

    vec = measure(
        lambda: builder.build(gradients, hessians, rows),
        repeats=config.repeats, warmup=config.warmup,
    )
    seed = measure(
        lambda: reference.build_histogram_seed(
            binned, gradients, hessians, rows, config.max_bins
        ),
        repeats=config.repeats, warmup=config.warmup,
    )
    return _entry("histogram_build", vec, seed,
                  n=config.n_rows, d=config.n_features,
                  max_bins=config.max_bins)


def bench_tree_fit(config: BenchConfig) -> dict:
    """One leaf-wise tree fit, shared-builder vs seed loop kernels."""
    binned, gradients, hessians = _synthetic_problem(config)
    params = TreeParams(max_leaves=config.n_leaves, min_child_samples=20)
    builder = HistogramBuilder(binned, config.max_bins)

    vec = measure(
        lambda: DecisionTree(params).fit(
            binned, gradients, hessians, max_bins=config.max_bins,
            builder=builder,
        ),
        repeats=config.repeats, warmup=config.warmup,
    )
    seed = measure(
        lambda: reference.SeedDecisionTree(params).fit(
            binned, gradients, hessians, max_bins=config.max_bins
        ),
        repeats=config.repeats, warmup=config.warmup,
    )
    return _entry("tree_fit", vec, seed,
                  n=config.n_rows, d=config.n_features,
                  max_leaves=config.n_leaves)


def bench_leaf_predict(config: BenchConfig) -> dict:
    """Routing all rows through one tree, flattened vs node-mask loop."""
    binned, gradients, hessians = _synthetic_problem(config)
    params = TreeParams(max_leaves=config.n_leaves, min_child_samples=20)
    tree = DecisionTree(params).fit(binned, gradients, hessians,
                                    max_bins=config.max_bins)

    vec = measure(
        lambda: tree.predict_leaf(binned),
        repeats=config.repeats, warmup=config.warmup,
    )
    seed = measure(
        lambda: reference.predict_leaf_seed(tree, binned),
        repeats=config.repeats, warmup=config.warmup,
    )
    return _entry("leaf_predict", vec, seed,
                  n=config.n_rows, n_leaves=tree.n_leaves)


def bench_leaf_encode(config: BenchConfig) -> dict:
    """Leaf-column design assembly vs the seed's COO→CSR round-trip."""
    rng = np.random.default_rng(config.seed)
    leaves_per_tree = np.full(config.n_trees, config.n_leaves)
    offsets = np.concatenate(([0], np.cumsum(leaves_per_tree)))
    leaf_matrix = rng.integers(
        0, config.n_leaves, size=(config.n_rows, config.n_trees),
        dtype=np.int64,
    )

    vec = measure(
        lambda: encode_leaf_matrix(leaf_matrix, offsets),
        repeats=config.repeats, warmup=config.warmup,
    )
    seed = measure(
        lambda: reference.encode_leaves_seed(leaf_matrix, offsets),
        repeats=config.repeats, warmup=config.warmup,
    )
    return _entry("leaf_encode", vec, seed,
                  n=config.n_rows, n_trees=config.n_trees)


def bench_trainer_epoch(config: BenchConfig) -> dict:
    """End-to-end LightMIRM epochs over GBDT-encoded environments."""
    from repro.core.config import LightMIRMConfig
    from repro.core.lightmirm import LightMIRMTrainer
    from repro.data.generator import GeneratorConfig, LoanDataGenerator
    from repro.pipeline.extractor import GBDTFeatureExtractor

    dataset = LoanDataGenerator(
        GeneratorConfig(n_samples=config.epoch_rows, total_features=40,
                        n_spurious=4, seed=config.seed)
    ).generate()
    extractor = GBDTFeatureExtractor().fit(dataset)
    environments = extractor.encode_environments(dataset)

    def run() -> None:
        trainer = LightMIRMTrainer(
            LightMIRMConfig(seed=config.seed, n_epochs=config.epochs)
        )
        trainer.fit(environments)

    vec = measure(run, repeats=max(1, config.repeats // 2),
                  warmup=min(config.warmup, 1))
    return {
        "median_s": vec.median_seconds,
        "best_s": vec.best_seconds,
        "repeats": vec.repeats,
        "per_epoch_s": vec.median_seconds / config.epochs,
        "n": config.epoch_rows,
        "epochs": config.epochs,
        "n_environments": len(environments),
    }


#: Benchmark id -> runner, in report order.
BENCHMARKS = {
    "histogram_build": bench_histogram,
    "tree_fit": bench_tree_fit,
    "leaf_predict": bench_leaf_predict,
    "leaf_encode": bench_leaf_encode,
    "trainer_epoch": bench_trainer_epoch,
}


def run_suite(config: BenchConfig | None = None,
              only: list[str] | None = None) -> dict:
    """Run the microbenchmarks and return their JSON-compatible results.

    Args:
        config: Sizes/repeats; defaults to the tracked configuration.
        only: Optional subset of :data:`BENCHMARKS` keys.

    Returns:
        Mapping benchmark id -> result entry.
    """
    config = config or BenchConfig()
    names = list(BENCHMARKS) if only is None else list(only)
    unknown = set(names) - set(BENCHMARKS)
    if unknown:
        raise ValueError(f"unknown benchmarks: {sorted(unknown)}")
    return {name: BENCHMARKS[name](config) for name in names}


#: Schema of BENCH_gbdt.json.
GBDT_PAYLOAD = BenchPayload(
    format=1,
    fields={"*.median_s": float, "*.best_s": float, "*.repeats": int},
    show=("median_s", "seed_median_s", "speedup_vs_seed", "per_epoch_s"),
)
