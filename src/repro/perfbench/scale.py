"""Paper-scale end-to-end benchmark: wall-clock and peak RSS by row count.

The paper's platform is 1.4M rows x 210 features; every other benchmark
in this repo runs at 8k-50k rows.  This suite measures the full
train -> leaf-encode -> LR-head pipeline at 100k / 500k / 1.4M rows
through the streaming path (:func:`repro.gbdt.pack_generated` +
:meth:`GBDTClassifier.fit_binned`), and records for each row count:

* per-stage and total wall-clock seconds,
* **measured** peak RSS (see :mod:`repro.perfbench.rss`) against the
  naive full-materialisation footprint (the ``(n, d)`` float64 matrix
  the one-shot path would allocate),
* the resident size of the packed uint8 dataset.

Each row count runs in a fresh *spawned* subprocess by default, and the
probe resets the RSS high-water mark on entry where the OS allows it, so
a point's peak reflects that point alone.  Isolation by itself is not
enough on Linux: a spawned child's ``ru_maxrss`` starts at its parent's
peak.

``dtype_tolerance_check`` is the float32 gate: it trains the same GBDT
under both dtypes and asserts AUC/KS agree within documented tolerances
(``AUC_TOLERANCE``/``KS_TOLERANCE``); CI fails the scale smoke when the
reduced-precision path drifts.  Results are written to the tracked
``BENCH_scale.json`` through :data:`SCALE_PAYLOAD`, with the tolerance
check as its ``tolerance`` section (regenerate with
``python -m repro scale-bench``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.perfbench.payload import BenchPayload

__all__ = [
    "AUC_TOLERANCE",
    "KS_TOLERANCE",
    "SCALE_PAYLOAD",
    "ScaleBenchConfig",
    "dtype_tolerance_check",
    "run_scale_point",
    "run_scale_suite",
]

#: Documented float32-vs-float64 tolerance on the held-out test metrics.
#: Reduced precision flips near-tied split choices (tree structures may
#: differ), so predictions are compared at the metric level, not
#: pointwise; see docs/performance.md.
AUC_TOLERANCE = 0.015
KS_TOLERANCE = 0.03


@dataclass(frozen=True)
class ScaleBenchConfig:
    """Sizes of one scale-suite run.

    The default is the tracked configuration (paper dimensions at three
    row counts); :meth:`smoke` shrinks it to a CI-sized single point.

    Attributes:
        row_counts: Row counts measured, each in its own subprocess.
        total_features: Feature width (paper: 210).
        n_spurious: Spurious-feature count of the generator.
        chunk_rows: Streaming chunk size for both generator passes.
        max_bins: Histogram resolution.
        n_trees: Boosting rounds (kept small: the suite tracks scaling
            shape, not model quality).
        max_leaves: Leaf budget per tree.
        dtype: GBDT hot-path dtype ("float32" is the paper-scale mode).
        sample_rows: Binner reservoir capacity (raw-row memory bound).
        lr_epochs: LR-head epochs over the encoded environments.
        seed: Generator seed.
    """

    row_counts: tuple[int, ...] = (100_000, 500_000, 1_400_000)
    total_features: int = 210
    n_spurious: int = 16
    chunk_rows: int = 100_000
    max_bins: int = 64
    n_trees: int = 10
    max_leaves: int = 31
    dtype: str = "float32"
    sample_rows: int = 200_000
    lr_epochs: int = 5
    seed: int = 20230612

    @classmethod
    def smoke(cls) -> "ScaleBenchConfig":
        """CI-sized: one 20k-row point, narrow features, tiny ensemble."""
        return cls(row_counts=(20_000,), total_features=40, n_spurious=4,
                   chunk_rows=4_096, max_bins=32, n_trees=3, max_leaves=15,
                   sample_rows=20_000, lr_epochs=2)


def _gbdt_params(config: ScaleBenchConfig):
    from repro.gbdt.boosting import GBDTParams
    from repro.gbdt.tree import TreeParams

    return GBDTParams(
        n_trees=config.n_trees,
        max_bins=config.max_bins,
        dtype=config.dtype,
        tree=TreeParams(max_leaves=config.max_leaves),
    )


def run_scale_point(
    n_rows: int,
    config: ScaleBenchConfig,
    save_model: str | None = None,
) -> dict:
    """Run the full pipeline at one row count and measure it.

    Runs in the *current* process; :func:`run_scale_suite` wraps it in a
    subprocess.  ``peak_rss_bytes`` is the probed block's own high-water
    mark when ``rss_source`` is ``"vmhwm"``.

    Args:
        n_rows: Platform size to generate/train at.
        config: Suite configuration (feature width, model sizes, dtype).
        save_model: Optional path; when set, the trained GBDT+LR pipeline
            is saved as a serving artifact (``ModelRegistry.save_file``
            format) for ``evaluate --model`` or the registry.

    Returns:
        JSON-compatible dict of timings, sizes and peak memory.
    """
    from repro.baselines.erm import ERMTrainer
    from repro.data.generator import GeneratorConfig, LoanDataGenerator
    from repro.gbdt.boosting import GBDTClassifier
    from repro.gbdt.leaf_encoder import leaf_encode_environments
    from repro.gbdt.packing import pack_generated
    from repro.perfbench.rss import PeakMemoryProbe
    from repro.train.base import BaseTrainConfig

    generator = LoanDataGenerator(GeneratorConfig(
        n_samples=n_rows,
        total_features=config.total_features,
        n_spurious=config.n_spurious,
        seed=config.seed,
    ))
    d = generator.schema.n_features

    with PeakMemoryProbe() as probe:
        t0 = time.perf_counter()
        packed = pack_generated(
            generator,
            chunk_rows=config.chunk_rows,
            max_bins=config.max_bins,
            sample_rows=config.sample_rows,
        )
        t_pack = time.perf_counter()

        model = GBDTClassifier(_gbdt_params(config)).fit_binned(
            packed.binned, packed.labels, packed.binner
        )
        t_fit = time.perf_counter()

        # Each province is routed and encoded from its own rows: no design
        # of all rows exists beside the per-province ones.
        labels = packed.labels
        environments = leaf_encode_environments(model, packed.binned, (
            (name, rows, labels[rows])
            for name, rows in packed.province_rows().items()))
        t_encode = time.perf_counter()

        trainer = ERMTrainer(BaseTrainConfig(n_epochs=config.lr_epochs))
        result = trainer.fit(environments)
        t_head = time.perf_counter()

    if save_model is not None:
        _save_scale_artifact(model, trainer, result, n_rows, config,
                             save_model)

    packed_bytes = packed.nbytes
    packed.dispose()
    naive_bytes = n_rows * d * np.dtype(np.float64).itemsize
    entry = {
        "n_rows": n_rows,
        "n_features": d,
        "dtype": config.dtype,
        "chunk_rows": config.chunk_rows,
        "generate_pack_s": t_pack - t0,
        "gbdt_fit_s": t_fit - t_pack,
        "leaf_encode_s": t_encode - t_fit,
        "lr_head_s": t_head - t_encode,
        "total_s": t_head - t0,
        "rows_per_s": n_rows / (t_head - t0) if t_head > t0 else float("inf"),
        "packed_bytes": packed_bytes,
        "design_nnz": sum(env.features.nnz for env in environments),
        "design_index_dtype": str(environments[0].features.columns.dtype),
        "naive_materialised_bytes": naive_bytes,
        "peak_rss_bytes": probe.peak_bytes,
        "rss_source": probe.source,
        "rss_below_naive": (
            probe.peak_bytes is not None and probe.peak_bytes < naive_bytes
        ),
        "n_environments": len(environments),
    }
    if save_model is not None:
        entry["saved_model"] = save_model
    return entry


def _save_scale_artifact(model, trainer, result, n_rows: int,
                         config: ScaleBenchConfig, path: str) -> None:
    """Persist the scale-trained GBDT+LR as a normal serving artifact."""
    from repro.gbdt.leaf_encoder import LeafIndexEncoder
    from repro.pipeline.extractor import GBDTFeatureExtractor
    from repro.pipeline.pipeline import LoanDefaultPipeline
    from repro.serve.registry import ModelRegistry

    extractor = GBDTFeatureExtractor(params=model.params)
    extractor.model_ = model
    extractor.encoder_ = LeafIndexEncoder(model)
    pipeline = LoanDefaultPipeline(trainer, extractor=extractor)
    pipeline.result_ = result
    ModelRegistry.save_file(pipeline, path, metadata={
        "bench": "scale",
        "scale_rows": n_rows,
        "dtype": config.dtype,
        "total_features": config.total_features,
    })


def _scale_point_entry(n_rows: int, config_fields: dict,
                       save_model: str | None, pipe) -> None:
    """Subprocess entry: run one point and ship the result back."""
    config = ScaleBenchConfig(**config_fields)
    try:
        pipe.send(run_scale_point(n_rows, config, save_model=save_model))
    except BaseException as exc:  # surface child failures to the parent
        pipe.send({"error": f"{type(exc).__name__}: {exc}"})
        raise
    finally:
        pipe.close()


def run_scale_suite(
    config: ScaleBenchConfig | None = None,
    isolate: bool = True,
    save_model: str | None = None,
) -> dict:
    """Measure every configured row count, smallest first.

    Args:
        config: Sizes; defaults to the tracked configuration.
        isolate: Run each point in a fresh spawned subprocess (the
            default) so peak RSS is per-point.  ``False`` runs in-process
            — faster for smoke tests, but where the high-water mark
            cannot be reset (``rss_source`` ``"getrusage"``) the peak is
            then the parent's lifetime peak (entries are marked
            ``isolated``).
        save_model: Optional artifact path; the *largest* row count's
            trained pipeline is saved there for ``evaluate --model``.

    Returns:
        Mapping ``str(n_rows)`` -> point entry.
    """
    config = config or ScaleBenchConfig()
    results: dict = {}
    largest = max(config.row_counts)
    for n_rows in sorted(config.row_counts):
        target = save_model if (save_model and n_rows == largest) else None
        if isolate:
            entry = _run_point_isolated(n_rows, config, target)
        else:
            entry = run_scale_point(n_rows, config, save_model=target)
        entry["isolated"] = isolate
        results[str(n_rows)] = entry
    return results


def _run_point_isolated(n_rows: int, config: ScaleBenchConfig,
                        save_model: str | None) -> dict:
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_scale_point_entry,
        args=(n_rows, asdict(config), save_model, child_conn),
    )
    process.start()
    child_conn.close()
    try:
        entry = parent_conn.recv()
    except EOFError:
        process.join()
        raise RuntimeError(
            f"scale point n_rows={n_rows} died without a result "
            f"(exit code {process.exitcode})"
        ) from None
    finally:
        parent_conn.close()
    process.join()
    if "error" in entry:
        raise RuntimeError(
            f"scale point n_rows={n_rows} failed: {entry['error']}"
        )
    return entry


def dtype_tolerance_check(config: ScaleBenchConfig | None = None) -> dict:
    """Train float32 vs float64 GBDTs and compare held-out AUC/KS.

    The gate behind the reduced-precision mode: both dtypes train on the
    same temporal split and must agree within :data:`AUC_TOLERANCE` /
    :data:`KS_TOLERANCE` on the 2020 test year.  Runs at the smallest
    configured row count (capped at 50k — the check is about numerics,
    not scale).
    """
    from repro.data.generator import GeneratorConfig, LoanDataGenerator
    from repro.data.splits import temporal_split
    from repro.gbdt.boosting import GBDTClassifier
    from repro.metrics.auc import auc_score
    from repro.metrics.ks import ks_score
    import dataclasses

    config = config or ScaleBenchConfig()
    n_rows = min(min(config.row_counts), 50_000)
    dataset = LoanDataGenerator(GeneratorConfig(
        n_samples=n_rows,
        total_features=config.total_features,
        n_spurious=config.n_spurious,
        seed=config.seed,
    )).generate()
    split = temporal_split(dataset)

    metrics: dict = {}
    for dtype in ("float64", "float32"):
        params = dataclasses.replace(_gbdt_params(config), dtype=dtype)
        model = GBDTClassifier(params).fit(
            split.train.features, split.train.labels
        )
        scores = model.predict_proba(split.test.features)
        metrics[dtype] = {
            "auc": float(auc_score(split.test.labels, scores)),
            "ks": float(ks_score(split.test.labels, scores)),
        }
    auc_delta = abs(metrics["float64"]["auc"] - metrics["float32"]["auc"])
    ks_delta = abs(metrics["float64"]["ks"] - metrics["float32"]["ks"])
    return {
        "n_rows": n_rows,
        "float64": metrics["float64"],
        "float32": metrics["float32"],
        "auc_delta": auc_delta,
        "ks_delta": ks_delta,
        "auc_tolerance": AUC_TOLERANCE,
        "ks_tolerance": KS_TOLERANCE,
        "passed": bool(auc_delta <= AUC_TOLERANCE
                       and ks_delta <= KS_TOLERANCE),
    }


#: Schema of BENCH_scale.json: one scenario per row count, plus the
#: float32 ``tolerance`` section whose ``passed`` flag gates the file.
SCALE_PAYLOAD = BenchPayload(
    format=1,
    fields={
        "*.n_rows": int,
        "*.n_features": int,
        "*.dtype": str,
        "*.generate_pack_s": float,
        "*.gbdt_fit_s": float,
        "*.leaf_encode_s": float,
        "*.lr_head_s": float,
        "*.total_s": float,
        "*.packed_bytes": int,
        "*.design_nnz": int,
        "*.design_index_dtype": str,
        "*.naive_materialised_bytes": int,
        "*.peak_rss_bytes": (0, float("inf")),
        "*.rss_source": str,
        "*.rss_below_naive": bool,
        "*.isolated": bool,
        "tolerance.passed": bool,
    },
    show=("total_s", "generate_pack_s", "gbdt_fit_s", "leaf_encode_s",
          "lr_head_s", "peak_rss_bytes", "naive_materialised_bytes",
          "rss_source", "auc_delta", "ks_delta", "passed"),
    sections=("tolerance",),
)
