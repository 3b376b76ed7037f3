"""Training workloads: ``train_scale`` and ``train_meta_head``.

One *fit* goes from raw generated data to a fitted GBDT+LR model; the
benchmark repeats fits for the measured window, each on its own inputs
(fit 0 on the fixed :data:`QUALITY_SEED` inputs, the rest derived from the
workload seed and the fit's index, so no fit can reuse another's work),
then replays fit 0 and requires a bit-identical result.
Evaluation on the 2020 test year follows every fit and is excluded from
its time.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from bench.measure import Ledger, PeakRSS, median

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Fresh interpreters a run starts to time set-up; setup_s is the median.
SETUP_REPEATS = 7

#: Inputs of every run's first fit, whatever the run's seed: test_mauc and
#: test_wks come from that fit, so they gate the model's accuracy, not the
#: variation of accuracy across inputs.
QUALITY_SEED = 0

#: A fit whose 2020 mean-province AUC falls below this did not learn.
AUC_FLOOR = 0.6

TEST_YEAR = 2020

#: Modules a fresh training process imports before its first fit.
SETUP_IMPORTS = {
    "train_scale": ("repro.gbdt.packing", "repro.core.lightmirm",
                    "repro.metrics.fairness"),
    "train_meta_head": ("repro.pipeline.pipeline", "repro.core.lightmirm",
                        "repro.data.splits"),
}

#: Layers that partition one fit; the rest of a fit's time is untimed.
TOP_LAYERS = {
    "train_scale": ("gbdt.packing.pack_s", "gbdt.boosting.fit_s",
                    "gbdt.tree.route_s", "gbdt.leaf_encoder.encode_s",
                    "pipeline.env_split_s", "train.fit_s"),
    "train_meta_head": ("data.generate_s", "gbdt.boosting.fit_s",
                        "pipeline.encode_environments_s", "train.fit_s"),
}

STEPS = ("loading_data", "inner_optimization", "calculating_meta_losses",
         "backward_propagation")


@dataclass(frozen=True)
class TrainSizes:
    """Input size of one fit.

    Attributes:
        rows: Generated rows (all years; 2016-19 train, 2020 test).
        features: Raw feature width.
        spurious: Spurious regional features of the generator.
        epochs: LR-head epochs.
        trees: GBDT rounds (``train_scale``; ``train_meta_head`` keeps the
            pipeline's default GBDT).
        chunk_rows: Streaming chunk of the packing passes.
    """

    rows: int
    features: int
    spurious: int
    epochs: int
    trees: int = 20
    chunk_rows: int = 16_384


SIZES = {
    "train_scale": TrainSizes(rows=30_000, features=210, spurious=16,
                              epochs=30),
    "train_meta_head": TrainSizes(rows=20_000, features=60, spurious=8,
                                  epochs=150),
}
SMOKE_SIZES = {
    "train_scale": TrainSizes(rows=3_000, features=40, spurious=4, epochs=3,
                              trees=3, chunk_rows=1_024),
    "train_meta_head": TrainSizes(rows=3_000, features=40, spurious=4,
                                  epochs=5),
}


@dataclass
class Fit:
    """Outcome of one fit: its time, layer split and quality."""

    seconds: float
    layers: dict[str, float]
    counts: dict[str, float]
    theta_sha256: str
    mauc: float
    wks: float


def fit_seed(seed: int, index: int) -> int:
    """Generator seed of fit ``index`` of a run seeded ``seed`` (fit 0
    takes :data:`QUALITY_SEED`'s inputs)."""
    if index == 0:
        seed = QUALITY_SEED
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def setup_seconds(workload: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Fresh-interpreter import times of the workload's modules."""
    code = "import " + ", ".join(SETUP_IMPORTS[workload])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
        times.append(time.perf_counter() - start)
    return times


def _theta_sha256(theta: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(theta).tobytes()).hexdigest()


def _step_timer(ledger: Ledger):
    """A StepTimer whose steps become trace spans when tracing."""
    from repro.timing import StepTimer

    timer = StepTimer()
    if ledger.tracer is not None:
        timer.on_step = lambda name, seconds: ledger.record(
            f"train.step.{name}_s", seconds)
    return timer


def _charge_steps(ledger: Ledger, timer) -> None:
    for step in STEPS:
        ledger.add(f"train.step.{step}_s", timer.total_step_seconds(step))
    ledger.add("train.epoch_ms", timer.mean_epoch_seconds * 1e3)


def _generator(sizes: TrainSizes, seed: int, **config):
    from repro.data.generator import GeneratorConfig, LoanDataGenerator

    return LoanDataGenerator(GeneratorConfig(
        n_samples=sizes.rows, total_features=sizes.features,
        n_spurious=sizes.spurious, seed=seed, **config))


def _scale_fit(sizes: TrainSizes, seed: int, ledger: Ledger) -> Fit:
    """Streamed paper-width pipeline: pack, float32 GBDT, route, encode,
    per-province split, LightMIRM head."""
    from repro.core.config import LightMIRMConfig
    from repro.core.lightmirm import LightMIRMTrainer
    from repro.data.dataset import EnvironmentData
    from repro.gbdt.boosting import GBDTClassifier, GBDTParams
    from repro.gbdt.leaf_encoder import LeafIndexEncoder
    from repro.gbdt.packing import pack_generated
    from repro.gbdt.tree import TreeParams
    from repro.metrics.fairness import evaluate_environments

    generator = _generator(sizes, seed)
    params = GBDTParams(n_trees=sizes.trees, dtype="float32",
                        tree=TreeParams(max_leaves=31))
    start = time.perf_counter()
    with ledger.span("gbdt.packing.pack_s"):
        packed = pack_generated(generator, chunk_rows=sizes.chunk_rows)
    try:
        labels = packed.labels
        codes = packed.province_codes
        train_rows = np.flatnonzero(packed.years < TEST_YEAR)
        train_binned = packed.binned[train_rows]
        with ledger.span("gbdt.boosting.fit_s"):
            model = GBDTClassifier(params).fit_binned(
                train_binned, labels[train_rows], packed.binner)
        with ledger.span("gbdt.tree.route_s"):
            leaves = model.predict_leaves_binned(packed.binned)
        encoder = LeafIndexEncoder(model)
        with ledger.span("gbdt.leaf_encoder.encode_s"):
            design = encoder.encode_leaves(leaves)
        with ledger.span("pipeline.env_split_s"):
            train_codes = codes[train_rows]
            environments = []
            for code, name in enumerate(packed.province_names):
                rows = train_rows[train_codes == code]
                if rows.size:
                    environments.append(
                        EnvironmentData(name, design[rows], labels[rows]))
        timer = _step_timer(ledger)
        with ledger.span("train.fit_s"):
            result = LightMIRMTrainer(
                LightMIRMConfig(n_epochs=sizes.epochs)
            ).fit(environments, timer=timer)
        seconds = time.perf_counter() - start

        with ledger.span("metrics.eval_s"):
            test_rows = np.flatnonzero(packed.years == TEST_YEAR)
            test_codes = codes[test_rows]
            labels_by_env, scores_by_env = {}, {}
            for code, name in enumerate(packed.province_names):
                rows = test_rows[test_codes == code]
                if rows.size:
                    labels_by_env[name] = labels[rows]
                    scores_by_env[name] = result.predict_proba(design[rows])
            report = evaluate_environments(labels_by_env, scores_by_env)
        packed_bytes = packed.nbytes
    finally:
        packed.dispose()
    _charge_steps(ledger, timer)
    layers = ledger.take()
    counts = {
        "gbdt.packing.bytes": packed_bytes,
        "gbdt.boosting.trees": model.n_trees_fitted,
        "gbdt.boosting.fit_rows_per_s":
            train_rows.size / layers["gbdt.boosting.fit_s"],
    }
    return Fit(seconds, layers, counts, _theta_sha256(result.theta),
               report.mean_auc, report.worst_ks)


def _meta_head_fit(sizes: TrainSizes, seed: int, ledger: Ledger) -> Fit:
    """``LoanDefaultPipeline(LightMIRMTrainer())`` with the default GBDT on
    the 26-province registry (Table III's M)."""
    from repro.core.config import LightMIRMConfig
    from repro.core.lightmirm import LightMIRMTrainer
    from repro.data.provinces import extended_registry
    from repro.data.splits import temporal_split
    from repro.pipeline.pipeline import LoanDefaultPipeline

    start = time.perf_counter()
    with ledger.span("data.generate_s"):
        dataset = _generator(sizes, seed,
                             registry=extended_registry()).generate()
        split = temporal_split(dataset)
    pipeline = LoanDefaultPipeline(
        LightMIRMTrainer(LightMIRMConfig(n_epochs=sizes.epochs)))
    # Fitting the extractor first is what pipeline.fit does when it is
    # unfitted; calling it separately times the GBDT layer from outside.
    with ledger.span("gbdt.boosting.fit_s"):
        pipeline.extractor.fit(split.train)
    timer = _step_timer(ledger)
    with ledger.span("pipeline.fit_s"):
        pipeline.fit(split.train, timer=timer)
    seconds = time.perf_counter() - start

    with ledger.span("metrics.eval_s"):
        report = pipeline.evaluate(split.test)
    _charge_steps(ledger, timer)
    layers = ledger.take()
    # The pipeline charges its one-off leaf encoding to the
    # transforming_format step; the rest of pipeline.fit is the head.
    encode = timer.total_step_seconds("transforming_format")
    layers["pipeline.encode_environments_s"] = encode
    layers["train.fit_s"] = layers.pop("pipeline.fit_s") - encode
    model = pipeline.gbdt_
    n_fit = split.train.n_samples
    counts = {
        "gbdt.boosting.trees": model.n_trees_fitted,
        "gbdt.boosting.fit_rows_per_s": n_fit / layers["gbdt.boosting.fit_s"],
    }
    return Fit(seconds, layers, counts,
               _theta_sha256(pipeline.result_.theta),
               report.mean_auc, report.worst_ks)


FITS = {"train_scale": _scale_fit, "train_meta_head": _meta_head_fit}


def run(workload: str, seed: int, seconds: float, ledger: Ledger,
        smoke: bool = False) -> dict:
    """Measure one training run; returns values keyed by metric name plus
    ``attempted``/``failed``/``report`` bookkeeping."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    fit = FITS[workload]
    setup = setup_seconds(workload)

    rss = PeakRSS()
    rss.reset()
    window_start = time.perf_counter()
    fits = [fit(sizes, fit_seed(seed, 0), ledger)]
    # Fit 0 has the same inputs and a fresh process in every run; the
    # peaks of later fits also depend on what the allocator kept from
    # earlier ones (9-16% more than fit 0's on train_scale).
    peak_mb = rss.read_mb()
    # Start another fit while at least half of one still fits the window.
    while (time.perf_counter() - window_start
           + fits[-1].seconds / 2 < seconds):
        fits.append(fit(sizes, fit_seed(seed, len(fits)), ledger))
    window = time.perf_counter() - window_start

    failures = [f"fit {i}: mAUC {f.mauc:.4f} below {AUC_FLOOR}"
                for i, f in enumerate(fits) if not f.mauc >= AUC_FLOOR]
    replay = fit(sizes, fit_seed(seed, 0), Ledger())
    first = fits[0]
    if (replay.theta_sha256, replay.mauc, replay.wks) != (
            first.theta_sha256, first.mauc, first.wks):
        failures.append("replay of fit 0 is not bit-identical: theta "
                        f"{first.theta_sha256[:12]} vs "
                        f"{replay.theta_sha256[:12]}")

    times = [f.seconds for f in fits]
    values = {
        "setup_s": median(setup),
        "peak_rss_mb": peak_mb,
        "test_mauc": fits[0].mauc,
        "test_wks": fits[0].wks,
    }
    layers = {name: median([f.layers.get(name, 0.0) for f in fits])
              for name in fits[0].layers}
    layers["p50_ms"] = median(times) * 1e3
    layers.update({name: median([f.counts[name] for f in fits])
                   for name in fits[0].counts})
    if workload == "train_scale" and ledger.tracer is not None:
        # One streamed generation pass; pack_generated makes two.
        with ledger.span("data.generate_s"):
            for _ in _generator(sizes, fit_seed(seed, 0)).generate_chunks(
                    sizes.chunk_rows):
                pass
        layers.update(ledger.take())
    untimed = [(f.seconds - sum(f.layers[n] for n in TOP_LAYERS[workload]))
               / f.seconds for f in fits]
    layers["trace.untimed_share"] = median(untimed)
    layers["trace.overhead_pct"] = 100.0 * ledger.overhead_s / window
    return {
        "values": values,
        "layers": layers,
        "attempted": len(fits) + 1,
        "failed": len(failures),
        "failures": failures,
        "report": [
            f"fits {len(fits)} in {window:.1f} s: "
            + ", ".join(f"{t * 1e3:.0f}" for t in times) + " ms; "
            f"{sizes.rows / median(times):.0f} rows/s",
            f"setup (fresh interpreter + imports) x{len(setup)}: "
            + ", ".join(f"{s:.3f}" for s in setup) + " s",
            "mAUC per fit: " + ", ".join(f"{f.mauc:.4f}" for f in fits),
            "wKS per fit: " + ", ".join(f"{f.wks:.4f}" for f in fits),
        ],
    }
