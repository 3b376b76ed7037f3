"""The full GBDT+LR scoring model as one JSON-compatible artifact payload.

The deployed object is the composition (GBDT -> leaf one-hot -> LR head);
this module encodes all three stages plus metadata, and restores a
:class:`ScoringModel` whose ``predict_proba`` matches the training pipeline
bit for bit.

Loading imports no training code: a :class:`ScoringModel` scores through a
:class:`~repro.gbdt.scorer.CompiledScorer` built from the stored arrays.
Saving a fitted pipeline reads the training classes it is handed.

The persistence surface is :class:`repro.serve.registry.ModelRegistry`
(``save``/``load`` for versioned registries, ``save_file``/``load_file`` for
bare artifact files); the payload codecs below are what both share.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import LoanDataset
from repro.gbdt.scorer import CompiledScorer
from repro.persist.codec import (
    _FORMAT_VERSION,
    check_version,
    forest_from_arrays,
    gbdt_arrays_from_dict,
    gbdt_from_arrays,
    gbdt_to_dict,
)

if TYPE_CHECKING:
    from repro.gbdt.leaf_encoder import LeafIndexEncoder
    from repro.models.logistic import LogisticModel
    from repro.pipeline.pipeline import LoanDefaultPipeline

__all__ = [
    "ScoringModel",
    "pipeline_to_payload",
    "scoring_model_from_payload",
]


class ScoringModel:
    """A restored GBDT+LR scorer with its training metadata.

    Args:
        gbdt_arrays, gbdt_meta: The GBDT's arrays and their meta table
            (:func:`~repro.persist.codec.gbdt_to_arrays`).
        theta: The LR head.
        l2: The head's L2 strength.
        trainer_name, metadata: What trained the model, and free-form run
            metadata.

    Raises:
        ValueError: If the arrays do not form a valid forest, or ``theta``
            does not have one entry per leaf.

    ``scorer`` is built here; ``encoder`` (a
    :class:`~repro.gbdt.leaf_encoder.LeafIndexEncoder` over the restored
    :class:`~repro.gbdt.boosting.GBDTClassifier`) and ``model`` (the
    :class:`~repro.models.logistic.LogisticModel` head) are built on first
    access, which imports the training classes.  Scoring reads neither.
    """

    def __init__(self, gbdt_arrays: dict[str, np.ndarray], gbdt_meta: dict,
                 theta: np.ndarray, l2: float, trainer_name: str,
                 metadata: dict):
        self.gbdt_arrays = gbdt_arrays
        self.gbdt_meta = gbdt_meta
        self.theta = theta
        self.l2 = float(l2)
        self.trainer_name = trainer_name
        self.metadata = metadata
        self.scorer = CompiledScorer(*forest_from_arrays(gbdt_arrays,
                                                         gbdt_meta), theta)

    @cached_property
    def encoder(self) -> LeafIndexEncoder:
        """The layered leaf encoder over the restored GBDT."""
        from repro.gbdt.leaf_encoder import LeafIndexEncoder

        return LeafIndexEncoder(gbdt_from_arrays(self.gbdt_arrays,
                                                 self.gbdt_meta))

    @cached_property
    def model(self) -> LogisticModel:
        """The LR head (``model.predict_proba(theta, design)``)."""
        from repro.models.logistic import LogisticModel

        return LogisticModel(self.theta.size, l2=self.l2)

    def predict_proba(self, features: np.ndarray | LoanDataset) -> np.ndarray:
        """Default probabilities for raw feature rows (or a dataset)."""
        if isinstance(features, LoanDataset):
            return self.scorer.predict_proba(*features.feature_source)
        return self.scorer.predict_proba(features)


def pipeline_to_payload(
    pipeline: LoanDefaultPipeline, metadata: dict | None = None
) -> dict:
    """Encode a fitted pipeline as a JSON-compatible artifact payload.

    Args:
        pipeline: A fitted :class:`LoanDefaultPipeline`.
        metadata: Optional free-form JSON-compatible run metadata.

    Returns:
        A dict that round-trips through :func:`scoring_model_from_payload`.

    Raises:
        RuntimeError: If the pipeline is not fitted.
        ValueError: If the head carries per-environment parameters (the
            fine-tuning baseline), which this artifact format does not hold.
    """
    if not pipeline.is_fitted:
        raise RuntimeError("cannot save an unfitted pipeline")
    result = pipeline.result_
    if result.is_per_environment:
        raise ValueError(
            "per-environment fine-tuned heads are not supported by the "
            "single-parameter artifact format"
        )
    return {
        "version": _FORMAT_VERSION,
        "trainer_name": result.trainer_name,
        "gbdt": gbdt_to_dict(pipeline.extractor.model_),
        "theta": result.theta.tolist(),
        "l2": result.model.l2,
        "metadata": metadata or {},
    }


def scoring_model_from_payload(payload: dict) -> ScoringModel:
    """Restore a :class:`ScoringModel` from an artifact payload dict.

    Raises:
        ValueError: On another format version, or GBDT arrays that do not
            form a valid model.
    """
    check_version(payload)
    gbdt_arrays, gbdt_meta = gbdt_arrays_from_dict(payload["gbdt"])
    return ScoringModel(
        gbdt_arrays=gbdt_arrays,
        gbdt_meta=gbdt_meta,
        theta=np.asarray(payload["theta"], dtype=np.float64),
        l2=payload["l2"],
        trainer_name=payload["trainer_name"],
        metadata=payload["metadata"],
    )
