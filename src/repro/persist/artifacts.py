"""The full GBDT+LR scoring model as one JSON-compatible artifact payload.

The deployed object is the composition (GBDT -> leaf one-hot -> LR head);
this module encodes all three stages plus metadata, and restores a
:class:`ScoringModel` whose ``predict_proba`` matches the training pipeline
bit for bit.

The persistence surface is :class:`repro.serve.registry.ModelRegistry`
(``save``/``load`` for versioned registries, ``save_file``/``load_file`` for
bare artifact files); the payload codecs below are what both share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import LoanDataset
from repro.gbdt.leaf_encoder import LeafIndexEncoder
from repro.models.logistic import LogisticModel
from repro.persist.codec import (
    _FORMAT_VERSION,
    check_version,
    gbdt_from_dict,
    gbdt_to_dict,
)
from repro.pipeline.pipeline import LoanDefaultPipeline

__all__ = [
    "ScoringModel",
    "pipeline_to_payload",
    "scoring_model_from_payload",
]


@dataclass(frozen=True)
class ScoringModel:
    """A restored GBDT+LR scorer with its training metadata."""

    encoder: LeafIndexEncoder
    model: LogisticModel
    theta: np.ndarray
    trainer_name: str
    metadata: dict

    def predict_proba(self, features: np.ndarray | LoanDataset) -> np.ndarray:
        """Default probabilities for raw feature rows (or a dataset)."""
        if isinstance(features, LoanDataset):
            features = features.features
        encoded = self.encoder.transform(np.asarray(features))
        return self.model.predict_proba(self.theta, encoded)


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
    gbdt = gbdt_from_dict(payload["gbdt"])
    encoder = LeafIndexEncoder(gbdt)
    theta = np.asarray(payload["theta"], dtype=np.float64)
    model = LogisticModel(theta.size, l2=payload["l2"])
    return ScoringModel(
        encoder=encoder,
        model=model,
        theta=theta,
        trainer_name=payload["trainer_name"],
        metadata=payload["metadata"],
    )
