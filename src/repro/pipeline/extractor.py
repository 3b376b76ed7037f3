"""GBDT feature-extraction stage, reusable across many LR-head trainers.

Separating the extractor from :class:`~repro.pipeline.pipeline.LoanDefaultPipeline`
lets the experiment harness fit the (method-independent) GBDT once and train
all seven LR heads of Table I against the same encoded design matrix — which
is also exactly how the paper's comparison is set up: the feature extraction
module is shared, only the LR learning paradigm differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.dataset import EnvironmentData, LoanDataset, group_rows
from repro.gbdt.boosting import GBDTClassifier, GBDTParams, fit_holdout
from repro.gbdt.leaf_encoder import (
    LeafDesign,
    LeafIndexEncoder,
    leaf_encode_environments,
)
from repro.gbdt.scorer import CompiledScorer

if TYPE_CHECKING:
    from repro.train.base import TrainResult

__all__ = ["GBDTFeatureExtractor", "default_gbdt_params"]


def default_gbdt_params() -> GBDTParams:
    """The GBDT configuration used by all experiments.

    ``colsample < 1`` matters beyond regularisation: feature subsampling
    yields some trees that never touch the spurious regional signals, giving
    the IRM-trained head clean leaf indicators to up-weight.
    """
    return GBDTParams(
        n_trees=40, learning_rate=0.1, colsample=0.7, early_stopping_rounds=10
    )


class GBDTFeatureExtractor:
    """Fits the GBDT on pooled data and exposes the leaf one-hot encoding."""

    def __init__(
        self,
        params: GBDTParams | None = None,
        validation_fraction: float = 0.2,
    ):
        self.params = params or default_gbdt_params()
        self.validation_fraction = validation_fraction
        self.model_: GBDTClassifier | None = None
        self.encoder_: LeafIndexEncoder | None = None

    @property
    def is_fitted(self) -> bool:
        return self.encoder_ is not None

    @property
    def n_output_features(self) -> int:
        self._check_fitted()
        return self.encoder_.n_output_features

    def fit(self, train: LoanDataset) -> "GBDTFeatureExtractor":
        """Train the GBDT by pooled cross-entropy (Section III-C).

        Early stopping holds out ``validation_fraction`` of the rows in
        :func:`~repro.data.splits.validation_split`'s order (seed 0); see
        :func:`~repro.gbdt.boosting.fit_holdout`.
        """
        self.fit_and_bin(train)
        return self

    def fit_and_bin(self, train: LoanDataset) -> np.ndarray:
        """:meth:`fit`, returning ``model_.bin_features(train.features)``
        (the fit's own binning pass; no second one).  A selection's rows
        are read in place from its shared matrix."""
        matrix, rows = train.feature_source
        self.model_, binned = fit_holdout(
            self.params, [matrix], train.labels,
            self.validation_fraction, seed=0, rows=rows)
        self.encoder_ = LeafIndexEncoder(self.model_)
        return binned

    def transform(self, dataset: LoanDataset) -> LeafDesign:
        """Encode all rows of a dataset into the multi-hot leaf space."""
        self._check_fitted()
        # Bin once, then route + encode from the shared binned matrix.
        binned = self.model_.bin_features(*dataset.feature_source)
        return self.encoder_.transform_binned(binned)

    def predict_proba(self, dataset: LoanDataset,
                      result: TrainResult) -> np.ndarray:
        """Default probabilities of a trained head over a dataset's rows.

        One :class:`~repro.gbdt.scorer.CompiledScorer` scores the raw rows,
        bit for bit as encoding them and taking the head's product would;
        a selection's rows are read in place from its shared matrix.
        A per-environment result (the fine-tuning baseline) scores each
        province's rows with its
        :meth:`~repro.train.base.TrainResult.theta_for_environment`.

        Args:
            dataset: Rows to score.
            result: A head trained on this extractor's encoding.
        """
        self._check_fitted()
        edges = self.model_.binner.bin_edges_
        scorer = CompiledScorer(self.model_.forest_, np.concatenate(edges),
                                np.cumsum([0] + [len(e) for e in edges]),
                                result.theta)
        matrix, source = dataset.feature_source
        if not result.is_per_environment:
            return scorer.predict_proba(matrix, source)
        scores = np.empty(dataset.n_samples)
        for name, rows in zip(*group_rows(np.asarray(dataset.provinces))):
            head = scorer.with_theta(result.theta_for_environment(str(name)))
            scores[rows] = head.predict_proba(
                matrix, rows if source is None else source[rows])
        return scores

    def encode_environments(self, dataset: LoanDataset,
                            binned=None) -> list[EnvironmentData]:
        """Per-province environments in the encoded space, sorted by name
        (``binned``: ``dataset``'s bins from :meth:`fit_and_bin`, if any)."""
        self._check_fitted()
        if binned is None:
            binned = self.model_.bin_features(*dataset.feature_source)
        return leaf_encode_environments(self.model_, binned, (
            (name, rows, dataset.labels[rows])
            for name, rows in dataset.province_rows().items()
        ))

    def _check_fitted(self) -> None:
        if self.encoder_ is None:
            raise RuntimeError("feature extractor is not fitted")
