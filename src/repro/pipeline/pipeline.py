"""End-to-end GBDT+LR loan default prediction pipeline (Fig 2).

Composes the three stages of the paper's model:

1. **Feature extraction** — a GBDT trained on the pooled raw features by
   plain cross-entropy (Section III-C; the GBDT itself is always ERM-trained,
   only the LR head differs between methods).
2. **Leaf encoding** — every tree's leaf index becomes a one-hot categorical
   cross-feature; concatenation yields the multi-hot design matrix.
3. **LR head** — trained by any :class:`~repro.train.base.Trainer`
   (ERM, GroupDRO, V-REx, meta-IRM, LightMIRM, ...) over the per-province
   environments of the encoded data.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.dataset import EnvironmentData, LoanDataset
from repro.gbdt.boosting import GBDTParams
from repro.metrics.fairness import FairnessReport, evaluate_environments
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.pipeline.extractor import GBDTFeatureExtractor
from repro.timing import StepTimer
from repro.train.base import EpochCallback, Trainer, TrainResult

__all__ = ["LoanDefaultPipeline"]


class LoanDefaultPipeline:
    """GBDT feature extraction + environment-aware LR head.

    Usage::

        pipeline = LoanDefaultPipeline(LightMIRMTrainer())
        pipeline.fit(train_dataset)
        report = pipeline.evaluate(test_dataset)
        print(report.summary())

    A pre-fitted :class:`~repro.pipeline.extractor.GBDTFeatureExtractor` can
    be supplied to share the (method-independent) extraction stage between
    several heads, which is how the experiment harness runs comparisons.
    """

    def __init__(
        self,
        trainer: Trainer,
        gbdt_params: GBDTParams | None = None,
        extractor: GBDTFeatureExtractor | None = None,
    ):
        if extractor is not None and gbdt_params is not None:
            raise ValueError("pass either gbdt_params or a prefit extractor")
        self.trainer = trainer
        self.extractor = extractor or GBDTFeatureExtractor(gbdt_params)
        self.result_: TrainResult | None = None

    @property
    def is_fitted(self) -> bool:
        return self.result_ is not None

    def fit(
        self,
        train: LoanDataset,
        callback: EpochCallback | None = None,
        timer: StepTimer | None = None,
        tracer: Tracer | None = None,
    ) -> "LoanDefaultPipeline":
        """Fit the GBDT extractor (if needed), encode, train the LR head.

        Args:
            train: Training dataset (multiple provinces required for the
                IRM-family trainers).
            callback: Per-epoch hook forwarded to the LR trainer.
            timer: Optional step timer; the one-off leaf encoding is charged
                to the ``transforming_format`` step (Table III).
            tracer: Optional run tracer.  The whole fit is a
                ``pipeline.fit`` span (field ``trainer``) holding a
                ``gbdt.boosting.fit`` span (fields ``rows``, ``trees``)
                when the extractor is fitted here, a
                ``pipeline.encode_environments`` span (field ``rows``)
                around the one-off encode, and the trainer's own ``fit``
                span.

        Returns:
            self.

        Raises:
            RuntimeError: If the pipeline is already fitted.  Re-fitting
                silently discarded the previous head (while keeping the old
                GBDT, so the two stages could come from different data);
                call :meth:`reset` first to refit deliberately.
        """
        if self.is_fitted:
            raise RuntimeError(
                "pipeline is already fitted; call reset() before fitting "
                "again, or build a fresh pipeline"
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        timer = timer or StepTimer(enabled=tracer.enabled)
        # Attach before the one-off encode so its transforming_format step
        # is mirrored into the log (the trainer re-attaches harmlessly).
        tracer.attach_timer(timer)
        with tracer.span("pipeline.fit", trainer=self.trainer.name):
            binned = None  # the fit's train bins, when it happens here
            if not self.extractor.is_fitted:
                start = time.perf_counter()
                binned = self.extractor.fit_and_bin(train)
                tracer.record_span(
                    "gbdt.boosting.fit", time.perf_counter() - start,
                    rows=train.n_samples, trees=self.gbdt_.n_trees_fitted,
                )
            with tracer.span("pipeline.encode_environments",
                             rows=train.n_samples):
                with timer.step("transforming_format"):
                    environments = self.extractor.encode_environments(
                        train, binned)
            del binned  # not held while the head trains
            self.result_ = self.trainer.fit(
                environments, callback=callback, timer=timer, tracer=tracer
            )
        return self

    def encode_environments(self, dataset: LoanDataset) -> list[EnvironmentData]:
        """Per-province environments in the encoded (leaf one-hot) space."""
        return self.extractor.encode_environments(dataset)

    def reset(self) -> "LoanDefaultPipeline":
        """Discard the trained LR head so the pipeline can be refit.

        The fitted GBDT extraction stage is kept — it is method-independent
        and deliberately shareable between heads; pass a fresh pipeline if
        the extractor itself must be retrained.
        """
        self.result_ = None
        return self

    def predict_proba(self, dataset: LoanDataset) -> np.ndarray:
        """Default probabilities for every row, in dataset order.

        Scored through one compiled scorer; per-environment results (the
        fine-tuning baseline) score each province with its own parameters
        (:meth:`GBDTFeatureExtractor.predict_proba
        <repro.pipeline.extractor.GBDTFeatureExtractor.predict_proba>`).
        """
        self._check_fitted()
        return self.extractor.predict_proba(dataset, self.result_)

    def evaluate(self, test: LoanDataset) -> FairnessReport:
        """Per-province KS/AUC report on a test dataset."""
        self._check_fitted()
        scores = self.predict_proba(test)
        return evaluate_environments(test.by_province(test.labels),
                                     test.by_province(scores))

    @property
    def gbdt_(self):
        """The fitted GBDT model (back-compat accessor)."""
        return self.extractor.model_

    @property
    def encoder_(self):
        """The fitted leaf encoder (back-compat accessor)."""
        return self.extractor.encoder_

    def _check_fitted(self) -> None:
        if self.result_ is None:
            raise RuntimeError("pipeline is not fitted")
