"""The closed drift loop: trip → retrain → gated eval → promote/rollback.

:class:`LifecycleController` turns the serving tier's "drift latched"
dead-end into a recovery path.  One :meth:`~LifecycleController.run_recovery`
call walks the state machine::

    drift_detected ── retraining ── evaluating ──┬── promoting ── promoted
                          │             │        └── gates_failed (abort)
                      retrain_failed  eval_failed (abort, champion untouched)
                                                     │
                                    (post-promote regression) rolled_back

* **Retraining** runs as a :class:`~repro.parallel.engine.ParallelEngine`
  task: the recovery dataset is written to disk once and the module-level
  worker trains a fresh pipeline and saves a bare artifact — the
  controller never blocks the scoring path on training.
* **Evaluation** restores the challenger artifact and scores it on the
  held-out dataset per province; :class:`PromotionGates` compares its
  KS/AUC against the current champion's on the *same* rows.
* **Promotion** goes through :class:`~repro.serve.registry.ModelRegistry`
  (challenger slot first, champion on success), so the previous champion
  stays one :meth:`~repro.serve.registry.ModelRegistry.rollback` away;
  the post-promotion check re-evaluates and rolls back on regression.
* A :class:`~repro.serve.frontend.ScoringFrontend` handed to the
  controller gets the promoted model pushed as a new shared-memory
  generation, and the tripped :class:`~repro.serve.degradation.DriftGuard`
  is reset so monitoring restarts against the new regime.

Every stage transition is a ``lifecycle_stage`` tracer event and the whole
recovery runs under a ``serve_lifecycle`` span, so a run log replays the
loop end to end.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.dataset import LoanDataset
from repro.gbdt.boosting import GBDTParams
from repro.gbdt.tree import TreeParams
from repro.metrics.fairness import FairnessReport, evaluate_environments
from repro.obs.runlog import LIFECYCLE_SPAN, LIFECYCLE_STAGE_EVENT
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.engine import ParallelEngine
from repro.persist.artifacts import ScoringModel
from repro.pipeline.pipeline import LoanDefaultPipeline
from repro.serve.registry import CHALLENGER, ModelRegistry
from repro.train.registry import make_trainer

__all__ = [
    "PromotionGates",
    "RetrainConfig",
    "LifecycleController",
    "evaluate_model",
]


@dataclass(frozen=True)
class PromotionGates:
    """Held-out per-province KS/AUC thresholds a challenger must clear.

    Attributes:
        min_mean_ks: Absolute floor on the challenger's mean per-province
            KS.
        min_mean_auc: Absolute floor on its mean per-province AUC.
        max_ks_regression: How far the challenger's mean KS may fall
            below the champion's (on the same held-out rows) and still
            promote; 0 demands no regression at all.
    """

    min_mean_ks: float = 0.0
    min_mean_auc: float = 0.5
    max_ks_regression: float = 0.0

    def check(self, challenger: FairnessReport,
              champion: FairnessReport | None) -> tuple[bool, str]:
        """Evaluate the gates; returns ``(passed, reason)``."""
        if challenger.mean_ks < self.min_mean_ks:
            return False, (
                f"challenger mean KS {challenger.mean_ks:.4f} below floor "
                f"{self.min_mean_ks:.4f}"
            )
        if challenger.mean_auc < self.min_mean_auc:
            return False, (
                f"challenger mean AUC {challenger.mean_auc:.4f} below floor "
                f"{self.min_mean_auc:.4f}"
            )
        if champion is not None:
            floor = champion.mean_ks - self.max_ks_regression
            if challenger.mean_ks < floor:
                return False, (
                    f"challenger mean KS {challenger.mean_ks:.4f} regresses "
                    f"past champion {champion.mean_ks:.4f} - "
                    f"{self.max_ks_regression:.4f}"
                )
        return True, "gates passed"


@dataclass(frozen=True)
class RetrainConfig:
    """How the background retrain builds its candidate pipeline.

    Attributes:
        trainer: Trainer name accepted by
            :func:`repro.train.registry.make_trainer` (``"ERM"``,
            ``"LightMIRM"``, ...).
        trainer_overrides: Config overrides for the trainer (e.g.
            ``{"n_epochs": 20}``).
        gbdt: :class:`~repro.gbdt.boosting.GBDTParams` field overrides
            (e.g. ``{"n_trees": 8}``) — keep small for fast recovery.
        tree: :class:`~repro.gbdt.tree.TreeParams` field overrides.
    """

    trainer: str = "ERM"
    trainer_overrides: dict = field(default_factory=dict)
    gbdt: dict = field(default_factory=dict)
    tree: dict = field(default_factory=dict)


def _retrain_task(payload: dict) -> str:
    """Train a candidate pipeline and save its artifact (worker-side).

    Module-level so :class:`ParallelEngine` can pickle it under any start
    method; everything crosses the process boundary as paths and small
    dicts.  Returns the artifact path.
    """
    train = LoanDataset.load(payload["dataset_path"])
    trainer = make_trainer(payload["trainer"],
                           **payload["trainer_overrides"])
    params = GBDTParams(tree=TreeParams(**payload["tree"]),
                        **payload["gbdt"])
    pipeline = LoanDefaultPipeline(trainer, gbdt_params=params)
    pipeline.fit(train)
    artifact_path = payload["artifact_path"]
    ModelRegistry.save_file(pipeline, artifact_path,
                            metadata=payload["metadata"])
    return artifact_path


def evaluate_model(model: ScoringModel,
                   dataset: LoanDataset) -> FairnessReport:
    """Held-out per-province KS/AUC of one scorer (the default gate eval)."""
    labels_by_env: dict[str, np.ndarray] = {}
    scores_by_env: dict[str, np.ndarray] = {}
    for env in dataset.environments():
        labels_by_env[env.name] = env.labels
        scores_by_env[env.name] = model.predict_proba(env.features)
    return evaluate_environments(labels_by_env, scores_by_env)


class LifecycleController:
    """Runs one drift-recovery loop against a registry (and front-end).

    Usage::

        controller = LifecycleController(
            registry, holdout=holdout_dataset,
            retrain=RetrainConfig(trainer="ERM",
                                  trainer_overrides={"n_epochs": 10}),
        )
        report = controller.run_recovery(retrain_dataset)
        assert report["outcome"] == "promoted"

    Args:
        registry: The registry whose champion slot the loop manages.
        holdout: Held-out dataset the promotion gates evaluate on.
        retrain: Candidate-training recipe.
        gates: Promotion thresholds.
        engine: Engine the retrain task runs on (inline by default —
            ``n_jobs`` and start method are the caller's policy).
        tracer: Optional run tracer (``serve_lifecycle`` span +
            ``lifecycle_stage`` events).
        evaluate_fn: Evaluation hook ``(model, dataset) -> FairnessReport``;
            injectable so fault tests can make evaluation itself fail.
        frontend: Optional :class:`~repro.serve.frontend.ScoringFrontend`
            to push the promoted model into (as a new generation).
        drift_guard: Optional guard to reset once recovery promotes.
        workdir: Scratch directory for the dataset/artifact handoff files
            (a temp directory is created per run when omitted).
        health_monitor: Optional :class:`~repro.obs.live.HealthMonitor`.
            The controller subscribes to its transitions (see
            :meth:`attach_health_monitor`), so a ``→ critical`` flip
            arms a recovery request readable via
            :meth:`consume_recovery_request` — and each recovery's
            stages land in the same run log as the alerts that caused
            it, making drift → alert → retrain observable end-to-end.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        holdout: LoanDataset,
        retrain: RetrainConfig | None = None,
        gates: PromotionGates | None = None,
        engine: ParallelEngine | None = None,
        tracer: Tracer | None = None,
        evaluate_fn: Callable[[ScoringModel, LoanDataset],
                              FairnessReport] | None = None,
        frontend=None,
        drift_guard=None,
        workdir: str | pathlib.Path | None = None,
        health_monitor=None,
    ):
        self.registry = registry
        self.holdout = holdout
        self.retrain = retrain or RetrainConfig()
        self.gates = gates or PromotionGates()
        self.engine = engine or ParallelEngine()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.evaluate_fn = evaluate_fn or evaluate_model
        self.frontend = frontend
        self.drift_guard = drift_guard
        self.workdir = workdir
        self._recovery_requested: dict | None = None
        if health_monitor is not None:
            self.attach_health_monitor(health_monitor)

    # ------------------------------------------------------- health wiring

    def attach_health_monitor(self, health_monitor) -> None:
        """Subscribe to a health monitor's state transitions.

        A transition *into* ``critical`` records a pending recovery
        request (with the driving reasons); the serving loop polls
        :meth:`consume_recovery_request` and, when armed, calls
        :meth:`run_recovery` with fresh data.  The hook never triggers
        retraining inline — it runs on the front-end collector thread,
        which must never block on training.
        """
        def _on_transition(from_state: str, to_state: str,
                           reasons: list) -> None:
            if to_state == "critical":
                self._recovery_requested = {
                    "from_state": from_state,
                    "reasons": list(reasons),
                }

        health_monitor.on_transition(_on_transition)

    def consume_recovery_request(self) -> dict | None:
        """Pop the pending health-triggered recovery request, if any."""
        request, self._recovery_requested = self._recovery_requested, None
        return request

    # ------------------------------------------------------------ the loop

    def run_recovery(self, retrain_dataset: LoanDataset,
                     trigger: dict | None = None) -> dict:
        """Walk drift_detected → retrain → eval → promote once.

        Args:
            retrain_dataset: Rows representing the drifted regime the
                candidate should be trained on.
            trigger: Optional provenance of what armed this recovery
                (e.g. the dict from :meth:`consume_recovery_request`);
                recorded on the ``drift_detected`` stage event.

        Returns:
            A JSON-compatible recovery report: ``outcome`` (``"promoted"``,
            ``"rolled_back"``, ``"retrain_failed"``, ``"eval_failed"`` or
            ``"gates_failed"``), the ``stages`` visited, version ids and
            per-stage detail.  Aborted outcomes leave the champion slot
            untouched — that is the whole point of the gates.
        """
        report: dict = {"stages": [], "outcome": None}
        with self.tracer.span(LIFECYCLE_SPAN):
            detected_fields: dict = {}
            if self.drift_guard is not None:
                detected_fields["guard"] = self.drift_guard.snapshot()
            if trigger is not None:
                detected_fields["trigger"] = trigger
                report["trigger"] = trigger
            self._stage(report, "drift_detected", **detected_fields)
            champion_before = self.registry.slots().get("champion")
            report["champion_before"] = champion_before

            # -- retrain -------------------------------------------------
            self._stage(report, "retraining",
                        trainer=self.retrain.trainer,
                        n_rows=retrain_dataset.n_samples)
            try:
                artifact_path = self._run_retrain(retrain_dataset)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                report["outcome"] = "retrain_failed"
                report["error"] = repr(exc)
                self._stage(report, "aborted", reason="retrain_failed")
                return report

            challenger_version = self.registry.import_file(
                artifact_path,
                metadata={"origin": "drift_recovery"},
                slot=CHALLENGER,
            )
            report["challenger_version"] = challenger_version

            # -- gated evaluation ---------------------------------------
            self._stage(report, "evaluating",
                        challenger_version=challenger_version)
            try:
                challenger_model = self.registry.load(challenger_version)
                challenger_report = self.evaluate_fn(challenger_model,
                                                     self.holdout)
                champion_report = None
                if champion_before is not None:
                    champion_report = self.evaluate_fn(
                        self.registry.load(champion_before), self.holdout
                    )
            except Exception as exc:  # noqa: BLE001 - abort, don't promote
                report["outcome"] = "eval_failed"
                report["error"] = repr(exc)
                self._stage(report, "aborted", reason="eval_failed")
                return report
            report["challenger_eval"] = challenger_report.summary()
            if champion_report is not None:
                report["champion_eval"] = champion_report.summary()

            passed, reason = self.gates.check(challenger_report,
                                              champion_report)
            report["gates"] = {"passed": passed, "reason": reason}
            if not passed:
                report["outcome"] = "gates_failed"
                self._stage(report, "aborted", reason=reason)
                return report

            # -- promote (with post-check rollback) ----------------------
            self._stage(report, "promoting",
                        challenger_version=challenger_version)
            self.registry.promote(challenger_version)
            try:
                post_report = self.evaluate_fn(
                    self.registry.load("champion"), self.holdout
                )
                post_passed, post_reason = self.gates.check(post_report,
                                                            champion_report)
            except Exception as exc:  # noqa: BLE001 - treat as regression
                post_passed, post_reason = False, repr(exc)
            if not post_passed and champion_before is not None:
                restored = self.registry.rollback()
                report["outcome"] = "rolled_back"
                report["restored_version"] = restored
                self._stage(report, "rolled_back", reason=post_reason,
                            restored_version=restored)
                return report

            report["outcome"] = "promoted"
            report["promoted_version"] = challenger_version
            if self.frontend is not None:
                generation = self.frontend.publish(
                    challenger_model, version=challenger_version
                )
                report["generation"] = generation
            if self.drift_guard is not None:
                self.drift_guard.reset_trip()
            self._stage(report, "promoted",
                        promoted_version=challenger_version)
        return report

    # ------------------------------------------------------------- helpers

    def _run_retrain(self, retrain_dataset: LoanDataset) -> str:
        """Ship the dataset to disk and run the retrain task on the engine."""
        if self.workdir is not None:
            workdir = pathlib.Path(self.workdir)
            workdir.mkdir(parents=True, exist_ok=True)
        else:
            workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-recover-"))
        dataset_path = workdir / "retrain_dataset.npz"
        retrain_dataset.save(dataset_path)
        payload = {
            "dataset_path": str(dataset_path),
            "artifact_path": str(workdir / "challenger.json"),
            "trainer": self.retrain.trainer,
            "trainer_overrides": dict(self.retrain.trainer_overrides),
            "gbdt": dict(self.retrain.gbdt),
            "tree": dict(self.retrain.tree),
            "metadata": {"origin": "drift_recovery",
                         "trainer": self.retrain.trainer},
        }
        return self.engine.map(_retrain_task, [payload])[0]

    def _stage(self, report: dict, stage: str, **fields) -> None:
        report["stages"].append(stage)
        self.tracer.event(LIFECYCLE_STAGE_EVENT, stage=stage, **fields)
