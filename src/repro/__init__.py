"""LightMIRM reproduction: trustworthy loan default prediction.

Full reproduction of "LightMIRM: Light Meta-learned Invariant Risk
Minimization for Trustworthy Loan Default Prediction" (ICDE 2023):
a synthetic auto-loan platform, a from-scratch histogram GBDT, the GBDT+LR
pipeline, meta-IRM (Algorithm 1), LightMIRM (Algorithm 2), five baselines,
and the complete experiment harness regenerating every table and figure.

Quickstart::

    from repro import (
        LightMIRMTrainer, LoanDefaultPipeline, generate_default_dataset,
        temporal_split,
    )

    split = temporal_split(generate_default_dataset(n_samples=20_000))
    pipeline = LoanDefaultPipeline(LightMIRMTrainer())
    pipeline.fit(split.train)
    print(pipeline.evaluate(split.test).summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "baselines": (
        "ERMTrainer", "FineTuneTrainer", "GroupDROTrainer",
        "UpSamplingTrainer", "VRExTrainer",
    ),
    "core": (
        "LightMIRMConfig", "LightMIRMTrainer", "MetaIRMConfig",
        "MetaIRMTrainer", "MetaLossReplayQueue",
    ),
    "data": (
        "GeneratorConfig", "LoanDataGenerator", "LoanDataset",
        "generate_default_dataset", "iid_split", "temporal_split",
    ),
    "gbdt": ("GBDTClassifier", "GBDTParams", "LeafIndexEncoder"),
    "metrics": (
        "FairnessReport", "auc_score", "evaluate_environments", "ks_score",
    ),
    "models": ("LogisticModel",),
    "pipeline": ("LoanDefaultPipeline",),
    "train": ("BaseTrainConfig", "Trainer", "TrainResult", "make_trainer"),
})
__all__ += ["__version__"]
