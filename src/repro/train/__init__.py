"""Training infrastructure shared by all methods."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "BaseTrainConfig", "EpochCallback", "Trainer", "TrainingHistory",
        "TrainResult", "stack_environments",
    ),
    "registry": (
        "TrainerInfo", "available_trainers", "make_trainer",
        "penalty_parameter", "resolve_trainer_name", "trainer_names",
    ),
})
