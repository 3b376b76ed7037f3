"""Baseline trainers from the paper's comparison (Section IV-A1)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "erm": ("ERMTrainer",),
    "finetune": ("FineTuneConfig", "FineTunedTrainResult", "FineTuneTrainer"),
    "group_dro": ("GroupDROConfig", "GroupDROTrainer"),
    "irmv1": ("IRMv1Config", "IRMv1Trainer"),
    "upsampling": ("UpSamplingConfig", "UpSamplingTrainer"),
    "vrex": ("VRExConfig", "VRExTrainer"),
})
