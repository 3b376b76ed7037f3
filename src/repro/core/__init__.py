"""The paper's contribution: meta-IRM and LightMIRM trainers."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("LightMIRMConfig", "MetaIRMConfig"),
    "lightmirm": ("LightMIRMTrainer",),
    "meta_irm": ("MetaIRMTrainer",),
    "mrq": ("MetaLossReplayQueue",),
    "meta_grad": (
        "backprop_through_inner_step", "sigma_and_weights", "sigma_of",
    ),
})
