"""Experiment harness: one module per table/figure of the paper.

``EXPERIMENTS`` (in :mod:`repro.experiments.runner`) is the table of
artefacts: each ``repro experiment`` id with its module, run and format
functions and the platform it runs on (see DESIGN.md §4).  The multi-seed
shape study :mod:`repro.experiments.stability` is the one module outside
it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ("ExperimentContext", "ExperimentSettings", "MethodScores",
               "Experiment", "EXPERIMENTS", "Platform", "PLATFORMS"),
})
