"""Model persistence: JSON codecs and full-pipeline artifacts.

The save/load surface for whole pipelines is
:class:`repro.serve.registry.ModelRegistry` (``save_file``/``load_file`` for
bare artifact files); this package holds the payload codecs it uses.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "artifacts": (
        "ScoringModel", "pipeline_to_payload", "scoring_model_from_payload",
    ),
    "codec": (
        "binner_from_dict", "binner_to_dict", "gbdt_from_dict", "gbdt_to_dict",
        "gbdt_from_arrays", "gbdt_to_arrays",
    ),
})
