"""From-scratch histogram GBDT (LightGBM substitute), leaf encoder and
the compiled GBDT+LR scorer."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "binning": ("QuantileBinner", "ReservoirSampler", "StreamedFit"),
    "packing": (
        "PackedBinnedDataset", "pack_generated", "fit_extractor_encode",
    ),
    "boosting": ("GBDTClassifier", "GBDTParams", "fit_holdout"),
    "histogram": ("HistogramBuilder", "NodeHistogram"),
    "leaf_encoder": (
        "LeafDesign", "LeafIndexEncoder", "encode_leaf_matrix",
        "leaf_encode_environments",
    ),
    "tree": ("DecisionTree", "SplitInfo", "TreeParams"),
    "forest": ("Forest",),
    "scorer": ("CompiledScorer",),
})
