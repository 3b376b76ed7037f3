"""From-scratch histogram GBDT (LightGBM substitute) and leaf encoder."""

from repro.gbdt.binning import QuantileBinner, ReservoirSampler
from repro.gbdt.boosting import GBDTClassifier, GBDTParams
from repro.gbdt.forest import Forest
from repro.gbdt.histogram import HistogramBuilder, NodeHistogram, build_histogram
from repro.gbdt.leaf_encoder import LeafDesign, LeafIndexEncoder, encode_leaf_matrix
from repro.gbdt.packing import (
    PackedBinnedDataset,
    fit_extractor_encode,
    leaf_encode_environments,
    pack_generated,
)
from repro.gbdt.tree import DecisionTree, SplitInfo, TreeParams

__all__ = [
    "QuantileBinner",
    "ReservoirSampler",
    "PackedBinnedDataset",
    "pack_generated",
    "fit_extractor_encode",
    "leaf_encode_environments",
    "GBDTClassifier",
    "GBDTParams",
    "HistogramBuilder",
    "NodeHistogram",
    "build_histogram",
    "LeafDesign",
    "LeafIndexEncoder",
    "encode_leaf_matrix",
    "DecisionTree",
    "Forest",
    "SplitInfo",
    "TreeParams",
]
