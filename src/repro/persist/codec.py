"""JSON codecs for every persistable model component.

The production system retrains the loan model periodically and serves it
elsewhere, so models must round-trip through a storage format.  A fitted
GBDT is its :class:`~repro.gbdt.forest.Forest` arrays plus the binner's
edges; :func:`gbdt_to_arrays` exposes exactly those arrays and a small
JSON-compatible meta table, which the artifact files (below) and the
shared-memory publisher (:mod:`repro.serve.shm_publish`) both store.

In a JSON payload each array is a typed raw-byte record
``{"dtype": "<f8", "data": "<base64>"}``: the bytes round-trip exactly, so
restored models predict *bit-identically* to the originals, and decoding
is a copy rather than a parse.  Growth-time state (node lists, split
gains, histograms) is not stored.

Restoring splits from saving: :func:`forest_from_arrays` validates and
returns the forest and the bin edges, all a serving process scores with,
without importing the GBDT's training classes; only the functions that
build or read a :class:`~repro.gbdt.boosting.GBDTClassifier` or a
:class:`~repro.gbdt.binning.QuantileBinner` import them, when called.
"""

from __future__ import annotations

import base64
from typing import TYPE_CHECKING

import numpy as np

from repro.gbdt.forest import Forest
from repro.parallel.shared import ragged_from_arrays, ragged_to_arrays

if TYPE_CHECKING:
    from repro.gbdt.binning import QuantileBinner
    from repro.gbdt.boosting import GBDTClassifier

__all__ = [
    "encode_array",
    "decode_array",
    "binner_to_dict",
    "binner_from_dict",
    "gbdt_to_arrays",
    "gbdt_from_arrays",
    "gbdt_to_dict",
    "gbdt_from_dict",
    "gbdt_arrays_from_dict",
    "forest_from_arrays",
]

_FORMAT_VERSION = 2

#: Dtypes a typed array record may declare (little-endian, fixed width).
_ARRAY_DTYPES = {name: np.dtype(name) for name in ("<i4", "<i8", "<f4", "<f8")}

#: Forest fields stored as arrays, by array key.
_FOREST_ARRAYS = {"forest/nodes": "nodes", "forest/leaf": "leaf",
                  "forest/value": "value", "forest/roots": "roots"}


def encode_array(array: np.ndarray) -> dict:
    """A 1-D array as a JSON-compatible typed raw-byte record."""
    array = np.ascontiguousarray(array)
    if array.dtype.str not in _ARRAY_DTYPES or array.ndim != 1:
        raise ValueError(f"cannot encode a {array.ndim}-D {array.dtype} array")
    return {"dtype": array.dtype.str,
            "data": base64.b64encode(array.data).decode("ascii")}


def decode_array(record: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (a read-only array).

    Raises:
        ValueError: On an unknown dtype or a byte count that is not a
            whole number of elements.
    """
    dtype = _ARRAY_DTYPES.get(record.get("dtype"))
    if dtype is None:
        raise ValueError(f"unknown array dtype {record.get('dtype')!r}")
    return np.frombuffer(base64.b64decode(record["data"], validate=True),
                         dtype=dtype)


def _encode_arrays(arrays: dict[str, np.ndarray]) -> dict:
    return {key: encode_array(array) for key, array in arrays.items()}


def _decode_arrays(records: dict) -> dict[str, np.ndarray]:
    return {key: decode_array(record) for key, record in records.items()}


def _binner_arrays(binner: QuantileBinner) -> dict[str, np.ndarray]:
    if not binner.is_fitted:
        raise ValueError("cannot serialise an unfitted binner")
    return ragged_to_arrays(binner.bin_edges_, "binner", np.float64)


def _edge_arrays(arrays: dict[str, np.ndarray]) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """The binner's validated edge data and per-column offsets."""
    data, offsets = arrays["binner/data"], arrays["binner/offsets"]
    if data.dtype != np.float64 or offsets.dtype != np.int64 \
            or offsets.size < 2 or offsets[0] != 0 \
            or offsets[-1] != data.size or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError("binner edges and offsets do not match")
    return data, offsets


def binner_to_dict(binner: QuantileBinner) -> dict:
    """Encode a fitted quantile binner."""
    return {
        "version": _FORMAT_VERSION,
        "max_bins": binner.max_bins,
        "arrays": _encode_arrays(_binner_arrays(binner)),
    }


def binner_from_dict(payload: dict) -> QuantileBinner:
    """Restore a quantile binner."""
    from repro.gbdt.binning import QuantileBinner

    check_version(payload)
    arrays = _decode_arrays(payload["arrays"])
    _edge_arrays(arrays)
    binner = QuantileBinner(max_bins=payload["max_bins"])
    binner.bin_edges_ = ragged_from_arrays(arrays, "binner")
    return binner


def gbdt_to_arrays(model: GBDTClassifier) -> tuple[dict[str, np.ndarray], dict]:
    """A fitted ensemble as ``(arrays, meta)``.

    ``arrays`` holds the forest and the binner edges; ``meta`` is a small
    JSON-compatible table (parameters, base score, depth).
    """
    if not model.is_fitted:
        raise ValueError("cannot serialise an unfitted GBDT")
    forest = model.forest_
    arrays = {key: getattr(forest, field)
              for key, field in _FOREST_ARRAYS.items()}
    arrays.update(_binner_arrays(model.binner))
    meta = {
        "params": model.params.canonical(),
        "base_score": model.base_score_,
        "depth": forest.depth,
    }
    return arrays, meta


def forest_from_arrays(
    arrays: dict[str, np.ndarray], meta: dict
) -> tuple[Forest, np.ndarray, np.ndarray]:
    """The validated forest, bin edge data and per-column edge offsets of
    :func:`gbdt_to_arrays`' output (no copies), without building the
    GBDT's training classes.

    Raises:
        ValueError: If the arrays do not form a valid forest over the
            binner's columns, or the leaf values are not in the dtype the
            parameters name.
    """
    edge_data, edge_offsets = _edge_arrays(arrays)
    forest = Forest(
        **{field: arrays[key] for key, field in _FOREST_ARRAYS.items()},
        depth=meta["depth"],
        n_columns=edge_offsets.size - 1,
    )
    dtype = meta["params"]["dtype"]
    if forest.value.dtype != np.dtype(dtype):
        raise ValueError(f"leaf values are {forest.value.dtype}, "
                         f"parameters say {dtype}")
    return forest, edge_data, edge_offsets


def gbdt_from_arrays(arrays: dict[str, np.ndarray],
                     meta: dict) -> GBDTClassifier:
    """Restore an ensemble over the given arrays (no copies).

    Raises:
        ValueError: As :func:`forest_from_arrays`.
    """
    from repro.gbdt.binning import QuantileBinner
    from repro.gbdt.boosting import GBDTClassifier, GBDTParams

    params = GBDTParams.from_canonical(meta["params"])
    model = GBDTClassifier(params)
    model.forest_ = forest_from_arrays(arrays, meta)[0]
    model.binner = QuantileBinner(max_bins=params.max_bins)
    model.binner.bin_edges_ = ragged_from_arrays(arrays, "binner")
    model.base_score_ = float(meta["base_score"])
    return model


def gbdt_to_dict(model: GBDTClassifier) -> dict:
    """Encode a fitted boosted ensemble."""
    arrays, meta = gbdt_to_arrays(model)
    return {"version": _FORMAT_VERSION, **meta,
            "arrays": _encode_arrays(arrays)}


def gbdt_arrays_from_dict(payload: dict) -> tuple[dict[str, np.ndarray],
                                                  dict]:
    """:func:`gbdt_to_dict`'s payload as :func:`gbdt_to_arrays`' output."""
    check_version(payload)
    meta = {key: payload[key] for key in ("params", "base_score", "depth")}
    return _decode_arrays(payload["arrays"]), meta


def gbdt_from_dict(payload: dict) -> GBDTClassifier:
    """Restore a boosted ensemble (prediction and leaf encoding work)."""
    return gbdt_from_arrays(*gbdt_arrays_from_dict(payload))


def check_version(payload: dict) -> None:
    """Reject payloads of any other format version.

    Raises:
        ValueError: Naming the version; format-1 payloads (per-node
            decimal trees) must be re-saved.
    """
    version = payload.get("version")
    if version == 1:
        raise ValueError(
            "serialisation version 1 (per-node decimal trees) is no longer "
            "readable; load it with the release that wrote it and re-save "
            f"it to write version {_FORMAT_VERSION}"
        )
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported serialisation version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
