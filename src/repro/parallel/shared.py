"""Zero-copy shared-memory handoff of numpy data to worker processes.

The experiment fan-out repeats training dozens of times over the *same*
encoded design matrix.  Pickling that matrix into every worker would copy
it once per task; instead :class:`SharedArrayPack` lays every array out in
one ``multiprocessing.shared_memory`` block and ships only a tiny
:class:`PackSpec` (block name + offset table) through the task pipe.
Workers attach and get numpy views straight into the block — zero copies,
regardless of the pool's start method.

Layout: arrays are concatenated back to back, each offset aligned to 64
bytes (cache line) so attached views keep the parent's alignment.  Leaf
design matrices are stored as their column-id array plus their width;
:func:`environments_to_arrays` / :func:`environments_from_arrays` round-
trip whole per-province environment lists (leaf-design or dense features).

Attached views are marked read-only: every worker maps the *same*
physical pages, so an accidental in-place write would corrupt its
siblings' inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.data.dataset import EnvironmentData

__all__ = [
    "ArrayEntry",
    "PackSpec",
    "SharedArrayPack",
    "environments_to_arrays",
    "environments_from_arrays",
    "pack_train_test",
    "ragged_to_arrays",
    "ragged_from_arrays",
]

#: Alignment of every array inside the block, in bytes.
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ArrayEntry:
    """Location of one array inside the shared block."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class PackSpec:
    """Everything a worker needs to attach: block name + offset table.

    ``meta`` carries small JSON-like metadata describing how to
    reassemble higher-level objects (e.g. design widths, environment names);
    it must stay tiny — the point is that only *this* object is pickled.
    """

    shm_name: str
    entries: tuple[ArrayEntry, ...]
    meta: tuple[tuple[str, object], ...] = ()

    def metadata(self) -> dict:
        return dict(self.meta)


class SharedArrayPack:
    """A named shared-memory block holding a keyed set of numpy arrays.

    Usage (parent)::

        pack = SharedArrayPack.pack({"binned": binned, "grad": grad})
        engine.map(fn, tasks, initializer=attach_fn,
                   initargs=(pack.spec,))
        ...
        pack.dispose()          # close + unlink when workers are done

    Usage (worker)::

        pack = SharedArrayPack.attach(spec)
        arrays = pack.arrays()  # {"binned": <view>, "grad": <view>}
    """

    def __init__(self, shm: shared_memory.SharedMemory, spec: PackSpec,
                 owner: bool, writable: bool = False):
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self._writable = owner or writable

    # -------------------------------------------------------- construction

    @classmethod
    def pack(cls, arrays: dict[str, np.ndarray],
             meta: dict | None = None) -> "SharedArrayPack":
        """Copy the given arrays into one new shared block (once)."""
        entries: list[ArrayEntry] = []
        offset = 0
        contiguous = {
            key: np.ascontiguousarray(array) for key, array in arrays.items()
        }
        for key, array in contiguous.items():
            offset = _aligned(offset)
            entries.append(ArrayEntry(key=key, dtype=array.dtype.str,
                                      shape=tuple(array.shape),
                                      offset=offset))
            offset += array.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for entry, array in zip(entries, contiguous.values()):
            view = np.ndarray(entry.shape, dtype=entry.dtype,
                              buffer=shm.buf, offset=entry.offset)
            view[...] = array
        spec = PackSpec(
            shm_name=shm.name,
            entries=tuple(entries),
            meta=tuple(sorted((meta or {}).items())),
        )
        return cls(shm, spec, owner=True)

    @classmethod
    def allocate(cls, layouts: dict[str, tuple[tuple[int, ...], str]],
                 meta: dict | None = None) -> "SharedArrayPack":
        """Create an empty block to be filled incrementally.

        The streamed binning/packing path builds datasets too large to
        exist as ordinary arrays first: it allocates the block up front
        (shapes are known before any data is) and writes one chunk at a
        time through :meth:`writable_arrays`.

        Args:
            layouts: Mapping ``key -> (shape, dtype_str)``.
            meta: Small JSON-like metadata, as in :meth:`pack`.

        Returns:
            An owning pack whose arrays are zero-initialised (fresh shared
            memory is zero-filled by the OS).
        """
        entries: list[ArrayEntry] = []
        offset = 0
        for key, (shape, dtype) in layouts.items():
            offset = _aligned(offset)
            entries.append(ArrayEntry(key=key, dtype=np.dtype(dtype).str,
                                      shape=tuple(int(s) for s in shape),
                                      offset=offset))
            offset += entries[-1].nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        spec = PackSpec(
            shm_name=shm.name,
            entries=tuple(entries),
            meta=tuple(sorted((meta or {}).items())),
        )
        return cls(shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: PackSpec, writable: bool = False) -> "SharedArrayPack":
        """Attach to an existing block by its spec (no data copied).

        Attaching re-registers the segment with the resource tracker
        (CPython registers unconditionally, create or attach).  Pool
        workers share the owner's tracker process, where registration is
        set-based, so the duplicate is a no-op — and the owner's
        :meth:`dispose` remains the single unlink.  Do *not* "fix" this
        with ``resource_tracker.unregister``: that removes the owner's
        own entry and the tracker then complains at unlink time.

        Args:
            writable: Opt in to :meth:`writable_arrays` from the attached
                side.  Dataset handoff must stay read-only (siblings map
                the same pages); the live metrics slabs are the exception
                — each worker writes only its own disjoint slab row, and
                the seqlock generation word makes parent reads torn-free.
        """
        return cls(shared_memory.SharedMemory(name=spec.shm_name), spec,
                   owner=False, writable=writable)

    # -------------------------------------------------------------- access

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy read-only views of every packed array."""
        views: dict[str, np.ndarray] = {}
        for entry in self.spec.entries:
            view = np.ndarray(entry.shape, dtype=entry.dtype,
                              buffer=self._shm.buf, offset=entry.offset)
            view.setflags(write=False)
            views[entry.key] = view
        return views

    def writable_arrays(self) -> dict[str, np.ndarray]:
        """Writable views for incremental fills.

        Available to the process that :meth:`allocate`-d the block and to
        workers that attached with ``writable=True`` (the metrics-slab
        path); plain dataset attaches must keep using the read-only
        :meth:`arrays`.
        """
        if not self._writable:
            raise RuntimeError(
                "writable views are owner-only; workers attach read-only "
                "(or pass attach(spec, writable=True) for slab writers)"
            )
        views: dict[str, np.ndarray] = {}
        for entry in self.spec.entries:
            views[entry.key] = np.ndarray(entry.shape, dtype=entry.dtype,
                                          buffer=self._shm.buf,
                                          offset=entry.offset)
        return views

    @property
    def nbytes(self) -> int:
        return self._shm.size

    # ------------------------------------------------------------- cleanup

    def close(self) -> None:
        """Detach this process's mapping (views become invalid)."""
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views still reference the buffer; leave the
            # mapping in place — process exit reclaims it.
            pass

    def dispose(self) -> None:
        """Owner cleanup: detach and remove the block from the system."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()


# ---------------------------------------------------------- ragged arrays


def ragged_to_arrays(
    parts: list[np.ndarray], prefix: str, dtype: np.dtype | type | str,
) -> dict[str, np.ndarray]:
    """Flatten a ragged list of 1-D arrays into two packable arrays.

    A pack holds fixed-shape entries, but several model components are
    naturally ragged (per-feature bin edges, per-tree feature subsets).
    The CSR-style encoding — one concatenated ``data`` array plus an
    ``offsets`` boundary array — turns the whole list into exactly two
    pack entries regardless of part count.

    Args:
        parts: 1-D arrays of any (possibly zero) lengths.
        prefix: Key prefix; emits ``{prefix}/data`` and ``{prefix}/offsets``.
        dtype: Dtype the concatenated data is stored as.

    Returns:
        ``{f"{prefix}/data": ..., f"{prefix}/offsets": ...}`` suitable for
        :meth:`SharedArrayPack.pack`.
    """
    lengths = np.array([int(p.shape[0]) for p in parts], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    if parts:
        data = np.concatenate(
            [np.asarray(p, dtype=dtype) for p in parts]
        ) if offsets[-1] else np.empty(0, dtype=dtype)
    else:
        data = np.empty(0, dtype=dtype)
    return {f"{prefix}/data": data, f"{prefix}/offsets": offsets}


def ragged_from_arrays(
    arrays: dict[str, np.ndarray], prefix: str
) -> list[np.ndarray]:
    """Rebuild the ragged list as zero-copy slices of the packed data."""
    data = arrays[f"{prefix}/data"]
    offsets = arrays[f"{prefix}/offsets"]
    return [
        data[int(offsets[i]):int(offsets[i + 1])]
        for i in range(offsets.shape[0] - 1)
    ]


# ------------------------------------------------------------ environments


def environments_to_arrays(
    environments: list[EnvironmentData], prefix: str
) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten environments into (arrays, meta) for :meth:`pack`.

    A :class:`LeafDesign` contributes its ``columns`` array and a dense
    matrix a single ``x`` array.  ``meta[prefix]`` records, per
    environment, its name and the design width (``None`` when dense).
    """
    # Not a module-scope import: repro.gbdt.packing imports this module,
    # and this package must not depend on the training stack at import.
    from repro.gbdt.leaf_encoder import LeafDesign

    arrays: dict[str, np.ndarray] = {}
    described = []
    for i, env in enumerate(environments):
        base = f"{prefix}/{i}"
        if isinstance(env.features, LeafDesign):
            arrays[f"{base}/columns"] = env.features.columns
            n_columns = env.features.n_columns
        else:
            arrays[f"{base}/x"] = np.asarray(env.features)
            n_columns = None
        described.append({"name": env.name, "n_columns": n_columns})
        arrays[f"{base}/labels"] = env.labels
    return arrays, {prefix: described}


def pack_train_test(
    train_environments: list[EnvironmentData],
    test_environments: list[EnvironmentData],
) -> SharedArrayPack:
    """One owning pack holding both environment lists, under the
    ``"train"``/``"test"`` prefixes ``init_experiment_worker`` expects.

    The experiment fan-out and the tuning scheduler both ship the same
    shape of payload — fit on one list, evaluate on the other — so the
    pack layout lives here rather than being rebuilt inline per caller.
    The caller owns disposal (``pack.dispose()`` once workers are done).
    """
    arrays, meta = environments_to_arrays(train_environments, "train")
    test_arrays, test_meta = environments_to_arrays(test_environments, "test")
    arrays.update(test_arrays)
    meta.update(test_meta)
    return SharedArrayPack.pack(arrays, meta)


def environments_from_arrays(
    arrays: dict[str, np.ndarray], meta: dict, prefix: str
) -> list[EnvironmentData]:
    """Reassemble environments from attached views (zero-copy)."""
    from repro.gbdt.leaf_encoder import LeafDesign

    environments = []
    for i, desc in enumerate(meta[prefix]):
        base = f"{prefix}/{i}"
        if desc["n_columns"] is None:
            features = arrays[f"{base}/x"]
        else:
            features = LeafDesign(arrays[f"{base}/columns"],
                                  desc["n_columns"])
        environments.append(
            EnvironmentData(desc["name"], features,
                            arrays[f"{base}/labels"])
        )
    return environments
