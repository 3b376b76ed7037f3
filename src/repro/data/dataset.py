"""Dataset containers: loan records plus environment (province) structure."""

from __future__ import annotations

import copy
import pathlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.schema import CausalRole, LoanFeatureSchema

__all__ = ["LoanDataset", "EnvironmentData", "group_rows"]


def group_rows(keys: np.ndarray) -> tuple[list, list[np.ndarray]]:
    """Row indices of each distinct key: the one environment split.

    One ``np.unique(..., return_inverse=True)`` and one stable argsort,
    whatever the number of keys.

    Args:
        keys: 1-D key per row (province names, integer codes, ...).

    Returns:
        ``(names, rows)``: the distinct keys in ``np.unique`` order (as
        Python scalars) and, for each, its row indices in ascending order.
        ``len(rows) == len(names)``, also for empty ``keys``.
    """
    names, codes = np.unique(keys, return_inverse=True)
    if not names.size:
        return [], []
    order = np.argsort(codes, kind="stable")
    bounds = np.cumsum(np.bincount(codes, minlength=names.size))
    return names.tolist(), np.split(order, bounds[:-1])


@dataclass(frozen=True)
class EnvironmentData:
    """The slice of a dataset belonging to one environment (province)."""

    name: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"environment {self.name!r}: {self.features.shape[0]} feature rows "
                f"vs {self.labels.shape[0]} labels"
            )

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def default_rate(self) -> float:
        return float(self.labels.mean()) if self.labels.size else float("nan")


class LoanDataset:
    """Immutable table of loan applications with province/time annotations.

    Rows carry the raw feature matrix, binary default labels, and the three
    grouping columns the experiments slice on: province, year and half-year.

    A selection (:meth:`select` and the filters and splits built on it)
    shares its parent's read-only feature matrix and holds a row index
    into it; only the labels and grouping columns are copied.  Its
    :attr:`features` is a fresh read-only gather on every read, and
    :attr:`feature_source` hands the matrix and the index to code that
    reads the rows in place.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        provinces: np.ndarray,
        years: np.ndarray,
        halves: np.ndarray,
        schema: LoanFeatureSchema,
    ):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        provinces = np.asarray(provinces)
        years = np.asarray(years, dtype=np.int64)
        halves = np.asarray(halves, dtype=np.int64)
        n = features.shape[0]
        for name, arr in (
            ("labels", labels),
            ("provinces", provinces),
            ("years", years),
            ("halves", halves),
        ):
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows, features has {n}")
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if features.shape[1] != schema.n_features:
            raise ValueError(
                f"features have {features.shape[1]} columns, "
                f"schema expects {schema.n_features}"
            )
        if not np.all(np.isin(halves, (1, 2))):
            raise ValueError("halves must contain only 1 or 2")
        self._matrix = features
        self._rows: np.ndarray | None = None
        self.labels = labels
        self.provinces = provinces
        self.years = years
        self.halves = halves
        self.schema = schema
        for arr in (features, labels, provinces, years, halves):
            arr.setflags(write=False)

    @property
    def features(self) -> np.ndarray:
        """The ``(n, d)`` float64 rows, read-only: the matrix itself, or a
        selection's fresh gather of its rows (nothing caches it)."""
        if self._rows is None:
            return self._matrix
        features = self._matrix[self._rows]
        features.setflags(write=False)
        return features

    @property
    def feature_source(self) -> tuple[np.ndarray, np.ndarray | None]:
        """``(matrix, rows)``: the shared matrix and this dataset's row
        index into it (``None``: every row, in order)."""
        return self._matrix, self._rows

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def n_features(self) -> int:
        return self._matrix.shape[1]

    @property
    def default_rate(self) -> float:
        return float(self.labels.mean()) if self.n_samples else float("nan")

    def province_names(self) -> list[str]:
        """Distinct provinces present, sorted."""
        return sorted(set(self.provinces.tolist()))

    def select(self, mask: np.ndarray) -> "LoanDataset":
        """Row-subset the dataset with a boolean mask or index array (a
        selection: see the class docstring; an index's order is kept)."""
        subset = copy.copy(self)
        subset.labels = self.labels[mask]
        subset.provinces = self.provinces[mask]
        subset.years = self.years[mask]
        subset.halves = self.halves[mask]
        local = (np.flatnonzero(mask) if np.asarray(mask).dtype == bool
                 else np.arange(self.n_samples)[mask])
        subset._rows = local if self._rows is None else self._rows[local]
        for arr in (subset._rows, subset.labels, subset.provinces,
                    subset.years, subset.halves):
            arr.setflags(write=False)
        return subset

    def filter_years(self, years: list[int] | tuple[int, ...]) -> "LoanDataset":
        """Rows whose year is in ``years``."""
        return self.select(np.isin(self.years, years))

    def filter_province(self, province: str) -> "LoanDataset":
        """Rows from one province."""
        return self.select(self.provinces == province)

    def filter_half(self, half: int) -> "LoanDataset":
        """Rows from one half-year (1 = Jan-Jun, 2 = Jul-Dec)."""
        return self.select(self.halves == half)

    def province_rows(self) -> dict[str, np.ndarray]:
        """Province -> its row indices (ascending), sorted by name."""
        return dict(zip(*group_rows(self.provinces)))

    def by_province(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Province -> ``values[rows]`` for per-row ``values`` (scores, ...)."""
        return {name: values[rows]
                for name, rows in self.province_rows().items()}

    def environments(self) -> list[EnvironmentData]:
        """Split into per-province environments, sorted by name."""
        matrix, own = self.feature_source
        return [
            EnvironmentData(name, matrix[rows if own is None else own[rows]],
                            self.labels[rows])
            for name, rows in self.province_rows().items()
        ]

    def province_share_by_year(self) -> dict[int, dict[str, float]]:
        """Year -> {province -> share of that year's volume} (Fig 10 data)."""
        names = self.province_names()
        shares: dict[int, dict[str, float]] = {}
        for year, year_rows in zip(*group_rows(self.years)):
            counts = {name: len(rows) for name, rows in
                      zip(*group_rows(self.provinces[year_rows]))}
            shares[year] = {name: counts.get(name, 0) / len(year_rows)
                            for name in names}
        return shares

    def save(self, path: str | pathlib.Path) -> None:
        """Persist the dataset (and enough schema info to restore it) as NPZ."""
        n_spurious = len(self.schema.columns_with_role(CausalRole.SPURIOUS))
        n_noise = len(self.schema.columns_with_role(CausalRole.NOISE))
        np.savez_compressed(
            pathlib.Path(path),
            features=self.features,
            labels=self.labels,
            provinces=self.provinces.astype(str),
            years=self.years,
            halves=self.halves,
            schema_spec=np.array([n_spurious, n_noise], dtype=np.int64),
        )

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "LoanDataset":
        """Restore a dataset written by :meth:`save`."""
        with np.load(pathlib.Path(path), allow_pickle=False) as archive:
            n_spurious, n_noise = archive["schema_spec"].tolist()
            schema = LoanFeatureSchema(n_spurious=n_spurious, n_noise=n_noise)
            return cls(
                features=archive["features"],
                labels=archive["labels"],
                provinces=archive["provinces"].astype(object),
                years=archive["years"],
                halves=archive["halves"],
                schema=schema,
            )

    def __iter__(self) -> Iterator[EnvironmentData]:
        return iter(self.environments())

    def __repr__(self) -> str:
        return (
            f"LoanDataset(n={self.n_samples}, d={self.n_features}, "
            f"provinces={len(self.province_names())}, "
            f"default_rate={self.default_rate:.3f})"
        )
