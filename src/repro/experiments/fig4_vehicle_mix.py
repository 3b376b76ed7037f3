"""Figure 4 — the distribution of vehicle types in different years.

The paper plots the vehicle-type mix in 2016 vs 2020 to demonstrate concept
drift in the customer base.  We regenerate the same marginals from the
synthetic platform and check that the year-over-year drift is material.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import LoanDataset
from repro.data.provinces import YEARS
from repro.data.schema import VEHICLE_TYPES
from repro.eval.reports import format_table

__all__ = ["run_fig4", "format_fig4", "mix_shift_l1"]


def run_fig4(
    dataset: LoanDataset, years: tuple[int, ...] = YEARS
) -> dict[int, dict[str, float]]:
    """Observed vehicle-type shares per requested year.

    Args:
        dataset: Full multi-year dataset.
        years: Years to tabulate; every platform year by default (the
            paper shows 2016 and 2020, eliding the in-between years "for
            space").

    Returns:
        Year -> {vehicle type -> share of that year's records}.
    """
    indicator_cols = dataset.schema.vehicle_indicator_columns()
    result: dict[int, dict[str, float]] = {}
    for year in years:
        mask = dataset.years == year
        if not np.any(mask):
            raise ValueError(f"no records in year {year}")
        shares = dataset.features[np.flatnonzero(mask)][:, indicator_cols].mean(axis=0)
        result[year] = dict(zip(VEHICLE_TYPES, shares.tolist()))
    return result


def mix_shift_l1(mixes: dict[int, dict[str, float]]) -> float:
    """Total variation distance between the first and last year's mixes."""
    years = sorted(mixes)
    first, last = mixes[years[0]], mixes[years[-1]]
    return 0.5 * sum(abs(first[v] - last[v]) for v in VEHICLE_TYPES)


def format_fig4(mixes: dict[int, dict[str, float]]) -> str:
    """Render the per-year vehicle mix table."""
    rows = []
    for year in sorted(mixes):
        row: dict[str, object] = {"year": year}
        row.update(mixes[year])
        rows.append(row)
    table = format_table(
        rows,
        columns=("year",) + VEHICLE_TYPES,
        title="Fig 4: Distribution of vehicle types by year",
    )
    return f"{table}\n\nTV distance first->last year: {mix_shift_l1(mixes):.4f}"
