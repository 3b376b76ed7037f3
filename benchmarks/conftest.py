"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper at experiment
scale (40-50k synthetic records), prints the same rows/series the paper
reports, asserts the qualitative *shape* (who wins, by roughly what factor,
where crossovers fall), and writes the rendered artefact to
``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import ExperimentContext, ExperimentSettings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _context(platform: str) -> ExperimentContext:
    return ExperimentContext(ExperimentSettings(platform=platform))


@pytest.fixture(scope="session")
def main_context():
    """The standard 12-province, 40k-record temporal-split context."""
    return _context("temporal")


@pytest.fixture(scope="session")
def iid_context():
    """Same platform, random split (Table VI)."""
    return _context("iid")


@pytest.fixture(scope="session")
def extended_context():
    """26-province context for Table II / Table III (paper-scale M)."""
    return _context("extended")


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_print(results_dir: pathlib.Path, name: str, rendered: str) -> None:
    """Print an artefact and persist it under benchmarks/results/."""
    print(f"\n{rendered}\n")
    (results_dir / f"{name}.txt").write_text(rendered + "\n")
