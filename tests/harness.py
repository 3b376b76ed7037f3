"""Reusable metamorphic/property harness for invariance assertions.

Each ``assert_*`` helper encodes one metamorphic relation or invariant the
codebase promises, raising ``AssertionError`` with a diagnostic message when
it is violated.  The test modules share these, so a relation is stated
exactly once and every trainer/metric can be checked against it by calling
a function rather than re-deriving the maths.

Relations covered:

* **Monotone-transform invariance** — rank metrics (KS, AUC) must not move
  under strictly increasing score transforms.
* **Label-flip symmetry** — ``AUC(1−y, s) = 1 − AUC(y, s)`` and the signed
  KS identity ``KS(1−y, s) = KS(y, −s)``.
* **Environment-permutation invariance** — trainers whose update is a
  symmetric function of the environments must produce the same parameters
  (to float-accumulation tolerance) whatever order the environments come in.
* **Determinism under a fixed seed** — two fits from the same config are
  bit-identical in parameters and recorded history.
* **Persist round-trip** — a saved and reloaded pipeline scores rows
  exactly like the live one.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.dataset import EnvironmentData
from repro.metrics.auc import auc_score
from repro.metrics.ks import ks_score
from repro.train.base import Trainer, TrainResult

__all__ = [
    "monotone_transforms",
    "random_labels_and_scores",
    "random_environments",
    "assert_monotone_transform_invariant",
    "assert_label_flip_symmetry",
    "assert_environment_permutation_invariant",
    "assert_deterministic",
    "assert_persist_round_trip",
]

#: Trainer factory: builds a *fresh* trainer (fit mutates internal state).
TrainerFactory = Callable[[], Trainer]


# --------------------------------------------------------------- generators


def monotone_transforms() -> list[tuple[str, Callable[[np.ndarray], np.ndarray]]]:
    """Named strictly increasing transforms, float-safe on |s| <= ~50.

    Chosen so that scores differing by >= 1e-6 keep a representable float64
    separation after transformation (no accidental tie creation that would
    legitimately change a rank metric).
    """
    return [
        ("affine", lambda s: 2.0 * s + 7.0),
        ("cubic", lambda s: s**3),
        ("scaled_exp", lambda s: np.exp(s / 20.0)),
        ("rank", lambda s: np.searchsorted(np.unique(s), s).astype(np.float64)),
    ]


def random_labels_and_scores(
    rng: np.random.Generator, n: int = 80
) -> tuple[np.ndarray, np.ndarray]:
    """Binary labels with both classes plus rounded finite scores."""
    if n < 2:
        raise ValueError("need n >= 2 for both classes")
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.float64)
    labels[0], labels[1] = 0.0, 1.0
    scores = np.round(rng.uniform(-50.0, 50.0, size=n), 6)
    return labels, scores


def random_environments(
    rng: np.random.Generator,
    n_envs: int = 3,
    n_per_env: int = 100,
    n_features: int = 5,
) -> list[EnvironmentData]:
    """Small dense environments with a shared learnable signal."""
    envs = []
    weights = rng.standard_normal(n_features)
    for i in range(n_envs):
        x = rng.standard_normal((n_per_env, n_features))
        logit = x @ weights + 0.3 * rng.standard_normal(n_per_env)
        y = (rng.random(n_per_env) < 1.0 / (1.0 + np.exp(-logit)))
        y = y.astype(np.float64)
        y[0], y[1] = 0.0, 1.0
        envs.append(EnvironmentData(f"env_{i}", x, y))
    return envs


# --------------------------------------------------------------- assertions


def assert_monotone_transform_invariant(
    metric: Callable[[np.ndarray, np.ndarray], float],
    labels: np.ndarray,
    scores: np.ndarray,
    atol: float = 1e-10,
) -> None:
    """A rank metric must be invariant under strictly increasing transforms."""
    baseline = metric(labels, scores)
    for name, transform in monotone_transforms():
        value = metric(labels, transform(scores))
        if abs(value - baseline) > atol:
            raise AssertionError(
                f"{metric.__name__} moved under strictly monotone transform "
                f"{name!r}: {baseline!r} -> {value!r}"
            )


def assert_label_flip_symmetry(
    labels: np.ndarray, scores: np.ndarray, atol: float = 1e-10
) -> None:
    """Flipping the classes must mirror AUC and negate the KS orientation.

    ``AUC(1−y, s) = 1 − AUC(y, s)`` (rank reversal) and, for the signed
    credit-scoring KS, ``KS(1−y, s) = KS(y, −s)`` — calling the other class
    "bad" is the same as reversing the score direction.
    """
    auc = auc_score(labels, scores)
    auc_flipped = auc_score(1.0 - labels, scores)
    if abs(auc_flipped - (1.0 - auc)) > atol:
        raise AssertionError(
            f"AUC label-flip symmetry violated: AUC={auc!r} but flipped "
            f"AUC={auc_flipped!r} (expected {1.0 - auc!r})"
        )
    ks_flipped = ks_score(1.0 - labels, scores)
    ks_negated = ks_score(labels, -scores)
    if abs(ks_flipped - ks_negated) > atol:
        raise AssertionError(
            f"KS label-flip identity violated: KS(1-y, s)={ks_flipped!r} "
            f"!= KS(y, -s)={ks_negated!r}"
        )


def assert_environment_permutation_invariant(
    factory: TrainerFactory,
    environments: Sequence[EnvironmentData],
    rng: np.random.Generator,
    rtol: float = 1e-7,
    atol: float = 1e-9,
) -> None:
    """Fitting on a permutation of the environments must not change theta.

    Applies to trainers whose objective is a symmetric function of the
    environment set (ERM, up-sampling, GroupDRO, V-REx, IRMv1, complete
    meta-IRM).  Tolerances absorb float accumulation-order differences;
    trainers that *sample* environments by index (LightMIRM, meta-IRM(S))
    are legitimately order-sensitive and must not be passed here.
    """
    environments = list(environments)
    baseline = factory().fit(environments)
    perm = rng.permutation(len(environments))
    if np.array_equal(perm, np.arange(len(environments))):
        # A vacuously-identical order would verify nothing; rotate instead.
        perm = np.roll(perm, 1)
    shuffled = [environments[i] for i in perm]
    permuted = factory().fit(shuffled)
    if not np.allclose(permuted.theta, baseline.theta, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(permuted.theta - baseline.theta)))
        raise AssertionError(
            f"{baseline.trainer_name}: theta changed under environment "
            f"permutation {perm.tolist()} (max abs diff {worst:.3e})"
        )


def assert_deterministic(
    factory: TrainerFactory, environments: Sequence[EnvironmentData]
) -> None:
    """Two fits from identical config/seed must match bit for bit."""
    first = factory().fit(list(environments))
    second = factory().fit(list(environments))
    _assert_results_identical(first, second)


def _assert_results_identical(first: TrainResult, second: TrainResult) -> None:
    name = first.trainer_name
    if not np.array_equal(first.theta, second.theta):
        worst = float(np.max(np.abs(first.theta - second.theta)))
        raise AssertionError(
            f"{name}: theta differs between same-seed fits "
            f"(max abs diff {worst:.3e})"
        )
    if first.history.objective != second.history.objective:
        raise AssertionError(
            f"{name}: objective history differs between same-seed fits"
        )
    if first.history.env_losses != second.history.env_losses:
        raise AssertionError(
            f"{name}: per-environment loss history differs between "
            "same-seed fits"
        )
    # The fine-tuning baseline carries extra per-environment parameters.
    first_envs = getattr(first, "env_thetas", None)
    second_envs = getattr(second, "env_thetas", None)
    if (first_envs is None) != (second_envs is None):
        raise AssertionError(f"{name}: env_thetas presence differs")
    if first_envs:
        if set(first_envs) != set(second_envs):
            raise AssertionError(f"{name}: env_thetas keys differ")
        for key, theta in first_envs.items():
            if not np.array_equal(theta, second_envs[key]):
                raise AssertionError(
                    f"{name}: env_thetas[{key!r}] differs between "
                    "same-seed fits"
                )


def assert_persist_round_trip(pipeline, dataset, path) -> None:
    """A saved+reloaded pipeline must reproduce ``predict_proba`` exactly."""
    from repro.serve.registry import ModelRegistry

    ModelRegistry.save_file(pipeline, path)
    restored = ModelRegistry.load_file(path)
    live = pipeline.predict_proba(dataset)
    reloaded = restored.predict_proba(dataset)
    if not np.array_equal(live, reloaded):
        worst = float(np.max(np.abs(live - reloaded)))
        raise AssertionError(
            f"persist round-trip changed scores (max abs diff {worst:.3e})"
        )
