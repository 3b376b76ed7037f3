"""The shared epoch loop, pinned for every trainer of the registry.

The digests and counts below were taken while each trainer still ran its
own epoch loop; the shared ``Trainer.fit`` loop must reproduce them:

* the per-epoch objective history, byte for byte (full batch);
* the fitted parameters with ``batch_size=64`` (mini-batch draws);
* how many leaf-design products (``X @ v`` and ``Xᵀ @ v``) each epoch
  takes, which is the cost model of Table III (meta-IRM's meta-loss is
  quadratic in M, LightMIRM's linear), and how many losses, gradients and
  Hessian-vector products the meta-learners evaluate.

The meta-learners' products moved once since: each HVP reuses the
``σ(X_m θ)`` of its inner step, one ``X @ v`` fewer per environment.

A property covers what every history must mean: the first epoch's
per-environment losses are each environment's risk at the initial
parameters, the same point the first objective is taken at.
"""

import collections
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gbdt.leaf_encoder import LeafDesign, _TransposedLeafDesign
from repro.models.logistic import LogisticModel
from repro.train.registry import available_trainers, make_trainer
from tests.test_train_golden_theta import result_sha256

TRAINERS = [*available_trainers(), "meta-IRM(5)"]


def history_sha256(history) -> str:
    return hashlib.sha256(
        np.asarray(history.objective, dtype=np.float64).tobytes()
    ).hexdigest()


HISTORY_DIGESTS = {
    "ERM":
        "154cd759f07f34556396133e710f0740e9d11d33bb311754e3a8d593f57da4ec",
    "ERM + fine-tuning":
        "154cd759f07f34556396133e710f0740e9d11d33bb311754e3a8d593f57da4ec",
    "Up Sampling":
        "3d4da5d788a8ad3132439ee4acf994087c6f41a81ecdfc07ded9d08d9d442851",
    "Group DRO":
        "52e82a79a88e8c1d76589809394791e7425e208f4474d2a670d8fd2d318036c8",
    "V-REx":
        "5db1b22dda3332d9f59dd0584af03f044d0fe620cf6307ad88a251f54b76c596",
    "IRMv1":
        "60970189338f079e691dfc0873bb041b567a5127688e3be6d49a91ce35d7d96b",
    "meta-IRM":
        "b4883edfc34fc91b44f4f39bc0d7ef20847aab760cc5a5b809311a8ec752ff2d",
    "LightMIRM":
        "9f7050a9faa2ca25f8b006c382457fc5001f5d881614492f83fd73facdc5d9aa",
    "meta-IRM(5)":
        "66308b3ce75d5efbcea35d907252244b931f132cb7257f6eb1956c4b27ea7656",
}

MINIBATCH_DIGESTS = {
    "ERM":
        "edb71684f78da1bfc4936d078ed307a6ab492d342a4cdbecc0d771e1a9f68253",
    "ERM + fine-tuning":
        "0072076174359b7884a80748a0e81be999defbf4ab45dd43a85bffd53ed2dfe7",
    "Up Sampling":
        "d85c4af8e8b1d3e056d27425eabb61a7b01fc6c55c595ee2c707602ec409fb02",
    "Group DRO":
        "2ca546bc2761f844cfbbede6d065e1d2d379614e182f0e5375155944fb06a6da",
    "V-REx":
        "c05083d41494eb6636119472eca85eb6684668ad059db24623d7e581025cc544",
    "IRMv1":
        "9d9354a2e459fa5567eee3bb64291f147e099e621b0c62b0ccc6ee659a43bf2c",
    "meta-IRM":
        "ed3c6a62c4cf364a358208f412c3d375e5602af3655bc6dc1ffed6011a6a9864",
    "LightMIRM":
        "62dbb6268b4dc483a762346a6a4a13e0bfe50c613ae88c21523e44990ba7cb83",
    "meta-IRM(5)":
        "3f6f3f73e02e14ffb1c6da9e171e08db0b158e05f1e078a466516f4828a62a87",
}


@pytest.mark.parametrize("name", TRAINERS)
def test_objective_history_matches_golden(train_envs, name):
    result = make_trainer(name, n_epochs=8).fit(train_envs)
    assert result.history.n_epochs == 8
    assert history_sha256(result.history) == HISTORY_DIGESTS[name]


@pytest.mark.parametrize("name", TRAINERS)
def test_minibatch_theta_matches_golden(train_envs, name):
    result = make_trainer(name, n_epochs=8, batch_size=64).fit(train_envs)
    assert result_sha256(result) == MINIBATCH_DIGESTS[name]


#: Leaf-design products per epoch as ``(X @ v, Xᵀ @ v)`` at M environments.
PRODUCTS_PER_EPOCH = {
    "ERM": lambda m: (m + 1, 1),
    "ERM + fine-tuning": lambda m: (m + 1, 1),
    "Up Sampling": lambda m: (m, m),
    "Group DRO": lambda m: (m, m),
    "V-REx": lambda m: (m, m),
    "IRMv1": lambda m: (2 * m, 2 * m),
    "meta-IRM": lambda m: (m * (m + 1), m * (m + 1)),
    "meta-IRM(2)": lambda m: (m * 4, m * 4),
    "LightMIRM": lambda m: (3 * m, 3 * m),
}


def products_per_epoch(monkeypatch, name, environments, n_epochs=3,
                       **config):
    """``(X @ v, Xᵀ @ v)`` counts of each epoch of one full-batch fit."""
    counts = collections.Counter()
    matvec = LeafDesign.__matmul__
    rmatvec = _TransposedLeafDesign.__matmul__

    def counted_matvec(design, vector):
        counts["matvec"] += 1
        return matvec(design, vector)

    def counted_rmatvec(transposed, vector):
        counts["rmatvec"] += 1
        return rmatvec(transposed, vector)

    monkeypatch.setattr(LeafDesign, "__matmul__", counted_matvec)
    monkeypatch.setattr(_TransposedLeafDesign, "__matmul__", counted_rmatvec)
    totals = []
    make_trainer(name, n_epochs=n_epochs, **config).fit(
        environments,
        callback=lambda epoch, theta: totals.append(
            (counts["matvec"], counts["rmatvec"])),
    )
    starts = [(0, 0), *totals[:-1]]
    return [(end[0] - start[0], end[1] - start[1])
            for start, end in zip(starts, totals)]


@pytest.mark.parametrize("n_envs", [4, 7])
@pytest.mark.parametrize("name", list(PRODUCTS_PER_EPOCH))
def test_design_products_per_epoch(monkeypatch, train_envs, name, n_envs):
    environments = train_envs[:n_envs]
    expected = PRODUCTS_PER_EPOCH[name](n_envs)
    got = products_per_epoch(monkeypatch, name, environments)
    assert got == [expected] * 3


#: ``LogisticModel`` calls per epoch at M environments, as ``(loss,
#: gradient, loss_and_gradient, hessian_vector_product)``: one inner step
#: and one HVP per environment, plus the meta-loss's environment risks.
MODEL_CALLS_PER_EPOCH = {
    "meta-IRM": lambda m: (0, 0, m * m, m),
    "meta-IRM(2)": lambda m: (0, 0, 3 * m, m),
    "LightMIRM": lambda m: (0, 0, 2 * m, m),
}

_MODEL_METHODS = ("loss", "gradient", "loss_and_gradient",
                  "hessian_vector_product")


def model_calls_per_epoch(monkeypatch, name, environments, n_epochs=3,
                          **config):
    """``LogisticModel`` call counts of each epoch of one full-batch fit."""
    counts = collections.Counter()

    def counted(method):
        original = getattr(LogisticModel, method)

        def wrapper(*args, **kwargs):
            counts[method] += 1
            return original(*args, **kwargs)
        return wrapper

    for method in _MODEL_METHODS:
        monkeypatch.setattr(LogisticModel, method, counted(method))
    totals = []
    make_trainer(name, n_epochs=n_epochs, **config).fit(
        environments,
        callback=lambda epoch, theta: totals.append(
            tuple(counts[method] for method in _MODEL_METHODS)),
    )
    starts = [(0,) * len(_MODEL_METHODS), *totals[:-1]]
    return [tuple(e - s for s, e in zip(start, end))
            for start, end in zip(starts, totals)]


@pytest.mark.parametrize("n_envs", [4, 7])
@pytest.mark.parametrize("name", list(MODEL_CALLS_PER_EPOCH))
def test_model_calls_per_epoch(monkeypatch, train_envs, name, n_envs):
    expected = MODEL_CALLS_PER_EPOCH[name](n_envs)
    got = model_calls_per_epoch(monkeypatch, name, train_envs[:n_envs])
    assert got == [expected] * 3


@pytest.mark.parametrize("queue_length", [1, 5, 20])
def test_lightmirm_counts_do_not_depend_on_the_queue_length(
        monkeypatch, train_envs, queue_length):
    n_envs = 5
    environments = train_envs[:n_envs]
    calls = model_calls_per_epoch(monkeypatch, "LightMIRM", environments,
                                  queue_length=queue_length)
    products = products_per_epoch(monkeypatch, "LightMIRM", environments,
                                  queue_length=queue_length)
    assert calls == [MODEL_CALLS_PER_EPOCH["LightMIRM"](n_envs)] * 3
    assert products == [PRODUCTS_PER_EPOCH["LightMIRM"](n_envs)] * 3


@pytest.mark.parametrize("name", available_trainers())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**16), n_envs=st.integers(2, 5))
def test_first_epoch_losses_are_taken_at_the_initial_parameters(
        train_envs, name, seed, n_envs):
    environments = train_envs[:n_envs]
    trainer = make_trainer(name, n_epochs=1, seed=seed)
    result = trainer.fit(environments)
    theta0 = result.model.init_params(seed=seed,
                                      scale=trainer.config.init_scale)
    (first,) = result.history.env_losses
    assert first == {
        env.name: result.model.loss(theta0, env.features, env.labels)
        for env in environments
    }
