"""Typed, declarative hyper-parameter search spaces.

An :class:`HPSpace` names a trainer and maps config fields to *parameter
descriptors* — :class:`Uniform`, :class:`LogUniform`, :class:`Choice` and
:class:`IntRange`.  Construction validates every descriptor against the
trainer's config dataclass (unknown fields fail with the list of valid
ones, reserved fields fail outright), so a typo'd space dies before any
trial is spent on it — the same fail-fast contract the trainer registry
gives `make_trainer`.

Two consumption modes:

* ``space.sample(rng)`` — one configuration drawn from the descriptors'
  distributions; this is what the ASHA scheduler feeds per-trial
  ``SeedSequence`` streams into.
* ``space.grid_points()`` — the Cartesian product of enumerable
  descriptors (``Choice``/``IntRange``); this is what
  :func:`~repro.tune.asha.run_grid` turns into single-rung trials.

Default spaces for all 8 registered trainers live here too, keyed by
the trainer registry's canonical names — ``default_space`` is how
``repro tune`` knows what to search without any user configuration.
"""

from __future__ import annotations

import difflib
import itertools
from dataclasses import dataclass, fields as dataclass_fields
from typing import Mapping, Sequence

import numpy as np

from repro.train.registry import trainer_info

__all__ = [
    "SpaceError",
    "ParamSpec",
    "Uniform",
    "LogUniform",
    "Choice",
    "IntRange",
    "HPSpace",
    "JointHPSpace",
    "EXTRACTOR_COMPONENT",
    "default_space",
    "default_extractor_space",
]

#: Fields a space may never search: ``seed`` belongs to the per-trial
#: SeedSequence stream, ``n_epochs`` is the ASHA budget axis.
RESERVED_FIELDS = ("seed", "n_epochs")

#: The component name binding a space to the GBDT feature extractor
#: instead of a registered head trainer.  Joint searches pair one such
#: space with a trainer-bound head space (:meth:`HPSpace.joint`).
EXTRACTOR_COMPONENT = "gbdt"


class SpaceError(ValueError):
    """An HPSpace or parameter descriptor is ill-formed."""


@dataclass(frozen=True)
class ParamSpec:
    """Base descriptor: one searchable hyper-parameter's domain."""

    def sample(self, rng: np.random.Generator):
        """Draw one value from the descriptor's distribution."""
        raise NotImplementedError

    def contains(self, value) -> bool:
        """Whether a value lies in the descriptor's domain."""
        raise NotImplementedError

    def grid_values(self) -> tuple:
        """Enumerable candidate values, for grid-style consumption.

        Raises:
            SpaceError: For continuous descriptors, which cannot be
                enumerated — sample them or supply a ``Choice`` instead.
        """
        raise SpaceError(
            f"{type(self).__name__} is continuous and has no grid values; "
            "use Choice/IntRange for grid-style searches"
        )

    def to_json(self) -> dict:
        """JSON-compatible description (leaderboard provenance)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Uniform(ParamSpec):
    """Float drawn uniformly from ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise SpaceError(
                f"Uniform requires low < high, got [{self.low}, {self.high})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) \
            and self.low <= float(value) <= self.high

    def to_json(self) -> dict:
        return {"kind": "uniform", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class LogUniform(ParamSpec):
    """Float whose *logarithm* is uniform on ``[log low, log high)``.

    The right shape for scale parameters (learning rates, penalty
    weights, l2) where "3 vs 10" matters as much as "0.003 vs 0.01".
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low <= 0:
            raise SpaceError(f"LogUniform requires low > 0, got {self.low}")
        if not self.low < self.high:
            raise SpaceError(
                f"LogUniform requires low < high, got [{self.low}, {self.high})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(np.exp(rng.uniform(np.log(self.low),
                                        np.log(self.high))))

    def contains(self, value) -> bool:
        return isinstance(value, (int, float)) \
            and self.low <= float(value) <= self.high

    def to_json(self) -> dict:
        return {"kind": "loguniform", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class Choice(ParamSpec):
    """One of an explicit tuple of candidate values."""

    values: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SpaceError("Choice requires at least one value")

    def sample(self, rng: np.random.Generator):
        value = self.values[int(rng.integers(len(self.values)))]
        return value.item() if isinstance(value, np.generic) else value

    def contains(self, value) -> bool:
        return value in self.values

    def grid_values(self) -> tuple:
        return self.values

    def to_json(self) -> dict:
        return {"kind": "choice", "values": list(self.values)}


@dataclass(frozen=True)
class IntRange(ParamSpec):
    """Integer drawn uniformly from the inclusive range ``[low, high]``."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise SpaceError(
                f"IntRange requires low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def contains(self, value) -> bool:
        return isinstance(value, (int, np.integer)) \
            and not isinstance(value, bool) \
            and self.low <= int(value) <= self.high

    def grid_values(self) -> tuple:
        return tuple(range(self.low, self.high + 1))

    def to_json(self) -> dict:
        return {"kind": "intrange", "low": self.low, "high": self.high}


def _unknown_field_error(unknown: Sequence[str], owner: str,
                         component: str, valid: Sequence[str]) -> SpaceError:
    """Unknown-field failure with did-you-mean suggestions per field."""
    suggestions = []
    for name in unknown:
        close = difflib.get_close_matches(name, valid, n=1)
        if close:
            suggestions.append(f"{name!r} (did you mean {close[0]!r}?)")
        else:
            suggestions.append(repr(name))
    return SpaceError(
        f"unknown parameter(s) [{', '.join(suggestions)}] for component "
        f"{component!r} ({owner}); valid fields: {list(valid)}"
    )


@dataclass(frozen=True)
class HPSpace:
    """A trainer name plus its searchable parameter descriptors.

    Attributes:
        trainer: Any spelling the trainer registry accepts, or
            :data:`EXTRACTOR_COMPONENT` for a GBDT extractor space.
        params: Config field name -> :class:`ParamSpec`.

    Raises:
        SpaceError: On a trainer that is not a name, an empty space, a
            reserved or unknown field, or a value that is not a
            :class:`ParamSpec`.
    """

    trainer: str
    params: Mapping[str, ParamSpec]

    def __post_init__(self) -> None:
        if not isinstance(self.trainer, str):
            raise SpaceError(
                f"HPSpace.trainer must be a registered trainer name or "
                f"{EXTRACTOR_COMPONENT!r}, got {self.trainer!r}"
            )
        object.__setattr__(self, "params", dict(self.params))
        if not self.params:
            raise SpaceError("HPSpace requires at least one parameter")
        for name, spec in self.params.items():
            if not isinstance(spec, ParamSpec):
                raise SpaceError(
                    f"parameter {name!r} must be a ParamSpec "
                    f"(Uniform/LogUniform/Choice/IntRange), "
                    f"got {type(spec).__name__}"
                )
            if name in RESERVED_FIELDS:
                raise SpaceError(
                    f"parameter {name!r} is reserved: seeds come from the "
                    "per-trial SeedSequence stream and n_epochs is the "
                    "scheduler's budget axis"
                )
        if self.is_extractor:
            from repro.gbdt.boosting import GBDTParams

            owner, fields = "GBDTParams (extractor)", GBDTParams.flat_fields()
        else:
            config_cls = trainer_info(self.trainer).trainer_class.config_class
            owner = config_cls.__name__
            fields = [f.name for f in dataclass_fields(config_cls)]
        valid = sorted(f for f in fields if f not in RESERVED_FIELDS)
        unknown = sorted(set(self.params) - set(valid))
        if unknown:
            raise _unknown_field_error(unknown, owner, self.trainer, valid)

    @classmethod
    def grid(cls, trainer: str,
             axes: Mapping[str, Sequence]) -> "HPSpace":
        """Degenerate grid space: every axis becomes a :class:`Choice`."""
        return cls(
            trainer=trainer,
            params={name: Choice(tuple(values))
                    for name, values in axes.items()},
        )

    @classmethod
    def joint(cls, gbdt_space: "HPSpace",
              head_space: "HPSpace") -> "JointHPSpace":
        """Pair an extractor space with a head space for a joint search.

        Args:
            gbdt_space: A space bound to :data:`EXTRACTOR_COMPONENT`
                (validated against the flattened GBDT parameter surface).
            head_space: A space bound to a registered head trainer.

        Returns:
            A :class:`JointHPSpace` driving
            :func:`~repro.tune.asha.run_joint_asha`.
        """
        return JointHPSpace(extractor=gbdt_space, head=head_space)

    @property
    def is_extractor(self) -> bool:
        """Whether this space searches the GBDT extractor's knobs."""
        return self.trainer == EXTRACTOR_COMPONENT

    def names(self) -> list[str]:
        """Parameter names in the canonical (sorted) sampling order."""
        return sorted(self.params)

    def sample(self, rng: np.random.Generator) -> dict[str, object]:
        """One configuration; fields are drawn in sorted-name order so a
        given RNG stream always yields the same configuration."""
        return {name: self.params[name].sample(rng) for name in self.names()}

    def contains(self, params: Mapping[str, object]) -> bool:
        """Whether a configuration lies inside the space."""
        return set(params) == set(self.params) and all(
            self.params[name].contains(value)
            for name, value in params.items()
        )

    def grid_points(self) -> list[dict[str, object]]:
        """Cartesian product of enumerable descriptors, in sorted-name
        lexicographic order.

        Raises:
            SpaceError: If any descriptor is continuous.
        """
        names = self.names()
        values = [self.params[name].grid_values() for name in names]
        return [dict(zip(names, combo))
                for combo in itertools.product(*values)]

    def to_json(self) -> dict:
        """JSON-compatible description (leaderboard provenance)."""
        return {
            "trainer": self.trainer,
            "params": {name: self.params[name].to_json()
                       for name in self.names()},
        }


@dataclass(frozen=True)
class JointHPSpace:
    """A GBDT extractor space paired with an LR-head trainer space.

    The two halves are validated by their owning components: the
    ``extractor`` half against the flattened GBDT parameter surface, the
    ``head`` half against the trainer's config dataclass.  A joint
    trial's configuration is the head half's fields plus one
    ``"extractor"`` sub-dict — the scheduler
    groups trials sharing an extractor configuration so the expensive
    fit + leaf-encode runs once per distinct configuration
    (:mod:`repro.tune.extractor_cache`).
    """

    extractor: HPSpace
    head: HPSpace

    def __post_init__(self) -> None:
        if not isinstance(self.extractor, HPSpace) \
                or not self.extractor.is_extractor:
            raise SpaceError(
                "JointHPSpace.extractor must be an HPSpace bound to "
                f"{EXTRACTOR_COMPONENT!r} "
                f"(e.g. HPSpace('gbdt', {{'n_trees': IntRange(20, 60)}}))"
            )
        if not isinstance(self.head, HPSpace) or self.head.is_extractor:
            raise SpaceError(
                "JointHPSpace.head must be an HPSpace bound to a "
                "registered head trainer"
            )

    @property
    def trainer(self) -> str:
        """The head trainer the joint search selects for."""
        return self.head.trainer

    def to_json(self) -> dict:
        """JSON-compatible description (leaderboard provenance)."""
        return {
            "trainer": self.head.trainer,
            "head": self.head.to_json(),
            "extractor": self.extractor.to_json(),
        }


# ------------------------------------------------------- default spaces
#
# One space per registered trainer, keyed by canonical Table I name.
# Every space covers the shared optimisation knobs; IRM-family spaces add
# the paper's penalty settings (λ, α) and LightMIRM the MRQ axes (L, γ).
# Bounds bracket the tuned repo defaults by roughly an order of magnitude
# — wide enough for the search to matter, narrow enough that smoke-sized
# budgets stay numerically stable.

_SHARED = {
    "learning_rate": LogUniform(0.5, 4.0),
    "l2": LogUniform(1e-5, 1e-1),
}

#: The meta-learners use far smaller outer steps than plain GD.
_META_SHARED = {
    "l2": LogUniform(1e-5, 1e-1),
    "inner_lr": LogUniform(0.02, 0.5),
    "lambda_penalty": LogUniform(0.3, 10.0),
}

_DEFAULT_SPACES: dict[str, HPSpace] = {
    "ERM": HPSpace("ERM", _SHARED),
    "ERM + fine-tuning": HPSpace("ERM + fine-tuning", {
        **_SHARED,
        "finetune_epochs": IntRange(5, 30),
        "finetune_lr": LogUniform(0.05, 1.0),
    }),
    "Up Sampling": HPSpace("Up Sampling", {
        **_SHARED,
        "power": Uniform(0.0, 1.0),
        "positive_weight": LogUniform(0.5, 4.0),
    }),
    "Group DRO": HPSpace("Group DRO", {
        **_SHARED,
        "group_lr": LogUniform(0.1, 4.0),
    }),
    "V-REx": HPSpace("V-REx", {
        **_SHARED,
        "variance_weight": LogUniform(0.1, 10.0),
    }),
    "IRMv1": HPSpace("IRMv1", {
        "learning_rate": LogUniform(0.1, 1.0),
        "l2": LogUniform(1e-5, 1e-1),
        "penalty_weight": LogUniform(1.0, 50.0),
    }),
    "meta-IRM": HPSpace("meta-IRM", {
        "learning_rate": LogUniform(0.005, 0.1),
        **_META_SHARED,
    }),
    "LightMIRM": HPSpace("LightMIRM", {
        "learning_rate": LogUniform(0.05, 1.0),
        **_META_SHARED,
        "queue_length": IntRange(1, 9),
        "gamma": Uniform(0.5, 1.0),
    }),
}


def default_space(trainer: str) -> HPSpace:
    """The default space of a trainer, by any accepted name.

    Raises:
        KeyError: For unknown trainer names.
    """
    return _DEFAULT_SPACES[trainer_info(trainer).name]


def default_extractor_space() -> HPSpace:
    """The default GBDT extractor space of ``repro tune --joint``.

    Brackets :func:`~repro.pipeline.extractor.default_gbdt_params` on the
    axes that dominate Table-III quality and wall-clock: ensemble size,
    shrinkage, histogram resolution and the per-tree leaf budget.
    """
    return HPSpace(EXTRACTOR_COMPONENT, {
        "n_trees": IntRange(20, 60),
        "learning_rate": LogUniform(0.05, 0.3),
        "max_bins": Choice((32, 64, 128)),
        "max_leaves": IntRange(15, 63),
    })
