"""Name -> trainer factory registry used by the experiment harness.

Lookup is case-insensitive and alias-tolerant: ``"lightmirm"``,
``"meta-irm"``, ``"group_dro"`` and friends all resolve to their canonical
Table I names, and unknown names fail with a did-you-mean suggestion.
:func:`trainer_names` exposes per-trainer metadata (canonical name,
aliases, penalty field, trainer class) for the CLI ``list``
command; it is the one table :func:`make_trainer`, :func:`penalty_parameter`
and the field validation of :class:`repro.tune.space.HPSpace` read.

The registry imports every concrete trainer at module scope, so a process
that imports it (a worker-pool parent, say) has each trainer loaded before
it forks.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

from repro.baselines.erm import ERMTrainer
from repro.baselines.finetune import FineTuneTrainer
from repro.baselines.group_dro import GroupDROTrainer
from repro.baselines.irmv1 import IRMv1Trainer
from repro.baselines.upsampling import UpSamplingTrainer
from repro.baselines.vrex import VRExTrainer
from repro.core.lightmirm import LightMIRMTrainer
from repro.core.meta_irm import MetaIRMTrainer
from repro.train.base import Trainer

__all__ = [
    "make_trainer",
    "available_trainers",
    "penalty_parameter",
    "resolve_trainer_name",
    "trainer_info",
    "trainer_names",
    "TrainerInfo",
    "TrainerSpec",
]


@dataclass(frozen=True)
class TrainerInfo:
    """Registry metadata of one trainer.

    Attributes:
        name: Canonical Table I name (what :func:`available_trainers`
            lists and ``Trainer.name`` reports).
        aliases: Extra accepted spellings (already-normalised forms of
            the canonical name need not be listed).
        penalty_parameter: Config field weighting the trainer's invariance
            penalty, or ``None`` for pure risk minimisers.
        trainer_class: The :class:`~repro.train.base.Trainer` subclass
            (its ``config_class`` is the config dataclass).
    """

    name: str
    aliases: tuple[str, ...]
    penalty_parameter: str | None
    trainer_class: type[Trainer]


_TRAINERS = (
    TrainerInfo("ERM", (), None, ERMTrainer),
    TrainerInfo("ERM + fine-tuning",
                ("fine-tuning", "finetune", "erm-finetune"), None,
                FineTuneTrainer),
    TrainerInfo("Up Sampling", ("upsample",), None, UpSamplingTrainer),
    TrainerInfo("Group DRO", ("dro",), None, GroupDROTrainer),
    TrainerInfo("V-REx", ("rex",), "variance_weight", VRExTrainer),
    TrainerInfo("IRMv1", ("irm",), "penalty_weight", IRMv1Trainer),
    TrainerInfo("meta-IRM", (), "lambda_penalty", MetaIRMTrainer),
    TrainerInfo("LightMIRM", ("light-mirm",), "lambda_penalty",
                LightMIRMTrainer),
)

_BY_NAME = {info.name: info for info in _TRAINERS}


def _normalize(name: str) -> str:
    """Fold case and separators so alias matching is spelling-tolerant."""
    return re.sub(r"[\s\-_+]", "", name.lower())


_LOOKUP: dict[str, str] = {}
for _info in _TRAINERS:
    for _spelling in (_info.name, *_info.aliases):
        _LOOKUP[_normalize(_spelling)] = _info.name

#: Matches the sampled meta-IRM(S) syntax after normalisation.
_SAMPLED_RE = re.compile(r"^metairm\((-?\d+)\)$")


def trainer_names() -> list[TrainerInfo]:
    """Per-trainer registry metadata, in Table I order."""
    return list(_TRAINERS)


def available_trainers() -> list[str]:
    """Canonical names accepted by :func:`make_trainer`, in Table I order."""
    return [info.name for info in _TRAINERS]


def resolve_trainer_name(name: str) -> str:
    """Canonical trainer name for any accepted (case/alias) spelling.

    Args:
        name: A canonical name, an alias, or ``"meta-IRM(S)"`` in any
            casing/separator style.

    Returns:
        The canonical name (the sampled syntax resolves to
        ``"meta-IRM(S)"`` with its integer preserved).

    Raises:
        KeyError: For unknown names, with a did-you-mean suggestion when
            one is close enough.
    """
    normalized = _normalize(name)
    if normalized in _LOOKUP:
        return _LOOKUP[normalized]
    sampled = _SAMPLED_RE.match(normalized)
    if sampled:
        return f"meta-IRM({sampled.group(1)})"
    candidates = list(_LOOKUP) + [info.name for info in _TRAINERS]
    close = difflib.get_close_matches(normalized, candidates, n=1)
    hint = ""
    if close:
        canonical = _LOOKUP.get(close[0], close[0])
        hint = f"; did you mean {canonical!r}?"
    raise KeyError(
        f"unknown trainer {name!r}{hint} (known: {available_trainers()})"
    )


def _sampled_count(name: str) -> int | None:
    """S of an exact ``"meta-IRM(S)"`` name, else ``None``.

    Raises:
        ValueError: When S is not an integer.
    """
    if name.startswith("meta-IRM(") and name.endswith(")"):
        return int(name[len("meta-IRM("):-1])
    return None


def trainer_info(name: str) -> TrainerInfo:
    """Registry entry of any accepted spelling (``"meta-IRM(S)"`` included).

    Raises:
        KeyError: For unknown names (with a did-you-mean suggestion).
    """
    canonical = resolve_trainer_name(name)
    if _sampled_count(canonical) is not None:
        canonical = "meta-IRM"
    return _BY_NAME[canonical]


def penalty_parameter(name: str) -> str | None:
    """Config field holding a trainer's invariance-penalty weight, if any.

    The verification scorecard sweeps this field to test that larger
    penalties shrink the spurious weight mass (penalty monotonicity).

    Args:
        name: Any spelling :func:`resolve_trainer_name` accepts.

    Returns:
        The dataclass field name, or ``None`` for penalty-free trainers.

    Raises:
        KeyError: For unknown trainer names.
    """
    return trainer_info(name).penalty_parameter


@dataclass(frozen=True)
class TrainerSpec:
    """Declarative, picklable recipe for building a seeded trainer.

    Experiment factories used to be closures over :func:`make_trainer`,
    which cannot cross a process boundary.  A spec captures the same
    information as plain data — any name :func:`resolve_trainer_name`
    accepts plus config overrides — so the parallel execution engine can
    ship it to workers and rebuild the identical trainer there.

    Attributes:
        name: Trainer name or alias (``"meta-IRM(5)"`` syntax included).
        overrides: Extra config fields forwarded to the trainer's config
            dataclass (everything except ``seed``).
    """

    name: str
    overrides: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **overrides) -> "TrainerSpec":
        """Spec from keyword overrides (sorted for a canonical form)."""
        return cls(name=name, overrides=tuple(sorted(overrides.items())))

    def build(self, seed: int) -> Trainer:
        """Instantiate the trainer for one training seed."""
        return make_trainer(self.name, seed=seed, **dict(self.overrides))

    def __call__(self, seed: int) -> Trainer:
        # Specs are drop-in replacements for ``Callable[[int], Trainer]``
        # factories, so serial callers need not distinguish the two.
        return self.build(seed)


def make_trainer(name: str, **config_overrides) -> Trainer:
    """Instantiate a trainer by its paper name (or any accepted alias).

    Args:
        name: Any spelling :func:`resolve_trainer_name` accepts, including
            ``"meta-IRM(S)"`` with an integer S for the sampled variants
            of Table II.
        **config_overrides: Forwarded to the trainer's config dataclass.

    Returns:
        A ready-to-fit :class:`~repro.train.base.Trainer`.

    Raises:
        KeyError: For unknown names (with a did-you-mean suggestion).
        ValueError: For the exact ``"meta-IRM(S)"`` syntax with a
            non-integer S (e.g. ``"meta-IRM(five)"``).
    """
    # The exact syntax is parsed first, so a malformed count raises
    # ValueError rather than resolving to an unknown-name KeyError.
    _sampled_count(name)
    canonical = resolve_trainer_name(name)
    n_sampled = _sampled_count(canonical)
    sampled = {} if n_sampled is None else {"n_sampled_envs": n_sampled}
    trainer_class = trainer_info(canonical).trainer_class
    return trainer_class(
        trainer_class.config_class(**sampled, **config_overrides))
