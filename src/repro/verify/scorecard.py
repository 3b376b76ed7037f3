"""The invariance scorecard: every trainer scored on the closed-form bed.

Analogous to :mod:`repro.perfbench` for performance, this module keeps the
repo's *correctness* story honest.  ``run_verification`` fits every trainer
in :func:`repro.train.registry.available_trainers` on the SEM bed of
:mod:`repro.verify.sem` and scores three things end metrics cannot see:

* **Coefficient recovery** — cosine alignment of the learned causal block
  with the true ``w_c`` and the L1 mass left on the spurious block.
* **Penalty monotonicity** — for trainers with an invariance-penalty knob
  (see :func:`repro.train.registry.penalty_parameter`), the spurious mass
  must not grow as the penalty does.  IRM-family methods silently regress
  to ERM under mis-tuning; this is the regression tripwire.
* **OOD-vs-IID gap** — AUC on a polarity-flipped environment versus a
  fresh in-distribution draw.  Shortcut reliance shows up as a large gap.

``write_verify_json`` persists the machine-readable scorecard as
``VERIFY_invariance.json`` (the correctness twin of the ``BENCH_*.json``
files); ``python -m repro verify`` is the CLI entry point and exits
non-zero when any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.auc import auc_score
from repro.metrics.invariance import coefficient_recovery
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.train.registry import (
    available_trainers,
    make_trainer,
    penalty_parameter,
)
from repro.verify.sem import SEMBed, SEMConfig, make_sem_bed

__all__ = [
    "VerifyConfig",
    "run_verification",
    "summarize_verification",
    "write_verify_json",
]

#: Format version of VERIFY_invariance.json.
VERIFY_FORMAT = 1

#: Per-trainer config overrides that keep every method stable and give the
#: penalised methods a fair shot on the SEM bed.  The outer loop is long
#: enough for full convergence of the plain risk minimisers; learning rates
#: are reduced where the default (tuned for the GBDT+LR loan pipeline)
#: diverges under a strong penalty on the small dense problem.
_TRAINER_PROFILES: dict[str, dict] = {
    "ERM": {},
    "ERM + fine-tuning": {},
    "Up Sampling": {},
    "Group DRO": {},
    "IRMv1": {"learning_rate": 0.1, "penalty_weight": 10.0},
    "V-REx": {"variance_weight": 10.0},
    "meta-IRM": {"learning_rate": 0.1, "lambda_penalty": 10.0},
    "LightMIRM": {"lambda_penalty": 10.0},
}


@dataclass(frozen=True)
class VerifyConfig:
    """One scorecard run's configuration.

    Attributes:
        sem: The SEM bed to verify on.
        n_epochs: Outer iterations for every trainer (shared so parameter
            magnitudes are comparable across methods).
        penalty_sweep: Ascending penalty weights for the monotonicity test.
        monotone_tolerance: Largest spurious-mass *increase* between
            consecutive sweep points still counted as monotone (absorbs
            optimisation noise such as meta-IRM's sampled environments).
        causal_cosine_floor: Minimum causal alignment the IRM-family
            methods must reach for their recovery check to pass.
        trainer_seed: Seed passed to every trainer.
    """

    sem: SEMConfig = field(default_factory=SEMConfig)
    n_epochs: int = 300
    penalty_sweep: tuple[float, ...] = (0.0, 2.0, 10.0)
    monotone_tolerance: float = 0.02
    causal_cosine_floor: float = 0.9
    trainer_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if len(self.penalty_sweep) < 2:
            raise ValueError("penalty_sweep needs >= 2 points")
        if list(self.penalty_sweep) != sorted(self.penalty_sweep):
            raise ValueError("penalty_sweep must be ascending")
        if self.monotone_tolerance < 0:
            raise ValueError("monotone_tolerance must be non-negative")

    @classmethod
    def smoke(cls, seed: int = 0) -> "VerifyConfig":
        """CI-sized run: tiny bed, shorter sweep, same checks."""
        return cls(sem=SEMConfig.smoke(seed=seed),
                   penalty_sweep=(0.0, 10.0))


def _fit_and_score(
    bed: SEMBed, name: str, n_epochs: int, seed: int,
    tracer: Tracer = NULL_TRACER, **overrides
) -> dict:
    """Fit one trainer on the bed and compute its scorecard entry."""
    trainer = make_trainer(name, n_epochs=n_epochs, seed=seed, **overrides)
    result = trainer.fit(bed.train_environments, tracer=tracer)
    entry = coefficient_recovery(
        result.theta, bed.causal_idx, bed.spurious_idx, bed.w_causal
    )
    iid = auc_score(
        bed.iid_environment.labels,
        result.predict_proba(bed.iid_environment.features),
    )
    ood = auc_score(
        bed.ood_environment.labels,
        result.predict_proba(bed.ood_environment.features),
    )
    entry.update(iid_auc=iid, ood_auc=ood, ood_gap=iid - ood)
    return entry


def _is_monotone_decreasing(masses: list[float], tolerance: float) -> bool:
    """Non-increasing within tolerance, and strictly lower at the end."""
    steps_ok = all(
        later <= earlier + tolerance
        for earlier, later in zip(masses, masses[1:])
    )
    return steps_ok and masses[-1] < masses[0]


def run_verification(
    config: VerifyConfig | None = None,
    tracer: Tracer | None = None,
) -> dict:
    """Run the full scorecard and return its JSON-compatible payload.

    The payload has four sections: ``trainers`` (per-trainer recovery and
    OOD metrics), ``penalty_sweeps`` (spurious mass along the penalty
    sweep per penalised trainer), ``checks`` (named boolean assertions)
    and ``all_passed``.  With a ``tracer``, every scorecard fit (including
    the penalty-sweep fits) lands in one run log as its own ``fit`` span.
    """
    config = config or VerifyConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    bed = make_sem_bed(config.sem)

    trainers: dict[str, dict] = {}
    for name in available_trainers():
        overrides = dict(_TRAINER_PROFILES.get(name, {}))
        trainers[name] = _fit_and_score(
            bed, name, config.n_epochs, config.trainer_seed, tracer=tracer,
            **overrides
        )

    sweeps: dict[str, dict] = {}
    for name in available_trainers():
        param = penalty_parameter(name)
        if param is None:
            continue
        masses = []
        for value in config.penalty_sweep:
            overrides = dict(_TRAINER_PROFILES.get(name, {}))
            overrides[param] = value
            entry = _fit_and_score(
                bed, name, config.n_epochs, config.trainer_seed,
                tracer=tracer, **overrides
            )
            masses.append(entry["spurious_mass"])
        sweeps[name] = {
            "parameter": param,
            "values": list(config.penalty_sweep),
            "spurious_mass": masses,
            "monotone": _is_monotone_decreasing(
                masses, config.monotone_tolerance
            ),
        }

    erm_mass = trainers["ERM"]["spurious_mass"]
    erm_gap = trainers["ERM"]["ood_gap"]
    checks = {
        "lightmirm_spurious_below_erm":
            trainers["LightMIRM"]["spurious_mass"] < erm_mass,
        "meta_irm_spurious_below_erm":
            trainers["meta-IRM"]["spurious_mass"] < erm_mass,
        "lightmirm_causal_alignment":
            trainers["LightMIRM"]["causal_cosine"]
            >= config.causal_cosine_floor,
        "meta_irm_causal_alignment":
            trainers["meta-IRM"]["causal_cosine"]
            >= config.causal_cosine_floor,
        "lightmirm_ood_gap_below_erm":
            trainers["LightMIRM"]["ood_gap"] < erm_gap,
        "erm_takes_the_shortcut":
            erm_mass > trainers["LightMIRM"]["spurious_mass"]
            and erm_gap > 0.05,
    }
    for name, sweep in sweeps.items():
        checks[f"penalty_monotone_{_slug(name)}"] = sweep["monotone"]

    return {
        "format": VERIFY_FORMAT,
        "config": _config_dict(config),
        "trainers": trainers,
        "penalty_sweeps": sweeps,
        "checks": checks,
        "all_passed": all(checks.values()),
    }


def _slug(name: str) -> str:
    """Trainer name -> json/check-key-friendly slug."""
    return (
        name.lower().replace(" + ", "_").replace(" ", "_").replace("-", "_")
    )


def _config_dict(config: VerifyConfig) -> dict:
    payload = dataclasses.asdict(config)
    # Tuples -> lists for canonical JSON round-trips.
    payload["penalty_sweep"] = list(config.penalty_sweep)
    sem = payload["sem"]
    sem["train_strengths"] = list(config.sem.train_strengths)
    if sem["w_causal"] is not None:
        sem["w_causal"] = list(sem["w_causal"])
    return payload


def write_verify_json(path: str | pathlib.Path, payload: dict) -> dict:
    """Write the tracked ``VERIFY_invariance.json`` and return the payload."""
    from repro.perfbench.payload import machine_info

    payload = {**payload, "machine": machine_info()}
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def summarize_verification(payload: dict) -> str:
    """Human-readable rendering of one scorecard run."""
    lines = ["trainer              cos(w_c)  spur_mass  iid_auc  ood_auc   gap"]
    for name, entry in payload["trainers"].items():
        lines.append(
            f"{name:20s} {entry['causal_cosine']:8.3f} "
            f"{entry['spurious_mass']:10.3f} {entry['iid_auc']:8.3f} "
            f"{entry['ood_auc']:8.3f} {entry['ood_gap']:6.3f}"
        )
    lines.append("")
    for name, sweep in payload["penalty_sweeps"].items():
        masses = "  ".join(f"{m:.3f}" for m in sweep["spurious_mass"])
        status = "monotone" if sweep["monotone"] else "NOT MONOTONE"
        lines.append(
            f"{name:20s} {sweep['parameter']}={sweep['values']} "
            f"-> spurious mass [{masses}]  ({status})"
        )
    lines.append("")
    for check, passed in payload["checks"].items():
        lines.append(f"  [{'PASS' if passed else 'FAIL'}] {check}")
    lines.append(
        f"invariance scorecard: "
        f"{'ALL CHECKS PASSED' if payload['all_passed'] else 'FAILURES'}"
    )
    return "\n".join(lines)
