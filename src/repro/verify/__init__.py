"""Invariance verification subsystem.

Three pieces, layered so every future PR can regress against them:

* :mod:`repro.verify.sem` — closed-form linear-SEM environments where the
  invariant solution and the ERM shortcut are both known exactly.
* :mod:`repro.verify.harness` — reusable metamorphic/property assertions
  (monotone-transform invariance, label-flip symmetry, environment
  permutation, determinism, persist round-trips) shared by the pytest
  suite and the scorecard.
* :mod:`repro.verify.scorecard` — runs every registered trainer on the SEM
  bed and writes the machine-readable ``VERIFY_invariance.json``.

Run via ``python -m repro verify`` (``--smoke`` for the CI-sized bed).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "sem": ("SEMBed", "SEMConfig", "make_sem_bed"),
    "scorecard": (
        "VerifyConfig", "run_verification", "summarize_verification",
        "write_verify_json",
    ),
    "harness": (
        "assert_deterministic", "assert_environment_permutation_invariant",
        "assert_label_flip_symmetry", "assert_monotone_transform_invariant",
        "assert_persist_round_trip", "monotone_transforms",
        "random_environments", "random_labels_and_scores",
    ),
})
