"""Invariance verification subsystem.

Two pieces:

* :mod:`repro.verify.sem` — closed-form linear-SEM environments where the
  invariant solution and the ERM shortcut are both known exactly.
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
})
