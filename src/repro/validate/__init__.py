"""Schedule validation and differential fuzzing.

* :mod:`repro.validate.audit` — the independent full-schedule auditor
  (:func:`audit_schedule`), re-deriving the paper's correctness contract
  for a finished schedule.
* :mod:`repro.validate.fuzz` — the seeded differential fuzzer
  (:func:`run_fuzz`) asserting scalar/vector kernel equivalence on
  random networks, auditing every schedule, and cross-checking
  simulator invariants.
"""

from repro.validate.audit import (AuditReport, Violation, audit_schedule)
from repro.validate.fuzz import FuzzCaseResult, FuzzReport, run_fuzz

__all__ = [
    "AuditReport",
    "Violation",
    "audit_schedule",
    "FuzzCaseResult",
    "FuzzReport",
    "run_fuzz",
]
