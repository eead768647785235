"""Shared utilities for the reproduction library.

This package holds small, dependency-free helpers used across the analog
simulator, SNN framework, attack pipeline and benchmark harness:

* :mod:`repro.utils.rng` — deterministic seeded random-number handling.
* :mod:`repro.utils.validation` — argument validation helpers with uniform
  error messages.
* :mod:`repro.utils.tables` — plain-text table rendering for benchmark and
  experiment reports.
* :mod:`repro.utils.serialization` — JSON-friendly result serialisation.
"""

from repro.utils.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    names={
        "rng": ["RandomState", "ensure_rng"],
        "tables": ["format_table"],
        "validation": [
            "check_fraction",
            "check_in_choices",
            "check_positive",
            "check_positive_int",
            "check_range",
        ],
    },
)
