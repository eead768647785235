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

from repro.utils.rng import RandomState, ensure_rng
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_fraction,
    check_in_choices,
    check_positive,
    check_positive_int,
    check_range,
)

__all__ = [
    "RandomState",
    "ensure_rng",
    "format_table",
    "check_fraction",
    "check_in_choices",
    "check_positive",
    "check_positive_int",
    "check_range",
]
