"""Uniform argument-validation helpers.

The analog simulator and SNN framework have many numeric parameters whose
physical validity matters (capacitances must be positive, fractions must lie
in [0, 1], supply voltages must be within the modelled range).  Centralising
the checks keeps the error messages consistent and the call sites short.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (strictly, by default).

    NaN is rejected (every comparison with it is false); ``inf`` passes,
    since unbounded parameters such as ``wmax`` default to it.
    """
    value = float(value)
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is a whole number >= 1 and return it as ``int``.

    Integral floats (``100.0``) pass.  Fractions, NaN, inf and booleans are
    rejected rather than truncated or read as ``0`` / ``1``.
    """
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )
    if not (numeric and float(value).is_integer() and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_range(value: float, name: str, low: float, high: float) -> float:
    """Validate that ``value`` lies in the closed interval [low, high]."""
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate that ``value`` is a fraction in [0, 1]."""
    return check_range(value, name, 0.0, 1.0)


def check_in_choices(value, name: str, choices: Iterable):
    """Validate that ``value`` is one of ``choices``."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices!r}, got {value!r}")
    return value
