"""SI unit handling for the analog simulator.

Component values throughout the circuit library can be given either as plain
floats (in base SI units) or as SPICE-style strings with suffixes, e.g.
``"200n"`` (200 nA), ``"1p"`` (1 pF), ``"25ns"`` (25 ns), ``"10k"`` (10 kΩ).
"""

from __future__ import annotations

import re
from typing import Union

#: SPICE-style magnitude suffixes.  ``meg`` must be matched before ``m``.
_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "x": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "µ": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}

#: Unit names that may trail a suffix and are ignored ("25ns" -> 25e-9).
_UNIT_NAMES = ("ohm", "ohms", "v", "a", "s", "f", "h", "hz", "w")

_VALUE_RE = re.compile(
    r"^\s*([+-]?\d+\.?\d*(?:[eE][+-]?\d+)?)\s*([a-zµ]*)\s*$",
)

ValueLike = Union[int, float, str]


def parse_value(value: ValueLike) -> float:
    """Parse a numeric or SPICE-style string value into a float (SI units).

    Examples
    --------
    >>> parse_value("200n")
    2e-07
    >>> parse_value("1.5k")
    1500.0
    >>> parse_value(0.5)
    0.5
    """
    if isinstance(value, (int, float)):
        return float(value)
    match = _VALUE_RE.match(value.lower())
    if not match:
        raise ValueError(f"cannot parse component value {value!r}")
    number, tail = match.groups()
    base = float(number)
    if not tail:
        return base
    # SPICE precedence: the magnitude suffix is decided by the leading
    # characters of the tail ("meg" before "m"); anything after it is an
    # ignored unit name ("25ns" -> nano, "10kohm" -> kilo, "20f" -> femto).
    if tail.startswith("meg"):
        return base * _SUFFIXES["meg"]
    if tail[0] in _SUFFIXES:
        return base * _SUFFIXES[tail[0]]
    # No magnitude suffix: accept a bare unit name ("5v", "3hz").
    if tail in _UNIT_NAMES:
        return base
    raise ValueError(f"unknown unit suffix {tail!r} in value {value!r}")


# Physical constants used by the device models.
BOLTZMANN = 1.380649e-23
"""Boltzmann constant (J/K)."""

ELEMENTARY_CHARGE = 1.602176634e-19
"""Elementary charge (C)."""

ROOM_TEMPERATURE_K = 300.15
"""Default simulation temperature (27 °C in Kelvin)."""


def thermal_voltage(temperature_k: float = ROOM_TEMPERATURE_K) -> float:
    """kT/q at the given temperature (volts)."""
    return BOLTZMANN * temperature_k / ELEMENTARY_CHARGE
