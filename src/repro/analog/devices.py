"""The linear circuit devices: resistors, capacitors and independent sources.

These, with the MOSFET of :mod:`repro.analog.mosfet`, are every device the
paper's netlists use.  Every device implements the small stamping protocol
used by :mod:`repro.analog.mna`:

* ``nodes`` — the tuple of node *names* the device connects to.
* ``n_branches`` — how many extra branch-current unknowns it needs
  (voltage sources need one, everything else none).
* ``is_nonlinear`` — whether its stamp depends on the present voltage guess
  (and therefore requires Newton-Raphson iteration).
* ``stamp(stamper, state)`` — add the device's contribution to the MNA matrix
  and right-hand side.  ``state`` carries the analysis mode, the time step and
  the current voltage guess (see :class:`repro.analog.mna.StampState`).

Source values may be constants, arbitrary callables of time, or a
:class:`PulseSource`, mirroring SPICE's ``PULSE`` source.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

from repro.analog.units import ValueLike, parse_value
from repro.utils.validation import check_positive

#: Minimum conductance added in parallel with nonlinear elements to keep the
#: MNA matrix well conditioned (SPICE's ``GMIN``).
GMIN = 1e-12


class PulseSource:
    """A SPICE-style periodic pulse waveform.

    Parameters
    ----------
    low, high:
        Baseline and pulsed value (volts or amperes depending on use).
    delay:
        Time before the first rising edge.
    rise, fall:
        Rise and fall times (linear ramps).
    width:
        Time spent at ``high`` (excluding ramps).
    period:
        Repetition period.  Must be at least ``rise + width + fall``.
    """

    def __init__(
        self,
        low: ValueLike,
        high: ValueLike,
        *,
        delay: ValueLike = 0.0,
        rise: ValueLike = 1e-12,
        fall: ValueLike = 1e-12,
        width: ValueLike,
        period: ValueLike,
    ) -> None:
        self.low = parse_value(low)
        self.high = parse_value(high)
        self.delay = parse_value(delay)
        self.rise = check_positive(parse_value(rise), "rise")
        self.fall = check_positive(parse_value(fall), "fall")
        self.width = check_positive(parse_value(width), "width")
        self.period = check_positive(parse_value(period), "period")
        if self.period < self.rise + self.width + self.fall:
            raise ValueError(
                "pulse period must be >= rise + width + fall "
                f"({self.period} < {self.rise + self.width + self.fall})"
            )

    def __call__(self, time: float) -> float:
        if time < self.delay:
            return self.low
        t = (time - self.delay) % self.period
        if t < self.rise:
            return self.low + (self.high - self.low) * t / self.rise
        t -= self.rise
        if t < self.width:
            return self.high
        t -= self.width
        if t < self.fall:
            return self.high + (self.low - self.high) * t / self.fall
        return self.low

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PulseSource(low={self.low}, high={self.high}, width={self.width}, "
            f"period={self.period})"
        )


SourceValue = Union[ValueLike, Callable[[float], float], PulseSource]


def _evaluate_source(value: SourceValue, time: float) -> float:
    """Evaluate a constant, callable or pulse source at ``time``."""
    if callable(value):
        return float(value(time))
    return parse_value(value)


class Device:
    """Base class for all circuit devices."""

    #: Number of extra branch-current unknowns this device introduces.
    n_branches = 0
    #: Whether the stamp depends on the present voltage guess.
    is_nonlinear = False

    def __init__(self, name: str, nodes: Sequence[str]) -> None:
        self.name = name
        self.nodes = tuple(str(n) for n in nodes)

    def stamp(self, stamper, state) -> None:  # pragma: no cover - interface
        """Add this device's MNA contribution through ``stamper``.

        ``stamper`` is a :class:`repro.analog.mna.Stamper` and ``state`` the
        :class:`repro.analog.mna.StampState` of the solve.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


class Resistor(Device):
    """An ideal linear resistor."""

    def __init__(self, name: str, node_a: str, node_b: str, resistance: ValueLike) -> None:
        super().__init__(name, (node_a, node_b))
        self.resistance = check_positive(parse_value(resistance), f"{name}.resistance")

    @property
    def conductance(self) -> float:
        """1 / R."""
        return 1.0 / self.resistance

    def stamp(self, stamper, state) -> None:
        """Stamp the conductance ``1 / R`` between the two nodes."""
        a, b = self.nodes
        stamper.stamp_conductance(a, b, self.conductance)

    def current(self, v_a: float, v_b: float) -> float:
        """Current flowing from ``node_a`` to ``node_b``."""
        return (v_a - v_b) * self.conductance


class Capacitor(Device):
    """An ideal linear capacitor.

    In DC analysis the capacitor is an open circuit (only ``GMIN`` is
    stamped); in transient analysis it is replaced by its backward-Euler
    companion model.
    """

    def __init__(
        self,
        name: str,
        node_a: str,
        node_b: str,
        capacitance: ValueLike,
        *,
        initial_voltage: float | None = None,
    ) -> None:
        super().__init__(name, (node_a, node_b))
        self.capacitance = check_positive(parse_value(capacitance), f"{name}.capacitance")
        self.initial_voltage = initial_voltage

    def stamp(self, stamper, state) -> None:
        """Stamp ``GMIN`` (DC) or the backward-Euler companion (transient)."""
        a, b = self.nodes
        if state.analysis == "dc":
            stamper.stamp_conductance(a, b, GMIN)
            return
        geq = self.capacitance / state.dt
        v_prev = state.previous_voltage(a) - state.previous_voltage(b)
        stamper.stamp_conductance(a, b, geq)
        # Companion current source: i = geq * (v - v_prev); the -geq*v_prev
        # term is injected as an independent source.
        stamper.stamp_current_injection(a, geq * v_prev)
        stamper.stamp_current_injection(b, -geq * v_prev)


class VoltageSource(Device):
    """An independent voltage source (constant or time-varying)."""

    n_branches = 1

    def __init__(self, name: str, node_pos: str, node_neg: str, value: SourceValue) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.value = value

    def value_at(self, time: float) -> float:
        """Source voltage at ``time``."""
        return _evaluate_source(self.value, time)

    def stamp(self, stamper, state) -> None:
        """Stamp the branch incidence and the source voltage at ``state.time``."""
        pos, neg = self.nodes
        branch = stamper.branch_index(self)
        stamper.stamp_branch_voltage(pos, neg, branch)
        stamper.add_rhs_branch(branch, self.value_at(state.time))


class CurrentSource(Device):
    """An independent current source (constant or time-varying).

    Positive current flows *out of* ``node_pos``, through the source, and
    *into* ``node_neg`` — i.e. the source injects current into ``node_neg``.
    This matches the SPICE convention where a current source from VDD to a
    node pulls current out of VDD and pushes it into the node.
    """

    def __init__(self, name: str, node_pos: str, node_neg: str, value: SourceValue) -> None:
        super().__init__(name, (node_pos, node_neg))
        self.value = value

    def value_at(self, time: float) -> float:
        """Source current at ``time``."""
        return _evaluate_source(self.value, time)

    def stamp(self, stamper, state) -> None:
        """Inject the source current at ``state.time`` into the two nodes."""
        pos, neg = self.nodes
        current = self.value_at(state.time)
        stamper.stamp_current_injection(pos, -current)
        stamper.stamp_current_injection(neg, current)
