"""Robust (VDD-insensitive) current driver — the defense of paper Fig. 9b.

An op-amp (implemented with the 5T OTA) regulates the voltage across the
programming resistor ``R1`` to an external reference ``VRef``; the current
``VRef / R1`` through ``MP1`` is therefore independent of VDD to first order,
and ``MP2`` mirrors it to the neuron.  Long-channel mirror devices reduce the
residual channel-length-modulation sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analog import Circuit, dc_operating_point
from repro.analog.mosfet import MOSFETParameters, NMOS_65NM, PMOS_65NM
from repro.analog.units import ValueLike, parse_value
from repro.circuits.ota import OTASizing, add_five_transistor_ota
from repro.utils.validation import check_positive


@dataclass
class RobustDriverDesign:
    """Component values of the op-amp regulated current driver."""

    reference_voltage: float = 0.52
    programming_resistance: float = 2.6e6
    #: Long-channel mirror devices to suppress channel-length modulation.
    mirror_width: float = 2e-6
    mirror_length: float = 520e-9
    opamp: OTASizing = field(default_factory=OTASizing)
    nmos_params: MOSFETParameters = NMOS_65NM
    pmos_params: MOSFETParameters = PMOS_65NM

    def __post_init__(self) -> None:
        check_positive(self.reference_voltage, "reference_voltage")
        check_positive(self.programming_resistance, "programming_resistance")
        check_positive(self.mirror_width, "mirror_width")
        check_positive(self.mirror_length, "mirror_length")

    @property
    def nominal_current(self) -> float:
        """VRef / R1 — the regulated output amplitude."""
        return self.reference_voltage / self.programming_resistance


def build_robust_driver(
    vdd: ValueLike = 1.0,
    *,
    design: Optional[RobustDriverDesign] = None,
    load_voltage: float = 0.2,
) -> Circuit:
    """Build the robust current driver with a measurement load.

    Nodes: ``vdd``, ``vref``, ``vset`` (regulated node across R1), ``vg``
    (PMOS gate, op-amp output), ``out``.

    The output current is read as the branch current of ``VLOAD``.
    """
    design = design or RobustDriverDesign()
    vdd = parse_value(vdd)
    circuit = Circuit("robust_current_driver")
    circuit.add_voltage_source("VDD", "vdd", "0", vdd)
    circuit.add_voltage_source("VREF", "vref", "0", design.reference_voltage)
    circuit.add_voltage_source("VLOAD", "out", "0", load_voltage)

    # Error amplifier: drives the PMOS gate so that v(vset) tracks VRef.
    # The regulated node goes to the non-inverting input: if vset rises above
    # VRef the op-amp output rises, reducing the PMOS overdrive and hence the
    # current through R1 — negative feedback.
    add_five_transistor_ota(
        circuit,
        "OPAMP",
        "vset",
        "vref",
        "vg",
        "vdd",
        sizing=design.opamp,
        nmos_params=design.nmos_params,
        pmos_params=design.pmos_params,
    )
    circuit.add_capacitor("CCOMP", "vg", "0", "100f")

    # MP1 sources the programming current into R1; MP2 mirrors it to the load.
    circuit.add_mosfet(
        "MP1",
        "vset",
        "vg",
        "vdd",
        design.pmos_params,
        width=design.mirror_width,
        length=design.mirror_length,
    )
    circuit.add_resistor("R1", "vset", "0", design.programming_resistance)
    circuit.add_mosfet(
        "MP2",
        "out",
        "vg",
        "vdd",
        design.pmos_params,
        width=design.mirror_width,
        length=design.mirror_length,
    )
    return circuit


def output_current(
    vdd: ValueLike = 1.0,
    *,
    design: Optional[RobustDriverDesign] = None,
    load_voltage: float = 0.2,
) -> float:
    """Regulated output current magnitude at supply ``vdd``."""
    circuit = build_robust_driver(vdd, design=design, load_voltage=load_voltage)
    op = dc_operating_point(
        circuit,
        initial_guess={"vset": (design or RobustDriverDesign()).reference_voltage},
    )
    return abs(op.current("VLOAD"))


def amplitude_vs_vdd(
    vdd_values,
    *,
    design: Optional[RobustDriverDesign] = None,
    load_voltage: float = 0.2,
    engine: str = "auto",
) -> np.ndarray:
    """Output amplitude for each supply voltage (flat, unlike Fig. 5b).

    Routed through :class:`repro.exec.circuits.CircuitSweepDispatcher`: one
    lockstep batched DC solve across the VDD grid (all points share the
    regulated-driver topology); ``engine`` picks the solver backend, and
    ``"scalar"`` runs the serial path.
    """
    from repro.exec.circuits import CircuitSweepDispatcher

    values = [parse_value(v) for v in vdd_values]
    reference = (design or RobustDriverDesign()).reference_voltage
    circuits = [
        build_robust_driver(v, design=design, load_voltage=load_voltage)
        for v in values
    ]
    ops = CircuitSweepDispatcher(engine=engine).run_operating_points(
        circuits, initial_guesses=[{"vset": reference}] * len(circuits)
    )
    return np.array([abs(op.current("VLOAD")) for op in ops])
