"""SNN input current driver (paper Fig. 5a) and its VDD sensitivity.

The driver is a resistor-programmed NMOS current mirror: ``R1`` from VDD into
a diode-connected NMOS (``MN3``) sets the reference current
``I_ref = (VDD - V_GS) / R1`` which ``MN2`` mirrors into the neuron.  ``MN1``
is a series switch gated by the incoming voltage spike ``Vctr`` so the output
current is delivered as spikes.  Because ``V_GS`` is roughly constant, the
output amplitude moves *super-linearly* with VDD (the paper measures
136 nA at 0.8 V and 264 nA at 1.2 V, i.e. −32 %/+32 % for a ±20 % VDD change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analog.dc import dc_operating_point
from repro.analog.mosfet import MOSFETParameters, NMOS_65NM
from repro.analog.netlist import Circuit
from repro.analog.units import ValueLike, parse_value
from repro.exec.circuits import CircuitSweepDispatcher
from repro.utils.validation import check_positive

#: Default reference resistor chosen so the nominal output is ~200 nA at 1 V.
DEFAULT_REFERENCE_RESISTANCE = 2.89e6

#: Default mirror transistor width (long-ish channel for better matching).
DEFAULT_MIRROR_WIDTH = 1e-6
DEFAULT_MIRROR_LENGTH = 260e-9


@dataclass
class CurrentDriverDesign:
    """Component values of the current-mirror driver."""

    reference_resistance: float = DEFAULT_REFERENCE_RESISTANCE
    mirror_width: float = DEFAULT_MIRROR_WIDTH
    mirror_length: float = DEFAULT_MIRROR_LENGTH
    switch_width: float = 2e-6
    nmos_params: MOSFETParameters = NMOS_65NM

    def __post_init__(self) -> None:
        check_positive(self.reference_resistance, "reference_resistance")
        check_positive(self.mirror_width, "mirror_width")
        check_positive(self.mirror_length, "mirror_length")
        check_positive(self.switch_width, "switch_width")


def build_current_driver(
    vdd: ValueLike = 1.0,
    *,
    design: Optional[CurrentDriverDesign] = None,
    load_voltage: float = 0.2,
    ctrl_source=1.0,
) -> Circuit:
    """Build the current-mirror driver with a measurement load.

    Nodes: ``vdd``, ``nref`` (mirror gate), ``nsw`` (switch/mirror junction),
    ``out``.  The output current is measured as the branch current of the
    ``VLOAD`` source holding the output node at ``load_voltage`` (a proxy for
    the neuron membrane sitting below threshold).

    Parameters
    ----------
    vdd:
        Supply voltage.
    design:
        Component values.
    load_voltage:
        Voltage of the measurement load node.
    ctrl_source:
        Value or waveform of the spike control input ``Vctr``.
    """
    design = design or CurrentDriverDesign()
    vdd = parse_value(vdd)
    circuit = Circuit("current_driver")
    circuit.add_voltage_source("VDD", "vdd", "0", vdd)
    circuit.add_voltage_source("VCTR", "vctr", "0", ctrl_source)
    circuit.add_voltage_source("VLOAD", "out", "0", load_voltage)

    # Reference branch: R1 from VDD into diode-connected MN3.
    circuit.add_resistor("R1", "vdd", "nref", design.reference_resistance)
    circuit.add_mosfet(
        "MN3",
        "nref",
        "nref",
        "0",
        design.nmos_params,
        width=design.mirror_width,
        length=design.mirror_length,
    )
    # Output branch: MN1 switch in series with mirror transistor MN2.
    circuit.add_mosfet(
        "MN1",
        "out",
        "vctr",
        "nsw",
        design.nmos_params,
        width=design.switch_width,
        length=65e-9,
    )
    circuit.add_mosfet(
        "MN2",
        "nsw",
        "nref",
        "0",
        design.nmos_params,
        width=design.mirror_width,
        length=design.mirror_length,
    )
    return circuit


def output_current(
    vdd: ValueLike = 1.0,
    *,
    design: Optional[CurrentDriverDesign] = None,
    load_voltage: float = 0.2,
) -> float:
    """Steady-state output spike amplitude (amperes) with the switch closed.

    This is the quantity plotted against VDD in paper Fig. 5b.  The sign is
    returned as a positive magnitude (the mirror sinks current from the load).
    """
    circuit = build_current_driver(
        vdd, design=design, load_voltage=load_voltage, ctrl_source=parse_value(vdd)
    )
    op = dc_operating_point(circuit)
    return abs(op.current("VLOAD"))


def amplitude_vs_vdd(
    vdd_values,
    *,
    design: Optional[CurrentDriverDesign] = None,
    load_voltage: float = 0.2,
    engine: str = "auto",
) -> np.ndarray:
    """Output amplitude for each supply voltage (paper Fig. 5b).

    All supply points share the driver topology, so the grid is routed
    through :class:`repro.exec.circuits.CircuitSweepDispatcher`: one
    lockstep batched DC solve instead of one operating point per supply.
    ``engine`` picks the solver backend; ``"scalar"`` runs the serial
    per-point reference path.
    """
    values = [parse_value(v) for v in vdd_values]
    circuits = [
        build_current_driver(
            v, design=design, load_voltage=load_voltage, ctrl_source=v
        )
        for v in values
    ]
    ops = CircuitSweepDispatcher(engine=engine).run_operating_points(
        circuits
    )
    return np.array([abs(op.current("VLOAD")) for op in ops])
