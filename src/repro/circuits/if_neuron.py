"""Voltage-amplifier integrate-and-fire neuron circuit (paper Fig. 2b).

Van Schaik's voltage-amplifier I&F neuron uses an explicit threshold: a
5-transistor amplifier compares the membrane voltage with an externally
supplied ``Vthr`` (0.5 V nominal, derived from VDD through a resistive
divider — which is exactly why VDD manipulation corrupts the threshold).
When the comparator trips, a first inverter turns on a PMOS that pulls the
membrane up to VDD, a second inverter charges the refractory capacitor
``Ck``, and the ``Ck`` node drives the reset transistor ``MN1`` which holds
the membrane low until ``Ck`` discharges again (the explicit refractory
period).

Default component values follow the paper: ``Cmem = 10 pF``, ``Ck = 20 pF``,
``Vlk = 0.2 V`` leak bias, 200 nA / 25 ns input spikes with 25 ns spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analog.devices import PulseSource
from repro.analog.mosfet import MOSFETParameters, NMOS_65NM, PMOS_65NM
from repro.analog.netlist import Circuit
from repro.analog.transient import transient_analysis
from repro.analog.units import ValueLike, parse_value
from repro.circuits.inverter import InverterSizing, add_inverter
from repro.circuits.ota import OTASizing, add_five_transistor_ota
from repro.utils.validation import check_positive


@dataclass
class IFNeuronDesign:
    """Component values for the voltage-amplifier I&F neuron."""

    membrane_capacitance: float = 10e-12
    refractory_capacitance: float = 20e-12
    vdd: float = 1.0
    #: Fraction of VDD produced by the threshold voltage divider.
    threshold_divider_ratio: float = 0.5
    #: Total resistance of the Vthr divider string.
    threshold_divider_resistance: float = 10e6
    leak_bias: float = 0.2
    leak_width: float = 200e-9
    reset_width: float = 2e-6
    pullup_width: float = 2e-6
    refractory_charge_resistance: float = 200e3
    refractory_discharge_resistance: float = 2e6
    comparator: OTASizing = field(default_factory=OTASizing)
    inverter: InverterSizing = field(default_factory=InverterSizing)
    nmos_params: MOSFETParameters = NMOS_65NM
    pmos_params: MOSFETParameters = PMOS_65NM

    def __post_init__(self) -> None:
        check_positive(self.membrane_capacitance, "membrane_capacitance")
        check_positive(self.refractory_capacitance, "refractory_capacitance")
        check_positive(self.vdd, "vdd")
        check_positive(self.threshold_divider_resistance, "threshold_divider_resistance")
        if not 0.0 < self.threshold_divider_ratio < 1.0:
            raise ValueError("threshold_divider_ratio must be in (0, 1)")

    @property
    def nominal_threshold(self) -> float:
        """Vthr produced by the divider at the configured VDD."""
        return self.vdd * self.threshold_divider_ratio

    def with_vdd(self, vdd: float) -> "IFNeuronDesign":
        """Copy of the design at a different supply voltage (attack knob)."""
        return IFNeuronDesign(
            membrane_capacitance=self.membrane_capacitance,
            refractory_capacitance=self.refractory_capacitance,
            vdd=vdd,
            threshold_divider_ratio=self.threshold_divider_ratio,
            threshold_divider_resistance=self.threshold_divider_resistance,
            leak_bias=self.leak_bias,
            leak_width=self.leak_width,
            reset_width=self.reset_width,
            pullup_width=self.pullup_width,
            refractory_charge_resistance=self.refractory_charge_resistance,
            refractory_discharge_resistance=self.refractory_discharge_resistance,
            comparator=self.comparator,
            inverter=self.inverter,
            nmos_params=self.nmos_params,
            pmos_params=self.pmos_params,
        )


def build_if_neuron(
    design: Optional[IFNeuronDesign] = None,
    *,
    input_source=None,
    external_threshold: Optional[float] = None,
) -> Circuit:
    """Build the voltage-amplifier I&F neuron circuit.

    Nodes: ``vdd``, ``vmem``, ``vthr`` (threshold), ``vcmp`` (comparator
    output), ``y1``/``y2`` (inverter outputs), ``vk`` (refractory capacitor).

    Parameters
    ----------
    design:
        Component values; paper defaults when omitted.
    input_source:
        Waveform for the input current spikes (defaults to the paper's
        200 nA / 25 ns / 25 ns-gap train).
    external_threshold:
        When given, ``vthr`` is driven by an ideal voltage source at this
        value instead of the VDD divider — this models the bandgap-referenced
        threshold defense (paper Sec. V-B-1).
    """
    design = design or IFNeuronDesign()
    if input_source is None:
        input_source = default_input_spike_train()

    circuit = Circuit("voltage_amplifier_if_neuron")
    circuit.add_voltage_source("VDD", "vdd", "0", design.vdd)
    circuit.add_voltage_source("VLK", "vlk", "0", design.leak_bias)
    circuit.add_current_source("IIN", "0", "vmem", input_source)
    circuit.add_capacitor("CMEM", "vmem", "0", design.membrane_capacitance)

    # Threshold generation: either the VDD-referenced resistive divider (the
    # vulnerable nominal design) or an ideal external reference (defense).
    if external_threshold is None:
        r_total = design.threshold_divider_resistance
        r_top = r_total * (1.0 - design.threshold_divider_ratio)
        r_bottom = r_total * design.threshold_divider_ratio
        circuit.add_resistor("RTHR_TOP", "vdd", "vthr", r_top)
        circuit.add_resistor("RTHR_BOT", "vthr", "0", r_bottom)
    else:
        circuit.add_voltage_source("VTHR", "vthr", "0", external_threshold)

    # Membrane leak transistor MN4 (subthreshold, gate at Vlk).
    circuit.add_mosfet(
        "MN4",
        "vmem",
        "vlk",
        "0",
        design.nmos_params,
        width=design.leak_width,
        length=130e-9,
    )

    # 5-transistor comparator: fires when vmem crosses vthr.
    add_five_transistor_ota(
        circuit,
        "CMP",
        "vmem",
        "vthr",
        "vcmp",
        "vdd",
        sizing=design.comparator,
        nmos_params=design.nmos_params,
        pmos_params=design.pmos_params,
    )
    circuit.add_capacitor("CCMP", "vcmp", "0", "20f")

    # First inverter: its low-going output turns on the PMOS pull-up that
    # snaps the membrane to VDD once the comparator fires.
    add_inverter(
        circuit,
        "INV1",
        "vcmp",
        "y1",
        "vdd",
        sizing=design.inverter,
        nmos_params=design.nmos_params,
        pmos_params=design.pmos_params,
    )
    # Small parasitic load keeps the high-gain internal node well behaved.
    circuit.add_capacitor("CY1", "y1", "0", "10f")
    circuit.add_mosfet(
        "MPU",
        "vmem",
        "y1",
        "vdd",
        design.pmos_params,
        width=design.pullup_width,
        length=65e-9,
    )

    # Second inverter charges the refractory capacitor Ck.
    add_inverter(
        circuit,
        "INV2",
        "y1",
        "y2",
        "vdd",
        sizing=design.inverter,
        nmos_params=design.nmos_params,
        pmos_params=design.pmos_params,
    )
    circuit.add_capacitor("CY2", "y2", "0", "10f")
    circuit.add_resistor("RK_CHARGE", "y2", "vk", design.refractory_charge_resistance)
    circuit.add_capacitor("CK", "vk", "0", design.refractory_capacitance)
    circuit.add_resistor("RK_LEAK", "vk", "0", design.refractory_discharge_resistance)

    # Reset transistor MN1: pulls the membrane to ground while vk is high.
    circuit.add_mosfet(
        "MN1",
        "vmem",
        "vk",
        "0",
        design.nmos_params,
        width=design.reset_width,
        length=65e-9,
    )
    return circuit


def default_input_spike_train(
    amplitude: ValueLike = "200n",
    *,
    spike_width: ValueLike = "25n",
    period: ValueLike = "50n",
    delay: ValueLike = "5n",
) -> PulseSource:
    """The paper's nominal input: 200 nA / 25 ns spikes with 25 ns spacing."""
    return PulseSource(
        0.0,
        parse_value(amplitude),
        width=spike_width,
        period=period,
        rise="0.5n",
        fall="0.5n",
        delay=delay,
    )


def simulate_if_neuron(
    design: Optional[IFNeuronDesign] = None,
    *,
    input_source=None,
    external_threshold: Optional[float] = None,
    stop_time: ValueLike = "40u",
    time_step: ValueLike = "10n",
    engine: str = "auto",
):
    """Transient simulation of the I&F neuron (paper Fig. 4).

    ``engine`` selects the solver backend (compiled by default, see
    :mod:`repro.analog.compiled`).
    """
    circuit = build_if_neuron(
        design, input_source=input_source, external_threshold=external_threshold
    )
    return transient_analysis(
        circuit,
        stop_time=stop_time,
        time_step=time_step,
        use_initial_conditions=True,
        record_nodes=["vmem", "vthr", "vcmp", "y1", "y2", "vk"],
        engine=engine,
    )
