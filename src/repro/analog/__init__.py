"""A small, self-contained analog circuit simulator.

The paper characterises its neuron circuits in HSPICE with PTM 65 nm models.
This package provides the simulation substrate used by the reproduction:

* :mod:`repro.analog.units` — SI unit suffix parsing and constants.
* :mod:`repro.analog.devices` — linear devices (R, C, DC and pulse sources).
* :mod:`repro.analog.mosfet` — a level-1 (square-law) MOSFET model with
  channel-length modulation and a smooth subthreshold tail, parameterised to
  approximate a 65 nm low-power CMOS process.
* :mod:`repro.analog.netlist` — flat circuit/netlist construction with named
  nodes.
* :mod:`repro.analog.mna` — modified nodal analysis matrix assembly (the
  scalar reference engine).
* :mod:`repro.analog.compiled` — the compiled engine: per-topology split
  linear/nonlinear assembly, vectorised MOSFET evaluation and LU reuse.
  The default (``engine="auto"``) of every analysis.
* :mod:`repro.analog.batch` — lockstep batched transients/DC sweeps over
  parameter variants of one topology (stacked ``(B, N, N)`` dense solves).
* :mod:`repro.analog.dc` — Newton-Raphson DC operating point and DC sweeps.
* :mod:`repro.analog.transient` — backward-Euler transient analysis.
* :mod:`repro.analog.waveform` — waveform post-processing (spike detection,
  threshold crossings).

The solver is deliberately compact, but it is a real circuit simulator:
every figure-level sensitivity in the paper is produced by solving the
nonlinear device equations, not by table lookup.  The paper's testbenches
have at most a few tens of unknowns, so every solve is a dense LU.
"""

from repro.utils.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    names={
        "devices": ["Capacitor", "CurrentSource", "PulseSource", "Resistor", "VoltageSource"],
        "mosfet": ["MOSFET", "MOSFETParameters", "NMOS_65NM", "PMOS_65NM"],
        "netlist": ["Circuit"],
        "compiled": ["CompiledCircuit", "EngineStats", "make_system"],
        "batch": [
            "BatchedCircuit",
            "TopologyMismatchError",
            "batched_dc_sweep",
            "batched_operating_points",
            "batched_transient_analysis",
            "shares_topology",
        ],
        "dc": ["OperatingPoint", "dc_operating_point", "dc_sweep"],
        "transient": ["TransientResult", "transient_analysis"],
        "waveform": ["Waveform", "detect_spikes", "threshold_crossings"],
        "units": ["parse_value"],
    },
)
