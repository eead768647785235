"""Circuit (netlist) construction.

A :class:`Circuit` is an ordered collection of devices connected by named
nodes.  Node ``"0"`` (aliases ``"gnd"``, ``"GND"``, ``"vss"``) is the global
ground reference.  Circuits are flat: every builder in
:mod:`repro.circuits` adds its devices with explicit node names.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.analog.devices import (
    Capacitor,
    CurrentSource,
    Device,
    Resistor,
    SourceValue,
    VoltageSource,
)
from repro.analog.mosfet import MOSFET, MOSFETParameters
from repro.analog.units import ValueLike

#: Node names treated as the ground reference.
GROUND_ALIASES = frozenset({"0", "gnd", "GND", "vss", "VSS"})


def is_ground(node: str) -> bool:
    """Whether ``node`` names the ground reference."""
    return node in GROUND_ALIASES


class Circuit:
    """A flat collection of devices connected by named nodes.

    The class offers both a generic :meth:`add` and typed convenience
    constructors (:meth:`add_resistor`, :meth:`add_mosfet`, ...) that build
    the device and register it in one call.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._devices: List[Device] = []
        self._device_index: Dict[str, Device] = {}

    # -------------------------------------------------------------- containers
    @property
    def devices(self) -> Sequence[Device]:
        """All devices in insertion order."""
        return tuple(self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, name: str) -> bool:
        return name in self._device_index

    def __getitem__(self, name: str) -> Device:
        try:
            return self._device_index[name]
        except KeyError:
            raise KeyError(f"no device named {name!r} in circuit {self.name!r}") from None

    def nodes(self) -> List[str]:
        """All non-ground node names, in first-use order."""
        seen: Dict[str, None] = {}
        for device in self._devices:
            for node in device.nodes:
                if not is_ground(node) and node not in seen:
                    seen[node] = None
        return list(seen)

    # ------------------------------------------------------------ registration
    def add(self, device: Device) -> Device:
        """Register an already constructed device."""
        if device.name in self._device_index:
            raise ValueError(
                f"duplicate device name {device.name!r} in circuit {self.name!r}"
            )
        self._devices.append(device)
        self._device_index[device.name] = device
        return device

    # ------------------------------------------------------- typed convenience
    def add_resistor(self, name: str, a: str, b: str, resistance: ValueLike) -> Resistor:
        """Add a resistor between nodes ``a`` and ``b``."""
        return self.add(Resistor(name, a, b, resistance))

    def add_capacitor(
        self, name: str, a: str, b: str, capacitance: ValueLike, **kwargs
    ) -> Capacitor:
        """Add a capacitor between nodes ``a`` and ``b``."""
        return self.add(Capacitor(name, a, b, capacitance, **kwargs))

    def add_voltage_source(
        self, name: str, pos: str, neg: str, value: SourceValue
    ) -> VoltageSource:
        """Add an independent voltage source."""
        return self.add(VoltageSource(name, pos, neg, value))

    def add_current_source(
        self, name: str, pos: str, neg: str, value: SourceValue
    ) -> CurrentSource:
        """Add an independent current source (current flows pos -> neg)."""
        return self.add(CurrentSource(name, pos, neg, value))

    def add_mosfet(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        parameters: MOSFETParameters,
        *,
        width: ValueLike = 1e-6,
        length: ValueLike = 65e-9,
    ) -> MOSFET:
        """Add a MOSFET (drain, gate, source; body tied to source)."""
        return self.add(
            MOSFET(name, drain, gate, source, parameters, width=width, length=length)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Circuit({self.name!r}, devices={len(self._devices)})"
