"""Tests for circuit/netlist construction and hierarchy."""

import pytest

from repro.analog.netlist import Circuit, is_ground
from repro.analog.devices import Resistor


def test_is_ground_aliases():
    assert is_ground("0") and is_ground("gnd") and is_ground("GND") and is_ground("vss")
    assert not is_ground("out")


def test_add_and_lookup_devices():
    circuit = Circuit("test")
    resistor = circuit.add_resistor("R1", "a", "b", "1k")
    assert circuit["R1"] is resistor
    assert "R1" in circuit
    assert len(circuit) == 1


def test_duplicate_names_rejected():
    circuit = Circuit("test")
    circuit.add_resistor("R1", "a", "b", "1k")
    with pytest.raises(ValueError, match="duplicate"):
        circuit.add_resistor("R1", "a", "c", "1k")


def test_missing_device_lookup_raises_keyerror():
    circuit = Circuit("test")
    with pytest.raises(KeyError, match="no device named"):
        circuit["missing"]


def test_nodes_excludes_ground_and_preserves_order():
    circuit = Circuit("test")
    circuit.add_resistor("R1", "in", "out", "1k")
    circuit.add_resistor("R2", "out", "0", "1k")
    assert circuit.nodes() == ["in", "out"]


def test_remove_and_replace():
    circuit = Circuit("test")
    circuit.add_resistor("R1", "a", "0", "1k")
    circuit.remove("R1")
    assert "R1" not in circuit
    circuit.add_resistor("R1", "a", "0", "2k")
    circuit.replace(Resistor("R1", "a", "0", "3k"))
    assert circuit["R1"].resistance == pytest.approx(3e3)


def test_source_helpers():
    circuit = Circuit("test")
    circuit.add_voltage_source("V1", "a", "0", 1.0)
    circuit.add_current_source("I1", "a", "0", "1u")
    assert set(circuit.source_names()) == {"V1", "I1"}
    circuit.set_source_value("V1", 2.0)
    assert circuit["V1"].value == 2.0
    with pytest.raises(TypeError):
        circuit.add_resistor("R1", "a", "0", "1k")
        circuit.set_source_value("R1", 1.0)


def test_copy_is_shallow_but_independent_container():
    circuit = Circuit("test")
    circuit.add_resistor("R1", "a", "0", "1k")
    clone = circuit.copy()
    clone.add_resistor("R2", "a", "0", "1k")
    assert "R2" in clone and "R2" not in circuit
