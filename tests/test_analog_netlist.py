"""Tests for circuit/netlist construction and hierarchy."""

import pytest

from repro.analog.netlist import Circuit, is_ground


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
