"""Tests for repro.utils.tables and repro.utils.serialization."""

import dataclasses
import json

import numpy as np
import pytest

from repro.utils.serialization import to_jsonable
from repro.utils.tables import format_table


def test_format_table_aligns_columns():
    text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
    lines = text.splitlines()
    assert "name" in lines[0] and "value" in lines[0]
    assert len(lines) == 4  # header, separator, two rows


def test_format_table_with_title():
    text = format_table(["a"], [[1]], title="My Table")
    assert text.splitlines()[0] == "My Table"


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="headers"):
        format_table(["a", "b"], [[1]])


def test_format_table_formats_floats_compactly():
    text = format_table(["x"], [[0.123456789]])
    assert "0.1235" in text


def test_to_jsonable_handles_numpy_scalars_and_arrays():
    payload = {"a": np.int64(3), "b": np.float64(2.5), "c": np.array([1, 2]), "d": np.bool_(True)}
    converted = to_jsonable(payload)
    assert converted == {"a": 3, "b": 2.5, "c": [1, 2], "d": True}
    json.dumps(converted)


def test_to_jsonable_handles_dataclasses_and_sets():
    @dataclasses.dataclass
    class Point:
        x: int
        y: float

    converted = to_jsonable({"p": Point(1, 2.0), "s": {1, 2}})
    assert converted["p"] == {"x": 1, "y": 2.0}
    assert sorted(converted["s"]) == [1, 2]


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable(object())
