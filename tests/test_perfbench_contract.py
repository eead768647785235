"""The import contract between ``repro`` and the benchmark harness.

``perfbench/layers.py`` times the traced benchmark run by wrapping public
callables of ``repro`` by name (``SweepExecutor.map`` among them, also under
its ``repro.exec.resilience.ResilientExecutor`` alias) and restores them
afterwards.  A renamed or removed attribute here breaks the benchmark
without failing anything else, so this installs the real layer map, runs a
sweep through it, and checks that every patched attribute comes back.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.core.results import ExperimentResult
from repro.exec import SweepExecutor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _StubPipeline:
    config = "perfbench-contract"

    def run_baseline(self) -> ExperimentResult:
        return ExperimentResult(attack_label="baseline", accuracy=0.9)


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``layers`` and ``tracer`` modules, imported the way its
    worker does (its directory on ``sys.path``), unloaded afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("layers", "tracer")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers"), importlib.import_module("tracer")
    for name in names:
        sys.modules.pop(name, None)


def test_layer_map_installs_traces_and_restores_every_attribute(perfbench):
    layers, tracer_module = perfbench
    tracer = tracer_module.Tracer()
    layers.install(tracer)
    patches = list(tracer._patches)
    try:
        executor = SweepExecutor(_StubPipeline())
        assert executor.run_baseline().accuracy == 0.9
        assert tracer.calls["exec.executor"] >= 1
        assert id(executor) in tracer.seen["executor"]
    finally:
        tracer.uninstall()
    assert patches
    # An attribute wrapped twice records the first wrapper as the second
    # patch's original; the first patch holds the true original.
    originals = {}
    for owner, attribute, original in patches:
        originals.setdefault((id(owner), attribute), (owner, attribute, original))
    for owner, attribute, original in originals.values():
        assert owner.__dict__[attribute] is original, f"{owner!r}.{attribute}"
