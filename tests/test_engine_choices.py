"""Every engine entry point rejects an unknown engine by name.

Both tiers — the circuit solver, the SNN pipeline, the serving tier, the
figure context and the CLI — accept exactly ``auto``/``scalar``.  Neither
a retired choice (``sparse``, ``compiled``, ``batched``) nor a made-up one
may be accepted silently or fail later with an unnamed error.  Scenario
specs carry no engine at all: the runner's engine applies to every
scenario.
"""

import pytest

from repro.analog import Circuit, make_system
from repro.cli import build_parser
from repro.core import ClassificationPipeline, ExperimentConfig
from repro.exec import CircuitSweepDispatcher
from repro.figures import FigureContext
from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.snn.serving import ScoringEngine

BAD_ENGINES = ("sparse", "warp-drive", "batched", "compiled")


def _divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", "1k")
    circuit.add_resistor("R2", "out", "0", "1k")
    return circuit


ENTRY_POINTS = {
    "make_system": lambda engine: make_system(_divider(), engine),
    "CircuitSweepDispatcher": lambda engine: CircuitSweepDispatcher(engine=engine),
    "FigureContext": lambda engine: FigureContext(ExperimentConfig.tiny(), engine=engine),
    # Checked when built: a pool worker would otherwise die on it in its
    # initializer, and the runner would report a worker crash instead.
    "ScenarioRunner": lambda engine: ScenarioRunner(scale="tiny", workers=2, engine=engine),
    "ClassificationPipeline": lambda engine: ClassificationPipeline(
        ExperimentConfig.tiny(), engine=engine
    ),
    # The engine is validated before the snapshot is touched.
    "ScoringEngine": lambda engine: ScoringEngine(None, engine=engine),
}


@pytest.mark.parametrize("engine", BAD_ENGINES)
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_library_entry_points_reject_unknown_engines(entry_point, engine):
    with pytest.raises(ValueError, match=rf"engine.*{engine!r}"):
        ENTRY_POINTS[entry_point](engine)


CLI_COMMANDS = {
    "run": ["run", "fig6"],
    "scenarios run": ["scenarios", "run", "--all"],
    "snapshot export": ["snapshot", "export"],
    "snapshot info": ["snapshot", "info", "snapshot-fig8.json", "--rescore"],
}


@pytest.mark.parametrize("engine", BAD_ENGINES)
@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_rejects_unknown_engines(command, engine, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([*CLI_COMMANDS[command], "--engine", engine])
    assert excinfo.value.code == 2
    error = capsys.readouterr().err
    assert "--engine" in error and repr(engine) in error


def test_scenario_documents_reject_an_engine_pin():
    document = {"name": "x", "family": "global_vdd", "grid": {"vdd": [0.9]}}
    assert ScenarioSpec.from_dict(document).name == "x"
    with pytest.raises(ValueError, match=r"unknown scenario field\(s\): engine"):
        ScenarioSpec.from_dict({**document, "engine": "auto"})
