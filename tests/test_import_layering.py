"""Start-up pays only for what a command uses.

Every package namespace under ``repro`` is lazy (:mod:`repro.utils.lazy`),
so the serving path -- the CLI, a snapshot load and a scoring call -- never
imports the circuit tier, the figure registry or SciPy.  Each check runs in
a fresh interpreter, since this test session has long imported everything.
The name maps of the lazy packages are checked here too: a stale entry
fails this file instead of a user's import.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.config import ExperimentConfig
from repro.core.pipeline import ClassificationPipeline
from repro.snn.snapshot import save_snapshot, snapshot_from_pipeline
from repro.utils.lazy import attach

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the serving path must not load (prefixes).
FORBIDDEN = ("scipy.linalg", "repro.analog", "repro.circuits", "repro.figures")

#: Every package under ``repro``, the root included.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def _loaded_forbidden(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the forbidden modules it loaded.

    ``code`` may set ``result`` (anything JSON-serialisable) to report back.
    """
    script = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json as _json, sys as _sys
        _loaded = sorted(
            name for name in _sys.modules
            if any(name == p or name.startswith(p + ".") for p in {FORBIDDEN!r})
        )
        print(_json.dumps({{"loaded": _loaded, "result": globals().get("result")}}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def snapshot_json(tmp_path_factory) -> str:
    snapshot = snapshot_from_pipeline(ClassificationPipeline(ExperimentConfig.tiny()))
    out_dir = tmp_path_factory.mktemp("startup_snapshot")
    return str(save_snapshot(snapshot, out_dir, name="tiny").json_path)


class TestServingPathImports:
    def test_importing_the_cli_loads_no_circuit_tier(self):
        report = _loaded_forbidden("import repro.cli")
        assert report["loaded"] == []

    def test_loading_and_scoring_a_snapshot_loads_no_circuit_tier(self, snapshot_json):
        report = _loaded_forbidden(
            f"""
            import numpy as np
            from repro.snn.models import INPUT_LAYER
            from repro.snn.serving import ScoringEngine
            from repro.snn.snapshot import load_snapshot

            engine = ScoringEngine(load_snapshot({snapshot_json!r}))
            n_inputs = engine.network.layers[INPUT_LAYER].n
            rasters = np.zeros((2, engine.snapshot.time_steps, n_inputs))
            result = [int(label) for label in engine.score_rasters(rasters).labels]
            """
        )
        assert len(report["result"]) == 2
        assert report["loaded"] == []

    def test_snapshot_info_rescore_loads_no_circuit_tier(self, snapshot_json):
        report = _loaded_forbidden(
            f"""
            import runpy, sys

            sys.argv = ["repro", "snapshot", "info", {snapshot_json!r}, "--rescore"]
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as stop:
                result = stop.code
            """
        )
        assert report["result"] in (0, None)
        assert report["loaded"] == []


class TestLazyNamespaces:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_exported_name_resolves(self, name):
        package = importlib.import_module(name)
        # The one shared helper, not a hand-written __getattr__.
        assert package.__getattr__.__qualname__ == "attach.<locals>.__getattr__"
        assert package.__all__
        listed = dir(package)
        for exported in package.__all__:
            assert getattr(package, exported) is not None, exported
            assert exported in listed, exported
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_names_bind_on_first_access_and_unknown_names_fail(self):
        _getattr, _dir, exported = attach("repro.snn", names={"encoding": ["poisson_encode"]})
        assert exported == ["poisson_encode"]
        from repro.snn.encoding import poisson_encode

        assert _getattr("poisson_encode") is poisson_encode
        assert vars(sys.modules["repro.snn"])["poisson_encode"] is poisson_encode
        assert "poisson_encode" in _dir()
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            _getattr("not_a_name")
