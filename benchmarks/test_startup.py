"""Start-up cost: a fresh interpreter importing the CLI or the serving tier.

Every CLI call and every new serving process pays its imports before doing
any work, so each round here starts a new interpreter and times
``python -c "import <module>"`` end to end, interpreter start included.
There is no floor: the nightly snapshots carry the numbers as a trajectory,
plus, in ``extra_info``, how many ``repro`` modules the import loaded and
whether SciPy's ``linalg`` (the circuit tier's LAPACK) was among them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Fresh-process imports per benchmark.
ROUNDS = 5


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


@pytest.mark.skipif(
    "REPRO_SCALE" not in os.environ,
    reason="the start-up trajectory is recorded by the nightly job, which sets REPRO_SCALE",
)
@pytest.mark.parametrize("module", ["repro.cli", "repro.snn.serving"])
def test_fresh_process_import(benchmark, module):
    benchmark.pedantic(_python, args=(f"import {module}",), rounds=ROUNDS, iterations=1)
    loaded = json.loads(
        _python(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    )
    benchmark.extra_info["repro_modules"] = sum(
        name == "repro" or name.startswith("repro.") for name in loaded
    )
    benchmark.extra_info["loads_scipy_linalg"] = "scipy.linalg" in loaded
