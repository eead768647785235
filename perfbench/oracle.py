"""Expected outputs of the benchmark workloads, and the checks against them.

One JSON file per shipped workload seed, ``expected/seed-<n>.json``:

* ``figures`` -- every figure of ``reproduce`` (and ``resume``, which must
  produce the same artifacts).  SNN-tier figures are compared on the
  SHA-256 digests of their arrays, bit for bit.  Circuit-tier figures are
  compared on their ``metrics`` within ``CIRCUIT_REL_TOL``, because the
  circuit engines agree to about 1e-14, not bitwise.
* ``scenarios`` -- every scenario of ``campaign``, by array digest.
* ``serve_labels`` -- the predicted label of each serving request key.
  Keyed encoding makes a request's label independent of arrival order and
  batching, so labels are compared by key.

Any mismatch, missing artifact or exception is one failed operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Relative tolerance on circuit-tier figure metrics.
CIRCUIT_REL_TOL = 1e-9
#: Absolute floor of that tolerance, for metrics at or near zero.
CIRCUIT_ABS_TOL = 1e-12


def expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"seed-{seed}.json"


def load_expected(seed: int) -> Dict:
    return json.loads(expected_path(seed).read_text())


def _metrics_match(observed: Dict, expected: Dict) -> bool:
    if set(observed) != set(expected):
        return False
    for name, value in expected.items():
        got = observed[name]
        if isinstance(value, (int, float)) and isinstance(got, (int, float)):
            if math.isnan(value) and math.isnan(got):
                continue
            if not math.isclose(got, value, rel_tol=CIRCUIT_REL_TOL, abs_tol=CIRCUIT_ABS_TOL):
                return False
        elif got != value:
            return False
    return True


def check_artifact(name: str, observed: Dict, expected: Dict) -> List[str]:
    """Failures of one figure or scenario artifact against its expectation."""
    if expected is None:
        return [f"{name}: no expected output"]
    if expected.get("tier") == "circuit":
        if not _metrics_match(observed["metrics"], expected["metrics"]):
            return [f"{name}: circuit metrics differ beyond rel {CIRCUIT_REL_TOL:g}"]
        return []
    differing = sorted(
        array
        for array in set(observed["arrays"]) | set(expected["arrays"])
        if observed["arrays"].get(array) != expected["arrays"].get(array)
    )
    if differing:
        return [f"{name}: array digest mismatch ({', '.join(differing)})"]
    return []


def check_batch_pass(record: Dict, expected: Dict, section: str) -> List[str]:
    """One failure line per failed operation of a batch pass."""
    failures = []
    for name, _latency, error in record["ops"]:
        if error is not None:
            failures.append(f"{name}: raised {error}")
            continue
        failures += check_artifact(name, record["observed"][name], expected[section].get(name))
    return failures


def check_serve_pass(record: Dict, expected: Dict) -> List[str]:
    """One failure line per request that was not answered with its label."""
    labels = expected["serve_labels"]
    failures = [f"{name}: raised {error}" for name, _latency, error in record["ops"] if error]
    answered = record["observed"].get("labels", [])
    failures += [
        f"request key {key}: label {label}, expected {labels[key]}"
        for key, label in answered
        if labels[key] != label
    ]
    unanswered = record["requests"] - len(answered)
    failures += [f"request unanswered ({index + 1} of {unanswered})" for index in range(unanswered)]
    return failures
