"""Record the expected outputs of the workloads for one or more seeds.

Usage, from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record.py --seed 7 --seed 11

Runs ``reproduce`` and ``campaign`` once each and exports the serving
snapshot, then writes ``perfbench/expected/seed-<n>.json`` (see
``oracle.py`` for what is compared and how).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from run import Checkout  # noqa: E402


def _pass(checkout: Checkout, workload: str, seed: int) -> dict:
    out = checkout.state / "record" / f"{workload}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    record = checkout.run_pass(workload, seed, ["--out", str(out)], f"record-{workload}-{seed}")
    errors = [f"{name}: {error}" for name, _latency, error in record["ops"] if error]
    if errors:
        raise RuntimeError(f"{workload} seed {seed} failed: {'; '.join(errors)}")
    shutil.rmtree(out, ignore_errors=True)
    return record["observed"]


def record_seed(checkout: Checkout, seed: int) -> dict:
    figures = {}
    for name, entry in _pass(checkout, "reproduce", seed).items():
        if entry["tier"] == "circuit":
            figures[name] = {"tier": "circuit", "metrics": entry["metrics"]}
        else:
            figures[name] = {"tier": "snn", "arrays": entry["arrays"]}
    scenarios = {
        name: {"arrays": entry["arrays"]}
        for name, entry in _pass(checkout, "campaign", seed).items()
    }
    out = checkout.state / "record" / f"snapshot-{seed}"
    labels_path = checkout.state / "record" / f"labels-{seed}.json"
    shutil.rmtree(out, ignore_errors=True)
    status = checkout.worker(
        ["export-snapshot", "--seed", str(seed), "--out", str(out), "--result", str(labels_path)],
        checkout.state / "logs" / f"record-snapshot-{seed}.log",
    )
    if status["returncode"] != 0:
        raise RuntimeError(f"snapshot export for seed {seed} failed")
    labels = json.loads(labels_path.read_text())["labels"]
    shutil.rmtree(checkout.state / "record", ignore_errors=True)
    return {
        "seed": seed,
        "figures": figures,
        "scenarios": scenarios,
        "serve_labels": labels,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record expected workload outputs.")
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    checkout = Checkout(Path.cwd())
    checkout.deadline = time.monotonic() + 3600
    for seed in args.seed:
        expected = record_seed(checkout, seed)
        path = oracle.expected_path(seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
