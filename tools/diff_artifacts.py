#!/usr/bin/env python
"""Check that two results directories hold identical artifacts.

Loads each artifact from both directories through
:func:`repro.store.load_artifact`, so every NPZ array is re-hashed and
checked against its manifest before anything is compared.  Two artifacts
match when their ``metrics`` and their array manifests (dtype, shape and
SHA-256 per array) are equal, and, when both documents carry ``cases``
(scenario artifacts do), when those are equal as canonical JSON.  The CI parity steps (chaos, elastic,
static-shard, engine and process-pool) all run this one check.

Usage::

    PYTHONPATH=src python tools/diff_artifacts.py A B [NAME ...]

Each ``NAME`` is an artifact file stem (``fig8``, ``scenario-<name>``,
``snapshot-<name>``); without names, every artifact in ``A`` is compared.
Exit code 1 lists every artifact that differs or fails to load.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from repro.store import StoredArtifact, classify_artifact_json, load_artifact


def artifact_names(directory: Path) -> List[str]:
    """Stems of every ``.json`` artifact in ``directory`` (broken ones too)."""
    return [
        path.stem
        for path in sorted(directory.glob("*.json"))
        if classify_artifact_json(path) != "other"
    ]


def _canonical(value) -> str:
    # JSON text compares NaN equal to NaN and floats bit for bit.
    return json.dumps(value, sort_keys=True)


def _array_entries(stored: StoredArtifact) -> Dict[str, str]:
    """``name -> "dtype shape sha256"``; load_artifact verified each entry."""
    return {
        name: f"{entry['dtype']} {entry['shape']} {entry['sha256']}"
        for name, entry in stored.document.get("arrays", {}).items()
    }


def diff_artifact(a: StoredArtifact, b: StoredArtifact) -> List[str]:
    """Every difference between two loaded artifacts (empty = identical)."""
    differences = []
    for key in sorted(a.metrics.keys() | b.metrics.keys()):
        if _canonical(a.metrics.get(key)) != _canonical(b.metrics.get(key)):
            differences.append(
                f"metric {key!r}: {a.metrics.get(key)!r} != {b.metrics.get(key)!r}"
            )
    a_arrays, b_arrays = _array_entries(a), _array_entries(b)
    for name in sorted(a_arrays.keys() | b_arrays.keys()):
        if a_arrays.get(name) != b_arrays.get(name):
            differences.append(
                f"array {name!r}: {a_arrays.get(name)} != {b_arrays.get(name)}"
            )
    if "cases" in a.document and "cases" in b.document:
        a_cases, b_cases = a.document["cases"], b.document["cases"]
        if _canonical(a_cases) != _canonical(b_cases):
            differences.append(_case_difference(a_cases, b_cases))
    return differences


def _case_difference(a_cases, b_cases) -> str:
    """The first differing case of two ``cases`` lists, as one line."""
    if isinstance(a_cases, list) and isinstance(b_cases, list) and len(a_cases) == len(b_cases):
        for index, (a, b) in enumerate(zip(a_cases, b_cases)):
            if _canonical(a) != _canonical(b):
                return f"case {index}: {_canonical(a)} != {_canonical(b)}"
    return f"cases: {_canonical(a_cases)} != {_canonical(b_cases)}"


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="reference results directory")
    parser.add_argument("b", type=Path, help="results directory to compare")
    parser.add_argument("names", nargs="*", help="artifact stems (default: all in A)")
    args = parser.parse_args(argv)

    names = args.names or artifact_names(args.a)
    if not names:
        print(f"no artifacts found in {args.a}", file=sys.stderr)
        return 1
    failures = []
    for name in names:
        try:
            a = load_artifact(args.a / f"{name}.json")
            b = load_artifact(args.b / f"{name}.json")
        except (OSError, ValueError) as error:
            failures.append(f"{name}: {error}")
            continue
        differences = diff_artifact(a, b)
        failures.extend(f"{name}: {line}" for line in differences)
        if not differences:
            print(f"{name}: identical ({len(a.arrays)} arrays, {len(a.metrics)} metrics)")
    if failures:
        print(f"{args.a} and {args.b} differ:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"{len(names)} artifact(s) identical in {args.a} and {args.b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
