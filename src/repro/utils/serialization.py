"""JSON-friendly serialisation of experiment results.

Results produced by the attack pipeline mix NumPy scalars/arrays with plain
Python containers and small dataclasses.  :func:`to_jsonable` converts such a
structure into pure built-in types so it can be dumped with :mod:`json`.
:func:`atomic_write_json` / :func:`atomic_write_npz` are the one crash-safe
writer every results file, cache and lease goes through.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable built-ins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialise object of type {type(obj).__name__}")


def _temp_path(path: Path) -> Path:
    """This process's private ``<name>.<pid>.tmp`` sibling of ``path``.

    One temp name per process lets concurrent writers of the same target
    (elastic workers all merging one scenario artifact) race only on the
    final ``os.replace``, never on each other's half-written temp file.
    """
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def atomic_write_json(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON via temp file + fsync + rename.

    ``os.replace`` within one directory is atomic on POSIX, so readers see
    either the previous complete file or the new complete file — never a
    torn write, even when the process is killed mid-``json.dump`` or
    several processes write the same path at once.
    """
    tmp_path = _temp_path(path)
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def atomic_write_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write an NPZ bundle via temp file + fsync + rename (see above)."""
    tmp_path = _temp_path(path)
    with open(tmp_path, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
