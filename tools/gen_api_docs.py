#!/usr/bin/env python
"""Generate the markdown API reference for ``repro`` under ``docs/api/``.

Stdlib-only on purpose: the repository's runtime dependencies are NumPy
and SciPy, and the docs build must run in the same minimal environment as the
test suite (pdoc/sphinx would do this job too, but would be the only build
step needing an extra tool).  The generator imports every module under
``src/repro`` — an import error is a build error — and emits one markdown
page per module: the module docstring, then every public class (with its
public methods and properties) and public function with signatures and
docstrings.

``--check`` additionally enforces docstring coverage on the API-critical
modules (``repro.scenarios``, ``repro.exec``, ``repro.snn.batched``,
``repro.snn.snapshot``, ``repro.snn.serving``, the whole circuit tier
``repro.analog`` and ``repro.circuits``, and ``repro.store``):
any public function, class, method or property there without a docstring
fails the build.  The ``docs`` CI job runs
``python tools/gen_api_docs.py --out docs/api --check``.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py --out docs/api [--check]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: The package documented.
ROOT_PACKAGE = "repro"

#: Module prefixes whose public API must be fully docstring-covered.
COVERAGE_TARGETS = (
    "repro.scenarios",
    "repro.exec",
    "repro.snn.batched",
    "repro.snn.snapshot",
    "repro.snn.serving",
    "repro.analog",
    "repro.circuits",
    "repro.store",
)


def iter_module_names() -> List[str]:
    """Every importable module name under :data:`ROOT_PACKAGE`, sorted."""
    package = importlib.import_module(ROOT_PACKAGE)
    names = [ROOT_PACKAGE]
    for info in pkgutil.walk_packages(package.__path__, prefix=f"{ROOT_PACKAGE}."):
        names.append(info.name)
    return sorted(names)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _first_paragraph(doc: str) -> str:
    lines = []
    for line in (doc or "").strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def _own_members(cls) -> List[Tuple[str, object]]:
    """Public methods/properties defined on ``cls`` itself (not inherited)."""
    members = []
    for name, member in sorted(vars(cls).items()):
        if not _is_public(name):
            continue
        if isinstance(member, property):
            members.append((name, member))
        elif isinstance(member, (staticmethod, classmethod)):
            members.append((name, member.__func__))
        elif inspect.isfunction(member):
            members.append((name, member))
    return members


def document_module(name: str) -> Tuple[str, List[str]]:
    """Render one module's markdown page; returns (text, missing_docstrings).

    ``missing_docstrings`` lists the fully-qualified public names without a
    docstring, for the coverage check.
    """
    module = importlib.import_module(name)
    missing: List[str] = []
    lines: List[str] = [f"# `{name}`", ""]
    doc = inspect.getdoc(module)
    if doc:
        lines += [doc, ""]
    else:
        missing.append(name)

    classes = []
    functions = []
    for attr_name, member in sorted(vars(module).items()):
        if not _is_public(attr_name):
            continue
        if inspect.isclass(member) and member.__module__ == name:
            classes.append((attr_name, member))
        elif inspect.isfunction(member) and member.__module__ == name:
            functions.append((attr_name, member))

    if classes:
        lines += ["## Classes", ""]
        for class_name, cls in classes:
            lines.append(f"### `{class_name}{_signature(cls)}`")
            lines.append("")
            class_doc = inspect.getdoc(cls)
            if class_doc:
                lines += [class_doc, ""]
            else:
                missing.append(f"{name}.{class_name}")
            for member_name, member in _own_members(cls):
                if isinstance(member, property):
                    lines.append(f"- **`{member_name}`** *(property)*")
                    member_doc = inspect.getdoc(member.fget) if member.fget else None
                else:
                    lines.append(f"- **`{member_name}{_signature(member)}`**")
                    member_doc = inspect.getdoc(member)
                if member_doc:
                    lines.append(f"  — {_first_paragraph(member_doc)}")
                else:
                    missing.append(f"{name}.{class_name}.{member_name}")
            lines.append("")

    if functions:
        lines += ["## Functions", ""]
        for function_name, function in functions:
            lines.append(f"### `{function_name}{_signature(function)}`")
            lines.append("")
            function_doc = inspect.getdoc(function)
            if function_doc:
                lines += [function_doc, ""]
            else:
                missing.append(f"{name}.{function_name}")

    return "\n".join(lines).rstrip() + "\n", missing


def build(out_dir: Path) -> Dict[str, List[str]]:
    """Generate every page plus the index; returns name → missing docstrings."""
    out_dir.mkdir(parents=True, exist_ok=True)
    coverage: Dict[str, List[str]] = {}
    pages = []
    for name in iter_module_names():
        text, missing = document_module(name)
        coverage[name] = missing
        file_name = name.replace(".", "_") + ".md"
        (out_dir / file_name).write_text(text, encoding="utf-8")
        pages.append((name, file_name))

    index = ["# `repro` API reference", ""]
    index.append(
        "Generated by `tools/gen_api_docs.py` from the docstrings under "
        "`src/repro`. Regenerate with:"
    )
    index += [
        "",
        "```bash",
        "PYTHONPATH=src python tools/gen_api_docs.py --out docs/api",
        "```",
        "",
    ]
    for name, file_name in pages:
        module = importlib.import_module(name)
        summary = _first_paragraph(inspect.getdoc(module) or "")
        index.append(f"- [`{name}`]({file_name}) — {summary}")
    (out_dir / "index.md").write_text("\n".join(index) + "\n", encoding="utf-8")
    return coverage


def check_coverage(coverage: Dict[str, List[str]]) -> List[str]:
    """Missing docstrings inside the enforced targets (empty = pass)."""
    failures = []
    for name, missing in sorted(coverage.items()):
        if not any(
            name == target or name.startswith(target + ".")
            for target in COVERAGE_TARGETS
        ):
            continue
        failures.extend(missing)
    return failures


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="docs/api", metavar="DIR", help="output directory"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on public API without docstrings in the enforced modules",
    )
    args = parser.parse_args(argv)
    try:
        coverage = build(Path(args.out))
    except Exception as error:  # noqa: BLE001 - any import/render error fails the build
        print(f"docs build failed: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    n_pages = len(coverage) + 1
    print(f"wrote {n_pages} pages to {args.out}")
    if args.check:
        failures = check_coverage(coverage)
        if failures:
            print(
                f"{len(failures)} public API member(s) missing docstrings:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("docstring coverage OK for " + ", ".join(COVERAGE_TARGETS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
