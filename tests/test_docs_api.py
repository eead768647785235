"""The generated API reference and the docs link checker stay healthy.

Runs ``tools/gen_api_docs.py`` (build + docstring-coverage check, the same
invocation as the ``docs`` CI job) into a temp directory and asserts the
key pages exist, then runs ``tools/check_links.py`` over the committed
markdown.  A public function added to ``scenarios/``/``exec/``/
``snn/batched.py``/``analog/``/``circuits/`` without a docstring fails
here before it fails in CI.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run(args, **kwargs):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )


class TestApiDocsBuild:
    def test_build_and_docstring_coverage(self, tmp_path):
        out = tmp_path / "api"
        proc = _run(["tools/gen_api_docs.py", "--out", str(out), "--check"])
        assert proc.returncode == 0, proc.stderr
        assert (out / "index.md").exists()
        # One page per module, including the new subsystem's.
        for page in (
            "repro_scenarios_spec.md",
            "repro_scenarios_runner.md",
            "repro_exec_shard.md",
            "repro_snn_batched.md",
            "repro_snn_snapshot.md",
            "repro_snn_serving.md",
            "repro_exec_microbatch.md",
            "repro_analog_compiled.md",
        ):
            assert (out / page).exists(), f"missing API page {page}"
        spec_page = (out / "repro_scenarios_spec.md").read_text()
        assert "ScenarioSpec" in spec_page
        index = (out / "index.md").read_text()
        assert "repro.scenarios" in index

    def test_coverage_check_catches_missing_docstrings(self, tmp_path):
        # Sanity-check the checker itself against a synthetic module.
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import gen_api_docs

            coverage = {"repro.scenarios.fake": ["repro.scenarios.fake.f"]}
            assert gen_api_docs.check_coverage(coverage) == ["repro.scenarios.fake.f"]
            assert gen_api_docs.check_coverage({"repro.figures": ["repro.figures.x"]}) == []
        finally:
            sys.path.remove(str(REPO_ROOT / "tools"))


class TestDocsLinks:
    def test_committed_markdown_has_no_broken_relative_links(self):
        proc = _run(["tools/check_links.py", "README.md", "docs"])
        assert proc.returncode == 0, proc.stderr

    def test_checker_flags_broken_links(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [other](missing.md)")
        proc = _run(["tools/check_links.py", str(page)])
        assert proc.returncode == 1
        assert "missing.md" in proc.stderr
