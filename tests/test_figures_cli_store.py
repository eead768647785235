"""Tests for the figure registry, the ``python -m repro`` CLI and the store.

Covers the ISSUE 2 acceptance criteria: ``repro list`` output, running one
registered figure at tiny scale, JSON/NPZ artifact round-trips (load ==
saved), and cache-resume (a second run against the same results directory
completes from executor cache hits with bit-identical numbers).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.exec.executor import SweepExecutor
from repro.figures import (
    FigureResult,
    FigureTable,
    figure_names,
    get_figure,
    iter_figures,
)
from repro.scenarios import ScenarioResult, get_scenario
from repro.snn.snapshot import NetworkSnapshot, save_snapshot
from repro.store import (
    SCHEMA_VERSION,
    PersistentResultCache,
    is_figure_artifact,
    load_figure_result,
    save_figure_result,
    save_scenario_result,
)

EXPECTED_FIGURES = {
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7b",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig10a",
    "fig10c",
    "residuals",
    "overheads",
    "summary",
}


class TestRegistry:
    def test_every_paper_figure_is_registered(self):
        assert EXPECTED_FIGURES == set(figure_names())

    def test_specs_carry_metadata(self):
        for spec in iter_figures():
            assert spec.title and spec.description
            assert spec.tags
            for claim in spec.claims:
                assert claim.metric

    def test_unknown_figure_lists_the_valid_names(self):
        with pytest.raises(KeyError, match="fig8"):
            get_figure("fig999")

    def test_pipeline_figures_are_flagged(self):
        assert get_figure("fig8").uses_pipeline
        assert not get_figure("fig3").uses_pipeline

    def test_exactly_the_pipeline_figures_declare_attacks(self):
        for spec in iter_figures():
            assert spec.uses_pipeline == (spec.attacks is not None), spec.name
        assert {spec.name for spec in iter_figures() if spec.uses_pipeline} == {
            "fig7b",
            "fig8",
            "fig9a",
            "fig9c",
            "summary",
        }


class TestScalePresets:
    def test_presets_cover_every_scale(self):
        assert set(ExperimentConfig.presets()) == {
            "paper",
            "benchmark",
            "smoke",
            "tiny",
        }

    def test_from_scale_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="tiny"):
            ExperimentConfig.from_scale("enormous")

    def test_from_environment_accepts_tiny(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert ExperimentConfig.from_environment().scale_name == "tiny"

    def test_from_environment_error_names_the_valid_scales(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError, match="benchmark"):
            ExperimentConfig.from_environment()


class TestCLIList:
    def test_list_names_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_FIGURES:
            assert name in out

    def test_run_rejects_unknown_figures(self):
        with pytest.raises(SystemExit, match="fig999"):
            main(["run", "fig999"])

    def test_run_without_figures_requires_all(self):
        with pytest.raises(SystemExit, match="--all"):
            main(["run"])


class TestStoreRoundTrip:
    def _synthetic_result(self) -> FigureResult:
        return FigureResult(
            figure="synthetic",
            metrics={"accuracy": 0.12345678901234567, "spikes": 42.0},
            arrays={
                "grid": np.arange(6, dtype=float).reshape(2, 3),
                "flags": np.array([True, False]),
            },
            tables=[
                FigureTable(title="t", headers=["a", "b"], rows=[["1", "2"]])
            ],
            wall_seconds=1.25,
            execution={"tasks_executed": 3, "cache_hits": 1},
        )

    def test_json_npz_round_trip(self, tmp_path):
        spec = get_figure("overheads")
        result = self._synthetic_result()
        config = ExperimentConfig.tiny()
        paths = save_figure_result(
            spec, result, tmp_path, config=config, git_sha="abc123"
        )
        assert paths.json_path.exists() and paths.npz_path.exists()

        stored = load_figure_result(paths.json_path)
        assert stored.document["schema_version"] == SCHEMA_VERSION
        assert stored.figure == "overheads"
        assert stored.metrics == result.metrics
        for name, array in result.arrays.items():
            assert np.array_equal(stored.arrays[name], array)
        provenance = stored.provenance
        assert provenance["git_sha"] == "abc123"
        assert provenance["scale"] == "tiny"
        assert provenance["seed"] == config.seed
        assert provenance["config"]["n_train"] == config.n_train
        assert provenance["executor_tasks"] == 3
        assert provenance["executor_cache_hits"] == 1

    def test_provenance_layout_is_pinned_for_every_artifact_kind(self, tmp_path):
        # Figure, scenario and snapshot artifacts share one provenance
        # layout; `repro report` and stored artifacts depend on these keys.
        config = ExperimentConfig.tiny()
        scenario = get_scenario("separate_domain_droop")
        snapshot = NetworkSnapshot(
            model={"kind": "variant", "name": "lif_feedforward_postpre"},
            score_layer="readout",
            arrays={},
            encoding={"time_steps": 40, "max_rate": 63.75},
            seed=0,
        )
        paths = [
            save_figure_result(
                get_figure("overheads"), self._synthetic_result(), tmp_path,
                config=config, git_sha="abc",
            ),
            save_scenario_result(
                scenario, ScenarioResult(worker="w0"), tmp_path,
                config=config, git_sha="abc",
            ),
            save_snapshot(snapshot, tmp_path, name="bare", git_sha="abc"),
        ]
        for path in paths:
            provenance = json.loads(path.json_path.read_text())["provenance"]
            assert set(provenance) == {
                "config", "seed", "scale", "git_sha", "created_at_unix",
                "wall_seconds", "workers", "executor_tasks",
                "executor_cache_hits", "resilience", "elastic", "versions",
            }
            assert set(provenance["resilience"]) == {
                "retries", "timeouts", "requeues", "pool_rebuilds",
                "cache_quarantined",
            }
            assert set(provenance["elastic"]) == {
                "worker", "leases_claimed", "leases_stolen", "leases_expired",
                "duplicate_wins", "peers_joined", "peers_lost",
            }

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "figure": "x"})
        )
        with pytest.raises(ValueError, match="schema"):
            load_figure_result(path)

    def test_corrupt_array_is_rejected(self, tmp_path):
        spec = get_figure("overheads")
        paths = save_figure_result(
            spec,
            self._synthetic_result(),
            tmp_path,
            config=ExperimentConfig.tiny(),
            git_sha="abc",
        )
        np.savez(
            paths.npz_path,
            grid=np.zeros((2, 3)),
            flags=np.array([True, False]),
        )
        with pytest.raises(ValueError, match="digest"):
            load_figure_result(paths.json_path)

    def test_is_figure_artifact(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"schema_version": 1, "figure": "fig3"}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"results": {}}))
        assert is_figure_artifact(good)
        assert not is_figure_artifact(bad)
        assert not is_figure_artifact(tmp_path / "missing.json")


class TestPersistentResultCache:
    def test_results_survive_a_new_cache_instance(self, tmp_path):
        path = tmp_path / "cache.json"
        original = ExperimentResult(
            attack_label="attack5[vdd=0.8]",
            accuracy=0.1234567890123,
            baseline_accuracy=0.76,
            mean_excitatory_spikes=12.5,
            fault_descriptions=["theta x0.68"],
            scale_name="tiny",
        )
        cache = PersistentResultCache(path)
        cache.put("scope::attack5", original)

        reloaded = PersistentResultCache(path)
        assert reloaded.peek("scope::attack5") == original

    def test_newer_cache_schema_is_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "results": {}})
        )
        with pytest.raises(ValueError, match="schema"):
            PersistentResultCache(path)

    def test_entries_with_drifted_fields_become_cache_misses(self, tmp_path):
        path = tmp_path / "cache.json"
        good = {"attack_label": "a", "accuracy": 0.5}
        drifted = {"attack_label": "b", "accuracy": 0.5, "no_such_field": 1}
        path.write_text(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "results": {"k1": good, "k2": drifted},
                }
            )
        )
        cache = PersistentResultCache(path)
        assert cache.peek("k1") is not None
        assert cache.peek("k2") is None

    def test_executor_serves_hits_from_a_reloaded_cache(self, tmp_path):
        config = ExperimentConfig.tiny()
        path = tmp_path / "cache.json"

        first = SweepExecutor(
            _pipeline_for(config), cache=PersistentResultCache(path)
        )
        baseline = first.run_baseline()
        assert first.stats.tasks_executed == 1

        second = SweepExecutor(
            _pipeline_for(config), cache=PersistentResultCache(path)
        )
        resumed = second.run_baseline()
        assert second.stats.tasks_executed == 0
        assert second.stats.cache_hits == 1
        assert resumed == baseline


def _pipeline_for(config):
    from repro.core import ClassificationPipeline

    return ClassificationPipeline(config)


class TestCLIRunAndResume:
    @pytest.fixture()
    def artifact_dir(self, tmp_path):
        out = tmp_path / "results"
        rc = main(
            ["run", "fig9a", "--scale", "tiny", "--out", str(out), "--quiet"]
        )
        assert rc == 0
        return out

    def test_run_writes_schema_versioned_artifacts(self, artifact_dir):
        stored = load_figure_result(artifact_dir / "fig9a.json")
        assert stored.document["schema_version"] == SCHEMA_VERSION
        assert stored.figure == "fig9a"
        provenance = stored.provenance
        assert provenance["scale"] == "tiny"
        assert provenance["seed"] == ExperimentConfig.tiny().seed
        assert provenance["git_sha"]
        assert provenance["versions"]["numpy"] == np.__version__
        # The first run trains every grid point itself.
        assert provenance["executor_tasks"] > 0
        assert (artifact_dir / "fig9a.npz").exists()
        assert np.array_equal(
            stored.arrays["vdd_V"], np.array([0.8, 1.0, 1.2])
        )

    def test_rerun_resumes_from_cache_bit_identically(self, artifact_dir, capsys):
        first = load_figure_result(artifact_dir / "fig9a.json")
        rc = main(
            [
                "run",
                "fig9a",
                "--scale",
                "tiny",
                "--out",
                str(artifact_dir),
                "--quiet",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        second = load_figure_result(artifact_dir / "fig9a.json")
        # Resumed entirely from the persistent cache...
        assert second.provenance["executor_tasks"] == 0
        assert second.provenance["executor_cache_hits"] > 0
        # ...with bit-identical numbers.
        assert second.metrics == first.metrics
        for name, array in first.arrays.items():
            assert np.array_equal(second.arrays[name], array)

    def test_run_plans_only_the_named_figures_attacks(self, tmp_path, monkeypatch):
        from repro.core import ClassificationPipeline
        from repro.exec import attack_cache_key
        from repro.figures import FigureContext

        batches = []
        run_batch = ClassificationPipeline.run_batch

        def spy(pipeline, attacks):
            batches.append({attack_cache_key(attack) for attack in attacks})
            return run_batch(pipeline, attacks)

        monkeypatch.setattr(ClassificationPipeline, "run_batch", spy)
        out = tmp_path / "results"
        assert main(["run", "fig9a", "--scale", "tiny", "--out", str(out), "--quiet"]) == 0
        context = FigureContext(ExperimentConfig.tiny())
        expected = {attack_cache_key(None)} | {
            attack_cache_key(attack) for attack in get_figure("fig9a").attacks(context)
        }
        assert batches == [expected]
        stored = load_figure_result(out / "fig9a.json")
        assert stored.provenance["executor_tasks"] == len(expected)

    def test_report_renders_the_paper_comparison(self, artifact_dir, capsys):
        assert main(["report", str(artifact_dir)]) == 0
        out = capsys.readouterr().out
        assert "fig9a" in out
        assert "paper" in out
        assert "0.8493" in out

    def test_report_rejects_directories_without_artifacts(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "no figure artifacts" in capsys.readouterr().err


class TestReportExitCodes:
    """Regression: ``repro report`` must fail on missing/corrupt artifacts.

    It used to print a partial table and exit 0, so CI never noticed a
    half-written results directory.
    """

    def _write_artifact(self, out_dir) -> None:
        spec = get_figure("overheads")
        result = FigureResult(
            figure="overheads",
            metrics={"x": 1.0},
            arrays={"grid": np.arange(4, dtype=float)},
            tables=[FigureTable(title="t", headers=["a"], rows=[["1"]])],
        )
        save_figure_result(
            spec, result, out_dir, config=ExperimentConfig.tiny(), git_sha="abc"
        )

    def test_corrupt_array_digest_fails_the_report(self, tmp_path, capsys):
        self._write_artifact(tmp_path)
        np.savez(tmp_path / "overheads.npz", grid=np.zeros(4))
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "failed to load" in err
        assert "digest" in err

    def test_missing_npz_fails_the_report(self, tmp_path, capsys):
        self._write_artifact(tmp_path)
        (tmp_path / "overheads.npz").unlink()
        assert main(["report", str(tmp_path)]) == 1
        assert "failed to load" in capsys.readouterr().err

    def test_newer_schema_fails_the_report(self, tmp_path, capsys):
        self._write_artifact(tmp_path)
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {"schema_version": SCHEMA_VERSION + 1, "figure": "x", "arrays": {}}
            )
        )
        assert main(["report", str(tmp_path)]) == 1
        assert "schema" in capsys.readouterr().err

    def test_good_artifacts_still_render_before_the_failure_exit(
        self, tmp_path, capsys
    ):
        self._write_artifact(tmp_path)
        bad = tmp_path / "broken.json"
        bad.write_text(
            json.dumps(
                {"schema_version": SCHEMA_VERSION + 1, "figure": "bad", "arrays": {}}
            )
        )
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "overheads" in captured.out  # the intact artifact is reported
        assert "broken.json" in captured.err

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        self._write_artifact(tmp_path)
        assert main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_unparseable_json_fails_the_report(self, tmp_path, capsys):
        self._write_artifact(tmp_path)
        (tmp_path / "truncated.json").write_text('{"schema_version": 1, "figu')
        assert main(["report", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unrelated_json_is_still_skipped_silently(self, tmp_path, capsys):
        self._write_artifact(tmp_path)
        (tmp_path / "notes.json").write_text(json.dumps({"scratch": True}))
        assert main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
