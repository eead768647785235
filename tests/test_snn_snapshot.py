"""Bitwise serving-parity suite: snapshots, scoring engine, CLI integration.

The serving tier's contract is that train → save → load → score is
bit-identical to scoring with the in-memory network it was captured from —
across every registered model variant, both engines (scalar/batched) and
clean-vs-fault-injected scoring.  The suite also pins the persistence
discipline (digest verification, newer-schema refusal, loud errors on
tampered or missing arrays) and the ``python -m repro snapshot`` /
``repro report`` command surface.
"""

import json

import numpy as np
import pytest

from repro.attacks.attacks import (
    Attack2ExcitatoryThreshold,
    Attack4BothLayerThreshold,
)
from repro.cli import main
from repro.core import ClassificationPipeline, ExperimentConfig
from repro.figures import fig8_accuracy_from_snapshot
from repro.snn import MODEL_VARIANTS, InputNodes, LIFNodes
from repro.snn.serving import ScoringEngine
from repro.snn.snapshot import (
    ASSIGNMENTS_KEY,
    NetworkSnapshot,
    SnapshotError,
    capture_network_state,
    capture_snapshot,
    hydrate_network,
    load_snapshot,
    prediction_digest,
    save_snapshot,
    snapshot_from_pipeline,
)
from repro.store import classify_artifact_json, load_artifact

TIME_STEPS = 40
MAX_RATE = 63.75


def input_layer_name(network):
    for name, nodes in network.layers.items():
        if isinstance(nodes, InputNodes):
            return name
    raise AssertionError("model has no input layer")


def make_rasters(network, count, time_steps=TIME_STEPS, seed=11):
    rng = np.random.default_rng(seed)
    n = network.layers[input_layer_name(network)].n
    return np.stack([rng.random((time_steps, n)) < 0.25 for _ in range(count)])


def train_variant(name, seed=5, presentations=4, corrupt=False):
    """A briefly-trained (and optionally fault-corrupted) variant network."""
    network = MODEL_VARIANTS[name](seed)
    input_name = input_layer_name(network)
    for raster in make_rasters(network, presentations, seed=seed + 1):
        network.set_learning(True)
        for connection in network.connections.values():
            connection.normalize()
        network.reset_monitors()
        network.reset_state_variables()
        network.run({input_name: raster})
    if corrupt:
        # The shape of an injected fault: persistent per-neuron threshold
        # and gain corruption that the snapshot must round-trip exactly.
        for nodes in network.layers.values():
            if isinstance(nodes, LIFNodes):
                nodes.threshold_scale[::2] = 0.8
                nodes.input_gain[:] = 1.1
                break
    return network


def reference_counts(network, rasters):
    """Scalar-engine spike counts of the in-memory network (the oracle)."""
    input_name = input_layer_name(network)
    monitor = next(iter(network.monitors.values()))
    network.set_learning(False)
    counts = []
    for raster in rasters:
        network.reset_monitors()
        network.reset_state_variables()
        network.run({input_name: raster})
        counts.append(monitor.spike_counts())
    return np.asarray(counts)


# ---------------------------------------------------------------------------
# Per-variant parity: every registered model, both engines, clean + faulted.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("name", sorted(MODEL_VARIANTS))
def test_saved_snapshot_scores_bit_identical_to_live_network(
    name, corrupt, tmp_path
):
    network = train_variant(name, corrupt=corrupt)
    rasters = make_rasters(network, 5, seed=23)
    expected = reference_counts(network, rasters)

    snapshot = capture_snapshot(
        network,
        seed=5,
        time_steps=TIME_STEPS,
        max_rate=MAX_RATE,
        model={"kind": "variant", "name": name},
    )
    paths = save_snapshot(snapshot, tmp_path, name=f"variant-{name}")
    loaded = load_snapshot(paths.json_path)

    for engine in ("scalar", "batched"):
        result = ScoringEngine(loaded, engine=engine).score_rasters(rasters)
        assert np.array_equal(result.spike_counts, expected), (
            f"{name}/{engine}: served spike counts diverge from the live network"
        )
        # Without label assignments every prediction is the -1 sentinel.
        assert np.all(result.labels == -1)


@pytest.mark.parametrize("name", sorted(MODEL_VARIANTS))
def test_hydrated_state_matches_captured_state(name):
    network = train_variant(name, corrupt=True)
    snapshot = capture_snapshot(
        network,
        seed=5,
        time_steps=TIME_STEPS,
        max_rate=MAX_RATE,
        model={"kind": "variant", "name": name},
    )
    hydrated = hydrate_network(snapshot)
    for key, value in capture_network_state(hydrated).items():
        assert np.array_equal(value, snapshot.arrays[key]), key


# ---------------------------------------------------------------------------
# Pipeline round-trip: fig-8 accuracy from a snapshot, no retraining.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_pipeline():
    return ClassificationPipeline(ExperimentConfig.tiny())


@pytest.fixture(scope="module")
def tiny_snapshot_paths(tiny_pipeline, tmp_path_factory):
    snapshot = snapshot_from_pipeline(tiny_pipeline)
    out_dir = tmp_path_factory.mktemp("snapshots")
    return save_snapshot(snapshot, out_dir, name="tiny"), snapshot


class TestPipelineRoundTrip:
    def test_snapshot_metrics_match_live_run(self, tiny_pipeline, tiny_snapshot_paths):
        _, snapshot = tiny_snapshot_paths
        live = tiny_pipeline.run_baseline()
        assert snapshot.metrics["accuracy"] == live.accuracy
        assert (
            snapshot.metrics["mean_excitatory_spikes"] == live.mean_excitatory_spikes
        )

    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_served_evaluation_is_bit_identical(self, tiny_snapshot_paths, engine):
        paths, snapshot = tiny_snapshot_paths
        loaded = load_snapshot(paths.json_path)
        evaluation = ScoringEngine(loaded, engine=engine).evaluate()
        assert evaluation.accuracy == snapshot.metrics["accuracy"]
        assert evaluation.mean_spikes == snapshot.metrics["mean_excitatory_spikes"]
        assert (
            evaluation.predictions_sha256
            == snapshot.metrics["eval_predictions_sha256"]
        )

    def test_score_reproduces_pipeline_eval_counts(
        self, tiny_pipeline, tiny_snapshot_paths
    ):
        paths, _ = tiny_snapshot_paths
        engine = ScoringEngine(load_snapshot(paths.json_path))
        network, assignments, _rates = tiny_pipeline.trained_network()
        counts = tiny_pipeline.record_responses(network, stream="eval")
        result = engine.score(tiny_pipeline.eval_images, stream="eval")
        assert np.array_equal(result.spike_counts, counts)
        assert np.array_equal(engine.snapshot.arrays[ASSIGNMENTS_KEY], assignments)

    def test_fig8_helper_reports_parity(self, tiny_snapshot_paths):
        paths, snapshot = tiny_snapshot_paths
        report = fig8_accuracy_from_snapshot(paths.json_path)
        assert report["parity"] is True
        assert report["accuracy"] == snapshot.metrics["accuracy"]
        assert (
            report["predictions_sha256"]
            == snapshot.metrics["eval_predictions_sha256"]
        )


class TestFaultInjectedServing:
    """Snapshot × attack composition matches the live pipeline's faults."""

    ATTACK = Attack2ExcitatoryThreshold(threshold_change=-0.2, fraction=0.5)

    def test_attack_trained_snapshot_serves_bit_identical(
        self, tiny_pipeline, tmp_path
    ):
        attack = Attack4BothLayerThreshold(threshold_change=-0.2)
        snapshot = snapshot_from_pipeline(tiny_pipeline, attack=attack)
        assert snapshot.metrics["attack"] == attack.label()
        paths = save_snapshot(snapshot, tmp_path, name="attacked")
        evaluation = ScoringEngine(load_snapshot(paths.json_path)).evaluate()
        assert evaluation.accuracy == snapshot.metrics["accuracy"]
        assert (
            evaluation.predictions_sha256
            == snapshot.metrics["eval_predictions_sha256"]
        )

    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_under_attack_matches_manual_injection(
        self, tiny_snapshot_paths, engine
    ):
        paths, _ = tiny_snapshot_paths
        loaded = load_snapshot(paths.json_path)
        attacked = ScoringEngine(loaded, engine=engine).under_attack(self.ATTACK)
        assert attacked.fault_records, "attack injected no faults"
        # The same (snapshot, attack) pair is a pure function: a second
        # composition corrupts the same fault sites and scores identically.
        again = ScoringEngine(loaded, engine=engine, attack=self.ATTACK)
        rasters = make_rasters(attacked.network, 4, seed=31)
        first = attacked.score_rasters(rasters)
        second = again.score_rasters(rasters)
        assert np.array_equal(first.spike_counts, second.spike_counts)
        assert np.array_equal(first.labels, second.labels)

    def test_attacked_scoring_diverges_from_clean(self, tiny_snapshot_paths):
        paths, _ = tiny_snapshot_paths
        loaded = load_snapshot(paths.json_path)
        clean = ScoringEngine(loaded)
        attacked = clean.under_attack(Attack4BothLayerThreshold(threshold_change=1.2))
        rasters = make_rasters(clean.network, 4, seed=37)
        assert not np.array_equal(
            clean.score_rasters(rasters).spike_counts,
            attacked.score_rasters(rasters).spike_counts,
        )


# ---------------------------------------------------------------------------
# Persistence discipline: digests, schema refusal, classification.
# ---------------------------------------------------------------------------


class TestPersistenceIntegrity:
    def test_document_is_classified_as_snapshot(self, tiny_snapshot_paths):
        paths, _ = tiny_snapshot_paths
        assert classify_artifact_json(paths.json_path) == "snapshot"

    def test_round_trip_preserves_every_array_bitwise(self, tiny_snapshot_paths):
        paths, snapshot = tiny_snapshot_paths
        loaded = load_snapshot(paths.json_path)
        assert set(loaded.arrays) == set(snapshot.arrays)
        for key, value in snapshot.arrays.items():
            assert np.array_equal(loaded.arrays[key], value), key
            assert loaded.arrays[key].dtype == value.dtype, key
        assert loaded.seed == snapshot.seed
        assert loaded.encoding == snapshot.encoding
        assert loaded.n_classes == snapshot.n_classes
        assert loaded.defenses == snapshot.defenses

    def test_tampered_array_is_rejected_loudly(self, tiny_snapshot_paths, tmp_path):
        paths, snapshot = tiny_snapshot_paths
        target = tmp_path / "snapshot-tampered.json"
        npz = tmp_path / "snapshot-tampered.npz"
        document = json.loads(paths.json_path.read_text())
        for entry in document["arrays"].values():
            entry["npz"] = npz.name
        target.write_text(json.dumps(document))
        arrays = dict(np.load(paths.npz_path))
        key = next(k for k in arrays if k.startswith("connection."))
        arrays[key] = arrays[key] + 1.0
        np.savez(npz, **arrays)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_snapshot(target)

    def test_newer_schema_is_refused(self, tiny_snapshot_paths, tmp_path):
        paths, _ = tiny_snapshot_paths
        document = json.loads(paths.json_path.read_text())
        document["schema_version"] = document["schema_version"] + 1
        target = tmp_path / "snapshot-future.json"
        target.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(target)

    def test_missing_npz_raises_oserror(self, tiny_snapshot_paths, tmp_path):
        paths, _ = tiny_snapshot_paths
        target = tmp_path / "snapshot-orphan.json"
        target.write_text(paths.json_path.read_text())
        with pytest.raises(OSError):
            load_snapshot(target)

    def test_document_without_model_is_a_snapshot_error(self, tiny_snapshot_paths, tmp_path):
        paths, _ = tiny_snapshot_paths
        document = json.loads(paths.json_path.read_text())
        del document["model"]
        target = tmp_path / "snapshot-modelless.json"
        target.write_text(json.dumps(document))
        (tmp_path / "snapshot-modelless.npz").write_bytes(paths.npz_path.read_bytes())
        with pytest.raises(SnapshotError, match="'model'"):
            load_snapshot(target)

    def test_provenance_records_engine_scale_and_seed(self, tiny_snapshot_paths):
        paths, snapshot = tiny_snapshot_paths
        stored = load_artifact(paths.json_path, kind="snapshot")
        assert stored.name == "tiny"
        assert stored.document["engine"] == snapshot.engine
        assert stored.provenance["scale"] == "tiny"
        assert stored.provenance["seed"] == snapshot.seed
        assert "git_sha" in stored.provenance


class TestHydrationErrors:
    def _bare_snapshot(self, **overrides):
        fields = dict(
            model={"kind": "variant", "name": "lif_feedforward_postpre"},
            score_layer="readout",
            arrays={},
            encoding={"time_steps": TIME_STEPS, "max_rate": MAX_RATE},
            seed=0,
        )
        fields.update(overrides)
        return NetworkSnapshot(**fields)

    def test_unknown_variant_name(self):
        snapshot = self._bare_snapshot(model={"kind": "variant", "name": "nope"})
        with pytest.raises(SnapshotError, match="unknown model variant"):
            hydrate_network(snapshot)

    def test_unknown_model_kind(self):
        snapshot = self._bare_snapshot(model={"kind": "mystery"})
        with pytest.raises(SnapshotError, match="model kind"):
            hydrate_network(snapshot)

    def test_shape_mismatch_is_rejected(self):
        snapshot = self._bare_snapshot(
            arrays={"layer.readout.input_gain": np.ones(3)}
        )
        with pytest.raises(SnapshotError, match="shape"):
            hydrate_network(snapshot)

    def test_unmapped_array_key_is_rejected(self):
        snapshot = self._bare_snapshot(arrays={"mystery.blob": np.ones(4)})
        with pytest.raises(SnapshotError, match="unrecognised"):
            hydrate_network(snapshot)

    def test_evaluate_without_config_is_rejected(self):
        network = train_variant("lif_feedforward_postpre")
        snapshot = capture_snapshot(
            network,
            seed=5,
            time_steps=TIME_STEPS,
            max_rate=MAX_RATE,
            model={"kind": "variant", "name": "lif_feedforward_postpre"},
        )
        with pytest.raises(SnapshotError, match="config"):
            ScoringEngine(snapshot).evaluate()


# ---------------------------------------------------------------------------
# CLI surface: snapshot export/info/--rescore and the report listing.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_export_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli_snapshots")
    code = main(
        [
            "snapshot",
            "export",
            "--scale",
            "tiny",
            "--out",
            str(out_dir),
            "--name",
            "fig8",
            "--quiet",
        ]
    )
    assert code == 0
    return out_dir


class TestSnapshotCli:
    def test_export_writes_a_verified_artifact(self, cli_export_dir):
        json_path = cli_export_dir / "snapshot-fig8.json"
        assert json_path.exists()
        assert (cli_export_dir / "snapshot-fig8.npz").exists()
        assert classify_artifact_json(json_path) == "snapshot"
        load_snapshot(json_path)  # digest-verified

    def test_info_rescore_proves_cross_engine_parity(self, cli_export_dir, capsys):
        json_path = cli_export_dir / "snapshot-fig8.json"
        for engine in ("batched", "scalar"):
            code = main(
                ["snapshot", "info", str(json_path), "--rescore", "--engine", engine]
            )
            assert code == 0, f"--rescore failed on the {engine} engine"
        out = capsys.readouterr().out
        assert "serving parity" in out

    def test_report_lists_snapshot_with_provenance(self, cli_export_dir, capsys):
        assert main(["report", str(cli_export_dir)]) == 0
        out = capsys.readouterr().out
        assert "Serving snapshots" in out
        assert "snapshot-fig8.json" in out
        assert "tiny" in out

    def test_report_fails_on_corrupt_snapshot_npz(self, cli_export_dir, tmp_path, capsys):
        json_path = tmp_path / "snapshot-broken.json"
        json_path.write_text((cli_export_dir / "snapshot-fig8.json").read_text())
        arrays = dict(np.load(cli_export_dir / "snapshot-fig8.npz"))
        key = next(iter(arrays))
        arrays[key] = arrays[key] + 1.0
        np.savez(tmp_path / "snapshot-broken.npz", **arrays)
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "failed to load" in err
        assert "digest mismatch" in err

    def test_report_fails_on_missing_snapshot_npz(self, cli_export_dir, tmp_path, capsys):
        json_path = tmp_path / "snapshot-orphan.json"
        json_path.write_text((cli_export_dir / "snapshot-fig8.json").read_text())
        assert main(["report", str(tmp_path)]) == 1

    def test_info_rescore_detects_tampered_metrics(self, cli_export_dir, tmp_path, capsys):
        source = json.loads((cli_export_dir / "snapshot-fig8.json").read_text())
        source["metrics"]["eval_predictions_sha256"] = "0" * 64
        source["metrics"]["accuracy"] = 0.999
        for entry in source["arrays"].values():
            entry["npz"] = "snapshot-fig8.npz"
        (tmp_path / "snapshot-fig8.json").write_text(json.dumps(source))
        (tmp_path / "snapshot-fig8.npz").write_bytes(
            (cli_export_dir / "snapshot-fig8.npz").read_bytes()
        )
        assert (
            main(["snapshot", "info", str(tmp_path / "snapshot-fig8.json"), "--rescore"])
            == 1
        )
        assert "diverge" in capsys.readouterr().err


def test_prediction_digest_is_dtype_canonical():
    a = prediction_digest(np.array([1, 2, 3], dtype=np.int32))
    b = prediction_digest(np.array([1, 2, 3], dtype=np.int64))
    c = prediction_digest([1, 2, 3])
    assert a == b == c
    assert prediction_digest([3, 2, 1]) != a
