"""Trained-network snapshots: the persistence layer of the serving tier.

A snapshot freezes everything needed to score new examples *without
retraining*: the trained weights and adaptive thresholds, the model's
identity (so the topology can be rebuilt from code), the Poisson-encoding
parameters, the label assignments of the excitatory neurons, the residual
defense calibration and the experiment seed.  It deliberately excludes
per-presentation transients (membrane potentials, refractory counters,
traces) — those reset between examples, so a hydrated network scores
bit-identically to the live one it was captured from.

Snapshots persist through :mod:`repro.store` with the same discipline as
figure and scenario artifacts: one schema-versioned JSON document plus one
NPZ bundle, per-array SHA-256 digests, full provenance, atomic writes.
:func:`save_snapshot` / :func:`load_snapshot` round-trip a
:class:`NetworkSnapshot`; the ``python -m repro snapshot export|info`` CLI
wraps them.

Lifecycle::

    ClassificationPipeline.trained_network()      (train once)
        -> snapshot_from_pipeline(pipeline)       (capture state + labels)
        -> save_snapshot(snapshot, out_dir)       (JSON+NPZ artifact)
        ...
    load_snapshot(path)                           (digest-verified)
        -> ScoringEngine(snapshot)                (repro.snn.serving)
        -> engine.score(images) / engine.under_attack(attack)

Cross-package imports (store, config, defenses) are deferred into function
bodies: this module is imported by ``repro.snn.__init__``, which loads
before ``repro.core`` and ``repro.store`` during package initialisation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.snn.models import MODEL_VARIANTS, DiehlAndCook2015, DiehlAndCookParameters
from repro.snn.network import Network
from repro.snn.nodes import AdaptiveLIFNodes, LIFNodes

#: Array-key prefixes holding rebuildable network state (vs label metadata).
_LAYER_PREFIX = "layer."
_CONNECTION_PREFIX = "connection."

#: Array keys holding the classifier's label metadata.
ASSIGNMENTS_KEY = "labels.assignments"
CLASS_RATES_KEY = "labels.class_rates"


class SnapshotError(ValueError):
    """A snapshot cannot be captured or hydrated.

    Raised for unknown model identities, shape mismatches between a
    snapshot's arrays and the rebuilt topology, and state arrays that do
    not map onto any layer or connection — every case where silently
    proceeding could serve wrong predictions.
    """


@dataclass
class NetworkSnapshot:
    """A trained network frozen for inference-only scoring.

    Attributes
    ----------
    model:
        Identity of the architecture, either
        ``{"kind": "diehl_cook", "parameters": {...}}`` (rebuilt from
        :class:`~repro.snn.models.DiehlAndCookParameters`) or
        ``{"kind": "variant", "name": <MODEL_VARIANTS key>}``.
    score_layer:
        Layer whose spike counts are the classification feature.
    arrays:
        Flat mapping of state arrays: ``layer.<name>.<variable>`` and
        ``connection.<src>-><dst>.w`` keys hold network state; the
        ``labels.*`` keys hold the neuron-to-class assignments.
    encoding:
        Poisson-encoding parameters: ``{"time_steps", "max_rate"}``.
    seed:
        The experiment's master seed — encoding streams and fault-site
        selection derive from it exactly as in the live pipeline.
    n_classes:
        Number of digit classes the assignments map onto.
    config:
        Full JSON-able :class:`~repro.core.config.ExperimentConfig` of the
        producing run (``None`` for snapshots of bare networks).
    defenses:
        Residual defense calibration
        (:func:`repro.defenses.evaluation.residual_defense_factors`).
    metrics:
        Scalar metrics of the producing run (accuracy, prediction digest)
        that serving-side re-scores are compared against.
    engine:
        Engine the producing run resolved to (provenance only; scoring a
        snapshot is bit-identical on either engine).
    """

    model: Dict[str, Any]
    score_layer: str
    arrays: Dict[str, np.ndarray]
    encoding: Dict[str, Any]
    seed: int
    n_classes: int = 0
    config: Optional[Dict[str, Any]] = None
    defenses: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    engine: str = ""

    @property
    def time_steps(self) -> int:
        """Presentation length (simulation steps) per scored example."""
        return int(self.encoding["time_steps"])

    @property
    def max_rate(self) -> float:
        """Poisson firing rate (Hz) of a full-intensity pixel."""
        return float(self.encoding["max_rate"])

    @property
    def assignments(self) -> Optional[np.ndarray]:
        """Per-neuron class assignments (``None`` for bare-network snapshots)."""
        return self.arrays.get(ASSIGNMENTS_KEY)


def prediction_digest(predictions: np.ndarray) -> str:
    """Canonical SHA-256 of a predicted-label vector.

    Labels are cast to a fixed dtype (int64) first, so the digest is
    comparable across processes and platforms — this is the value the CI
    serving-smoke job diffs between an in-process score and a fresh-process
    re-score of the same snapshot.
    """
    canonical = np.ascontiguousarray(np.asarray(predictions, dtype=np.int64))
    return hashlib.sha256(canonical.tobytes()).hexdigest()


def model_identity(network: Network) -> Dict[str, Any]:
    """The rebuildable identity of ``network``.

    :class:`~repro.snn.models.DiehlAndCook2015` networks are identified by
    their hyper-parameters; other topologies must come from the
    :data:`~repro.snn.models.MODEL_VARIANTS` registry and be captured with
    an explicit ``model`` argument.
    """
    if isinstance(network, DiehlAndCook2015):
        from repro.utils.serialization import to_jsonable

        return {"kind": "diehl_cook", "parameters": to_jsonable(network.parameters)}
    raise SnapshotError(
        "cannot derive a model identity for a generic Network; pass "
        'model={"kind": "variant", "name": <MODEL_VARIANTS key>} explicitly'
    )


def _score_layer_name(network: Network) -> str:
    """The layer whose spikes the network's (first) monitor records."""
    for monitor in network.monitors.values():
        return monitor.layer_name
    raise SnapshotError("network has no monitor to derive the score layer from")


def capture_network_state(network: Network) -> Dict[str, np.ndarray]:
    """Copy every persistent state array out of ``network``.

    Persistent means: surviving ``reset_state_variables`` between
    presentations — connection weights, per-neuron threshold scales, input
    gains, base thresholds and adaptive theta offsets.  Per-presentation
    transients (membrane potential, refractory counters, traces, spikes)
    are excluded by design: they are reset before every scored example.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, nodes in network.layers.items():
        arrays[f"{_LAYER_PREFIX}{name}.input_gain"] = nodes.input_gain.copy()
        if isinstance(nodes, LIFNodes):
            arrays[f"{_LAYER_PREFIX}{name}.base_thresh"] = nodes.base_thresh.copy()
            arrays[f"{_LAYER_PREFIX}{name}.threshold_scale"] = (
                nodes.threshold_scale.copy()
            )
        if isinstance(nodes, AdaptiveLIFNodes):
            arrays[f"{_LAYER_PREFIX}{name}.theta"] = nodes.theta.copy()
    for (source, target), connection in network.connections.items():
        arrays[f"{_CONNECTION_PREFIX}{source}->{target}.w"] = connection.w.copy()
    return arrays


def capture_snapshot(
    network: Network,
    *,
    seed: int,
    time_steps: int,
    max_rate: float,
    model: Optional[Dict[str, Any]] = None,
    assignments: Optional[np.ndarray] = None,
    class_rates: Optional[np.ndarray] = None,
    n_classes: int = 0,
    config: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    engine: str = "",
    with_defenses: bool = True,
) -> NetworkSnapshot:
    """Freeze ``network`` (plus optional label assignments) into a snapshot.

    ``model`` may be omitted for :class:`~repro.snn.models.DiehlAndCook2015`
    networks (their identity is derived from ``network.parameters``); any
    other topology needs ``{"kind": "variant", "name": ...}`` naming its
    :data:`~repro.snn.models.MODEL_VARIANTS` builder.  ``with_defenses``
    embeds the circuit-calibrated residual defense factors so serving-side
    "attack under defense" queries carry the paper's Sec. V calibration.
    """
    arrays = capture_network_state(network)
    if assignments is not None:
        arrays[ASSIGNMENTS_KEY] = np.asarray(assignments, dtype=np.int64)
    if class_rates is not None:
        arrays[CLASS_RATES_KEY] = np.asarray(class_rates, dtype=float)
    defenses: Dict[str, float] = {}
    if with_defenses:
        from repro.defenses.evaluation import residual_defense_factors

        defenses = residual_defense_factors()
    return NetworkSnapshot(
        model=model if model is not None else model_identity(network),
        score_layer=_score_layer_name(network),
        arrays=arrays,
        encoding={"time_steps": int(time_steps), "max_rate": float(max_rate)},
        seed=int(seed),
        n_classes=int(n_classes),
        config=config,
        defenses=defenses,
        metrics=dict(metrics or {}),
        engine=engine,
    )


def snapshot_from_pipeline(pipeline, attack=None) -> NetworkSnapshot:
    """Train a pipeline (optionally under a persistent attack) and freeze it.

    Runs the pipeline's train + label-assignment passes once, records the
    held-out evaluation metrics (accuracy, mean spikes and the canonical
    prediction digest — the values serving-side re-scores are pinned
    against), and captures the trained state.  The snapshot embeds the full
    experiment config, so :meth:`repro.snn.serving.ScoringEngine.evaluate`
    can regenerate the identical held-out split and reproduce the stored
    accuracy bit-for-bit without retraining.
    """
    from repro.snn.evaluation import all_activity_prediction, classification_accuracy
    from repro.utils.serialization import to_jsonable

    config = pipeline.config
    network, assignments, class_rates = pipeline.trained_network(attack)
    counts = pipeline.record_responses(network, stream="eval")
    predictions = all_activity_prediction(counts, assignments, config.n_classes)
    metrics = {
        "accuracy": classification_accuracy(predictions, pipeline.eval_labels),
        "mean_excitatory_spikes": float(counts.sum(axis=1).mean()),
        "eval_predictions_sha256": prediction_digest(predictions),
    }
    if attack is not None:
        metrics["attack"] = attack.label()
    return capture_snapshot(
        network,
        seed=config.seed,
        time_steps=config.time_steps,
        max_rate=config.max_rate,
        assignments=assignments,
        class_rates=class_rates,
        n_classes=config.n_classes,
        config=to_jsonable(config),
        metrics=metrics,
        engine=pipeline.resolved_engine,
    )


def build_model(model: Dict[str, Any]) -> Network:
    """Rebuild the (untrained) topology a snapshot's ``model`` identifies."""
    kind = model.get("kind")
    if kind == "diehl_cook":
        parameters = DiehlAndCookParameters(**model["parameters"])
        return DiehlAndCook2015(parameters, rng=0)
    if kind == "variant":
        name = model.get("name")
        builder = MODEL_VARIANTS.get(name)
        if builder is None:
            raise SnapshotError(
                f"snapshot names unknown model variant {name!r}; "
                f"registered: {', '.join(sorted(MODEL_VARIANTS))}"
            )
        return builder(0)
    raise SnapshotError(f"unknown snapshot model kind {kind!r}")


def _restore_array(target: np.ndarray, key: str, value: np.ndarray) -> None:
    if target.shape != value.shape:
        raise SnapshotError(
            f"snapshot array {key!r} has shape {value.shape}, but the rebuilt "
            f"topology expects {target.shape}"
        )
    target[...] = value


def hydrate_network(snapshot: NetworkSnapshot) -> Network:
    """Rebuild the snapshot's topology and restore its trained state.

    Every ``layer.*`` / ``connection.*`` array must map onto the rebuilt
    topology with matching shape; anything else raises
    :class:`SnapshotError` — a snapshot that only half-applies would score
    plausibly but wrongly.
    """
    network = build_model(snapshot.model)
    for key, value in snapshot.arrays.items():
        if key.startswith(_LAYER_PREFIX):
            name, _, variable = key[len(_LAYER_PREFIX) :].rpartition(".")
            nodes = network.layers.get(name)
            if nodes is None or not isinstance(
                getattr(nodes, variable, None), np.ndarray
            ):
                raise SnapshotError(
                    f"snapshot array {key!r} does not map onto the rebuilt "
                    f"topology (layers: {', '.join(network.layers)})"
                )
            _restore_array(getattr(nodes, variable), key, value)
        elif key.startswith(_CONNECTION_PREFIX):
            pair, _, variable = key[len(_CONNECTION_PREFIX) :].rpartition(".")
            source, _, target = pair.partition("->")
            connection = network.connections.get((source, target))
            if connection is None or variable != "w":
                raise SnapshotError(
                    f"snapshot array {key!r} does not map onto the rebuilt "
                    f"topology (connections: "
                    f"{', '.join('->'.join(pair) for pair in network.connections)})"
                )
            _restore_array(connection.w, key, value)
        elif not key.startswith("labels."):
            raise SnapshotError(f"unrecognised snapshot array key {key!r}")
    network.set_learning(False)
    return network


def config_from_jsonable(payload: Dict[str, Any]):
    """Reconstruct an :class:`~repro.core.config.ExperimentConfig`.

    The inverse of ``to_jsonable(config)`` as embedded by
    :func:`snapshot_from_pipeline`: the nested network hyper-parameters are
    rebuilt into a :class:`~repro.snn.models.DiehlAndCookParameters`.
    """
    from repro.core.config import ExperimentConfig

    fields = dict(payload)
    network = fields.pop("network", None)
    if network is not None:
        fields["network"] = DiehlAndCookParameters(**network)
    return ExperimentConfig(**fields)


def save_snapshot(
    snapshot: NetworkSnapshot,
    out_dir,
    *,
    name: str = "fig8",
    git_sha: Optional[str] = None,
    wall_seconds: float = 0.0,
):
    """Persist ``snapshot`` as ``snapshot-<name>.json`` + ``.npz``.

    Written through :func:`repro.store.write_artifact`, so snapshot
    artifacts get the same per-array manifest, provenance, offline
    integrity checking and newer-schema refusal as figure and scenario
    artifacts.  Returns the written :class:`repro.store.ArtifactPaths`.
    """
    from repro.core.config import ExperimentConfig
    from repro.store import build_provenance, write_artifact
    from repro.utils.serialization import to_jsonable

    if snapshot.config is not None:
        config = config_from_jsonable(snapshot.config)
    else:
        config = ExperimentConfig.smoke().with_overrides(
            seed=snapshot.seed, scale_name="unknown"
        )
    fields = {
        "model": to_jsonable(snapshot.model),
        "score_layer": snapshot.score_layer,
        "encoding": to_jsonable(snapshot.encoding),
        "seed": snapshot.seed,
        "n_classes": snapshot.n_classes,
        "engine": snapshot.engine,
        "config": snapshot.config,
        "defenses": to_jsonable(snapshot.defenses),
        "metrics": to_jsonable(snapshot.metrics),
    }
    provenance = build_provenance(config, wall_seconds=wall_seconds, git_sha=git_sha)
    return write_artifact(out_dir, "snapshot", name, fields, snapshot.arrays, provenance)


def snapshot_from_artifact(stored) -> NetworkSnapshot:
    """The :class:`NetworkSnapshot` held by a loaded snapshot artifact.

    ``stored`` is a verified :class:`repro.store.StoredArtifact` of kind
    ``"snapshot"``.  Raises :class:`SnapshotError` when the document lacks
    a field a snapshot needs.
    """
    document = stored.document
    try:
        return NetworkSnapshot(
            model=document["model"],
            score_layer=document["score_layer"],
            arrays=stored.arrays,
            encoding=document["encoding"],
            seed=int(document["seed"]),
            n_classes=int(document.get("n_classes", 0)),
            config=document.get("config"),
            defenses=document.get("defenses", {}),
            metrics=document.get("metrics", {}),
            engine=document.get("engine", ""),
        )
    except KeyError as error:
        raise SnapshotError(f"snapshot document lacks the field {error}") from None


def load_snapshot(json_path) -> NetworkSnapshot:
    """Load a snapshot artifact back; verifies schema and every array.

    Raises :class:`ValueError` on tampered arrays, newer-schema documents
    and artifacts of another kind, and propagates :class:`OSError` when
    the NPZ bundle is missing — a snapshot that cannot be verified must
    never be served.
    """
    from repro.store import load_artifact

    return snapshot_from_artifact(load_artifact(json_path, kind="snapshot"))
