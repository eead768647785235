"""Inference-only scoring of snapshotted networks (the serving tier).

:class:`ScoringEngine` hydrates a :class:`~repro.snn.snapshot.NetworkSnapshot`
straight into the lockstep batched engine (example-axis batching, no
plasticity state) and scores examples without ever training:

* :meth:`ScoringEngine.score_rasters` — spike counts / labels for encoded
  spike rasters, ``example_chunk`` lanes at a time.
* :meth:`ScoringEngine.score` — pipeline-identical Poisson encoding plus
  scoring: the sequential per-stream encoding stream is consumed exactly as
  :meth:`repro.core.pipeline.ClassificationPipeline.record_responses`
  consumes it, so serving a snapshot reproduces the live pipeline's
  numbers bit for bit.
* :meth:`ScoringEngine.encode_request` — *keyed* per-request encoding for
  the microbatching front-end (:mod:`repro.exec.microbatch`): each
  request's Poisson draws derive from ``(seed, request_id)`` alone, so
  predictions are independent of arrival order and batch partitioning.
* :meth:`ScoringEngine.evaluate` — regenerate the experiment's held-out
  split from the embedded config and re-score it; the accuracy and the
  canonical prediction digest match the snapshot's stored metrics exactly.
* :meth:`ScoringEngine.under_attack` — "evaluate this input under this
  fault": compose the snapshot with an :mod:`repro.attacks` injection,
  using the pipeline's fault-site RNG keying, and score through the
  corrupted network.

Every public scoring entry point checks its input against the snapshot's
input layer before any engine work and raises :class:`InputShapeError`
when it does not fit, identically on both engines.

Both engines (``"batched"``/``"scalar"``) produce bit-identical spike
counts — the serving-parity suite (``tests/test_snn_snapshot.py``) pins
this across every registered model variant.  Per-lane independence of the
batched engine additionally makes :meth:`score_rasters` invariant under
any partition of the example stream into chunks.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.snn.batched import (
    BatchedNetwork,
    BatchedSpikeMonitor,
    reduction_contract_holds,
)
from repro.snn.encoding import PackedRasters, poisson_encode
from repro.snn.evaluation import all_activity_prediction, classification_accuracy
from repro.snn.network import SpikeMonitor
from repro.snn.nodes import InputNodes
from repro.snn.snapshot import (
    NetworkSnapshot,
    SnapshotError,
    config_from_jsonable,
    hydrate_network,
    prediction_digest,
)
from repro.utils.rng import RandomState
from repro.utils.validation import check_in_choices, check_positive

#: Engine choices accepted by the serving tier (mirrors the pipeline's
#: ``ENGINES``).
SERVING_ENGINES = ("auto", "batched", "scalar")


class InputShapeError(ValueError):
    """Raised when rasters or images do not fit the snapshot's input layer.

    Rasters must be ``(time_steps, n_inputs)`` or ``(examples, time_steps,
    n_inputs)`` with no empty axis; images must carry ``n_inputs`` pixels
    each.  The number of time steps is free.  Without the check each engine
    failed with its own unnamed error from deep inside a pass, and the
    batched engine scored a raster with no time steps as silence.
    """


@dataclass
class ScoreResult:
    """Scored examples: predicted labels plus the raw spike-count features."""

    #: Predicted class per example (``-1`` when the snapshot carries no
    #: label assignments and only the raw spike counts are meaningful).
    labels: np.ndarray
    #: Score-layer spike counts, shape ``(examples, n_neurons)``.
    spike_counts: np.ndarray

    @property
    def predictions_sha256(self) -> str:
        """Canonical digest of the predicted labels (cross-process diffable)."""
        return prediction_digest(self.labels)


@dataclass
class ServingEvaluation:
    """The held-out evaluation pass re-run from a snapshot alone."""

    accuracy: float
    mean_spikes: float
    predictions: np.ndarray
    predictions_sha256: str


class ScoringEngine:
    """Inference-only scorer over a hydrated snapshot.

    Parameters
    ----------
    snapshot:
        The trained-state snapshot to serve.
    engine:
        ``"auto"`` (default, lockstep-batched when available),
        ``"batched"`` or ``"scalar"``.  Engine choice never changes results,
        only speed.
    example_chunk:
        How many examples the batched path advances in lockstep per pass.
    attack:
        Optional :class:`~repro.attacks.attacks.PowerAttack` injected into
        the hydrated network before scoring, with the pipeline's
        ``(seed, crc32(label))`` fault-site RNG keying — use
        :meth:`under_attack` to derive attacked engines from a clean one.
    """

    def __init__(
        self,
        snapshot: NetworkSnapshot,
        *,
        engine: str = "auto",
        example_chunk: int = 64,
        attack=None,
    ) -> None:
        check_in_choices(engine, "engine", SERVING_ENGINES)
        self.snapshot = snapshot
        self.engine = engine
        self.example_chunk = int(check_positive(example_chunk, "example_chunk"))
        self.attack = attack
        self.network = hydrate_network(snapshot)
        self.fault_records: List = []
        if attack is not None:
            from repro.attacks.injector import FaultInjector

            label_key = zlib.crc32(attack.label().encode("utf-8"))
            rng = RandomState(
                (snapshot.seed, label_key), name=f"faults[{attack.label()}]"
            )
            self.fault_records = attack.apply(
                FaultInjector(self.network, rng=rng)
            )
        self._input_layer = self._find_input_layer()
        self._n_inputs = self.network.layers[self._input_layer].n
        self._monitor = self._find_score_monitor()
        self._batched: Optional[BatchedNetwork] = None
        self._batched_monitor: Optional[BatchedSpikeMonitor] = None

    # ----------------------------------------------------------------- wiring
    def _find_input_layer(self) -> str:
        for name, nodes in self.network.layers.items():
            if isinstance(nodes, InputNodes):
                return name
        raise SnapshotError("hydrated network has no input layer")

    def _find_score_monitor(self) -> SpikeMonitor:
        for monitor in self.network.monitors.values():
            if (
                isinstance(monitor, SpikeMonitor)
                and monitor.layer_name == self.snapshot.score_layer
            ):
                return monitor
        raise SnapshotError(
            f"hydrated network has no spike monitor on score layer "
            f"{self.snapshot.score_layer!r}"
        )

    @property
    def resolved_engine(self) -> str:
        """The engine actually used: ``"batched"`` or ``"scalar"``."""
        if self.engine == "scalar":
            return "scalar"
        if self.engine == "batched":
            return "batched"
        return "batched" if reduction_contract_holds() else "scalar"

    def _batched_network(self) -> Tuple[BatchedNetwork, BatchedSpikeMonitor]:
        if self._batched is None:
            self._batched = BatchedNetwork.from_networks([self.network])
            self._batched_monitor = self._batched.add_monitor(
                "serving_counts",
                BatchedSpikeMonitor(self.snapshot.score_layer, counts_only=True),
            )
        return self._batched, self._batched_monitor

    # ------------------------------------------------------------- validation
    def _check_rasters(self, rasters: np.ndarray) -> None:
        if (
            rasters.ndim not in (2, 3)
            or rasters.shape[-1] != self._n_inputs
            or 0 in rasters.shape
        ):
            raise InputShapeError(
                f"rasters must be (time_steps, {self._n_inputs}) or "
                f"(examples, time_steps, {self._n_inputs}) with no empty "
                f"axis, got shape {rasters.shape}"
            )

    def _check_images(self, images: np.ndarray) -> None:
        if (
            images.ndim < 2
            or len(images) == 0
            or math.prod(images.shape[1:]) != self._n_inputs
        ):
            raise InputShapeError(
                f"images must be a non-empty batch of {self._n_inputs}-pixel "
                f"images, got shape {images.shape}"
            )

    # ---------------------------------------------------------------- scoring
    def score_rasters(self, rasters: np.ndarray) -> ScoreResult:
        """Score pre-encoded spike rasters (no plasticity, no normalisation).

        ``rasters`` is ``(time_steps, n_inputs)`` for one example or
        ``(examples, time_steps, n_inputs)`` for a batch; any other shape
        raises :class:`InputShapeError`.  Lanes of the batched engine do
        not interact, so the result is bit-identical to scoring each
        example alone (and to the scalar engine) — which is what makes
        microbatch coalescing safe.
        """
        rasters = np.asarray(rasters, dtype=bool)
        self._check_rasters(rasters)
        if rasters.ndim == 2:
            rasters = rasters[None, :, :]
        if self.resolved_engine == "batched":
            counts = self._score_rasters_batched(rasters)
        else:
            counts = self._score_rasters_scalar(rasters)
        return ScoreResult(labels=self._predict(counts), spike_counts=counts)

    def _score_rasters_batched(self, rasters: np.ndarray) -> np.ndarray:
        batched, monitor = self._batched_network()
        chunks: List[np.ndarray] = []
        for start in range(0, len(rasters), self.example_chunk):
            chunk = rasters[start : start + self.example_chunk]
            batched.present({self._input_layer: chunk}, learning=False)
            chunks.append(monitor.spike_counts()[0])
        return np.concatenate(chunks, axis=0)

    def _score_rasters_scalar(self, rasters: np.ndarray) -> np.ndarray:
        self.network.set_learning(False)
        counts: List[np.ndarray] = []
        for raster in rasters:
            self.network.reset_monitors()
            self.network.reset_state_variables()
            self.network.run({self._input_layer: raster})
            counts.append(self._monitor.spike_counts())
        return np.asarray(counts)

    def _predict(self, counts: np.ndarray) -> np.ndarray:
        assignments = self.snapshot.assignments
        if assignments is None or not self.snapshot.n_classes:
            return np.full(len(counts), -1, dtype=np.int64)
        return np.asarray(
            all_activity_prediction(counts, assignments, self.snapshot.n_classes),
            dtype=np.int64,
        )

    def score(self, images: Sequence[np.ndarray], *, stream: str = "eval") -> ScoreResult:
        """Poisson-encode and score ``images`` with the pipeline's stream.

        The per-stream sequential encoding generator
        (``RandomState(seed, name=f"{stream}_encoding")``) is consumed image
        by image through :class:`~repro.snn.encoding.PackedRasters`, exactly
        as the live pipeline consumes it, so scoring the experiment's
        evaluation images with ``stream="eval"`` reproduces the pipeline's
        spike counts bit for bit.  Note the stream is *sequential*: results depend on each
        image's position, which is what evaluation parity requires — use
        :meth:`encode_request` for order-independent serving traffic.
        ``images`` is ``(examples, ...)`` with ``n_inputs`` pixels per
        image; any other shape raises :class:`InputShapeError`.
        """
        images = np.asarray(images, dtype=float)
        self._check_images(images)
        rasters = PackedRasters.encode(
            images,
            time_steps=self.snapshot.time_steps,
            max_rate=self.snapshot.max_rate,
            rng=RandomState(self.snapshot.seed, name=f"{stream}_encoding"),
            chunk=self.example_chunk,
        )
        results = [self.score_rasters(chunk) for chunk in rasters.chunks(self.example_chunk)]
        return ScoreResult(
            labels=np.concatenate([result.labels for result in results]),
            spike_counts=np.concatenate([result.spike_counts for result in results]),
        )

    def encode_request(self, image: np.ndarray, request_id: int) -> np.ndarray:
        """Poisson-encode one serving request with a *keyed* stream.

        The draws derive from ``(snapshot.seed, request_id)`` alone —
        never from shared stream position — so a request's raster (and
        therefore its prediction) is identical no matter when it arrives,
        which microbatch it lands in, or which process encodes it.
        An image without exactly ``n_inputs`` pixels raises
        :class:`InputShapeError`.
        """
        self._check_images(np.asarray(image)[None])
        rng = RandomState(
            (self.snapshot.seed, int(request_id)), name=f"request[{request_id}]"
        )
        return poisson_encode(
            image,
            time_steps=self.snapshot.time_steps,
            max_rate=self.snapshot.max_rate,
            rng=rng,
        )

    # ------------------------------------------------------------- evaluation
    def _eval_split(self):
        if self.snapshot.config is None:
            raise SnapshotError(
                "snapshot carries no experiment config; evaluate() needs one "
                "to regenerate the held-out split"
            )
        from repro.datasets.digits import SyntheticDigits
        from repro.datasets.loaders import train_test_split

        config = config_from_jsonable(self.snapshot.config)
        root = RandomState(config.seed, name="pipeline")
        dataset_rng = root.spawn("dataset")
        split_rng = root.spawn("split")
        dataset = SyntheticDigits(n_samples=config.n_samples, seed=dataset_rng)
        _train_x, _train_y, eval_x, eval_y = train_test_split(
            dataset.flattened(),
            dataset.labels,
            test_fraction=config.test_fraction,
            rng=split_rng,
        )
        return eval_x[: config.n_eval], eval_y[: config.n_eval]

    def evaluate(self) -> ServingEvaluation:
        """Re-run the held-out evaluation pass from the snapshot alone.

        Regenerates the dataset and its train/test split from the embedded
        config (the same seed-derived streams the pipeline constructor
        uses) and scores the evaluation images with the pipeline's
        ``"eval"`` encoding stream.  Accuracy, mean spike count and the
        prediction digest are bit-identical to the live pipeline's — no
        retraining involved.
        """
        eval_images, eval_labels = self._eval_split()
        result = self.score(eval_images, stream="eval")
        accuracy = classification_accuracy(result.labels, eval_labels)
        return ServingEvaluation(
            accuracy=float(accuracy),
            mean_spikes=float(result.spike_counts.sum(axis=1).mean()),
            predictions=result.labels,
            predictions_sha256=result.predictions_sha256,
        )

    # ------------------------------------------------------------------ faults
    def under_attack(self, attack) -> "ScoringEngine":
        """A new engine scoring through a fault-injected copy of the network.

        The injection reuses the pipeline's fault-site RNG keying
        (``(seed, crc32(attack.label()))``), so "evaluate this input under
        this fault" selects the same neurons a live pipeline run of the
        same attack would — composing a snapshot with an attack is a pure
        function of ``(snapshot, attack)``.
        """
        return ScoringEngine(
            self.snapshot,
            engine=self.engine,
            example_chunk=self.example_chunk,
            attack=attack,
        )
