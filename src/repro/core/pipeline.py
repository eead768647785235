"""Train / attack / evaluate pipeline for the Diehl&Cook digit classifier.

The pipeline owns the dataset, the encoding, the training loop, the label
assignment and the evaluation — everything the attack figures need.  A power
attack is modelled as a *persistent hardware fault*: it is injected before
training and stays in place through training, label assignment and
evaluation, matching the paper's "corrupt crucial training parameters"
framing.  Compound faults
(:class:`~repro.attacks.attacks.CompositeAttack`, built by the scenario
subsystem's product compositions) work identically: every member's faults
are injected into the same fresh network before training starts, and the
composite's concatenated label keeps the fault-site RNG stream and the
executor cache key unique per member combination.

Engine selection
----------------
``engine`` is ``"auto"`` (default) or ``"scalar"``
(:data:`repro.utils.validation.ENGINES`);
:func:`repro.snn.batched.resolve_engine` maps it to what runs:

* ``"batched"`` — the lockstep engine (:mod:`repro.snn.batched`), what
  ``"auto"`` runs unless the runtime fails the engine's reduction-order
  self-check: the label assignment and evaluation passes present
  ``example_chunk`` examples at once, and :meth:`run_batch` trains a whole
  batch of attack variants in one lockstep pass (:meth:`run` is a batch of
  one).  Results are bit-identical to the scalar engine (that is the
  batched engine's contract, pinned by ``tests/test_snn_batched.py``).
* ``"scalar"`` — the reference :class:`~repro.snn.network.Network`, one
  example at a time.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.attacks import NoAttack, PowerAttack
from repro.attacks.injector import FaultInjector
from repro.core.config import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.datasets.digits import SyntheticDigits
from repro.datasets.loaders import train_test_split
from repro.snn.batched import BatchedNetwork, BatchedSpikeMonitor, resolve_engine
from repro.snn.encoding import PackedRasters
from repro.snn.evaluation import (
    all_activity_prediction,
    assign_labels,
    classification_accuracy,
)
from repro.snn.models import DiehlAndCook2015, EXCITATORY_LAYER, INPUT_LAYER
from repro.utils.rng import RandomState
from repro.utils.validation import check_engine, check_in_choices, check_positive

#: The pipeline's encoding streams, each with the images it encodes.  A
#: stream's generator is ``RandomState(config.seed, name=f"{stream}_encoding")``.
STREAMS = {"train": "train_images", "assign": "train_images", "eval": "eval_images"}


class ClassificationPipeline:
    """End-to-end digit-classification experiment, with optional attacks.

    Parameters
    ----------
    config:
        Experiment scale and network hyper-parameters.
    engine:
        SNN execution engine — ``"auto"`` (default) or ``"scalar"``.
        Engine choice never changes results, only speed.
    example_chunk:
        How many examples the batched inference passes advance in lockstep
        (bounds the memory of one unpacked block of input rasters).

    Notes
    -----
    The dataset and its train/test split are generated once per pipeline and
    reused across runs, so baseline and attacked runs see identical images
    and identical Poisson seeds — accuracy differences are attributable to
    the injected faults alone.  The three encoding streams (``"train"``,
    ``"assign"`` and ``"eval"``, see :data:`STREAMS`) do not depend on the
    attack either, so each is drawn once, on first use, and kept bit-packed
    (:class:`~repro.snn.encoding.PackedRasters`); every later pass replays
    it.

    Every random stream consumed by :meth:`run` (weight init, Poisson
    encoding, fault-site selection) is derived from ``config.seed`` and the
    attack label alone — never from mutable state accumulated by earlier
    runs.  Two consequences the execution subsystem relies on:

    * ``run(attack)`` is a pure function of ``(config, attack)``: the same
      attack gives bit-identical results regardless of run order, engine
      choice, or whether it was evaluated alone or inside a
      :meth:`run_batch` variant batch.
    * A pipeline rebuilt from the same config in another process (see
      :class:`repro.exec.executor.PipelineFromConfig`) produces the same
      results, so parallel sweeps match serial sweeps exactly.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        engine: str = "auto",
        example_chunk: int = 64,
    ) -> None:
        self.config = config or ExperimentConfig.benchmark()
        self.engine = check_engine(engine)
        self.example_chunk = int(check_positive(example_chunk, "example_chunk"))
        root = RandomState(self.config.seed, name="pipeline")
        self._dataset_rng = root.spawn("dataset")
        self._split_rng = root.spawn("split")

        dataset = SyntheticDigits(
            n_samples=self.config.n_samples, seed=self._dataset_rng
        )
        train_x, train_y, eval_x, eval_y = train_test_split(
            dataset.flattened(),
            dataset.labels,
            test_fraction=self.config.test_fraction,
            rng=self._split_rng,
        )
        self.train_images = train_x[: self.config.n_train]
        self.train_labels = train_y[: self.config.n_train]
        self.eval_images = eval_x[: self.config.n_eval]
        self.eval_labels = eval_y[: self.config.n_eval]
        self._baseline_result: Optional[ExperimentResult] = None
        self._streams: Dict[str, PackedRasters] = {}

    # ----------------------------------------------------------------- engine
    @property
    def resolved_engine(self) -> str:
        """The engine actually used: ``"batched"`` or ``"scalar"``
        (see :func:`~repro.snn.batched.resolve_engine`)."""
        return resolve_engine(self.engine)

    # ----------------------------------------------------------------- pieces
    def build_network(self) -> DiehlAndCook2015:
        """A freshly initialised Diehl&Cook network (deterministic per seed)."""
        return DiehlAndCook2015(
            self.config.network, rng=RandomState(self.config.seed, name="weights")
        )

    def encoded(self, stream: str) -> PackedRasters:
        """The rasters of one encoding stream, drawn on first use and cached.

        ``stream`` is a key of :data:`STREAMS`.  The draw consumes the
        stream's generator exactly as per-image
        :func:`~repro.snn.encoding.poisson_encode` calls would, so every
        replay matches the rasters an uncached run draws.
        """
        check_in_choices(stream, "stream", STREAMS)
        if stream not in self._streams:
            self._streams[stream] = PackedRasters.encode(
                getattr(self, STREAMS[stream]),
                time_steps=self.config.time_steps,
                max_rate=self.config.max_rate,
                rng=RandomState(self.config.seed, name=f"{stream}_encoding"),
                chunk=self.example_chunk,
            )
        return self._streams[stream]

    def train(self, network: DiehlAndCook2015) -> None:
        """Run STDP training over the training images."""
        for raster in self.encoded("train"):
            network.present(raster, learning=True)

    def record_responses(self, network: DiehlAndCook2015, *, stream: str) -> np.ndarray:
        """Excitatory spike counts for each image of ``stream``, learning off.

        ``stream`` is ``"assign"`` (the training images) or ``"eval"`` (the
        held-out images).  The batched engine presents ``example_chunk``
        examples in lockstep; the scalar engine loops.  Counts are
        bit-identical either way.
        """
        if self.resolved_engine == "batched":
            batched = BatchedNetwork.from_networks([network])
            counts = self._batched_responses(batched, stream=stream)
            return counts[0]
        return self._record_responses_scalar(network, stream=stream)

    def _record_responses_scalar(
        self, network: DiehlAndCook2015, *, stream: str
    ) -> np.ndarray:
        """The reference per-example inference loop (scalar engine)."""
        return np.asarray(
            [network.present(raster, learning=False) for raster in self.encoded(stream)]
        )

    def _batched_responses(self, batched: BatchedNetwork, *, stream: str) -> np.ndarray:
        """Spike counts ``(variants, n_images, n_neurons)`` via lockstep runs.

        The stream's rasters are presented in ``example_chunk``-wide blocks;
        lanes do not interact, so the spike counts of every (variant,
        example) lane match the scalar engine's bit for bit.
        """
        monitor = batched.monitors.get("excitatory_counts")
        if monitor is None:
            monitor = batched.add_monitor(
                "excitatory_counts",
                BatchedSpikeMonitor(EXCITATORY_LAYER, counts_only=True),
            )
        chunks: List[np.ndarray] = []
        for rasters in self.encoded(stream).chunks(self.example_chunk):
            batched.present({INPUT_LAYER: rasters}, learning=False)
            chunks.append(monitor.spike_counts())
        return np.concatenate(chunks, axis=1)

    def assign(self, network: DiehlAndCook2015) -> Tuple[np.ndarray, np.ndarray]:
        """Assign each excitatory neuron to a digit class from training activity."""
        counts = self.record_responses(network, stream="assign")
        return assign_labels(counts, self.train_labels, self.config.n_classes)

    def evaluate(
        self, network: DiehlAndCook2015, assignments: np.ndarray
    ) -> Tuple[float, float]:
        """Accuracy and mean excitatory spike count on the held-out images."""
        counts = self.record_responses(network, stream="eval")
        predictions = all_activity_prediction(
            counts, assignments, self.config.n_classes
        )
        accuracy = classification_accuracy(predictions, self.eval_labels)
        return accuracy, float(counts.sum(axis=1).mean())

    def _fault_rng(self, attack: PowerAttack) -> RandomState:
        """Fault-site selection stream for one attack.

        Keyed on ``(config.seed, crc32(attack.label()))`` so the stream is a
        pure function of the configuration and the attack — independent of
        how many runs happened before, of the process running it, and of
        Python's per-process hash randomisation.  This is what makes
        parallel sweeps bit-identical to serial ones.
        """
        label_key = zlib.crc32(attack.label().encode("utf-8"))
        return RandomState(
            (self.config.seed, label_key), name=f"faults[{attack.label()}]"
        )

    def _attacked_network(self, attack: PowerAttack) -> Tuple[DiehlAndCook2015, List]:
        """A fresh network with the attack's faults injected."""
        network = self.build_network()
        injector = FaultInjector(network, rng=self._fault_rng(attack))
        records = attack.apply(injector)
        return network, records

    def trained_network(
        self, attack: Optional[PowerAttack] = None
    ) -> Tuple[DiehlAndCook2015, np.ndarray, np.ndarray]:
        """Train one network and return it with its label assignments.

        The serving tier's capture point: the same build → inject → train →
        assign sequence as :meth:`run`, stopped *before* evaluation so the
        trained state (plus per-neuron assignments and class rates) can be
        snapshotted by :func:`repro.snn.snapshot.snapshot_from_pipeline`.
        """
        attack = attack or NoAttack()
        network, _records = self._attacked_network(attack)
        self.train(network)
        assignments, rates = self.assign(network)
        return network, assignments, rates

    # ------------------------------------------------------------------- runs
    def run(self, attack: Optional[PowerAttack] = None) -> ExperimentResult:
        """Train and evaluate one network, optionally under a persistent attack.

        On the batched engine this is ``run_batch([attack])[0]``: a single
        attack trains on the lockstep engine too (one variant), which beats
        the scalar loop even at ``V == 1``.  ``engine="scalar"`` runs the
        reference path, the oracle every other route is checked against.
        """
        if self.resolved_engine == "batched":
            return self.run_batch([attack])[0]
        attack = attack or NoAttack()
        network, records = self._attacked_network(attack)
        self.train(network)
        assignments, _rates = self.assign(network)
        accuracy, mean_spikes = self.evaluate(network, assignments)
        return self._results([attack], [accuracy], [mean_spikes], [records])[0]

    def run_batch(
        self, attacks: Sequence[Optional[PowerAttack]]
    ) -> List[ExperimentResult]:
        """Evaluate a batch of attacks in one lockstep variant pass.

        Every attack's network shares the Diehl&Cook topology and differs
        only in the injected per-neuron corruptions, so the whole batch —
        a grid, or a single attack — trains together on the batched engine:
        one pass over the training images advances every variant, then the
        assignment and evaluation passes batch variants × examples.  Each
        returned :class:`ExperimentResult` is bit-identical to the scalar
        engine's ``run(attack)``.

        ``None`` entries request the attack-free baseline.  Raises
        :class:`~repro.snn.batched.BatchedNetworkError` subclasses when the
        lockstep engine cannot host the network; on the scalar engine it
        simply loops over :meth:`run`.
        """
        attacks = [attack or NoAttack() for attack in attacks]
        if self.resolved_engine != "batched":
            return [self.run(attack) for attack in attacks]

        networks: List[DiehlAndCook2015] = []
        fault_records: List[List] = []
        for attack in attacks:
            network, records = self._attacked_network(attack)
            networks.append(network)
            fault_records.append(records)
        batched = BatchedNetwork.from_networks(networks)

        # Lockstep STDP training: every variant sees the identical encoded
        # raster a scalar run would (the stream is attack-independent).
        for raster in self.encoded("train"):
            batched.present({INPUT_LAYER: raster}, learning=True)

        assign_counts = self._batched_responses(batched, stream="assign")
        eval_counts = self._batched_responses(batched, stream="eval")

        accuracies: List[float] = []
        mean_spikes: List[float] = []
        for variant in range(len(attacks)):
            assignments, _rates = assign_labels(
                assign_counts[variant], self.train_labels, self.config.n_classes
            )
            predictions = all_activity_prediction(
                eval_counts[variant], assignments, self.config.n_classes
            )
            accuracies.append(
                classification_accuracy(predictions, self.eval_labels)
            )
            mean_spikes.append(float(eval_counts[variant].sum(axis=1).mean()))
        return self._results(attacks, accuracies, mean_spikes, fault_records)

    def _results(
        self,
        attacks: Sequence[PowerAttack],
        accuracies: Sequence[float],
        mean_spikes: Sequence[float],
        fault_records: Sequence[List],
    ) -> List[ExperimentResult]:
        """Package a batch's numbers, back-referencing the baseline accuracy.

        The baseline is the cached attack-free run, else the batch's own
        ``NoAttack`` entry; the first baseline result seen is cached.
        """
        baseline_accuracy = (
            self._baseline_result.accuracy if self._baseline_result is not None else None
        )
        if baseline_accuracy is None:
            for attack, accuracy in zip(attacks, accuracies):
                if isinstance(attack, NoAttack):
                    baseline_accuracy = accuracy
                    break
        results: List[ExperimentResult] = []
        for attack, accuracy, spikes, records in zip(
            attacks, accuracies, mean_spikes, fault_records
        ):
            result = ExperimentResult(
                attack_label=attack.label(),
                accuracy=accuracy,
                baseline_accuracy=baseline_accuracy,
                mean_excitatory_spikes=spikes,
                fault_descriptions=[record.describe() for record in records],
                scale_name=self.config.scale_name,
            )
            if isinstance(attack, NoAttack) and self._baseline_result is None:
                self._baseline_result = result
            results.append(result)
        return results

    def run_baseline(self) -> ExperimentResult:
        """Run (or return the cached) attack-free experiment."""
        if self._baseline_result is None:
            self._baseline_result = self.run(NoAttack())
        return self._baseline_result

    @property
    def baseline_accuracy(self) -> float:
        """Accuracy of the attack-free run (computed on demand)."""
        return self.run_baseline().accuracy
