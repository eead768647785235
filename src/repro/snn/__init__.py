"""A compact NumPy spiking-neural-network framework.

The paper builds its victim network with BindsNET (Diehl & Cook's
unsupervised MNIST SNN).  This package reimplements the pieces that network
needs, with the same update equations and defaults, so the attack experiments
run without PyTorch:

* :mod:`repro.snn.encoding` — Poisson / Bernoulli / regular-rate encoders.
* :mod:`repro.snn.nodes` — input, LIF, adaptive-threshold (Diehl&Cook) and
  current-based LIF node groups.  Thresholds and input gains are per-neuron
  arrays, which is what lets the fault injector corrupt a *fraction* of a
  layer.
* :mod:`repro.snn.topology` — dense connections with weight clamping and
  per-target normalisation.
* :mod:`repro.snn.learning` — PostPre STDP (the Diehl&Cook rule), a
  weight-dependent variant and a no-op rule.
* :mod:`repro.snn.network` — the scalar simulation engine and monitors.
* :mod:`repro.snn.batched` — the lockstep batched engine: attack-variant
  and example batching with bit-exact parity against the scalar engine.
* :mod:`repro.snn.models` — the DiehlAndCook2015 three-layer architecture
  and the ``MODEL_VARIANTS`` registry the parity suite iterates.
* :mod:`repro.snn.evaluation` — neuron-to-class assignment and the
  all-activity / proportion-weighting accuracy metrics.
* :mod:`repro.snn.snapshot` — trained-state snapshots: capture a trained
  network (weights, theta, thresholds, labels, encoding params) into a
  schema-versioned, digest-verified ``store`` artifact and hydrate it back.
* :mod:`repro.snn.serving` — the inference-only scoring engine: hydrates a
  snapshot straight into the batched engine and scores examples (clean or
  under an injected fault) without any training.
"""

from repro.utils.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    names={
        "batched": [
            "BatchedNetwork",
            "BatchedNetworkError",
            "BatchedSpikeMonitor",
            "BatchedStateMonitor",
            "NetworkTopologyMismatchError",
            "reduction_contract_holds",
            "UnsupportedNetworkError",
        ],
        "encoding": [
            "bernoulli_encode",
            "NonFiniteIntensityError",
            "poisson_encode",
            "poisson_encode_batch",
            "regular_rate_encode",
        ],
        "nodes": ["AdaptiveLIFNodes", "InputNodes", "LIFNodes", "Nodes"],
        "topology": ["Connection"],
        "learning": ["NoOp", "PostPre", "WeightDependentPostPre"],
        "network": ["Network", "SpikeMonitor", "StateMonitor"],
        "models": ["DiehlAndCook2015", "DiehlAndCookParameters", "MODEL_VARIANTS"],
        "evaluation": [
            "all_activity_prediction",
            "assign_labels",
            "classification_accuracy",
            "proportion_weighting_prediction",
        ],
        "serving": ["InputShapeError", "ScoreResult", "ScoringEngine", "ServingEvaluation"],
        "snapshot": [
            "NetworkSnapshot",
            "SnapshotError",
            "capture_snapshot",
            "hydrate_network",
            "load_snapshot",
            "prediction_digest",
            "save_snapshot",
            "snapshot_from_pipeline",
        ],
    },
)
