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

from repro.snn.batched import (
    BatchedNetwork,
    BatchedNetworkError,
    BatchedSpikeMonitor,
    BatchedStateMonitor,
    NetworkTopologyMismatchError,
    reduction_contract_holds,
    UnsupportedNetworkError,
)
from repro.snn.encoding import (
    bernoulli_encode,
    NonFiniteIntensityError,
    poisson_encode,
    poisson_encode_batch,
    regular_rate_encode,
)
from repro.snn.nodes import (
    AdaptiveLIFNodes,
    InputNodes,
    LIFNodes,
    Nodes,
)
from repro.snn.topology import Connection
from repro.snn.learning import NoOp, PostPre, WeightDependentPostPre
from repro.snn.network import Network, SpikeMonitor, StateMonitor
from repro.snn.models import DiehlAndCook2015, DiehlAndCookParameters, MODEL_VARIANTS
from repro.snn.evaluation import (
    all_activity_prediction,
    assign_labels,
    classification_accuracy,
    proportion_weighting_prediction,
)
from repro.snn.serving import (
    InputShapeError,
    SERVING_ENGINES,
    ScoreResult,
    ScoringEngine,
    ServingEvaluation,
)
from repro.snn.snapshot import (
    NetworkSnapshot,
    SnapshotError,
    capture_snapshot,
    hydrate_network,
    load_snapshot,
    prediction_digest,
    save_snapshot,
    snapshot_from_pipeline,
)

__all__ = [
    "BatchedNetwork",
    "BatchedNetworkError",
    "BatchedSpikeMonitor",
    "BatchedStateMonitor",
    "NetworkTopologyMismatchError",
    "UnsupportedNetworkError",
    "reduction_contract_holds",
    "NonFiniteIntensityError",
    "bernoulli_encode",
    "poisson_encode",
    "poisson_encode_batch",
    "regular_rate_encode",
    "MODEL_VARIANTS",
    "Nodes",
    "InputNodes",
    "LIFNodes",
    "AdaptiveLIFNodes",
    "Connection",
    "NoOp",
    "PostPre",
    "WeightDependentPostPre",
    "Network",
    "SpikeMonitor",
    "StateMonitor",
    "DiehlAndCook2015",
    "DiehlAndCookParameters",
    "assign_labels",
    "all_activity_prediction",
    "proportion_weighting_prediction",
    "classification_accuracy",
    "NetworkSnapshot",
    "SnapshotError",
    "capture_snapshot",
    "hydrate_network",
    "load_snapshot",
    "prediction_digest",
    "save_snapshot",
    "snapshot_from_pipeline",
    "InputShapeError",
    "SERVING_ENGINES",
    "ScoreResult",
    "ScoringEngine",
    "ServingEvaluation",
]
