"""The layer map: which public callables of ``repro`` the traced run wraps.

Every span name here is a layer boundary; ``LAYER_TIMES`` lists the spans
whose self time is reported (and counted towards trace coverage).  Counters
are recorded at the same boundaries, so ratios are measured where the work
happens.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from tracer import Tracer

#: Span name -> per-layer metric reporting its self time, in seconds.
LAYER_TIMES = {
    "snn.batched.learn": "snn.batched.learn_s",
    "snn.learning.stdp_batched": "snn.learning.stdp_batched_s",
    "snn.models.learn": "snn.models.learn_s",
    "snn.learning.stdp_scalar": "snn.learning.stdp_scalar_s",
    "snn.batched.infer": "snn.batched.infer_s",
    "snn.encoding": "snn.encoding.s",
    "snn.evaluation": "snn.evaluation.s",
    "datasets": "datasets.s",
    "analog.transient": "analog.transient_s",
    "analog.batch": "analog.batch_s",
    "analog.dc": "analog.dc_s",
    "exec.executor": "exec.executor.self_s",
    "store.cache_load": "store.cache_load_s",
    "store.cache_put": "store.cache_put_s",
    "store.save": "store.save_s",
    "snn.serving.score": "snn.serving.score_s",
    "snn.serving.encode": "snn.serving.encode_s",
    "snn.snapshot.load": "snn.snapshot.load_s",
}


def _raster_shape(inputs) -> tuple:
    raster = next(iter(inputs.values()))
    return raster.shape


def _batched_present_span(args, kwargs):
    return "snn.batched.learn" if kwargs.get("learning") else "snn.batched.infer"


def _count_batched_present(tracer: Tracer, args, kwargs) -> None:
    network, inputs = args[0], args[1] if len(args) > 1 else kwargs["inputs"]
    shape = _raster_shape(inputs)
    steps = kwargs.get("time_steps") or shape[-2]
    examples = shape[0] if len(shape) == 3 else 1
    if kwargs.get("learning"):
        tracer.count("snn.batched.learn_lane_steps", network.variants * steps)
    else:
        tracer.count(
            "snn.batched.infer_lane_steps", network.variants * examples * steps
        )


def _models_present_span(args, kwargs):
    return "snn.models.learn" if kwargs.get("learning", True) else "snn.models.infer"


def _count_models_present(tracer: Tracer, args, kwargs) -> None:
    if kwargs.get("learning", True):
        tracer.count("snn.models.learn_examples")


def _count_encode_batch(tracer: Tracer, args, kwargs) -> None:
    images = args[0] if args else kwargs["images"]
    tracer.count("snn.encoding.examples", len(images))


def _count_encode_one(tracer: Tracer, args, kwargs) -> None:
    tracer.count("snn.encoding.examples")


def _count_stdp_batched(tracer: Tracer, args, kwargs) -> None:
    tracer.count("snn.learning.stdp_batched_calls")


def _count_pipeline_run(tracer: Tracer, args, kwargs) -> None:
    tracer.count("core.pipeline.run_calls")
    if tracer.inside("scenarios.bisect"):
        tracer.count("scenarios.bisect_runs")


def _count_pipeline_batch(tracer: Tracer, args, kwargs) -> None:
    attacks = args[1] if len(args) > 1 else kwargs["attacks"]
    tracer.count("core.pipeline.run_batch_calls")
    tracer.count("core.pipeline.variants", len(attacks))


def _count_transient_points(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("analog.transient_points", len(result.time))


def _track_executor(tracer: Tracer, args, kwargs) -> None:
    tracer.seen["executor"][id(args[0])] = args[0]


def _count_cache_bytes(tracer: Tracer, args, kwargs, result) -> None:
    path = Path(args[0].path)
    if path.exists():
        tracer.count("store.bytes_written", path.stat().st_size)


def _count_artifact_bytes(tracer: Tracer, args, kwargs, result) -> None:
    for path in (result.json_path, result.npz_path):
        tracer.count("store.bytes_written", Path(path).stat().st_size)


def _count_score_lanes(tracer: Tracer, args, kwargs) -> None:
    rasters = args[1] if len(args) > 1 else kwargs["rasters"]
    tracer.count("snn.serving.lanes", 1 if rasters.ndim == 2 else len(rasters))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``repro`` (all its modules imported first)."""
    import repro.cli  # noqa: F401  (binds the CLI's imports)
    import repro.scenarios  # noqa: F401
    import repro.snn.serving  # noqa: F401
    import repro.store as store
    from repro.analog import batch, dc, transient
    from repro.core.pipeline import ClassificationPipeline
    from repro.datasets import digits, loaders
    from repro.exec.executor import SweepExecutor
    from repro.exec.resilience import ResilientExecutor
    from repro.scenarios.strategy import BisectionStrategy
    from repro.snn import encoding, evaluation, snapshot
    from repro.snn.batched import BatchedNetwork
    from repro.snn.learning import PostPre, WeightDependentPostPre
    from repro.snn.models import DiehlAndCook2015
    from repro.snn.serving import ScoringEngine
    from repro.store import PersistentResultCache

    wrap = tracer.wrap
    wrap(
        BatchedNetwork, "present", _batched_present_span, before=_count_batched_present
    )
    wrap(
        DiehlAndCook2015, "present", _models_present_span, before=_count_models_present
    )
    for rule in (PostPre, WeightDependentPostPre):
        wrap(rule, "update_batched", "snn.learning.stdp_batched", before=_count_stdp_batched)
        wrap(rule, "update", "snn.learning.stdp_scalar")
    wrap(encoding, "poisson_encode", "snn.encoding", before=_count_encode_one)
    wrap(encoding, "poisson_encode_batch", "snn.encoding", before=_count_encode_batch)
    for function in (
        "assign_labels",
        "all_activity_prediction",
        "proportion_weighting_prediction",
        "classification_accuracy",
    ):
        wrap(evaluation, function, "snn.evaluation")
    wrap(digits.SyntheticDigits, "__post_init__", "datasets")
    wrap(loaders, "train_test_split", "datasets")
    wrap(ClassificationPipeline, "run", "core.pipeline", before=_count_pipeline_run)
    wrap(
        ClassificationPipeline, "run_batch", "core.pipeline", before=_count_pipeline_batch
    )
    wrap(BisectionStrategy, "run", "scenarios.bisect")
    wrap(transient, "transient_analysis", "analog.transient", after=_count_transient_points)
    for function in ("batched_transient_analysis", "batched_operating_points", "batched_dc_sweep"):
        wrap(batch, function, "analog.batch")
    for function in ("dc_operating_point", "dc_sweep"):
        wrap(dc, function, "analog.dc")
    for executor in (SweepExecutor, ResilientExecutor):
        wrap(executor, "map", "exec.executor", before=_track_executor)
    wrap(PersistentResultCache, "__init__", "store.cache_load")
    wrap(PersistentResultCache, "preload", "store.cache_load")
    wrap(PersistentResultCache, "put", "store.cache_put", after=_count_cache_bytes)
    for function in ("save_figure_result", "save_scenario_result"):
        wrap(store, function, "store.save", after=_count_artifact_bytes)
    wrap(ScoringEngine, "score_rasters", "snn.serving.score", before=_count_score_lanes)
    wrap(ScoringEngine, "encode_request", "snn.serving.encode")
    wrap(snapshot, "load_snapshot", "snn.snapshot.load")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from a finished traced pass."""
    metrics = {metric: tracer.self_time.get(span, 0.0) for span, metric in LAYER_TIMES.items()}
    counters = tracer.counters
    for name in (
        "snn.batched.learn_lane_steps",
        "snn.batched.infer_lane_steps",
        "snn.learning.stdp_batched_calls",
        "snn.models.learn_examples",
        "snn.encoding.examples",
        "core.pipeline.run_calls",
        "core.pipeline.run_batch_calls",
        "scenarios.bisect_runs",
        "analog.transient_points",
        "store.bytes_written",
    ):
        metrics[name] = counters.get(name, 0.0)
    batches = counters.get("core.pipeline.run_batch_calls", 0.0)
    metrics["core.pipeline.variants_per_batch"] = (
        counters.get("core.pipeline.variants", 0.0) / batches if batches else 0.0
    )
    score_calls = tracer.calls.get("snn.serving.score", 0)
    metrics["snn.serving.lanes_per_call"] = (
        counters.get("snn.serving.lanes", 0.0) / score_calls if score_calls else 0.0
    )
    executors = tracer.seen["executor"].values()
    tasks = sum(executor.stats.tasks_executed for executor in executors)
    hits = sum(executor.stats.cache_hits for executor in executors)
    metrics["exec.executor.tasks"] = float(tasks)
    metrics["exec.executor.cache_hit_ratio"] = hits / (tasks + hits) if tasks + hits else 0.0
    return metrics


def covered_seconds(metrics: Dict[str, float]) -> float:
    """Summed self time of the listed layers."""
    return sum(metrics[name] for name in LAYER_TIMES.values())
