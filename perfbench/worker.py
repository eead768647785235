"""One pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass.  The script imports ``repro``
from ``src/``, finishes its set-up, prints ``READY`` on standard output (the
parent times set-up from process start to that line), then runs the timed
pass and writes a JSON record of what it measured and observed to
``--result``.  Nothing else goes to standard output.

Workloads (all serial, ``workers=0``, one process):

* ``reproduce`` -- every registered figure at smoke scale from an empty
  output directory, as ``python -m repro run --all --scale smoke`` does.
* ``resume`` -- the same over a copy of a finished ``reproduce`` directory,
  so every pipeline run is a cache hit.
* ``campaign`` -- five library scenarios at smoke scale, as
  ``python -m repro scenarios run`` does.
* ``serve`` -- a benchmark-scale snapshot served through ``Microbatcher``
  into ``ScoringEngine`` under a fixed open-loop Poisson load, then one
  client at a time, then closed-loop saturation.

``export-snapshot`` trains and saves the snapshot ``serve`` loads; it is a
preparation step, not a workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

#: Process start, for ``import.s`` (the sampler's NumPy import included).
PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

#: The scenarios of the ``campaign`` workload: a wide lockstep grid, a
#: compound fault, defense co-evaluation and two adaptive bisections.
CAMPAIGN_SCENARIOS = (
    "layer_droop_asymmetry",
    "combined_gain_threshold",
    "defense_sensitivity_matrix",
    "inhibitory_collapse_search",
    "global_droop_collapse_search",
)

#: Open-loop arrival rates of ``serve`` (requests/s) and the share of the
#: run each phase is scheduled to last.  The high rate stays well below the
#: single-thread scoring capacity even when the host is slow: near capacity
#: a batching server's latency grows as 1 / (1 - rate x per-lane cost), so
#: at 150 req/s it swung 4x with host speed.
SERVE_PHASES = (("r50", 50.0, 0.2), ("r100", 100.0, 0.2))
#: Requests per second of the run sent by a single client that waits for
#: each answer before sending the next (no queueing).
LONE_PER_SECOND = 30
#: Requests per saturation block (two full microbatches), and blocks per
#: second of the run.
SATURATION_BLOCK = 128
SATURATION_BLOCKS_PER_SECOND = 0.6
#: Request keys the oracle holds expected labels for; request ``i`` of a
#: run with run seed ``s`` is encoded with key ``(i + 997 s) % SERVE_KEYS``.
SERVE_KEYS = 2048
#: Seed of the arrival schedule.  Tail latency hangs on the schedule's
#: bursts, so every run replays the same Poisson schedule and the run
#: seed varies what the requests hold instead.
SCHEDULE_SEED = 0
#: Distinct request images (key ``k`` uses image ``k % SERVE_IMAGES``).
SERVE_IMAGES = 256
#: Scale the serving snapshot is trained at.
SERVE_SCALE = "benchmark"
#: Snapshot artifact name inside the prepared directory.
SNAPSHOT_NAME = "serve"


def _digest(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def observe_artifact(json_path: Path) -> dict:
    """Metrics and array digests of one stored artifact, re-hashed from disk."""
    import numpy as np

    document = json.loads(json_path.read_text())
    arrays = {}
    if document.get("arrays"):
        with np.load(json_path.with_suffix(".npz"), allow_pickle=False) as bundle:
            arrays = {name: _digest(bundle[name]) for name in document["arrays"]}
    return {"metrics": document.get("metrics", {}), "arrays": arrays}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    threads = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads[Path(path).name] = function()
                break
    return threads


def provenance(seed: int) -> dict:
    """Versions, BLAS threads, seed and the SNN engine this process resolves."""
    import numpy
    import scipy

    from repro.snn.batched import reduction_contract_holds

    batched = reduction_contract_holds()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "workload_seed": seed,
        "snn_engine": "batched" if batched else "scalar",
        "engine_fallback": not batched,
    }


class Pass:
    """Timing and outputs of one pass, on the sampler's clock."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.start = 0.0
        self.wall_s = 0.0
        #: ``[name, latency_s, error]``; latency runs from the pass start
        #: (every batch operation is due then) to its artifact being written.
        self.ops = []
        self.observed = {}
        self.extra = {}

    def begin(self) -> None:
        self.start = self.clock()

    def op(self, name: str, function) -> None:
        try:
            function()
        except Exception as error:  # a failed operation is data, not a crash
            self.ops.append([name, self.clock() - self.start, repr(error)])
        else:
            self.ops.append([name, self.clock() - self.start, None])

    def end(self) -> None:
        self.wall_s = self.clock() - self.start


# --------------------------------------------------------------------------
# Batch workloads.
# --------------------------------------------------------------------------


def run_figures(args, result: Pass) -> None:
    """``repro run --all --scale smoke`` into ``args.out`` (empty or resumed)."""
    from repro.cli import CACHE_FILENAME
    from repro.core.config import ExperimentConfig
    from repro.exec.resilience import ResiliencePolicy
    from repro.figures import FigureContext, figure_names, get_figure
    from repro.store import PersistentResultCache, git_revision, save_figure_result

    out_dir = Path(args.out)
    config = ExperimentConfig.from_scale("smoke").with_overrides(seed=args.seed)
    result.begin()
    policy = ResiliencePolicy.from_options(seed=config.seed)
    cache = PersistentResultCache(out_dir / CACHE_FILENAME)
    git_sha = git_revision()
    tiers = {}
    with FigureContext(
        config, workers=0, cache=cache, engine="auto", resilience=policy
    ) as context:
        for name in figure_names():
            spec = get_figure(name)
            tiers[name] = "snn" if spec.uses_pipeline else "circuit"

            def one(spec=spec):
                figure = spec.run(context)
                save_figure_result(spec, figure, out_dir, config=config, git_sha=git_sha)

            result.op(name, one)
    result.end()
    for name, _latency, error in result.ops:
        if error is None:
            entry = observe_artifact(out_dir / f"{name}.json")
            result.observed[name] = dict(entry, tier=tiers[name])


def run_campaign(args, result: Pass) -> None:
    """``repro scenarios run <CAMPAIGN_SCENARIOS> --scale smoke`` into ``args.out``."""
    from repro.exec.executor import PipelineFromConfig
    from repro.exec.resilience import ResiliencePolicy
    from repro.exec.shard import FULL
    from repro.scenarios import ScenarioRunner, get_scenario
    from repro.store import git_revision, open_shard_cache, save_scenario_result

    out_dir = Path(args.out)
    seed = args.seed

    def seeded_factory(config, engine):
        return PipelineFromConfig(config.with_overrides(seed=seed), engine=engine)

    result.begin()
    policy = ResiliencePolicy.from_options()
    cache = open_shard_cache(out_dir, FULL)
    git_sha = git_revision()
    with ScenarioRunner(
        scale="smoke",
        workers=0,
        cache=cache,
        shard=FULL,
        resilience=policy,
        pipeline_factory=seeded_factory,
    ) as runner:
        for name in CAMPAIGN_SCENARIOS:

            def one(name=name):
                scenario = get_scenario(name)
                config = runner.config_for(scenario).with_overrides(seed=seed)
                scenario_result = runner.run(scenario)
                if not scenario_result.complete:
                    raise RuntimeError(f"{name}: {scenario_result.missing} variants missing")
                save_scenario_result(
                    scenario, scenario_result, out_dir, config=config, git_sha=git_sha
                )

            result.op(name, one)
    result.end()
    for name, _latency, error in result.ops:
        if error is None:
            result.observed[name] = observe_artifact(out_dir / f"scenario-{name}.json")


# --------------------------------------------------------------------------
# Serving.
# --------------------------------------------------------------------------


def request_images(seed: int):
    """The request image pool for a workload seed (flattened digits)."""
    from repro.datasets.digits import SyntheticDigits
    from repro.utils.rng import RandomState

    digits = SyntheticDigits(
        n_samples=SERVE_IMAGES, seed=RandomState(seed, name="perfbench_requests")
    )
    return digits.flattened()


def score_keys(engine, images, keys):
    """Predicted labels for request keys, scored in one chunked pass."""
    import numpy as np

    rasters = np.stack(
        [engine.encode_request(images[key % SERVE_IMAGES], key) for key in keys]
    )
    return [int(label) for label in engine.score_rasters(rasters).labels]


class ServeSession:
    """The serving stack plus the load generator's bookkeeping."""

    def __init__(self, snapshot_path: Path, clock, key_offset: int = 0) -> None:
        from repro.snn.serving import ScoringEngine
        from repro.snn.snapshot import load_snapshot

        self.snapshot = load_snapshot(snapshot_path)
        self.engine = ScoringEngine(self.snapshot)
        self.clock = clock
        self.key_offset = key_offset
        self.images = None
        self.due = {}
        self.submitted = {}
        self.flushed = {}
        self.done = {}
        self.keys = {}
        self.service = []

    def warm_up(self, seed: int) -> None:
        """One score, paying the lazy batched-network compile before timing."""
        self.images = request_images(seed)
        score_keys(self.engine, self.images, [0])

    def score_batch(self, payloads):
        """The microbatcher's scoring callable: keyed encode, then score."""
        import numpy as np

        start = self.clock()
        rasters = np.stack(
            [self.engine.encode_request(image, key) for _rid, key, image in payloads]
        )
        labels = self.engine.score_rasters(rasters).labels
        finish = self.clock()
        for rid, _key, _image in payloads:
            self.flushed[rid] = start
            self.done[rid] = finish
        self.service.append(finish - start)
        return [int(label) for label in labels]

    def payload(self, rid: int):
        key = (rid + self.key_offset) % SERVE_KEYS
        self.keys[rid] = key
        return (rid, key, self.images[key % SERVE_IMAGES])

    def open_loop(self, batcher, offsets, first_rid: int) -> list:
        """Submit requests at ``offsets`` (seconds) regardless of completions.

        The generator polls the batcher between arrivals, so linger flushes
        happen on time; each request is timed from when it was due.  It
        spins rather than sleeps: waking from a sleep on a shared host takes
        from microseconds to milliseconds, which would swamp the latencies.
        Returns the request ids.
        """
        base = self.clock() + 0.01
        rids = []
        for index, offset in enumerate(offsets):
            rid = first_rid + index
            due = base + offset
            self.due[rid] = due
            while self.clock() < due:
                batcher.poll()
            self.submitted[rid] = self.clock()
            batcher.submit(rid, self.payload(rid))
            rids.append(rid)
        while batcher.pending:
            batcher.poll()
        return rids

    def one_client(self, batcher, count: int, first_rid: int) -> list:
        """One client that waits for each answer before sending the next.

        Each request is alone in its microbatch, flushed when its linger
        expires.  Returns the request ids.
        """
        rids = list(range(first_rid, first_rid + count))
        for rid in rids:
            self.due[rid] = self.submitted[rid] = self.clock()
            batcher.submit(rid, self.payload(rid))
            while batcher.pending:
                batcher.poll()
        return rids

    def closed_loop(self, batcher, blocks: int, first_rid: int):
        """Keep the queue full, ``SATURATION_BLOCK`` requests at a time.

        Returns the request ids and the seconds each block took.
        """
        rids, seconds = [], []
        for block in range(blocks):
            start = self.clock()
            first = first_rid + block * SATURATION_BLOCK
            for rid in range(first, first + SATURATION_BLOCK):
                self.due[rid] = start
                self.submitted[rid] = self.clock()
                batcher.submit(rid, self.payload(rid))
                rids.append(rid)
            batcher.drain()
            seconds.append(self.clock() - start)
        return rids, seconds


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def run_serve(args, session: ServeSession, result: Pass) -> None:
    import numpy as np

    from repro.exec.microbatch import DEFAULT_LINGER, Microbatcher

    rng = np.random.default_rng(SCHEDULE_SEED)
    schedules = []
    for phase, rate, share in SERVE_PHASES:
        count = max(1, round(rate * share * args.seconds))
        schedules.append((phase, np.cumsum(rng.exponential(1.0 / rate, size=count))))
    lone_count = max(1, round(LONE_PER_SECOND * args.seconds))
    blocks = max(1, round(SATURATION_BLOCKS_PER_SECOND * args.seconds))

    batcher = Microbatcher(
        session.score_batch, example_chunk=session.engine.example_chunk,
        linger=DEFAULT_LINGER, time_source=session.clock,
    )
    labels = {}
    phases = {}
    rid = 0
    result.begin()
    for phase, offsets in schedules:
        rids = []

        def one(offsets=offsets, first=rid):
            rids.extend(session.open_loop(batcher, offsets, first))

        result.op(phase, one)
        phases[phase] = rids
        rid += len(offsets)
    lone_rids = []

    def lone(first=rid):
        lone_rids.extend(session.one_client(batcher, lone_count, first))

    result.op("one-client", lone)
    rid += lone_count
    saturation_rids = []
    block_seconds = []

    def saturate(first=rid):
        rids, seconds = session.closed_loop(batcher, blocks, first)
        saturation_rids.extend(rids)
        block_seconds.extend(seconds)

    result.op("saturation", saturate)
    result.end()
    # The pass's wall-clock is a saturation block (median over blocks): the
    # other phases last as long as their schedule whatever the server does.
    if block_seconds:
        result.wall_s = statistics.median(block_seconds)
        result.extra["block_seconds"] = block_seconds
    for rids in list(phases.values()) + [lone_rids, saturation_rids]:
        for request in rids:
            if request in session.done:
                labels[request] = batcher.result(request)

    latencies = {
        phase: [session.done[r] - session.due[r] for r in rids if r in session.done]
        for phase, rids in phases.items()
    }
    late = [session.submitted[r] - session.due[r] for rids in phases.values() for r in rids]
    waits = [session.flushed[r] - session.submitted[r] for rids in phases.values() for r in rids]
    stats = batcher.stats
    serve = {
        "one_client_latency_s": [
            session.done[r] - session.due[r] for r in lone_rids if r in session.done
        ],
        "serve.capacity_rps": SATURATION_BLOCK / result.wall_s if block_seconds else 0.0,
        "gen.late_p99_ms": 1e3 * percentile(late, 0.99) if late else 0.0,
        "exec.microbatch.queue_wait_p99_ms": 1e3 * percentile(waits, 0.99) if waits else 0.0,
        "exec.microbatch.service_p99_ms": 1e3 * percentile(session.service, 0.99),
        "exec.microbatch.flushes.full": stats.microbatch_full_flushes,
        "exec.microbatch.flushes.linger": stats.microbatch_linger_flushes,
        "exec.microbatch.flushes.drain": stats.microbatch_drain_flushes,
        "exec.microbatch.occupancy": stats.mean_microbatch_occupancy(),
    }
    for phase, values in latencies.items():
        if values:
            serve[f"serve.{phase}.p50_ms"] = 1e3 * percentile(values, 0.5)
            serve[f"serve.{phase}.p99_ms"] = 1e3 * percentile(values, 0.99)
    result.extra["serve"] = serve
    result.extra["requests"] = rid + blocks * SATURATION_BLOCK
    result.observed["labels"] = [[session.keys[r], labels[r]] for r in sorted(labels)]


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------


def export_snapshot(args) -> None:
    """Train the serving network for a workload seed and save its snapshot."""
    from repro.core.config import ExperimentConfig
    from repro.core.pipeline import ClassificationPipeline
    from repro.snn.serving import ScoringEngine
    from repro.snn.snapshot import save_snapshot, snapshot_from_pipeline

    config = ExperimentConfig.from_scale(SERVE_SCALE).with_overrides(seed=args.seed)
    snapshot = snapshot_from_pipeline(ClassificationPipeline(config))
    save_snapshot(snapshot, args.out, name=SNAPSHOT_NAME)
    if args.result:
        engine = ScoringEngine(snapshot)
        images = request_images(args.seed)
        labels = score_keys(engine, images, range(SERVE_KEYS))
        Path(args.result).write_text(json.dumps({"labels": labels}))


def snapshot_path(prepared: str) -> Path:
    return Path(prepared) / f"snapshot-{SNAPSHOT_NAME}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload", choices=("reproduce", "resume", "campaign", "serve", "export-snapshot")
    )
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--run-seed", type=int, default=0, help="serve request-key seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", default=None, help="output directory of the pass")
    parser.add_argument("--prepared", default=None, help="prepared input directory")
    parser.add_argument("--result", default=None, help="JSON record to write")
    parser.add_argument("--trace-file", default=None, help="trace this pass")
    parser.add_argument("--probe", action="store_true", help="set up, then exit")
    parser.add_argument("--cpu", type=int, default=None, help="pin to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        # Before NumPy loads, so its BLAS sizes its thread pool to match.
        os.sched_setaffinity(0, {args.cpu})
    from speed import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()

    import repro.cli  # noqa: F401  (the CLI's import cost is the user's)

    if args.workload == "serve":
        import repro.exec.microbatch  # noqa: F401
        import repro.snn.serving  # noqa: F401
    import_s = time.perf_counter() - PROCESS_START - sampler.overhead
    if args.workload == "export-snapshot":
        sampler.stop()
        export_snapshot(args)
        return 0

    tracer = None
    if args.trace_file:
        import layers

        tracer = Tracer(clock=sampler.clock)
        layers.install(tracer)
    session = None
    if args.workload == "serve":
        session = ServeSession(
            snapshot_path(args.prepared), sampler.clock, key_offset=997 * args.run_seed
        )
        session.warm_up(args.seed)
    setup_layers = {}
    if tracer is not None:
        # Set-up spans stay in the trace file but not in the pass's totals.
        setup_layers["snn.snapshot.load_s"] = tracer.self_time.get("snn.snapshot.load", 0.0)
        tracer.reset()
    setup_end = len(sampler.samples)
    # The parent times set-up to this line and scales it by the factor.
    print(f"READY {sampler.factor(0, setup_end)!r}", flush=True)
    if args.probe:
        sampler.stop()
        return 0

    result = Pass(sampler.clock)
    with contextlib.redirect_stdout(sys.stderr):
        if args.workload == "campaign":
            run_campaign(args, result)
        elif args.workload == "serve":
            run_serve(args, session, result)
        else:
            run_figures(args, result)
    sampler.stop()
    record = {
        "workload": args.workload,
        "factors": {"setup": sampler.factor(0, setup_end), "pass": sampler.factor(setup_end)},
        "import_s": import_s,
        "wall_s": result.wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": result.ops,
        "observed": result.observed,
        "provenance": provenance(args.seed),
    }
    record.update(result.extra)
    if tracer is not None:
        import layers

        tracer.uninstall()
        metrics = layers.layer_metrics(tracer)
        metrics.update(setup_layers, **{"import.s": import_s})
        record["layers"] = metrics
        # Batch passes are covered against their wall-clock; a serving pass
        # mostly waits for arrivals, so against its flushes' service time.
        base = sum(session.service) if session is not None else result.wall_s
        covered = layers.covered_seconds(metrics) - sum(setup_layers.values())
        record["coverage"] = covered / base
        tracer.write_chrome_trace(
            Path(args.trace_file),
            {"workload": args.workload, "seed": args.seed, "wall_s": result.wall_s},
        )
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
