"""``python -m repro`` — figures, scenarios, artifacts and reports.

Figure subcommands:

``list``
    Show every registered figure with its tier and paper-claim count.
``run``
    Reproduce one or more figures (or ``--all``) at a chosen scale,
    fanning pipeline runs out over ``--workers`` processes, and persist
    schema-versioned JSON+NPZ artifacts (plus the executor's result cache)
    under ``--out``.  Re-running against the same ``--out`` resumes from
    the persistent cache: already-evaluated configurations are cache hits
    and the numbers are bit-identical.
``report``
    Render the artifacts in a results directory as comparison tables
    against the paper's published numbers.  Exits nonzero when an
    artifact is missing its arrays or fails schema/digest validation.
    Snapshot artifacts are listed with their provenance (engine, scale,
    git SHA) under the same integrity rules.

Snapshot subcommands (the inference serving tier, :mod:`repro.snn.snapshot`
and :mod:`repro.snn.serving`):

``snapshot export``
    Train one fig-8 pipeline at the chosen scale and persist its trained
    state (weights, theta, thresholds, label assignments, encoding
    parameters) as a schema-versioned, digest-verified JSON+NPZ artifact.
    The snapshot records the evaluation accuracy and a SHA-256 of the
    eval-set predictions so any later scoring can prove bitwise parity.
``snapshot info``
    Inspect a stored snapshot (digest-verified load).  ``--rescore``
    hydrates the inference-only scoring engine, re-scores the held-out
    split and exits nonzero unless accuracy and prediction digest match
    the values recorded at export time — the cross-process serving-parity
    check CI runs.

Scenario subcommands (the declarative threat-scenario subsystem,
:mod:`repro.scenarios`):

``scenarios list``
    Show every registered scenario (family, strategy, variant count).
``scenarios run``
    Evaluate scenarios (or ``--all``) with the same persistence and
    resume guarantees as figures.  A long campaign splits across
    independent invocations in one of two ways: ``--shard i/n`` gives
    each invocation one pre-assigned chunk of the variant list, while
    ``--elastic`` (:mod:`repro.exec.elastic`) lets N copies of the same
    command claim chunks through heartbeat lease files, steal leases from
    crashed peers and duplicate stragglers.  Either way each invocation
    writes its own cache file, whichever finds the union complete writes
    the merged artifact — bit-identical to an unsplit run — and an
    incomplete one prints what is missing and the commands that resume
    it.  ``--file`` loads additional scenario specs from YAML/JSON.
``scenarios clean``
    Sweep stale elastic coordination state (expired leases, orphaned
    markers and heartbeats) from a campaign directory; dry-run by
    default, ``--apply`` deletes.
``scenarios report``
    Render stored scenario artifacts as summary tables.

Both ``run`` commands execute through the supervised sweep executor, whose
:class:`~repro.exec.resilience.ResiliencePolicy` the flags build:
``--task-timeout`` abandons and re-dispatches hung tasks, ``--max-retries``
bounds the per-task retry budget (seeded exponential backoff), and
``--chaos`` injects a deterministic fault plan
(:mod:`repro.exec.chaos`) to prove the campaign still produces bit-identical
results under worker crashes, hangs, transient errors and cache corruption.
Ctrl-C / SIGTERM exit gracefully (codes 130/143) with every completed result
flushed to the persistent cache for resume.

Examples::

    python -m repro list
    python -m repro run fig8 --scale smoke --workers 4 --out results/
    python -m repro report results/
    python -m repro snapshot export --scale smoke --out results/
    python -m repro snapshot info results/snapshot-fig8.json --rescore
    python -m repro scenarios list
    python -m repro scenarios run --all --scale smoke --out results/
    python -m repro scenarios run vdd_droop_fine --shard 0/4 --out results/
    python -m repro scenarios run --all --elastic --out results/  # xN procs
    python -m repro scenarios clean results/ --apply
    python -m repro scenarios report results/
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.config import ExperimentConfig
from repro.core.reporting import (
    format_artifact_summary,
    format_recovered_faults,
    format_execution_report,
    format_paper_comparison,
)
from repro.exec.chaos import CHAOS_PLANS, load_fault_plan
from repro.exec.elastic import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_LEASE_TTL,
    ElasticPolicy,
    default_worker_id,
)
from repro.exec.resilience import ResiliencePolicy, RetryPolicy
from repro.utils.tables import format_table
from repro.utils.validation import ENGINES

if TYPE_CHECKING:
    from repro.store import StoredArtifact

#: File name of the persistent executor cache inside a results directory.
CACHE_FILENAME = "cache.json"

#: Exit code after Ctrl-C (the conventional 128 + SIGINT).
EXIT_INTERRUPTED = 130

#: Exit code after SIGTERM (the conventional 128 + SIGTERM).
EXIT_TERMINATED = 143


class _TerminationRequested(BaseException):
    """Raised from the SIGTERM handler to unwind through context managers.

    A ``BaseException`` (like :class:`KeyboardInterrupt`) so ordinary
    ``except Exception`` retry logic never swallows a shutdown request;
    the ``with`` blocks it unwinds through cancel pending executor work,
    and every completed result is already flushed to the persistent cache.
    """


def _install_sigterm_handler():
    """Route SIGTERM into :class:`_TerminationRequested`; returns the old handler.

    Returns ``None`` when handlers cannot be installed (non-main thread,
    platforms without SIGTERM) — the CLI then just keeps default behaviour.
    """

    def handler(signum, frame):
        raise _TerminationRequested()

    try:
        return signal.signal(signal.SIGTERM, handler)
    except (ValueError, OSError, AttributeError):
        return None


#: The ``--engine`` help, shared by every command that trains or scores.
_ENGINE_HELP = (
    "'auto' runs the fast engines (lockstep SNN engine, compiled circuit "
    "solver); 'scalar' forces the per-example SNN and per-device MNA "
    "reference paths on both tiers (SNN results bit-identical, circuit "
    "results identical within solver tolerance)"
)


def _add_scale_workers_engine(parser: argparse.ArgumentParser) -> None:
    """The execution flags shared by ``run`` and ``scenarios run``."""
    parser.add_argument(
        "--scale",
        choices=sorted(ExperimentConfig.presets()),
        default=None,
        help="experiment scale preset (default: REPRO_SCALE or 'benchmark')",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for pipeline sweeps (0/1 = serial: under "
        "--engine auto each batch of attacks trains in one lockstep pass; "
        ">= 2: a batch of two or more cache misses goes to the process pool, "
        "where each attack trains alone in a one-lane pass)",
    )
    parser.add_argument("--engine", choices=ENGINES, default="auto", help=_ENGINE_HELP)
    parser.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="artifact directory (default: results/)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-item tables"
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task timeout for parallel runs: a dispatch exceeding it "
        "is abandoned and re-dispatched (counts against --max-retries)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget per task for worker failures and timeouts, with "
        "seeded exponential backoff (default: 2)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan for resilience testing: "
        f"a built-in name ({', '.join(sorted(CHAOS_PLANS))}) or a JSON "
        "file; final results stay bit-identical to a clean run",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's figures and run declarative "
        "attack scenarios, with persistent artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every registered figure")

    run = sub.add_parser("run", help="reproduce figures and persist artifacts")
    run.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help="figure names (see 'python -m repro list')",
    )
    run.add_argument("--all", action="store_true", help="run every registered figure")
    _add_scale_workers_engine(run)

    report = sub.add_parser("report", help="compare stored artifacts to the paper")
    report.add_argument("results_dir", metavar="DIR", help="artifact directory")

    snapshot = sub.add_parser(
        "snapshot", help="trained-state snapshots for serving (export/info)"
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    snap_export = snap_sub.add_parser(
        "export",
        help="train one fig-8 pipeline and persist its trained state",
    )
    snap_export.add_argument(
        "--scale",
        choices=sorted(ExperimentConfig.presets()),
        default=None,
        help="experiment scale preset (default: REPRO_SCALE or 'benchmark')",
    )
    snap_export.add_argument("--engine", choices=ENGINES, default="auto", help=_ENGINE_HELP)
    snap_export.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="artifact directory (default: results/)",
    )
    snap_export.add_argument(
        "--name",
        default="fig8",
        metavar="NAME",
        help="snapshot artifact name: snapshot-<NAME>.json/.npz "
        "(default: fig8)",
    )
    snap_export.add_argument(
        "--quiet", action="store_true", help="suppress the summary table"
    )

    snap_info = snap_sub.add_parser(
        "info", help="inspect a stored snapshot (digest-verified load)"
    )
    snap_info.add_argument(
        "snapshot_path", metavar="JSON", help="path to a snapshot-*.json file"
    )
    snap_info.add_argument(
        "--rescore",
        action="store_true",
        help="hydrate the scoring engine, re-score the held-out split and "
        "exit nonzero unless accuracy and prediction SHA-256 match the "
        "values recorded at export time",
    )
    snap_info.add_argument("--engine", choices=ENGINES, default="auto", help=_ENGINE_HELP)

    scenarios = sub.add_parser(
        "scenarios", help="declarative attack scenarios (list/run/report)"
    )
    scen_sub = scenarios.add_subparsers(dest="scenario_command", required=True)

    scen_list = scen_sub.add_parser("list", help="list every registered scenario")
    scen_list.add_argument(
        "--tag", default=None, help="only scenarios carrying this tag"
    )

    scen_run = scen_sub.add_parser(
        "run", help="evaluate scenarios and persist artifacts"
    )
    scen_run.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO", help="scenario names"
    )
    scen_run.add_argument(
        "--all", action="store_true", help="run every registered scenario"
    )
    scen_run.add_argument(
        "--file",
        action="append",
        default=[],
        metavar="SPEC",
        help="load additional scenario specs from a YAML/JSON file "
        "(repeatable; loaded scenarios are addressable by name)",
    )
    scen_run.add_argument(
        "--shard",
        default=None,
        metavar="i/n",
        help="evaluate one pre-assigned chunk of each scenario: every n-th "
        "variant from position i (adaptive scenarios go whole to one shard "
        "by name hash); run every shard, then any invocation merges the "
        "artifacts",
    )
    scen_run.add_argument(
        "--elastic",
        action="store_true",
        help="take chunks from a coordinator-free work-stealing drain of "
        "each scenario over --out instead of a fixed shard: start N copies "
        "of this command and they claim chunks through lease files, steal "
        "work from crashed peers, duplicate stragglers and merge a "
        "bit-identical artifact (mutually exclusive with --shard)",
    )
    scen_run.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="stable identity of this elastic worker "
        "(default: <hostname>-<pid>)",
    )
    scen_run.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="elastic lease heartbeat time-to-live: a lease not renewed "
        f"for this long is stolen by peers (default: {DEFAULT_LEASE_TTL:g})",
    )
    scen_run.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        metavar="N",
        help="variants per elastic lease chunk "
        f"(default: {DEFAULT_CHUNK_SIZE})",
    )
    _add_scale_workers_engine(scen_run)

    scen_clean = scen_sub.add_parser(
        "clean",
        help="sweep stale elastic coordination state from a campaign "
        "directory (dry-run by default)",
    )
    scen_clean.add_argument(
        "workdir", metavar="DIR", help="campaign/artifact directory to sweep"
    )
    scen_clean.add_argument(
        "--apply",
        action="store_true",
        help="actually delete the stale files (default: only list them)",
    )
    scen_clean.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="lease time-to-live used to judge staleness "
        f"(default: {DEFAULT_LEASE_TTL:g})",
    )

    scen_report = scen_sub.add_parser(
        "report", help="summarise stored scenario artifacts"
    )
    scen_report.add_argument("results_dir", metavar="DIR", help="artifact directory")
    return parser


def _cmd_list() -> int:
    from repro.figures import iter_figures

    rows = []
    for spec in iter_figures():
        tier = "pipeline" if spec.uses_pipeline else "circuit"
        rows.append(
            [spec.name, tier, ",".join(spec.tags), str(len(spec.claims)), spec.description]
        )
    print(
        format_table(
            ["figure", "tier", "tags", "claims", "description"],
            rows,
            title=f"Registered paper figures ({len(rows)})",
        )
    )
    return 0


def _resolve_figures(names: Sequence[str], run_all: bool) -> List[str]:
    from repro.figures import figure_names

    if run_all:
        return figure_names()
    if not names:
        raise SystemExit(
            "no figures given; name at least one (see 'python -m repro list') "
            "or pass --all"
        )
    known = set(figure_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown figure(s): {', '.join(unknown)}; "
            f"registered: {', '.join(figure_names())}"
        )
    return list(names)


def _resilience_from_args(
    args: argparse.Namespace, *, seed: int = 0
) -> ResiliencePolicy:
    """Map the shared CLI flags onto a :class:`ResiliencePolicy`."""
    for flag, value in (
        ("--max-retries", {"max_retries": args.max_retries}),
        ("--task-timeout", {"task_timeout": args.task_timeout}),
    ):
        try:
            RetryPolicy(**value)
        except ValueError as error:
            raise SystemExit(f"{flag}: {error}") from None
    plan = None
    if args.chaos:
        try:
            plan = load_fault_plan(args.chaos)
        except (OSError, ValueError) as error:
            raise SystemExit(f"--chaos: {error}") from None
    return ResiliencePolicy.from_options(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        chaos=plan,
        seed=seed,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.figures import FigureContext, get_figure
    from repro.store import PersistentResultCache, git_revision, save_figure_result

    names = _resolve_figures(args.figures, args.all)
    if args.scale is not None:
        config = ExperimentConfig.from_scale(args.scale)
    else:
        config = ExperimentConfig.from_environment(default="benchmark")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = _resilience_from_args(args, seed=config.seed)
    if policy.chaos is not None:
        # Disk-level chaos (cache corruption) fires before the cache opens,
        # so the quarantine-and-recompute path is what gets exercised.
        policy.chaos.apply_disk(out_dir)
    cache = PersistentResultCache(out_dir / CACHE_FILENAME)
    git_sha = git_revision()

    with FigureContext(
        config,
        workers=args.workers,
        cache=cache,
        engine=args.engine,
        resilience=policy,
        figures=names,
    ) as context:
        for name in names:
            spec = get_figure(name)
            print(f"[{name}] {spec.title} (scale {config.scale_name})...")
            result = spec.run(context)
            paths = save_figure_result(
                spec, result, out_dir, config=config, git_sha=git_sha
            )
            if not args.quiet:
                print(result.render())
            print(
                f"[{name}] done in {result.wall_seconds:.2f} s "
                f"({result.execution['tasks_executed']} pipeline runs, "
                f"{result.execution['cache_hits']} cache hits) -> {paths.json_path}"
            )
        print()
        print(format_execution_report(context.executor.stats))
    return 0


#: classify_artifact_json kinds the report commands count as failures.
_BROKEN_JSON = {
    "corrupt": "not valid JSON",
    "unreadable": "cannot read file",
}


def _load_artifacts(
    results_dir: Path, pattern: str, kinds: Sequence[str]
) -> Tuple[List[Tuple[Path, StoredArtifact]], List[str]]:
    """Load and verify every artifact of ``kinds`` matching ``pattern``.

    The one loading loop of the report commands.  Returns the loaded
    ``(path, artifact)`` pairs in file-name order, plus one failure line
    per file that is unreadable, not valid JSON or fails
    :func:`~repro.store.load_artifact`.  JSON that is not an artifact of
    ``kinds`` (caches, stray configs) is skipped silently.
    """
    from repro.store import classify_artifact_json, load_artifact

    loaded: List[Tuple[Path, StoredArtifact]] = []
    failures: List[str] = []
    for json_path in sorted(results_dir.glob(pattern)):
        if json_path.name.startswith("cache"):
            continue
        kind = classify_artifact_json(json_path)
        if kind in _BROKEN_JSON:
            failures.append(f"{json_path.name}: {_BROKEN_JSON[kind]}")
        elif kind in kinds:
            try:
                loaded.append((json_path, load_artifact(json_path)))
            except (OSError, ValueError) as error:
                failures.append(f"{json_path.name}: {error}")
    return loaded, failures


def _print_failures(failures: List[str]) -> int:
    """List the artifacts that failed to load; 1 if any did (CI depends on it)."""
    if not failures:
        return 0
    print(f"{len(failures)} artifact(s) failed to load:", file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1


def _snapshot_report_row(json_path: Path, stored: StoredArtifact) -> List[str]:
    """One ``repro report`` table row for a snapshot artifact."""
    provenance = stored.provenance
    metrics = stored.metrics
    accuracy = metrics.get("accuracy")
    digest = metrics.get("eval_predictions_sha256", "")
    return [
        json_path.name,
        stored.document.get("engine", "?") or "?",
        provenance.get("scale", "?"),
        str(provenance.get("git_sha", "?"))[:12],
        f"{accuracy:.4f}" if accuracy is not None else "?",
        digest[:12] if digest else "-",
    ]


def _cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"{results_dir} is not a directory", file=sys.stderr)
        return 1
    loaded, failures = _load_artifacts(results_dir, "*.json", ("figure", "snapshot"))
    documents = [stored.document for _, stored in loaded if stored.kind == "figure"]
    snapshot_rows = [
        _snapshot_report_row(path, stored)
        for path, stored in loaded
        if stored.kind == "snapshot"
    ]
    if not loaded and not failures:
        print(f"no figure artifacts found in {results_dir}", file=sys.stderr)
        return 1
    if documents:
        print(format_artifact_summary(documents))
        print()
        print(format_paper_comparison(documents))
    if snapshot_rows:
        if documents:
            print()
        print(
            format_table(
                ["snapshot", "engine", "scale", "git sha", "accuracy", "digest"],
                snapshot_rows,
                title=f"Serving snapshots ({len(snapshot_rows)})",
            )
        )
    return _print_failures(failures)


# --------------------------------------------------------------------------
# Snapshot subcommands (the inference serving tier).
# --------------------------------------------------------------------------


def _cmd_snapshot_export(args: argparse.Namespace) -> int:
    from repro.core.pipeline import ClassificationPipeline
    from repro.snn.snapshot import save_snapshot, snapshot_from_pipeline

    if args.scale is not None:
        config = ExperimentConfig.from_scale(args.scale)
    else:
        config = ExperimentConfig.from_environment(default="benchmark")
    pipeline = ClassificationPipeline(config, engine=args.engine)
    print(
        f"[snapshot] training fig-8 pipeline (scale {config.scale_name}, "
        f"engine {pipeline.resolved_engine})..."
    )
    snapshot = snapshot_from_pipeline(pipeline)
    paths = save_snapshot(snapshot, args.out, name=args.name)
    if not args.quiet:
        rows = [
            ("scale", config.scale_name),
            ("engine", snapshot.engine),
            ("seed", str(snapshot.seed)),
            ("arrays", str(len(snapshot.arrays))),
            ("accuracy", f"{snapshot.metrics['accuracy']:.4f}"),
            ("predictions sha256", snapshot.metrics["eval_predictions_sha256"]),
        ]
        print(format_table(["field", "value"], rows, title=f"snapshot {args.name}"))
    print(f"[snapshot] wrote {paths.json_path} + {paths.npz_path.name}")
    return 0


def _cmd_snapshot_info(args: argparse.Namespace) -> int:
    from repro.snn.serving import ScoringEngine
    from repro.snn.snapshot import snapshot_from_artifact
    from repro.store import load_artifact

    json_path = Path(args.snapshot_path)
    try:
        stored = load_artifact(json_path, kind="snapshot")
        snapshot = snapshot_from_artifact(stored)
    except (OSError, ValueError) as error:
        print(f"{json_path}: {error}", file=sys.stderr)
        return 1
    provenance = stored.provenance
    metrics = snapshot.metrics
    rows = [
        ("snapshot", stored.name),
        ("model", snapshot.model.get("kind", "?")),
        ("score layer", snapshot.score_layer),
        ("engine", snapshot.engine or "?"),
        ("scale", str(provenance.get("scale", "?"))),
        ("seed", str(snapshot.seed)),
        ("git sha", str(provenance.get("git_sha", "?"))),
        ("arrays", str(len(snapshot.arrays))),
        ("time steps", str(snapshot.time_steps)),
        ("accuracy", f"{metrics.get('accuracy', float('nan')):.4f}"),
        ("predictions sha256", metrics.get("eval_predictions_sha256", "-")),
    ]
    print(format_table(["field", "value"], rows, title=f"snapshot {stored.name}"))
    if not args.rescore:
        return 0

    engine = ScoringEngine(snapshot, engine=args.engine)
    evaluation = engine.evaluate()
    expected_digest = metrics.get("eval_predictions_sha256")
    expected_accuracy = metrics.get("accuracy")
    digest_ok = evaluation.predictions_sha256 == expected_digest
    accuracy_ok = evaluation.accuracy == expected_accuracy
    print()
    print(
        format_table(
            ["quantity", "stored", "rescored", "match"],
            [
                (
                    "accuracy",
                    f"{expected_accuracy:.6f}",
                    f"{evaluation.accuracy:.6f}",
                    "yes" if accuracy_ok else "NO",
                ),
                (
                    "predictions sha256",
                    str(expected_digest)[:16],
                    evaluation.predictions_sha256[:16],
                    "yes" if digest_ok else "NO",
                ),
            ],
            title=f"serving parity ({engine.resolved_engine} engine)",
        )
    )
    if not (digest_ok and accuracy_ok):
        print(
            f"{json_path.name}: rescored predictions diverge from the "
            "snapshot's recorded evaluation",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# Scenario subcommands.
# --------------------------------------------------------------------------


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.scenarios.composite import CompositeScenario
    from repro.scenarios.registry import iter_scenarios
    from repro.scenarios.strategy import worst_case_cost

    rows = []
    for scenario in iter_scenarios():
        if args.tag and args.tag not in scenario.tags:
            continue
        if isinstance(scenario, CompositeScenario):
            family = f"composite/{scenario.mode}"
        else:
            family = scenario.family
        if scenario.strategy == "bisect":
            # Runs on the scalar engine or a pool; passes on the lockstep one.
            probes, passes = worst_case_cost(len(next(iter(scenario.grid.values()))))
            size = f"<= {probes} ({passes} passes)"
        else:
            size = str(len(scenario.variants()))
        rows.append(
            [
                scenario.name,
                family,
                scenario.strategy,
                size,
                ",".join(scenario.tags),
                scenario.title or scenario.description,
            ]
        )
    print(
        format_table(
            ["scenario", "family", "strategy", "runs", "tags", "title"],
            rows,
            title=f"Registered attack scenarios ({len(rows)})",
        )
    )
    return 0


def _resolve_scenarios(args: argparse.Namespace) -> List[str]:
    from repro.scenarios.registry import register_scenario, scenario_names
    from repro.scenarios.spec import load_scenario_file

    for path in args.file:
        try:
            specs = load_scenario_file(path)
        except (OSError, TypeError, ValueError, RuntimeError) as error:
            raise SystemExit(f"failed to load scenario file {path}: {error}") from None
        for spec in specs:
            try:
                register_scenario(spec)
            except ValueError as error:
                raise SystemExit(
                    f"cannot register scenario from {path}: {error}"
                ) from None
    if args.all:
        return scenario_names()
    if not args.scenarios:
        raise SystemExit(
            "no scenarios given; name at least one "
            "(see 'python -m repro scenarios list') or pass --all"
        )
    known = set(scenario_names())
    unknown = [name for name in args.scenarios if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"registered: {', '.join(scenario_names())}"
        )
    return list(args.scenarios)


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.exec.shard import FULL, ShardSpec
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import ScenarioRunner
    from repro.store import git_revision, open_shard_cache, open_worker_cache, save_scenario_result

    names = _resolve_scenarios(args)
    if args.elastic and args.shard:
        raise SystemExit(
            "--elastic and --shard are mutually exclusive: elastic leases "
            "replace the static split"
        )
    shard = ShardSpec.parse(args.shard) if args.shard else FULL
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = _resilience_from_args(args)
    if policy.chaos is not None:
        policy.chaos.apply_disk(out_dir)
    elastic = None
    worker_id = args.worker_id
    if args.elastic:
        try:
            elastic = ElasticPolicy(
                lease_ttl=args.lease_ttl, chunk_size=args.chunk_size
            )
        except ValueError as error:
            raise SystemExit(f"--elastic: {error}") from None
        worker_id = worker_id or default_worker_id()
        cache = open_worker_cache(out_dir, worker_id)
        coordinate = f"worker {worker_id}"
    else:
        cache = open_shard_cache(out_dir, shard)
        coordinate = f"shard {shard}"
    git_sha = git_revision()
    pending = 0

    with ScenarioRunner(
        scale=args.scale,
        workers=args.workers,
        engine=args.engine,
        cache=cache,
        shard=shard,
        resilience=policy,
        elastic=elastic,
        workdir=out_dir if elastic is not None else None,
        worker_id=worker_id,
    ) as runner:
        for name in names:
            scenario = get_scenario(name)
            config = runner.config_for(scenario)
            print(
                f"[{name}] {scenario.title or name} "
                f"(scale {config.scale_name}, {coordinate})..."
            )
            result = runner.run(scenario)
            if result.sharded_out:
                owner = "elastic worker" if elastic is not None else "shard"
                print(f"[{name}] adaptive scenario owned by another {owner}; skipped")
                continue
            if not result.complete:
                pending += 1
                print(
                    f"[{name}] incomplete after {result.wall_seconds:.2f} s "
                    f"({result.execution['tasks_executed']} pipeline runs): "
                    f"{result.report.describe()}"
                )
                template = f"python -m repro scenarios run {name} {{split}} --out {args.out}"
                for command in result.report.resume_commands(template):
                    print(f"[{name}]   resume with: {command}")
                continue
            paths = save_scenario_result(
                scenario, result, out_dir, config=config, git_sha=git_sha
            )
            if not args.quiet:
                print(result.render())
            print(
                f"[{name}] done in {result.wall_seconds:.2f} s "
                f"({result.execution['tasks_executed']} pipeline runs, "
                f"{result.execution['cache_hits']} cache hits) -> {paths.json_path}"
            )
    if pending:
        print(
            f"{pending} scenario(s) incomplete; run the resume command(s) "
            "above, then re-run any invocation to merge"
        )
    return 0


def _cmd_scenarios_clean(args: argparse.Namespace) -> int:
    """Sweep stale elastic leases, markers and heartbeats (dry-run default)."""
    from repro.exec.elastic import sweep_stale_artifacts

    workdir = Path(args.workdir)
    if not workdir.is_dir():
        print(f"{workdir} is not a directory", file=sys.stderr)
        return 1
    try:
        ElasticPolicy(lease_ttl=args.lease_ttl)
    except ValueError as error:
        raise SystemExit(f"--lease-ttl: {error}") from None
    entries = sweep_stale_artifacts(
        workdir, lease_ttl=args.lease_ttl, apply=args.apply, stream=sys.stdout
    )
    if not entries:
        print(f"nothing stale under {workdir}")
    elif not args.apply:
        print(
            f"{len(entries)} stale file(s) found; re-run with --apply to "
            "delete them"
        )
    else:
        print(f"removed {len(entries)} stale file(s)")
    return 0


def _cmd_scenarios_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"{results_dir} is not a directory", file=sys.stderr)
        return 1
    loaded, failures = _load_artifacts(results_dir, "scenario-*.json", ("scenario",))
    if not loaded and not failures:
        print(f"no scenario artifacts found in {results_dir}", file=sys.stderr)
        return 1
    rows = []
    details: List[str] = []
    for _, stored in loaded:
        document = stored.document
        metrics = stored.metrics
        provenance = stored.provenance
        if document.get("strategy") == "bisect":
            if metrics.get("collapse_found"):
                headline = f"collapse at {metrics.get('collapse_value'):g}"
            else:
                headline = "no collapse"
            headline += f" ({int(metrics.get('n_probes', 0))} probes)"
        else:
            headline = (
                f"worst degradation "
                f"{metrics.get('worst_relative_degradation', 0.0):+.1%}"
            )
        rows.append(
            [
                stored.name,
                document.get("strategy", "grid"),
                provenance.get("scale", "?"),
                f"{metrics.get('baseline_accuracy', float('nan')):.4f}",
                headline,
                format_recovered_faults(provenance),
            ]
        )
        for table in document.get("tables", []):
            details.append(
                format_table(table["headers"], table["rows"], title=table["title"])
            )
    if rows:
        print(
            format_table(
                [
                    "scenario",
                    "strategy",
                    "scale",
                    "baseline",
                    "headline",
                    "recovered faults",
                ],
                rows,
                title=f"Scenario campaign summary ({len(rows)} artifacts)",
            )
        )
        for detail in details:
            print()
            print(detail)
    return _print_failures(failures)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "snapshot":
        if args.snapshot_command == "export":
            return _cmd_snapshot_export(args)
        return _cmd_snapshot_info(args)
    if args.command == "scenarios":
        if args.scenario_command == "list":
            return _cmd_scenarios_list(args)
        if args.scenario_command == "run":
            return _cmd_scenarios_run(args)
        if args.scenario_command == "clean":
            return _cmd_scenarios_clean(args)
        return _cmd_scenarios_report(args)
    return _cmd_report(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Ctrl-C and SIGTERM shut campaigns down gracefully: pending executor
    work is cancelled on unwind, every completed result is already in the
    persistent cache (re-running resumes from it), and the process exits
    with the conventional ``128 + signal`` code instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    previous = _install_sigterm_handler()
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        print(
            "interrupted — completed results are in the cache; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except _TerminationRequested:
        print(
            "terminated — completed results are in the cache; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return EXIT_TERMINATED
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
