"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each pass of a workload runs in a fresh ``worker.py`` process.  This script
prepares the inputs a workload needs (untimed, cached under ``.perfbench/``
per source tree), times set-up from process start to the worker's ``READY``
line, checks every output against ``expected/`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from one untraced and one traced pass.  The exit code is 0
when every output is correct, 1 when one is not and 2 when the checkout
holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from speed import python_kernel  # noqa: E402
from worker import percentile  # noqa: E402

WORKLOADS = ("reproduce", "resume", "campaign", "serve")

#: Workload seeds with committed expected outputs: the config default and
#: one held out for checking later claims.
SHIPPED_SEEDS = (7, 11)
#: The workload seed of every run seed that is not a shipped one.
DEFAULT_SEED = 7

#: Set-up samples per run (the passes' own plus set-up-only probes).
SETUP_SAMPLES = 3

#: A run stops starting passes once this much of its time budget is gone.
RUN_BUDGET_S = 170.0

#: Per-layer times spent in set-up, scaled by the set-up speed factor.
SETUP_LAYERS = ("import.s", "snn.snapshot.load_s")

#: Per-layer metrics from the serving load generator, read from the
#: untraced pass of a traced run.
SERVE_LAYERS = (
    "exec.microbatch.flushes.full",
    "exec.microbatch.flushes.linger",
    "exec.microbatch.flushes.drain",
    "exec.microbatch.occupancy",
    "exec.microbatch.queue_wait_p99_ms",
    "exec.microbatch.service_p99_ms",
    "gen.late_p99_ms",
    "serve.r50.p50_ms",
    "serve.r50.p99_ms",
    "serve.r100.p50_ms",
    "serve.r100.p99_ms",
    "serve.capacity_rps",
)


def workload_seed(seed: int) -> int:
    """The experiment seed a run uses: ``seed`` itself when it is shipped.

    Other seeds run the default experiment, because the seed moves the
    amount of work (a bisection takes another path), and vary only what
    leaves it unchanged: which request keys ``serve`` sends.
    """
    return seed if seed in SHIPPED_SEEDS else DEFAULT_SEED


def fastest_cpu() -> Optional[int]:
    """The CPU of this process's affinity that runs the Python kernel fastest.

    On a shared host each CPU's speed drifts on its own, by up to 2x over
    tens of seconds; a serial pass pinned to the currently faster CPU
    varies far less from run to run than one the scheduler places.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    timings = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            elapsed = []
            for _ in range(5):
                start = time.perf_counter()
                python_kernel()
                elapsed.append(time.perf_counter() - start)
            timings.append((min(elapsed), cpu))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(timings)[1]


class Checkout:
    """The source tree under test and the benchmark's state directory in it."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.state = root / ".perfbench"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        #: The metric declarations (names, units) of ``BENCHMARK.json``.
        self.declared = json.loads((root / "BENCHMARK.json").read_text())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.src), os.environ.get("PYTHONPATH")])
        )

    def fingerprint(self) -> str:
        """SHA-256 over every source file: the key of prepared inputs."""
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()[:16]

    def git_state(self) -> Dict[str, object]:
        """Commit and dirty flag, or ``None`` outside a git repository."""
        unknown = {"git_sha": None, "git_dirty": None}
        if not (self.root / ".git").exists():
            return unknown
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=self.root, capture_output=True, text=True
            )
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=self.root, capture_output=True, text=True,
            )
        except OSError:
            return unknown
        if sha.returncode != 0:
            return unknown
        return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}

    # ---------------------------------------------------------------- workers
    def worker(self, args: List[str], log: Path) -> Dict[str, object]:
        """Run one worker process; returns its set-up time and exit status.

        Set-up runs from just before the process is started to the moment
        its ``READY`` line arrives.
        """
        log.parent.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, str(HERE / "worker.py"), *args]
        cpu = fastest_cpu()
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        with open(log, "ab") as log_file:
            start = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, stderr=log_file,
            )
            try:
                setup_s = None
                remaining = self.deadline - time.monotonic()
                ready, _, _ = select.select([process.stdout], [], [], max(remaining, 0))
                line = process.stdout.readline().split() if ready else []
                if line[:1] == [b"READY"]:
                    # Wall-clock to the line, at nominal host speed.
                    setup_s = (time.perf_counter() - start) * float(line[1])
                process.wait(timeout=max(self.deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            finally:
                process.stdout.close()
        return {"setup_s": setup_s, "returncode": process.returncode}

    def run_pass(self, workload: str, seed: int, extra: List[str], tag: str) -> Dict:
        """One timed pass; returns the worker's record plus its set-up time."""
        result = self.state / "runs" / f"{tag}.json"
        result.parent.mkdir(parents=True, exist_ok=True)
        result.unlink(missing_ok=True)
        status = self.worker(
            [workload, "--seed", str(seed), "--result", str(result), *extra],
            self.state / "logs" / f"{tag}.log",
        )
        if status["returncode"] != 0 or not result.exists():
            raise RuntimeError(
                f"{workload} pass exited with {status['returncode']}; "
                f"see {self.state / 'logs' / f'{tag}.log'}"
            )
        record = json.loads(result.read_text())
        record["setup_s"] = status["setup_s"]
        return record

    def probe_setup(self, workload: str, seed: int, prepared: Optional[Path]) -> float:
        args = [workload, "--seed", str(seed), "--probe"]
        if prepared is not None:
            args += ["--prepared", str(prepared)]
        status = self.worker(args, self.state / "logs" / f"{workload}-probe.log")
        if status["setup_s"] is None or status["returncode"] != 0:
            raise RuntimeError(f"{workload} set-up probe failed")
        return status["setup_s"]

    # ------------------------------------------------------------ preparation
    def prepare(self, workload: str, seed: int) -> Optional[Path]:
        """Untimed inputs of a workload, built once per source tree and seed."""
        build = self.state / "build" / self.fingerprint()
        compiled = build / "compiled"
        if not compiled.exists():
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", str(self.src)],
                check=True, stdout=subprocess.DEVNULL,
            )
            compiled.parent.mkdir(parents=True, exist_ok=True)
            compiled.touch()
        if workload == "resume":
            target = build / f"reproduce-seed{seed}"
            if not target.exists():
                staging = build / f"reproduce-seed{seed}.tmp"
                shutil.rmtree(staging, ignore_errors=True)
                record = self.run_pass(
                    "reproduce", seed, ["--out", str(staging)], f"prepare-reproduce-{seed}"
                )
                failures = oracle.check_batch_pass(record, oracle.load_expected(seed), "figures")
                if failures:
                    raise RuntimeError("reproduce preparation failed: " + "; ".join(failures))
                staging.rename(target)
            return target
        if workload == "serve":
            target = build / f"snapshot-seed{seed}"
            if not target.exists():
                staging = build / f"snapshot-seed{seed}.tmp"
                shutil.rmtree(staging, ignore_errors=True)
                status = self.worker(
                    ["export-snapshot", "--seed", str(seed), "--out", str(staging)],
                    self.state / "logs" / f"prepare-snapshot-{seed}.log",
                )
                if status["returncode"] != 0:
                    raise RuntimeError("snapshot export failed")
                staging.rename(target)
            return target
        return None


# --------------------------------------------------------------------------
# Workload runs.
# --------------------------------------------------------------------------


def pass_args(checkout: Checkout, workload: str, args, prepared, tag: str) -> List[str]:
    """Worker arguments of one pass; copies the resume input into place."""
    extra = ["--run-seed", str(args.seed), "--seconds", str(args.seconds)]
    if workload == "serve":
        return extra + ["--prepared", str(prepared)]
    out = checkout.state / "runs" / tag
    shutil.rmtree(out, ignore_errors=True)
    if workload == "resume":
        shutil.copytree(prepared, out)
    return extra + ["--out", str(out)]


def check(record: Dict, workload: str, expected: Dict) -> List[str]:
    if workload == "serve":
        return oracle.check_serve_pass(record, expected)
    section = "scenarios" if workload == "campaign" else "figures"
    return oracle.check_batch_pass(record, expected, section)


def attempted_in(record: Dict, workload: str) -> int:
    return record["requests"] if workload == "serve" else len(record["ops"])


def end_to_end(records: List[Dict], setups: List[float], workload: str) -> Dict[str, float]:
    """The end-to-end metrics: per pass at nominal host speed, median over passes."""
    per_pass = []
    for record in records:
        factor = record["factors"]["pass"]
        if workload == "serve":
            latencies = record["serve"]["one_client_latency_s"]
        else:
            latencies = [op[1] for op in record["ops"]]
        per_pass.append(
            {
                "wall_s": record["wall_s"] * factor,
                "p50_ms": 1e3 * factor * percentile(latencies, 0.50),
                "p90_ms": 1e3 * factor * percentile(latencies, 0.90),
                "peak_rss_mb": record["peak_rss_mb"],
            }
        )
    metrics = {
        name: statistics.median(values[name] for values in per_pass) for name in per_pass[0]
    }
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def is_time(name: str) -> bool:
    return name.endswith(("_s", ".s", "_ms"))


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """The per-layer metrics, every time scaled to nominal host speed."""
    metrics = {}
    for name, value in traced["layers"].items():
        if name in SETUP_LAYERS:
            value *= traced["factors"]["setup"]
        elif is_time(name):
            value *= traced["factors"]["pass"]
        metrics[name] = value
    metrics["trace.overhead_s"] = (
        traced["wall_s"] * traced["factors"]["pass"]
        - untraced["wall_s"] * untraced["factors"]["pass"]
    )
    serve = untraced.get("serve", {})
    factor = untraced["factors"]["pass"]
    for name in SERVE_LAYERS:
        value = float(serve.get(name, 0.0))
        if is_time(name):
            value *= factor
        elif name == "serve.capacity_rps":
            value /= untraced["factors"]["pass"]
        metrics[name] = value
    return metrics


def run_workload(checkout: Checkout, workload: str, args) -> Dict:
    seed = workload_seed(args.seed)
    expected = oracle.load_expected(seed)
    prepared = checkout.prepare(workload, seed)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    records: List[Dict] = []
    failures: List[str] = []
    attempted = 0

    def one_pass(index: int, trace_file: Optional[Path] = None) -> Dict:
        nonlocal attempted
        name = f"{tag}-pass{index}"
        extra = pass_args(checkout, workload, args, prepared, name)
        if trace_file is not None:
            extra += ["--trace-file", str(trace_file)]
        record = checkout.run_pass(workload, seed, extra, name)
        shutil.rmtree(checkout.state / "runs" / name, ignore_errors=True)
        attempted += attempted_in(record, workload)
        failures.extend(check(record, workload, expected))
        records.append(record)
        return record

    if args.trace:
        untraced = one_pass(0)
        traced = one_pass(1, checkout.state / "traces" / f"{tag}.json")
        metrics = per_layer(untraced, traced)
    else:
        start = time.monotonic()
        one_pass(0)
        while workload != "serve" and time.monotonic() - start < args.seconds:
            one_pass(len(records))
        setups = [r["setup_s"] for r in records]
        while len(setups) < SETUP_SAMPLES:
            setups.append(checkout.probe_setup(workload, seed, prepared))
        metrics = end_to_end(records, setups, workload)
    declared = checkout.declared["per_layer" if args.trace else "end_to_end"]
    provenance = dict(records[-1]["provenance"])
    provenance.update(
        checkout.git_state(),
        source_fingerprint=checkout.fingerprint(),
        run_seed=args.seed,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
    )
    summary = {
        "workload": workload,
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
        "provenance": provenance,
        "passes": len(records),
    }
    if args.trace:
        summary["coverage"] = traced["coverage"]
    results = checkout.state / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(dict(summary, records=records), indent=1))
    return summary


def print_summary(summary: Dict) -> None:
    workload = summary["workload"]
    provenance = summary["provenance"]
    print(f"# {workload}: provenance {json.dumps(provenance, sort_keys=True)}")
    if provenance.get("engine_fallback"):
        print(
            f"# {workload}: WARNING the SNN engine fell back to scalar "
            "(reduction_contract_holds() is false); this run measures a "
            "different program"
        )
    if "coverage" in summary:
        base = "service time" if workload == "serve" else "wall_s"
        print(f"# {workload}: listed layers cover {summary['coverage']:.1%} of the traced {base}")
    for failure in summary["failures"]:
        print(f"# {workload}: FAILED {failure}")
    for name, metric in summary["metrics"].items():
        print(f"{workload:10s} {name:36s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=SHIPPED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    program = root / "src" / "repro" / "__init__.py"
    if not program.is_file() or not (root / "BENCHMARK.json").is_file():
        print(
            f"no program under {root / 'src' / 'repro'} or no BENCHMARK.json; "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    checkout = Checkout(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        checkout.deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    summaries = []
    for workload in workloads:
        try:
            summary = run_workload(checkout, workload, args)
        except (RuntimeError, OSError, subprocess.SubprocessError) as error:
            print(f"{workload}: {error}", file=sys.stderr)
            return 1
        print_summary(summary)
        summaries.append(summary)
    single = len(summaries) == 1
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (name if single else f"{s['workload']}.{name}"): metric
            for s in summaries
            for name, metric in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
