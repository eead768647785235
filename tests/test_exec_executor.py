"""Tests for the execution subsystem: caching, dedup, serial/parallel parity."""

import dataclasses
import functools

import pytest

from repro.attacks import (
    Attack2ExcitatoryThreshold,
    Attack3InhibitoryThreshold,
    Attack5GlobalSupply,
    NoAttack,
)
from repro.core import ClassificationPipeline, ExperimentConfig
from repro.core.reporting import format_execution_report
from repro.core.results import ExperimentResult
from repro.exec import ResultCache, SweepExecutor, attack_cache_key
from repro.exec.chaos import FaultPlan
from repro.exec.resilience import ResiliencePolicy, RetryPolicy
from repro.snn.batched import UnsupportedNetworkError


@dataclasses.dataclass
class CountingConfig:
    scale_name: str = "fake"


class CountingPipeline:
    """Pipeline-protocol stub that counts how often each attack really runs."""

    def __init__(self) -> None:
        self.config = CountingConfig()
        self.calls = []

    def run(self, attack) -> ExperimentResult:
        self.calls.append(attack.label())
        return ExperimentResult(attack_label=attack.label(), accuracy=0.5)

    def run_baseline(self) -> ExperimentResult:
        self.calls.append("baseline")
        return ExperimentResult(attack_label="baseline", accuracy=0.9)


def tiny_config() -> ExperimentConfig:
    """A sub-smoke scale so parallel tests stay fast."""
    return ExperimentConfig.tiny()


class TestCacheKeys:
    def test_baseline_aliases(self):
        assert attack_cache_key(None) == attack_cache_key(NoAttack()) == "baseline"

    def test_equal_attacks_share_a_key(self):
        a = Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.5)
        b = Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.5)
        assert a is not b
        assert attack_cache_key(a) == attack_cache_key(b)

    def test_different_parameters_differ(self):
        a = Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.5)
        b = Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.75)
        c = Attack2ExcitatoryThreshold(threshold_change=0.2, fraction=0.5)
        assert len({attack_cache_key(x) for x in (a, b, c)}) == 3

    def test_attack5_key_stable_across_runs(self):
        # Running Attack 5 must not change its key (no self-mutation).
        attack = Attack5GlobalSupply(vdd=0.8)
        before = attack_cache_key(attack)
        attack.induced_theta_scale()
        attack.induced_threshold_scale()
        assert attack_cache_key(attack) == before


class TestSerialExecutor:
    def test_dedup_and_cache(self):
        pipeline = CountingPipeline()
        executor = SweepExecutor(pipeline)
        attacks = [
            None,
            Attack3InhibitoryThreshold(threshold_change=0.2, fraction=1.0),
            Attack3InhibitoryThreshold(threshold_change=0.2, fraction=1.0),
            None,
        ]
        results = executor.map(attacks)
        # Four requests, two unique evaluations.
        assert pipeline.calls.count("baseline") == 1
        assert len(pipeline.calls) == 2
        assert results[0] is results[3]
        assert results[1] is results[2]
        # A second batch is served entirely from cache.
        again = executor.map(attacks)
        assert len(pipeline.calls) == 2
        assert [r is s for r, s in zip(results, again)] == [True] * 4
        assert executor.stats.tasks_executed == 2
        assert executor.stats.cache_hits >= 4

    def test_merged_sweeps_evaluate_each_distinct_key_once(self):
        # Fig. 8 merges three grids into one batch: fraction-0 points become
        # baseline requests (None) and an attack may repeat across sweeps.
        from repro.attacks import AttackCampaign

        changes, fractions = (-0.2, 0.2), (0.0, 0.5, 1.0)
        attacks = [
            None,
            *AttackCampaign.layer_threshold_attacks("excitatory", changes, fractions),
            *AttackCampaign.layer_threshold_attacks("inhibitory", changes, fractions),
            *AttackCampaign.both_layers_attacks(changes),
            *AttackCampaign.both_layers_attacks(changes[:1]),  # repeated
        ]
        distinct = {attack_cache_key(attack) for attack in attacks}
        assert len(distinct) < len(attacks)
        pipeline = CountingPipeline()
        executor = SweepExecutor(pipeline)
        executor.map(attacks)
        assert executor.stats.tasks_executed == len(distinct) == len(pipeline.calls)
        assert executor.stats.cache_hits == len(attacks) - len(distinct)

    def test_shared_cache_across_executors(self):
        pipeline = CountingPipeline()
        cache = ResultCache()
        first = SweepExecutor(pipeline, cache=cache)
        first.run_baseline()
        second = SweepExecutor(pipeline, cache=cache)
        second.run_baseline()
        assert pipeline.calls.count("baseline") == 1

    def test_progress_callback(self):
        pipeline = CountingPipeline()
        seen = []
        executor = SweepExecutor(
            pipeline, progress=lambda timing, done, total: seen.append((done, total))
        )
        executor.map([None, Attack3InhibitoryThreshold(threshold_change=0.2)])
        assert seen == [(1, 2), (2, 2)]

    def test_requires_pipeline_or_factory(self):
        with pytest.raises(ValueError):
            SweepExecutor()

    def test_execution_report_renders(self):
        pipeline = CountingPipeline()
        executor = SweepExecutor(pipeline)
        executor.run_baseline()
        report = format_execution_report(executor.stats)
        assert "serial" in report
        assert "tasks executed" in report

    def test_lockstep_report_shows_passes_not_invented_task_times(self):
        # A lockstep pass times the whole batch; splitting it evenly over
        # its lanes is not a measurement, so no "slowest" row may rank
        # those shares, and a serial run has no speedup to measure.
        executor = SweepExecutor(ClassificationPipeline(tiny_config()))
        executor.map(
            [
                None,
                Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.5),
                Attack5GlobalSupply(vdd=0.8),
            ]
        )
        assert executor.stats.counters()["lockstep_passes"] == 1
        report = format_execution_report(executor.stats)
        assert "slowest:" not in report
        assert "measured speedup" not in report
        assert "lockstep passes" in report and "1 (3 lanes)" in report

    def test_a_single_attack_is_one_lockstep_pass_of_one_lane(self):
        # Bisection probes map one attack at a time; on the lockstep engine
        # each is a one-lane run_batch pass, not a per-task run.
        pipeline = ClassificationPipeline(tiny_config())
        assert pipeline.resolved_engine == "batched"
        executor = SweepExecutor(pipeline)
        executor.map([Attack5GlobalSupply(vdd=0.8)])
        counters = executor.stats.counters()
        assert (counters["lockstep_passes"], counters["lockstep_lanes"]) == (1, 1)
        assert [timing.worker_mode for timing in executor.stats.timings] == ["batched"]

    def test_a_lockstep_engine_error_comes_straight_out_of_map(self):
        class RejectingPipeline(CountingPipeline):
            resolved_engine = "batched"

            def run_batch(self, attacks):
                raise UnsupportedNetworkError("no lockstep mirror")

        pipeline = RejectingPipeline()
        executor = SweepExecutor(pipeline)
        with pytest.raises(UnsupportedNetworkError, match="no lockstep mirror"):
            executor.map([None, Attack5GlobalSupply(vdd=0.8)])
        # No per-task retry: on this engine run() is a one-lane run_batch.
        assert pipeline.calls == []
        assert executor.stats.counters()["lockstep_passes"] == 0

    def test_a_lockstep_pass_retries_under_the_policy(self):
        class OnceFailingPipeline(CountingPipeline):
            resolved_engine = "batched"
            passes = 0

            def run_batch(self, attacks):
                self.passes += 1
                if self.passes == 1:
                    raise RuntimeError("transient")
                return [ExperimentResult(attack_label="lane", accuracy=0.5) for _ in attacks]

        policy = ResiliencePolicy(retry=RetryPolicy(max_retries=1, backoff_base=0.0))
        pipeline = OnceFailingPipeline()
        executor = SweepExecutor(pipeline, policy=policy)
        assert executor.map([None])[0].accuracy == 0.5
        assert (pipeline.passes, executor.stats.retries) == (2, 1)
        assert executor.stats.counters()["lockstep_passes"] == 1


class TestLockstepGate:
    """``SweepExecutor.lockstep``: the one condition under which a batch
    costs one pass, read by the serial path and by speculative searches."""

    class LockstepPipeline(CountingPipeline):
        resolved_engine = "batched"

    def test_serial_batched_pipeline_without_chaos_is_lockstep(self):
        assert SweepExecutor(self.LockstepPipeline()).lockstep

    @pytest.mark.parametrize(
        "kwargs",
        [{"workers": 2}, {"policy": ResiliencePolicy(chaos=FaultPlan())}],
        ids=["process-pool", "chaos-plan"],
    )
    def test_a_pool_or_a_chaos_plan_is_not_lockstep(self, kwargs):
        assert not SweepExecutor(self.LockstepPipeline(), **kwargs).lockstep

    def test_a_scalar_pipeline_is_not_lockstep(self):
        assert not SweepExecutor(CountingPipeline()).lockstep
        scalar = ClassificationPipeline(tiny_config(), engine="scalar")
        assert not SweepExecutor(scalar).lockstep

    def test_speculative_counters_show_in_the_report_only_when_nonzero(self):
        executor = SweepExecutor(CountingPipeline())
        executor.run_baseline()
        assert "speculative" not in format_execution_report(executor.stats)
        executor.stats.speculative_lanes, executor.stats.speculative_unused = 5, 1
        report = format_execution_report(executor.stats)
        assert "speculative probe lanes" in report
        assert "unused speculative lanes" in report


class TestParallelParity:
    """Parallel results must be bit-identical to serial ones (fixed seeds)."""

    def test_parallel_equals_serial_on_small_sweep(self):
        config = tiny_config()
        attacks = [
            None,
            Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.5),
            Attack2ExcitatoryThreshold(threshold_change=-0.2, fraction=1.0),
            Attack5GlobalSupply(vdd=0.8),
        ]
        serial = SweepExecutor(ClassificationPipeline(config), workers=0)
        serial_results = serial.map(attacks)
        parallel = SweepExecutor(ClassificationPipeline(config), workers=2)
        parallel_results = parallel.map(attacks)
        for left, right in zip(serial_results, parallel_results):
            assert left.attack_label == right.attack_label
            assert left.accuracy == right.accuracy  # bit-identical, not approx
            assert left.mean_excitatory_spikes == right.mean_excitatory_spikes
        assert parallel.stats.tasks_executed == len(attacks)

    def test_run_order_does_not_change_results(self):
        # The fault streams are keyed on (seed, attack label), so the same
        # attack gives the same result no matter what ran before it.
        config = tiny_config()
        attack = Attack3InhibitoryThreshold(threshold_change=0.2, fraction=0.5)
        first = ClassificationPipeline(config).run(attack)
        pipeline = ClassificationPipeline(config)
        pipeline.run(Attack5GlobalSupply(vdd=0.8))  # consume other streams
        second = pipeline.run(attack)
        assert first.accuracy == second.accuracy
        assert first.mean_excitatory_spikes == second.mean_excitatory_spikes

    def test_pipeline_run_many_parallel(self):
        config = tiny_config()
        pipeline = ClassificationPipeline(config)
        attacks = [None, Attack5GlobalSupply(vdd=0.8)]
        serial_results = SweepExecutor(pipeline, workers=0).map(attacks)
        parallel_results = SweepExecutor(
            ClassificationPipeline(config), workers=2
        ).map(attacks)
        for left, right in zip(serial_results, parallel_results):
            assert left.accuracy == right.accuracy

    def test_campaign_results_carry_baseline_accuracy(self):
        # Regression: on a fresh pipeline (no pre-run baseline), sweep
        # outcomes must still reference the baseline so relative_degradation
        # is computable — identically in serial and parallel mode.
        from repro.attacks import AttackCampaign

        config = tiny_config()
        serial_sweep = AttackCampaign(
            ClassificationPipeline(config)
        ).sweep_both_layers((-0.2,))
        parallel_sweep = AttackCampaign(
            ClassificationPipeline(config), workers=2
        ).sweep_both_layers((-0.2,))
        for sweep in (serial_sweep, parallel_sweep):
            result = sweep.worst_case().result
            assert result.baseline_accuracy == sweep.baseline_accuracy
            assert result.relative_degradation is not None
        assert (
            serial_sweep.worst_case().result.baseline_accuracy
            == parallel_sweep.worst_case().result.baseline_accuracy
        )


class TestFig8SinglePass:
    def test_fig8_trains_all_three_grids_in_one_lockstep_pass(self, monkeypatch):
        from repro.attacks import AttackCampaign
        from repro.figures import FigureContext, get_figure

        config = tiny_config()
        batches = []
        run_batch = ClassificationPipeline.run_batch

        def spy(pipeline, attacks):
            batches.append(list(attacks))
            return run_batch(pipeline, attacks)

        monkeypatch.setattr(ClassificationPipeline, "run_batch", spy)
        figure = get_figure("fig8").run(FigureContext(config, figures=("fig8",)))
        changes = tuple(figure.arrays["threshold_changes"])
        fractions = tuple(figure.arrays["fractions"])
        expected = {
            attack_cache_key(attack)
            for attack in [
                None,
                *AttackCampaign.layer_threshold_attacks("excitatory", changes, fractions),
                *AttackCampaign.layer_threshold_attacks("inhibitory", changes, fractions),
                *AttackCampaign.both_layers_attacks(changes),
            ]
        }
        assert len(batches) == 1
        assert len(batches[0]) == len(expected)
        assert {attack_cache_key(attack) for attack in batches[0]} == expected

        campaign = FigureContext(config).campaign()
        excitatory = campaign.sweep_layer_threshold("excitatory", changes, fractions)
        inhibitory = campaign.sweep_layer_threshold("inhibitory", changes, fractions)
        both = campaign.sweep_both_layers(changes)
        assert figure.metrics == {
            "baseline_accuracy": excitatory.baseline_accuracy,
            "worst_relative_degradation_excitatory": (
                excitatory.worst_case_relative_degradation()
            ),
            "worst_relative_degradation_inhibitory": (
                inhibitory.worst_case_relative_degradation()
            ),
            "worst_relative_degradation_both": (
                both.worst_case().result.relative_degradation
            ),
        }
        separate = {
            "accuracies_excitatory": excitatory.accuracies,
            "accuracies_inhibitory": inhibitory.accuracies,
            "both_threshold_changes": both.values,
            "accuracies_both": both.accuracies(),
        }
        for name, array in separate.items():
            assert figure.arrays[name].dtype == array.dtype
            assert figure.arrays[name].tobytes() == array.tobytes(), name


def _spy_run_batch(monkeypatch):
    """Record the attack list of every ``ClassificationPipeline.run_batch``."""
    batches = []
    run_batch = ClassificationPipeline.run_batch

    def spy(pipeline, attacks):
        batches.append([attack_cache_key(attack) for attack in attacks])
        return run_batch(pipeline, attacks)

    monkeypatch.setattr(ClassificationPipeline, "run_batch", spy)
    return batches


#: Every figure that declares attacks, in the order a reproduction runs them.
SNN_FIGURES = ("fig7b", "fig8", "fig9a", "summary", "fig9c")


class TestReproductionPlan:
    def test_a_default_context_trains_every_snn_figure_in_one_pass(self, monkeypatch):
        from repro.figures import FigureContext, get_figure

        batches = _spy_run_batch(monkeypatch)
        context = FigureContext(tiny_config())
        for name in SNN_FIGURES:
            get_figure(name).run(context)
        expected = {attack_cache_key(None)} | {
            attack_cache_key(attack)
            for name in SNN_FIGURES
            for attack in get_figure(name).attacks(context)
        }
        assert len(batches) == 1
        assert len(batches[0]) == len(expected)
        assert set(batches[0]) == expected
        assert context.executor.stats.tasks_executed == len(expected)

    def test_an_undeclared_figure_trains_its_misses_in_its_own_pass(
        self, monkeypatch
    ):
        from repro.figures import FigureContext, get_figure

        config = tiny_config()
        alone = get_figure("fig8").run(FigureContext(config, figures=("fig8",)))

        batches = _spy_run_batch(monkeypatch)
        context = FigureContext(config, figures=("fig7b",))
        get_figure("fig7b").run(context)
        late = get_figure("fig8").run(context)
        assert len(batches) == 2
        fig7b_keys = {attack_cache_key(a) for a in get_figure("fig7b").attacks(context)}
        assert set(batches[0]) == fig7b_keys | {attack_cache_key(None)}
        assert set(batches[1]) == {
            attack_cache_key(attack) for attack in get_figure("fig8").attacks(context)
        } - fig7b_keys - {attack_cache_key(None)}

        assert late.metrics == alone.metrics
        assert late.arrays.keys() == alone.arrays.keys()
        for name, array in alone.arrays.items():
            assert late.arrays[name].dtype == array.dtype
            assert late.arrays[name].tobytes() == array.tobytes(), name

    def test_unknown_figures_are_rejected_when_the_context_is_built(self):
        from repro.figures import FigureContext

        with pytest.raises(KeyError, match="fig999"):
            FigureContext(tiny_config(), figures=("fig8", "fig999"))


@dataclasses.dataclass
class FlakyConfig:
    scale_name: str = "flaky"


class FlakyPipeline:
    """Picklable pipeline whose run() fails for one specific attack.

    With a ``log`` path, every run appends its attack label there, so the
    dispatches of every process can be counted afterwards.
    """

    def __init__(self, config=None, log=None) -> None:
        self.config = config or FlakyConfig()
        self.log = log

    def run(self, attack) -> ExperimentResult:
        if self.log is not None:
            with open(self.log, "a", encoding="utf-8") as handle:
                handle.write(attack.label() + "\n")
        if attack.threshold_change == -0.1:
            raise RuntimeError("injected task failure")
        return ExperimentResult(attack_label=attack.label(), accuracy=0.5)

    def run_baseline(self) -> ExperimentResult:
        return ExperimentResult(attack_label="baseline", accuracy=0.9)


class TestScopedCacheAndFailures:
    def test_shared_cache_does_not_alias_different_configs(self):
        cache = ResultCache()
        smoke = CountingPipeline()
        other = CountingPipeline()
        other.config = CountingConfig(scale_name="other")
        SweepExecutor(smoke, cache=cache).run_baseline()
        SweepExecutor(other, cache=cache).run_baseline()
        # Different config content → different cache scope → both ran.
        assert smoke.calls.count("baseline") == 1
        assert other.calls.count("baseline") == 1

    def test_campaign_rejects_mismatched_executor(self):
        from repro.attacks import AttackCampaign

        pipeline_a, pipeline_b = CountingPipeline(), CountingPipeline()
        executor = SweepExecutor(pipeline_a)
        with pytest.raises(ValueError):
            AttackCampaign(pipeline_b, executor=executor)
        AttackCampaign(pipeline_a, executor=executor)  # same pipeline: fine

    def test_fully_cached_sweeps_build_no_pipeline(self):
        # A resumed run finds every result in the cache; a campaign or a
        # defense evaluator built on the executor alone must not build (and
        # so render the dataset of) a pipeline to read them.
        from repro.attacks import AttackCampaign
        from repro.defenses import DefenseAccuracyEvaluator

        class CountingFactory:
            config = CountingConfig()
            built = 0

            def __call__(self):
                self.built += 1
                return CountingPipeline()

        factory, cache = CountingFactory(), ResultCache()
        residuals = {"sizing": -0.05}
        warm = SweepExecutor(pipeline_factory=factory, cache=cache)
        AttackCampaign(executor=warm).sweep_layer_threshold("excitatory", (-0.2,), (0.5,))
        DefenseAccuracyEvaluator(executor=warm).evaluate_threshold_defenses(residuals)
        assert factory.built == 1

        resumed = SweepExecutor(pipeline_factory=factory, cache=cache)
        AttackCampaign(executor=resumed).sweep_layer_threshold("excitatory", (-0.2,), (0.5,))
        DefenseAccuracyEvaluator(executor=resumed).evaluate_threshold_defenses(residuals)
        assert factory.built == 1
        assert resumed.stats.tasks_executed == 0

    @pytest.mark.parametrize("workers", [2, 0], ids=["parallel", "serial"])
    def test_parallel_failure_preserves_completed_siblings(self, workers, tmp_path):
        # The stub is not a ClassificationPipeline, so the workers need an
        # explicit factory (the class itself) instead of PipelineFromConfig.
        log = tmp_path / "dispatches.log"
        factory = functools.partial(FlakyPipeline, log=log)
        executor = SweepExecutor(factory(), workers=workers, pipeline_factory=factory)
        good = [
            Attack3InhibitoryThreshold(threshold_change=0.2),
            Attack3InhibitoryThreshold(threshold_change=0.3),
        ]
        bad = Attack3InhibitoryThreshold(threshold_change=-0.1)
        with pytest.raises(RuntimeError, match="injected task failure"):
            executor.map(good + [bad])
        # policy=None is the plain executor: the failing task ran exactly
        # once, with no retry, timeout or straggler duplicate.
        stats = executor.stats
        assert (stats.retries, stats.requeues, stats.timeouts) == (0, 0, 0)
        dispatches = log.read_text(encoding="utf-8").splitlines()
        assert dispatches.count(bad.label()) == 1
        # The two successful siblings were drained into the cache...
        assert executor.stats.tasks_executed == 2
        results = executor.map(good)  # ...so a retry serves them from cache.
        assert executor.stats.tasks_executed == 2
        assert [r.accuracy for r in results] == [0.5, 0.5]
        executor.close()
