"""Tests for the declarative scenario subsystem (ISSUE 5).

Covers: spec round-trips (dict/JSON/YAML) with strict validation errors,
variant expansion (grids, defenses, composites), deterministic sharding,
the adaptive bisection strategy against a dense-grid reference on a
Fig. 8-shaped collapse (with the <= 25 % pipeline-run bound), and the CLI's
shard/resume path producing bit-identical merged artifacts vs an unsharded
run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.attacks.attacks import (
    Attack2ExcitatoryThreshold,
    Attack3InhibitoryThreshold,
    CompositeAttack,
)
from repro.cli import main
from repro.core import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.exec.elastic import ElasticPolicy, LeaseBoard
from repro.exec.shard import FULL, ShardSpec
from repro.scenarios import (
    BisectionSettings,
    BisectionStrategy,
    CompositeScenario,
    ScenarioRunner,
    ScenarioSpec,
    dense_collapse_index,
    get_scenario,
    iter_scenarios,
    load_scenario_file,
    scenario_names,
)
from repro.snn.batched import resolve_engine
from repro.store import load_artifact, open_worker_cache

# --------------------------------------------------------------------------
# Spec round-trips and validation.
# --------------------------------------------------------------------------


def _spec_document() -> dict:
    return {
        "name": "rt",
        "family": "layer_threshold",
        "title": "round trip",
        "description": "spec used by the round-trip tests",
        "tags": ["attack"],
        "fixed": {"layer": "inhibitory"},
        "grid": {"threshold_change": [0.1, 0.2], "fraction": [0.5, 1.0]},
        "strategy": "grid",
        "defenses": ["sizing32"],
        "scale": "tiny",
    }


class TestSpecRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        document = _spec_document()
        spec = ScenarioSpec.from_dict(document)
        assert spec.to_dict() == document
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([_spec_document()]))
        (spec,) = load_scenario_file(path)
        assert spec.name == "rt"
        assert spec.grid["threshold_change"] == (0.1, 0.2)
        assert spec.to_dict() == _spec_document()

    def test_yaml_file_round_trip(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(_spec_document()))
        (spec,) = load_scenario_file(path)
        assert spec == ScenarioSpec.from_dict(_spec_document())

    def test_bisect_search_round_trips(self):
        document = {
            "name": "bs",
            "family": "both_thresholds",
            "grid": {"threshold_change": [0.05, 0.1, 0.2]},
            "strategy": "bisect",
            "search": {"target_degradation": 0.4, "parameter": None},
        }
        spec = ScenarioSpec.from_dict(document)
        # The swept parameter is resolved during validation.
        assert spec.search.parameter == "threshold_change"
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec


class TestSpecValidation:
    def test_unknown_top_level_field_is_rejected(self):
        document = _spec_document()
        document["grids"] = document.pop("grid")
        with pytest.raises(ValueError, match="unknown scenario field.*grids"):
            ScenarioSpec.from_dict(document)

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError, match="unknown attack family"):
            ScenarioSpec(name="x", family="emp", grid={"vdd": (0.8,)})

    def test_unknown_grid_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="unknown grid parameter.*voltage"):
            ScenarioSpec(name="x", family="global_vdd", grid={"voltage": (0.8,)})

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match="sweeps nothing"):
            ScenarioSpec(name="x", family="global_vdd", grid={})

    def test_empty_value_list_is_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            ScenarioSpec(name="x", family="global_vdd", grid={"vdd": ()})

    def test_non_numeric_values_are_rejected(self):
        with pytest.raises(ValueError, match="must be numeric"):
            ScenarioSpec(name="x", family="global_vdd", grid={"vdd": ("low",)})

    def test_uncalibrated_supply_or_neuron_type_is_rejected_at_load(self):
        with pytest.raises(ValueError, match="scenario 'x'.*outside the sampled range"):
            ScenarioSpec(name="x", family="global_vdd", grid={"vdd": (0.9, 0.6)})
        with pytest.raises(ValueError, match="scenario 'x'.*neuron_type"):
            ScenarioSpec(
                name="x",
                family="global_vdd",
                fixed={"neuron_type": "x"},
                grid={"vdd": (0.9,)},
            )

    def test_duplicate_values_are_rejected(self):
        with pytest.raises(ValueError, match="repeats values"):
            ScenarioSpec(name="x", family="global_vdd", grid={"vdd": (0.8, 0.8)})

    def test_fixed_grid_overlap_is_rejected(self):
        with pytest.raises(ValueError, match="both fixed and grid"):
            ScenarioSpec(
                name="x",
                family="layer_threshold",
                fixed={"threshold_change": 0.1},
                grid={"threshold_change": (0.2,)},
            )

    def test_bisect_needs_exactly_one_swept_parameter(self):
        with pytest.raises(ValueError, match="exactly one swept"):
            ScenarioSpec(
                name="x",
                family="layer_threshold",
                grid={"threshold_change": (0.1, 0.2), "fraction": (0.5, 1.0)},
                strategy="bisect",
            )

    def test_unknown_defense_is_rejected(self):
        with pytest.raises(ValueError, match="unknown defense.*forcefield"):
            ScenarioSpec(
                name="x",
                family="both_thresholds",
                grid={"threshold_change": (0.1,)},
                defenses=("forcefield",),
            )

    def test_missing_required_fields_are_named(self):
        with pytest.raises(ValueError, match="missing required field.*family"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_bisect_rejects_non_monotone_candidates(self):
        with pytest.raises(ValueError, match="strictly monotone"):
            ScenarioSpec(
                name="x",
                family="both_thresholds",
                grid={"threshold_change": (0.05, 0.2, 0.1)},
                strategy="bisect",
            )

    def test_bisect_rejects_defenses(self):
        with pytest.raises(ValueError, match="defenses cannot be co-evaluated"):
            ScenarioSpec(
                name="x",
                family="both_thresholds",
                grid={"threshold_change": (0.05, 0.1, 0.2)},
                strategy="bisect",
                defenses=("sizing32",),
            )

    @pytest.mark.parametrize("name", ["../evil", "a/b", "a b", ".hidden", ""])
    def test_unsafe_names_are_rejected(self, name):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(
                name=name, family="global_vdd", grid={"vdd": (0.8,)}
            )

    def test_scalar_spellings_are_normalised_not_char_split(self):
        spec = ScenarioSpec(
            name="scalars",
            family="layer_threshold",
            tags="attack",
            fixed={"layer": "inhibitory"},
            grid={"threshold_change": 0.2, "selection": "contiguous"},
        )
        assert spec.tags == ("attack",)
        assert spec.grid["threshold_change"] == (0.2,)
        assert spec.grid["selection"] == ("contiguous",)
        assert len(spec.variants()) == 1

    def test_non_iterable_grid_value_is_rejected_cleanly(self):
        with pytest.raises(ValueError, match="expected a value or list"):
            ScenarioSpec(
                name="x", family="global_vdd", grid={"vdd": None}
            )

    def test_non_numeric_search_target_is_rejected_cleanly(self):
        with pytest.raises(ValueError, match="must be a number"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "family": "both_thresholds",
                    "grid": {"threshold_change": [0.1, 0.2]},
                    "strategy": "bisect",
                    "search": {"target_degradation": "half"},
                }
            )

    def test_missing_primary_parameter_is_rejected_before_training(self):
        with pytest.raises(ValueError, match="requires parameter 'threshold_change'"):
            ScenarioSpec(
                name="x",
                family="layer_threshold",
                grid={"fraction": (0.5, 1.0)},
            )

    def test_non_numeric_fixed_value_is_rejected(self):
        with pytest.raises(ValueError, match="fixed parameter 'threshold_change'"):
            ScenarioSpec(
                name="x",
                family="layer_threshold",
                fixed={"threshold_change": "big"},
                grid={"fraction": (0.5, 1.0)},
            )

    def test_bisect_accepts_descending_candidates(self):
        spec = ScenarioSpec(
            name="x",
            family="global_vdd",
            grid={"vdd": (0.95, 0.9, 0.85)},
            strategy="bisect",
        )
        assert spec.search.parameter == "vdd"

    def test_unknown_search_field_is_rejected(self):
        with pytest.raises(ValueError, match="unknown search field"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "family": "both_thresholds",
                    "grid": {"threshold_change": [0.1]},
                    "strategy": "bisect",
                    "search": {"target": 0.5},
                }
            )


class TestVariantExpansion:
    def test_grid_product_order_and_count(self):
        spec = ScenarioSpec.from_dict(_spec_document())
        undefended = [v for v in spec.variants() if not v.defense]
        assert len(undefended) == 4
        params = [dict(v.params) for v in undefended]
        # Last declared parameter varies fastest.
        assert [p["fraction"] for p in params] == [0.5, 1.0, 0.5, 1.0]
        assert [p["threshold_change"] for p in params] == [0.1, 0.1, 0.2, 0.2]
        assert all(
            isinstance(v.attack, Attack3InhibitoryThreshold) for v in undefended
        )

    def test_defended_variants_scale_the_primary_parameter(self):
        spec = ScenarioSpec.from_dict(_spec_document())
        variants = spec.variants()
        defended = [v for v in variants if v.defense == "sizing32"]
        assert len(defended) == 4
        for v in defended:
            assert 0.0 < v.defense_factor < 1.0
        undefended = [v for v in variants if not v.defense]
        for raw, shielded in zip(undefended, defended):
            raw_change = dict(raw.params)["threshold_change"]
            residual = dict(shielded.params)["threshold_change"]
            assert residual == pytest.approx(raw_change * shielded.defense_factor)

    def test_swept_categorical_axes_disambiguate_labels(self):
        spec = ScenarioSpec(
            name="sel",
            family="layer_threshold",
            fixed={"layer": "inhibitory", "threshold_change": 0.2},
            grid={"selection": ("random", "contiguous"), "fraction": (0.5, 1.0)},
        )
        labels = [variant.label for variant in spec.variants()]
        assert len(set(labels)) == len(labels)
        assert any("selection=contiguous" in label for label in labels)

    def test_layer_family_builds_the_matching_attack_class(self):
        spec = ScenarioSpec(
            name="layers",
            family="layer_threshold",
            grid={"layer": ("excitatory", "inhibitory"), "threshold_change": (0.2,)},
        )
        attacks = [v.attack for v in spec.variants()]
        assert isinstance(attacks[0], Attack2ExcitatoryThreshold)
        assert isinstance(attacks[1], Attack3InhibitoryThreshold)


class TestCompositeScenario:
    def _members(self):
        return (
            ScenarioSpec(
                name="m.gain", family="input_gain", grid={"theta_change": (-0.2, -0.1)}
            ),
            ScenarioSpec(
                name="m.thr",
                family="both_thresholds",
                grid={"threshold_change": (-0.2, 0.2)},
            ),
        )

    def test_product_fuses_composite_attacks(self):
        composite = CompositeScenario(
            name="prod", members=self._members(), mode="product"
        )
        variants = composite.variants()
        assert len(variants) == 4
        for variant in variants:
            assert isinstance(variant.attack, CompositeAttack)
            assert len(variant.attack.attacks) == 2
        labels = [variant.attack.label() for variant in variants]
        assert len(set(labels)) == 4
        assert "+" in labels[0]

    def test_sequence_concatenates_member_variants(self):
        composite = CompositeScenario(
            name="seq", members=self._members(), mode="sequence"
        )
        variants = composite.variants()
        assert len(variants) == 4
        assert not any(isinstance(v.attack, CompositeAttack) for v in variants)
        assert all(key.startswith("m.") for key, _ in variants[0].params)

    def test_composite_needs_two_members(self):
        with pytest.raises(ValueError, match=">= 2 members"):
            CompositeScenario(name="solo", members=self._members()[:1])

    @pytest.mark.parametrize("mode", ["product", "sequence"])
    def test_composites_reject_bisect_members_in_any_mode(self, mode):
        bisect_member = ScenarioSpec(
            name="m.b",
            family="both_thresholds",
            grid={"threshold_change": (0.1, 0.2)},
            strategy="bisect",
        )
        with pytest.raises(ValueError, match="grid strategy"):
            CompositeScenario(
                name="bad", members=(self._members()[0], bisect_member), mode=mode
            )


class TestLibrary:
    def test_at_least_eight_scenarios_beyond_the_figures(self):
        assert len(scenario_names()) >= 8

    def test_every_scenario_expands_or_searches(self):
        for scenario in iter_scenarios():
            if scenario.strategy == "bisect":
                assert scenario.search is not None
            else:
                assert len(scenario.variants()) >= 2

    def test_get_scenario_lists_valid_names_on_miss(self):
        with pytest.raises(KeyError, match="vdd_droop_fine"):
            get_scenario("nope")


# --------------------------------------------------------------------------
# Sharding.
# --------------------------------------------------------------------------


class TestShardSpec:
    def test_parse_and_str(self):
        shard = ShardSpec.parse("1/4")
        assert (shard.index, shard.count) == (1, 4)
        assert str(shard) == "1/4"

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/0", "4/4", "-1/4"])
    def test_malformed_specs_are_rejected(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_shards_partition_the_list(self):
        items = list(range(23))
        shards = [ShardSpec(index=i, count=4) for i in range(4)]
        pieces = [shard.select(items) for shard in shards]
        assert sorted(sum(pieces, [])) == items
        flat = set()
        for piece in pieces:
            assert flat.isdisjoint(piece)
            flat.update(piece)

    def test_owns_name_is_stable_and_partitioning(self):
        names = [f"scenario_{i}" for i in range(40)]
        shards = [ShardSpec(index=i, count=3) for i in range(3)]
        owners = [[s for s in shards if s.owns_name(name)] for name in names]
        assert all(len(o) == 1 for o in owners)

    def test_full_is_trivial(self):
        assert FULL.is_trivial
        assert FULL.select([1, 2, 3]) == [1, 2, 3]


# --------------------------------------------------------------------------
# Bisection vs the dense grid (Fig. 8-shaped collapse, stub pipeline).
# --------------------------------------------------------------------------


@dataclass
class FakeCollapsePipeline:
    """A Fig. 8b-shaped pipeline stub: accuracy collapses past a threshold.

    Deterministic and instant, so the strategy tests measure *pipeline
    runs*, not SNN noise.  Satisfies the executor's pipeline protocol.
    """

    config: ExperimentConfig = field(default_factory=ExperimentConfig.tiny)
    baseline: float = 0.8
    collapse_at: float = 0.1225

    def run_baseline(self) -> ExperimentResult:
        """The attack-free reference accuracy."""
        return ExperimentResult(
            attack_label="baseline",
            accuracy=self.baseline,
            baseline_accuracy=self.baseline,
        )

    def run(self, attack) -> ExperimentResult:
        """Accuracy as a monotone sigmoid collapse in ``threshold_change``."""
        change = float(getattr(attack, "threshold_change", 0.0))
        degradation = 0.92 / (1.0 + np.exp(-(change - self.collapse_at) * 400.0))
        return ExperimentResult(
            attack_label=attack.label(),
            accuracy=self.baseline * (1.0 - degradation),
            baseline_accuracy=self.baseline,
        )


@dataclass(frozen=True)
class _fake_factory:
    """Stub counterpart of ``PipelineFromConfig`` (content-scoped cache keys)."""

    config: ExperimentConfig
    engine: str = "auto"

    def __call__(self) -> FakeCollapsePipeline:
        return FakeCollapsePipeline(config=self.config)


@dataclass
class _CrashingPipeline(FakeCollapsePipeline):
    """The stub pipeline of a worker that dies on one attack."""

    crash_at: float = 0.086

    def run(self, attack) -> ExperimentResult:
        if float(getattr(attack, "threshold_change", 0.0)) == self.crash_at:
            raise RuntimeError("worker died mid-chunk")
        return super().run(attack)


@dataclass(frozen=True)
class _crashing_factory(_fake_factory):
    def __call__(self) -> _CrashingPipeline:
        return _CrashingPipeline(config=self.config)


def _array_digests(result) -> dict:
    return {
        name: (array.dtype.str, array.shape, hashlib.sha256(array.tobytes()).hexdigest())
        for name, array in result.arrays.items()
    }


def _collapse_values():
    return tuple(round(v, 6) for v in np.linspace(0.0, 0.2, 33))


class TestBisectionStrategy:
    def test_matches_dense_scan_on_monotone_data(self):
        values = [float(v) for v in np.linspace(0.0, 1.0, 17)]
        degradation = {v: (0.9 if v >= 0.51 else 0.05) for v in values}
        outcome = BisectionStrategy("p", target_degradation=0.5).run(
            values, degradation.get
        )
        dense = dense_collapse_index([degradation[v] for v in values], 0.5)
        assert outcome.collapse_index == dense
        assert outcome.n_probes <= 2 + int(np.ceil(np.log2(len(values))))

    def test_no_collapse_costs_one_probe(self):
        outcome = BisectionStrategy("p", target_degradation=0.5).run(
            [0.1, 0.2, 0.3], lambda value: 0.01
        )
        assert outcome.collapse_value is None
        assert outcome.n_probes == 1

    def test_immediate_collapse_returns_the_first_value(self):
        outcome = BisectionStrategy("p", target_degradation=0.5).run(
            [0.1, 0.2, 0.3], lambda value: 0.99
        )
        assert outcome.collapse_value == 0.1
        assert outcome.n_probes == 2


class TestBisectionVsDenseGrid:
    """The ISSUE acceptance: same collapse threshold, <= 25 % of the runs."""

    def _dense_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="dense",
            family="both_thresholds",
            grid={"threshold_change": _collapse_values()},
            scale="tiny",
        )

    def _bisect_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="adaptive",
            family="both_thresholds",
            grid={"threshold_change": _collapse_values()},
            strategy="bisect",
            search=BisectionSettings(target_degradation=0.5),
            scale="tiny",
        )

    def test_bisection_reproduces_the_dense_collapse_threshold(self):
        dense_runner = ScenarioRunner(pipeline_factory=_fake_factory)
        dense = dense_runner.run(self._dense_spec())
        dense_runs = dense.execution["tasks_executed"]
        dense_index = dense_collapse_index(
            dense.arrays["relative_degradation"], 0.5
        )
        dense_collapse = dense.arrays["param_threshold_change"][dense_index]

        bisect_runner = ScenarioRunner(pipeline_factory=_fake_factory)
        adaptive = bisect_runner.run(self._bisect_spec())
        adaptive_runs = adaptive.execution["tasks_executed"]

        assert adaptive.metrics["collapse_found"] == 1.0
        assert adaptive.metrics["collapse_value"] == pytest.approx(
            float(dense_collapse)
        )
        # The adaptive search must cost at most a quarter of the dense grid.
        assert adaptive_runs <= 0.25 * dense_runs
        assert adaptive_runs >= 2  # it did probe, not guess

    def test_bisection_cases_report_the_measured_accuracies(self):
        runner = ScenarioRunner(pipeline_factory=_fake_factory)
        spec = self._bisect_spec()
        result = runner.run(spec)
        executor = runner.executor_for(spec)
        assert len(result.cases) == result.metrics["n_probes"]
        for case in result.cases:
            cached = executor.run_attack(spec.build_attack(case["params"]))
            assert case["accuracy"] == cached.accuracy, case["label"]

    def test_bisection_resumes_free_after_a_dense_sweep(self):
        runner = ScenarioRunner(pipeline_factory=_fake_factory)
        runner.run(self._dense_spec())
        executed_before = runner.executor_for(self._bisect_spec()).stats.tasks_executed
        result = runner.run(self._bisect_spec())
        executed_after = runner.executor_for(self._bisect_spec()).stats.tasks_executed
        assert result.metrics["collapse_found"] == 1.0
        # Every probe was a cache hit against the dense sweep's results.
        assert executed_after == executed_before


class TestRunnerSharding:
    def _spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="shardable",
            family="both_thresholds",
            grid={"threshold_change": tuple(round(v, 3) for v in np.linspace(0.01, 0.2, 6))},
            scale="tiny",
        )

    def test_unsharded_grid_is_one_lockstep_pass(self, monkeypatch):
        runner = ScenarioRunner(pipeline_factory=_fake_factory)
        spec = self._spec()
        executor = runner.executor_for(spec)
        calls = []
        original = executor.map

        def counting_map(attacks):
            calls.append(len(attacks))
            return original(attacks)

        monkeypatch.setattr(executor, "map", counting_map)
        assert runner.run(spec).complete
        assert calls == [1 + len(spec.variants())]  # the baseline plus every variant

    def test_shards_complete_only_when_united(self, tmp_path):
        """FULL, static shards 0/2 + 1/2 and two elastic workers all agree."""
        from repro.exec.cache import ResultCache

        cache = ResultCache()
        spec = self._spec()
        first = ScenarioRunner(
            pipeline_factory=_fake_factory,
            cache=cache,
            shard=ShardSpec(index=0, count=2),
        ).run(spec)
        assert not first.complete
        assert first.missing == 3
        second = ScenarioRunner(
            pipeline_factory=_fake_factory,
            cache=cache,
            shard=ShardSpec(index=1, count=2),
        ).run(spec)
        # The second shard sees the union and assembles the merged result.
        assert second.complete
        unsharded = ScenarioRunner(pipeline_factory=_fake_factory).run(spec)
        assert np.array_equal(
            second.arrays["accuracies"], unsharded.arrays["accuracies"]
        )
        assert second.metrics == unsharded.metrics
        assert _array_digests(second) == _array_digests(unsharded)

        # Two elastic workers with one variant per chunk: "wa" dies on its
        # third chunk, "wb" steals that lease and drains the rest.
        policy = ElasticPolicy(chunk_size=1, poll_interval=0.01)
        with pytest.raises(RuntimeError, match="died"):
            ScenarioRunner(
                pipeline_factory=_crashing_factory,
                cache=open_worker_cache(tmp_path, "wa"),
                elastic=policy,
                workdir=tmp_path,
                worker_id="wa",
            ).run(spec)
        board = LeaseBoard(tmp_path / "leases" / spec.name, lease_ttl=1.0)
        expired = time.time() - 10 * policy.lease_ttl
        os.utime(board.lease_path("chunk-0002"), (expired, expired))
        elastic = ScenarioRunner(
            pipeline_factory=_fake_factory,
            cache=open_worker_cache(tmp_path, "wb"),
            elastic=policy,
            workdir=tmp_path,
            worker_id="wb",
        ).run(spec)
        assert elastic.complete
        assert elastic.execution["leases_stolen"] == 1
        assert elastic.execution["leases_claimed"] == 4  # chunks 2-5
        assert elastic.metrics == unsharded.metrics
        assert _array_digests(elastic) == _array_digests(unsharded)

    def test_bisect_scenarios_are_whole_scenario_assigned(self):
        spec = ScenarioSpec(
            name="adaptive-sharded",
            family="both_thresholds",
            grid={"threshold_change": (0.05, 0.1, 0.2)},
            strategy="bisect",
            scale="tiny",
        )
        results = [
            ScenarioRunner(
                pipeline_factory=_fake_factory, shard=ShardSpec(index=i, count=3)
            ).run(spec)
            for i in range(3)
        ]
        owned = [r for r in results if not r.sharded_out]
        assert len(owned) == 1
        assert owned[0].complete


# --------------------------------------------------------------------------
# CLI: shard/resume bit-identical artifacts (real tiny-scale pipeline).
# --------------------------------------------------------------------------


SCENARIO = "separate_domain_droop"


def _digests(path):
    with open(path) as handle:
        document = json.load(handle)
    return {name: entry["sha256"] for name, entry in document["arrays"].items()}


class TestCLIShardResume:
    @pytest.fixture(scope="class")
    def unsharded_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("unsharded")
        rc = main(
            ["scenarios", "run", SCENARIO, "--scale", "tiny", "--out", str(out), "--quiet"]
        )
        assert rc == 0
        return out

    def test_sharded_merge_is_bit_identical(self, unsharded_dir, tmp_path, capsys):
        out = tmp_path / "sharded"
        for shard in ("0/2", "1/2"):
            rc = main(
                [
                    "scenarios",
                    "run",
                    SCENARIO,
                    "--scale",
                    "tiny",
                    "--out",
                    str(out),
                    "--shard",
                    shard,
                    "--quiet",
                ]
            )
            assert rc == 0
        capsys.readouterr()
        merged = out / f"scenario-{SCENARIO}.json"
        assert merged.exists(), "the final shard should assemble the artifact"
        reference = unsharded_dir / f"scenario-{SCENARIO}.json"
        assert _digests(merged) == _digests(reference)
        stored = load_artifact(merged)
        assert stored.metrics == load_artifact(reference).metrics

    def test_killed_shard_resumes_bit_identically(self, unsharded_dir, tmp_path, capsys):
        out = tmp_path / "resumed"
        # Shard 0 completes its slice (simulating a campaign killed before
        # the sibling shard ever ran)...
        rc = main(
            [
                "scenarios",
                "run",
                SCENARIO,
                "--scale",
                "tiny",
                "--out",
                str(out),
                "--shard",
                "0/2",
                "--quiet",
            ]
        )
        assert rc == 0
        assert not (out / f"scenario-{SCENARIO}.json").exists()
        # ...then an unsharded invocation resumes: shard 0's results are
        # cache hits, only the missing variants are trained.
        rc = main(
            ["scenarios", "run", SCENARIO, "--scale", "tiny", "--out", str(out), "--quiet"]
        )
        capsys.readouterr()
        assert rc == 0
        merged = out / f"scenario-{SCENARIO}.json"
        assert _digests(merged) == _digests(
            unsharded_dir / f"scenario-{SCENARIO}.json"
        )

    def test_scenarios_report_summarises_artifacts(self, unsharded_dir, capsys):
        assert main(["scenarios", "report", str(unsharded_dir)]) == 0
        out = capsys.readouterr().out
        assert SCENARIO in out
        assert "worst degradation" in out

    def test_rerun_completes_from_cache(self, unsharded_dir, capsys):
        rc = main(
            [
                "scenarios",
                "run",
                SCENARIO,
                "--scale",
                "tiny",
                "--out",
                str(unsharded_dir),
                "--quiet",
            ]
        )
        assert rc == 0
        stored = load_artifact(unsharded_dir / f"scenario-{SCENARIO}.json")
        assert stored.provenance["executor_tasks"] == 0
        assert stored.provenance["executor_cache_hits"] > 0


class TestBisectionEngineParity:
    """Bisection probes are single-attack runs, which train on the lockstep
    engine under ``auto``; the artifact must not depend on that."""

    def test_bisection_digests_match_across_engines(self, tmp_path, capsys):
        assert resolve_engine("auto") == "batched"
        name = "inhibitory_collapse_search"
        digests = {}
        for engine in ("auto", "scalar"):
            out = tmp_path / engine
            argv = ["scenarios", "run", name, "--scale", "tiny", "--engine", engine]
            assert main(argv + ["--out", str(out), "--quiet"]) == 0
            digests[engine] = _digests(out / f"scenario-{name}.json")
        capsys.readouterr()
        assert digests["auto"]
        assert digests["auto"] == digests["scalar"]


class TestShardCacheResilience:
    def test_bad_sibling_cache_does_not_block_the_run(self, tmp_path, capsys):
        from repro.store import SCHEMA_VERSION, open_shard_cache

        (tmp_path / "cache.shard-0-of-2.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "results": {}})
        )
        cache = open_shard_cache(tmp_path, ShardSpec(index=1, count=2))
        assert len(cache) == 0
        assert "skipping unreadable sibling cache" in capsys.readouterr().err

    def test_own_cache_file_still_fails_loudly(self, tmp_path):
        from repro.store import SCHEMA_VERSION, open_shard_cache

        (tmp_path / "cache.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "results": {}})
        )
        with pytest.raises(ValueError, match="schema"):
            open_shard_cache(tmp_path, None)


class TestCLIScenarioMisc:
    def test_list_names_every_scenario(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_rejects_unknown_scenarios(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenarios", "run", "not_a_scenario"])

    def test_run_without_scenarios_requires_all(self):
        with pytest.raises(SystemExit, match="--all"):
            main(["scenarios", "run"])

    def test_bad_spec_file_fails_cleanly(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"name": "x"}))  # no family
        with pytest.raises(SystemExit, match="missing required field"):
            main(["scenarios", "run", "--all", "--file", str(spec_path)])

    def test_unparseable_spec_file_fails_cleanly(self, tmp_path):
        spec_path = tmp_path / "broken.json"
        spec_path.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["scenarios", "run", "--all", "--file", str(spec_path)])

    def test_corrupt_scenario_artifact_fails_the_report(self, tmp_path, capsys):
        (tmp_path / "scenario-broken.json").write_text('{"scenario": "x", ')
        assert main(["scenarios", "report", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unreadable_scenario_artifact_fails_the_report(self, tmp_path, capsys):
        # A directory raises IsADirectoryError on open() — the one
        # unreadable-file shape that works regardless of uid (root ignores
        # permission bits, so chmod 000 cannot model this in CI).
        (tmp_path / "scenario-weird.json").mkdir()
        assert main(["scenarios", "report", str(tmp_path)]) == 1
        assert "cannot read file" in capsys.readouterr().err

    def test_file_loaded_scenarios_are_runnable(self, tmp_path, capsys):
        from repro.scenarios import unregister_scenario

        document = {
            "name": "from_file",
            "family": "both_thresholds",
            "grid": {"threshold_change": [-0.2, 0.2]},
            "scale": "tiny",
        }
        spec_path = tmp_path / "extra.json"
        spec_path.write_text(json.dumps(document))
        try:
            rc = main(
                [
                    "scenarios",
                    "run",
                    "from_file",
                    "--file",
                    str(spec_path),
                    "--out",
                    str(tmp_path / "results"),
                    "--quiet",
                ]
            )
            capsys.readouterr()
            assert rc == 0
            assert (tmp_path / "results" / "scenario-from_file.json").exists()
        finally:
            unregister_scenario("from_file")
