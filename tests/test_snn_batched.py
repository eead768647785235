"""Batched-vs-scalar SNN engine parity suite.

Mirrors ``tests/test_analog_compiled.py`` one tier up: every model variant
registered in :data:`repro.snn.models.MODEL_VARIANTS` is trained and
evaluated on the scalar reference engine and on the lockstep batched engine
(variant-batched and example-batched, learning on and off), and the results
are compared for *bit-identical* equality — spike rasters, membrane traces,
weights, adaptation state, spike counts and pipeline accuracies.
"""

import numpy as np
import pytest

from repro.attacks.attacks import (
    Attack1InputSpikeCorruption,
    Attack2ExcitatoryThreshold,
    Attack3InhibitoryThreshold,
    Attack5GlobalSupply,
)
from repro.attacks.campaign import AttackCampaign
from repro.core import ClassificationPipeline, ExperimentConfig
from repro.snn import (
    AdaptiveLIFNodes,
    BatchedNetwork,
    BatchedSpikeMonitor,
    BatchedStateMonitor,
    Connection,
    InputNodes,
    LIFNodes,
    MODEL_VARIANTS,
    Network,
    PostPre,
    SpikeMonitor,
    StateMonitor,
    WeightDependentPostPre,
)
from repro.snn.batched import (
    BatchedNetworkError,
    NetworkTopologyMismatchError,
    reduction_contract_holds,
    UnsupportedNetworkError,
)

#: Per-variant corruptions exercised against every model (nominal + two
#: attacked parameter sets, the shape of a campaign grid).
CORRUPTIONS = (
    {"threshold_scale": 1.0, "input_gain": 1.0},
    {"threshold_scale": 0.8, "input_gain": 1.1},
    {"threshold_scale": 1.2, "input_gain": 0.9},
)


def corrupted_variants(builder, seed):
    """One network per corruption, faults on the first LIF layer."""
    networks = []
    for corruption in CORRUPTIONS:
        network = builder(seed)
        for nodes in network.layers.values():
            if isinstance(nodes, LIFNodes):
                nodes.threshold_scale[:] = corruption["threshold_scale"]
                nodes.input_gain[:] = corruption["input_gain"]
                break
        networks.append(network)
    return networks


def input_layer_name(network):
    for name, nodes in network.layers.items():
        if isinstance(nodes, InputNodes):
            return name
    raise AssertionError("model has no input layer")


def spike_layer_name(network):
    return next(iter(network.monitors.values())).layer_name


def make_rasters(network, count, time_steps=40, seed=11):
    rng = np.random.default_rng(seed)
    n = network.layers[input_layer_name(network)].n
    return [rng.random((time_steps, n)) < 0.25 for _ in range(count)]


def scalar_reference(builder, seed, rasters_train, rasters_eval):
    """Train/evaluate each corruption separately on the scalar engine."""
    outputs = []
    for variant, _ in enumerate(CORRUPTIONS):
        network = corrupted_variants(builder, seed)[variant]
        layer = spike_layer_name(network)
        input_name = input_layer_name(network)
        network.add_monitor("v_trace", StateMonitor(layer, "v"))
        for raster in rasters_train:
            network.set_learning(True)
            for connection in network.connections.values():
                connection.normalize()
            network.reset_monitors()
            network.reset_state_variables()
            network.run({input_name: raster})
        eval_rasters, eval_traces = [], []
        for raster in rasters_eval:
            network.set_learning(False)
            network.reset_monitors()
            network.reset_state_variables()
            network.run({input_name: raster})
            eval_rasters.append(network.monitors[f"{layer}_spikes"].get()
                                if f"{layer}_spikes" in network.monitors
                                else list(network.monitors.values())[0].get())
            eval_traces.append(network.monitors["v_trace"].get())
        outputs.append((network, eval_rasters, eval_traces))
    return outputs


@pytest.mark.parametrize("name", sorted(MODEL_VARIANTS))
class TestVariantAndExampleParity:
    """Every registered model: variant-batched training + example-batched eval."""

    def test_bitwise_parity(self, name):
        builder = MODEL_VARIANTS[name]
        template = builder(5)
        rasters_train = make_rasters(template, 4)
        rasters_eval = make_rasters(template, 3, seed=23)
        input_name = input_layer_name(template)
        layer = spike_layer_name(template)

        references = scalar_reference(builder, 5, rasters_train, rasters_eval)

        batched = BatchedNetwork.from_networks(corrupted_variants(builder, 5))
        spikes = batched.add_monitor("spikes", BatchedSpikeMonitor(layer))
        voltage = batched.add_monitor("v", BatchedStateMonitor(layer, "v"))
        for raster in rasters_train:
            batched.present({input_name: raster}, learning=True)

        # Trained weights and adaptation state match every scalar variant.
        for key in template.connections:
            for variant, (reference, _, _) in enumerate(references):
                assert np.array_equal(
                    batched.variant_weights(key, variant),
                    reference.connections[key].w,
                ), f"{name}: weights diverged on {key} variant {variant}"
        for variant, (reference, _, _) in enumerate(references):
            nodes = reference.layers[layer]
            if hasattr(nodes, "theta"):
                assert np.array_equal(
                    batched.layer_theta(layer, variant), nodes.theta
                )

        # Example-batched inference: all eval rasters at once, all variants.
        batched.present(
            {input_name: np.stack(rasters_eval)}, learning=False
        )
        for variant, (_, eval_rasters, eval_traces) in enumerate(references):
            for example, (raster, trace) in enumerate(zip(eval_rasters, eval_traces)):
                assert np.array_equal(spikes.raster(variant, example), raster)
                assert np.array_equal(voltage.trace(variant, example), trace)
        counts = spikes.spike_counts()
        for variant, (_, eval_rasters, _) in enumerate(references):
            per_example = np.stack([raster.sum(axis=0) for raster in eval_rasters])
            assert np.array_equal(counts[variant], per_example)


class TestPipelineParity:
    """Engine choice never changes pipeline results — bit for bit."""

    ATTACKS = [
        None,
        Attack1InputSpikeCorruption(theta_change=-0.2),
        Attack2ExcitatoryThreshold(threshold_change=-0.2, fraction=0.5),
        Attack3InhibitoryThreshold(threshold_change=0.2, fraction=1.0),
        Attack5GlobalSupply(vdd=0.8),
    ]

    @pytest.fixture(scope="class")
    def tiny_config(self):
        return ExperimentConfig.tiny()

    @pytest.fixture(scope="class")
    def scalar_results(self, tiny_config):
        pipeline = ClassificationPipeline(tiny_config, engine="scalar")
        return [pipeline.run(attack) for attack in self.ATTACKS]

    def test_auto_engine_resolves(self, tiny_config):
        pipeline = ClassificationPipeline(tiny_config)
        assert pipeline.engine == "auto"
        expected = "batched" if reduction_contract_holds() else "scalar"
        assert pipeline.resolved_engine == expected

    def test_batched_inference_matches_scalar_runs(self, tiny_config, scalar_results):
        pipeline = ClassificationPipeline(tiny_config, engine="auto")
        assert pipeline.resolved_engine == "batched"
        for attack, reference in zip(self.ATTACKS, scalar_results):
            result = pipeline.run(attack)
            assert result.accuracy == reference.accuracy
            assert result.mean_excitatory_spikes == reference.mean_excitatory_spikes
            assert result.fault_descriptions == reference.fault_descriptions

    def test_run_batch_matches_scalar_runs(self, tiny_config, scalar_results):
        pipeline = ClassificationPipeline(tiny_config, engine="auto")
        assert pipeline.resolved_engine == "batched"
        results = pipeline.run_batch(self.ATTACKS)
        for result, reference in zip(results, scalar_results):
            assert result.accuracy == reference.accuracy
            assert result.mean_excitatory_spikes == reference.mean_excitatory_spikes
            assert result.fault_descriptions == reference.fault_descriptions
            assert result.attack_label == reference.attack_label
        # The batch contained the baseline, so attacked results carry it.
        baseline = results[0].accuracy
        assert all(result.baseline_accuracy == baseline for result in results)

    @staticmethod
    def bitwise(result):
        """Every field, floats by their exact bits."""
        return (
            result.attack_label,
            float(result.accuracy).hex(),
            None if result.baseline_accuracy is None else float(result.baseline_accuracy).hex(),
            float(result.mean_excitatory_spikes).hex(),
            result.fault_descriptions,
            result.scale_name,
        )

    def test_single_runs_train_on_the_lockstep_engine(self, tiny_config, scalar_results):
        pipeline = ClassificationPipeline(tiny_config, engine="auto")
        batch_sizes = []
        run_batch = pipeline.run_batch

        def spy(attacks):
            batch_sizes.append(len(attacks))
            return run_batch(attacks)

        pipeline.run_batch = spy
        # Baseline first, so the attacked run carries its back-reference.
        for index in (0, 3):
            result = pipeline.run(self.ATTACKS[index])
            assert self.bitwise(result) == self.bitwise(scalar_results[index])
        assert batch_sizes == [1, 1]
        assert scalar_results[3].baseline_accuracy == scalar_results[0].accuracy

    def test_single_attack_without_baseline_matches_scalar(self, tiny_config):
        attack = self.ATTACKS[3]
        auto = ClassificationPipeline(tiny_config, engine="auto").run(attack)
        scalar = ClassificationPipeline(tiny_config, engine="scalar").run(attack)
        assert auto.baseline_accuracy is None
        assert self.bitwise(auto) == self.bitwise(scalar)

    def test_example_chunking_is_invisible(self, tiny_config, scalar_results):
        pipeline = ClassificationPipeline(tiny_config, engine="auto", example_chunk=7)
        assert pipeline.resolved_engine == "batched"
        result = pipeline.run(self.ATTACKS[2])
        assert result.accuracy == scalar_results[2].accuracy

    def test_fig8_shaped_sweep_matches_scalar_grid(self, tiny_config):
        # The grid of benchmarks/test_snn_hotpath.py's nightly sweep floor.
        changes, fractions = (-0.2, 0.2), (0.0, 0.5, 1.0)
        batched = AttackCampaign(ClassificationPipeline(tiny_config))
        scalar = AttackCampaign(ClassificationPipeline(tiny_config, engine="scalar"))
        grid_b = batched.sweep_layer_threshold("excitatory", changes, fractions)
        grid_s = scalar.sweep_layer_threshold("excitatory", changes, fractions)
        assert grid_b.accuracies.shape == (len(changes), len(fractions))
        assert np.array_equal(grid_b.accuracies, grid_s.accuracies)
        assert grid_b.baseline_accuracy == grid_s.baseline_accuracy

    def test_campaign_batched_dispatch_matches_serial(self, tiny_config):
        batched = AttackCampaign(ClassificationPipeline(tiny_config))
        scalar = AttackCampaign(ClassificationPipeline(tiny_config, engine="scalar"))
        grid_b = batched.sweep_layer_threshold("inhibitory", (-0.2, 0.2), (0.0, 1.0))
        grid_s = scalar.sweep_layer_threshold("inhibitory", (-0.2, 0.2), (0.0, 1.0))
        assert np.array_equal(grid_b.accuracies, grid_s.accuracies)
        assert grid_b.baseline_accuracy == grid_s.baseline_accuracy
        assert batched.executor.stats.counters()["lockstep_passes"] >= 1
        assert scalar.executor.stats.counters()["lockstep_passes"] == 0
        modes = {t.worker_mode for t in batched.executor.stats.timings if not t.cached}
        assert modes == {"batched"}


class _ClipCountingConnection(Connection):
    """Counts the cells the scalar engine's every-step clamp pulls back in range."""

    below = above = 0

    def clamp(self):
        self.below += int((self.w < self.wmin).sum())
        self.above += int((self.w > self.wmax).sum())
        super().clamp()


class TestVariantDivergentPlasticSource:
    """A plastic LIF→LIF projection: spiking pairs differ per variant.

    No registered model has one (their plastic projections leave the input
    layer), and their random rasters rarely clip a cell in the same step it
    is potentiated, so this builds both on purpose: rates and bounds that
    clip at ``wmin`` and ``wmax``, steps where a cell is depressed and
    potentiated at once, and ``-0.0`` weights that only survive if untouched
    cells are never written.
    """

    WMIN, WMAX = -0.25, 0.5
    THRESHOLD_SCALES = (1.0, 0.9, 1.1, 1.05)
    KEY = ("hidden", "out")

    def build(self, rule, variant):
        rng = np.random.default_rng(3)
        network = Network()
        inputs = network.add_layer("input", InputNodes(12))
        hidden = network.add_layer(
            "hidden", LIFNodes(8, thresh=-58.0, rest=-65.0, reset=-65.0, refractory_period=1.0)
        )
        out = network.add_layer(
            "out",
            AdaptiveLIFNodes(
                6, thresh=-64.0, rest=-65.0, reset=-65.0, refractory_period=1.0, theta_plus=0.05
            ),
        )
        network.add_connection(
            "input", "hidden", Connection(inputs, hidden, w=rng.uniform(0.0, 4.0, (12, 8)))
        )
        # A static input drive keeps "out" firing alongside "hidden" however
        # far the plastic weights are depressed.
        network.add_connection(
            "input", "out", Connection(inputs, out, w=rng.uniform(0.0, 3.0, (12, 6)))
        )
        w = rng.uniform(self.WMIN, self.WMAX, (8, 6))
        w[::3] = -0.0
        network.add_connection(
            "hidden",
            "out",
            _ClipCountingConnection(
                hidden, out, w=w, wmin=self.WMIN, wmax=self.WMAX, update_rule=rule
            ),
        )
        # Static feedback from a variant-divergent layer: one shared matrix,
        # per-variant source spikes.
        network.add_connection(
            "out", "hidden", Connection(out, hidden, w=rng.uniform(-1.0, 1.0, (6, 8)))
        )
        hidden.set_threshold_scale(self.THRESHOLD_SCALES[variant])
        # Output neuron 0 never fires, so its column is only ever depressed
        # by exact zeros: its -0.0 weights must come out as -0.0.
        out.set_input_gain(0.0, np.arange(6) == 0)
        network.add_monitor("hidden_spikes", SpikeMonitor("hidden"))
        network.add_monitor("out_spikes", SpikeMonitor("out"))
        return network

    @pytest.mark.parametrize(
        "make_rule",
        [
            lambda: PostPre(nu_pre=0.3, nu_post=0.35),
            lambda: WeightDependentPostPre(nu_pre=1.2, nu_post=1.0),
        ],
        ids=["postpre", "weight_dependent"],
    )
    def test_bitwise_parity_with_clipping(self, make_rule):
        rng = np.random.default_rng(8)
        rasters = [rng.random((40, 12)) < 0.3 for _ in range(4)]
        variants = range(len(self.THRESHOLD_SCALES))
        references, hidden_rasters, shared_steps = [], [], 0
        for variant in variants:
            network = self.build(make_rule(), variant)
            network.set_learning(True)
            hidden = []
            for raster in rasters:
                network.reset_monitors()
                network.reset_state_variables()
                network.run({"input": raster})
                pre = network.monitors["hidden_spikes"].get()
                post = network.monitors["out_spikes"].get()
                shared_steps += int((pre.any(axis=1) & post.any(axis=1)).sum())
                hidden.append(pre)
            references.append(network)
            hidden_rasters.append(np.concatenate(hidden))

        batched = BatchedNetwork.from_networks(
            [self.build(make_rule(), variant) for variant in variants]
        )
        for raster in rasters:
            batched.present({"input": raster}, learning=True)

        # The cases this test exists for really happened.
        assert any(not np.array_equal(hidden_rasters[0], h) for h in hidden_rasters[1:])
        assert shared_steps > 0, "no step depressed and potentiated the same cell"
        assert sum(network.connections[self.KEY].below for network in references) > 0
        assert sum(network.connections[self.KEY].above for network in references) > 0
        for variant, reference in enumerate(references):
            expected = reference.connections[self.KEY].w
            assert (np.signbit(expected) & (expected == 0)).any()
            # Bytes, not values: -0.0 == 0.0, but artifact digests differ.
            assert batched.variant_weights(self.KEY, variant).tobytes() == expected.tobytes()
            assert (
                batched.layer_theta("out", variant).tobytes()
                == reference.layers["out"].theta.tobytes()
            )

        # Example-batched inference over every (variant, example) lane.
        eval_rasters = [rng.random((40, 12)) < 0.3 for _ in range(3)]
        monitors = {
            name: batched.add_monitor(name, BatchedSpikeMonitor(name))
            for name in ("hidden", "out")
        }
        batched.present({"input": np.stack(eval_rasters)}, learning=False)
        for variant, reference in enumerate(references):
            reference.set_learning(False)
            for example, raster in enumerate(eval_rasters):
                reference.reset_monitors()
                reference.reset_state_variables()
                reference.run({"input": raster})
                for name, monitor in monitors.items():
                    expected = reference.monitors[f"{name}_spikes"].get()
                    assert np.array_equal(monitor.raster(variant, example), expected)


def _plastic_pair(w, *, wmin=0.0, wmax=1.0, norm=None):
    """Input → LIF through one plastic connection, for the sign-safety checks."""
    network = Network()
    source = network.add_layer("input", InputNodes(w.shape[0]))
    target = network.add_layer(
        "out", LIFNodes(w.shape[1], thresh=-64.0, rest=-65.0, reset=-65.0)
    )
    network.add_connection(
        "input",
        "out",
        Connection(
            source,
            target,
            w=w,
            wmin=wmin,
            wmax=wmax,
            norm=norm,
            update_rule=PostPre(nu_pre=0.01, nu_post=0.02),
        ),
    )
    network.add_monitor("out_spikes", SpikeMonitor("out"))
    return network


class TestSignSafeRowSkip:
    """Potentiation skips zero-trace rows only where that cannot flip a sign.

    On a sign-safe connection a skipped cell's scalar update ``w + 0.0`` is
    ``w``; a ``-0.0`` weight would come out ``+0.0`` instead, so one must
    turn the skip off.
    """

    KEY = ("input", "out")

    def sign_safe(self, network):
        return BatchedNetwork.from_networks([network]).connections[self.KEY].sign_safe

    @pytest.mark.parametrize("name", sorted(MODEL_VARIANTS))
    def test_registered_plastic_projections_are_sign_safe(self, name):
        batched = BatchedNetwork.from_networks([MODEL_VARIANTS[name](4)])
        plastic = [c for c in batched.connections.values() if c.update_rule is not None]
        assert plastic and all(connection.sign_safe for connection in plastic)
        static = [c for c in batched.connections.values() if c.update_rule is None]
        assert not any(connection.sign_safe for connection in static)

    @pytest.mark.parametrize(
        "corner, overrides",
        [
            (0.5, {"wmin": -0.25}),
            (0.5, {"wmin": -0.0}),
            (0.5, {"wmax": -0.0}),
            (0.5, {"norm": -3.0}),
            (-0.0, {}),
            (np.inf, {"wmax": np.inf}),
        ],
        ids=["negative_wmin", "negative_zero_wmin", "negative_zero_wmax",
             "negative_norm", "negative_zero_weight", "infinite_weight"],
    )
    def test_unsafe_connections_are_detected(self, corner, overrides):
        assert self.sign_safe(_plastic_pair(np.full((4, 3), 0.5), norm=2.0))
        w = np.full((4, 3), 0.5)
        w[0, 0] = corner
        assert not self.sign_safe(_plastic_pair(w, **overrides))

    def test_negative_zero_weight_under_a_firing_column(self):
        # Row 0 never fires, so its pre-trace stays 0.0; every column fires.
        # The scalar engine potentiates w[0, c] = -0.0 by 0.02 * 0.0 and
        # leaves +0.0: skipping the row would keep the -0.0.
        rng = np.random.default_rng(21)
        w = rng.uniform(0.2, 1.0, (10, 3))
        w[0] = -0.0
        raster = rng.random((30, 10)) < 0.5
        raster[:, 0] = False
        reference = _plastic_pair(w)
        reference.set_learning(True)
        reference.run({"input": raster})
        batched = BatchedNetwork.from_networks([_plastic_pair(w)])
        batched.present({"input": raster}, learning=True, normalize=False)

        assert reference.monitors["out_spikes"].get().any(axis=0).all()
        expected = reference.connections[self.KEY].w
        assert np.array_equal(expected[0], np.zeros(3))
        assert not np.signbit(expected[0]).any()
        assert batched.variant_weights(self.KEY, 0).tobytes() == expected.tobytes()


class TestEngineGuards:
    def test_reduction_contract_holds_here(self):
        assert reduction_contract_holds()

    def test_example_batching_requires_learning_off(self):
        network = MODEL_VARIANTS["lif_feedforward_postpre"](0)
        batched = BatchedNetwork.from_networks([network])
        rasters = np.zeros((2, 5, network.layers["input"].n), dtype=bool)
        with pytest.raises(BatchedNetworkError):
            batched.present({"input": rasters}, learning=True)

    def test_topology_mismatch_rejected(self):
        a = MODEL_VARIANTS["lif_feedforward_postpre"](0)
        b = MODEL_VARIANTS["adaptive_weight_dependent"](0)
        with pytest.raises(NetworkTopologyMismatchError):
            BatchedNetwork.from_networks([a, b])

    def test_unsupported_rule_rejected(self):
        class OddRule:
            def update(self, connection):
                return None

        network = Network()
        source = network.add_layer("input", InputNodes(4))
        target = network.add_layer("out", LIFNodes(2))
        network.add_connection(
            "input",
            "out",
            Connection(source, target, w=np.ones((4, 2)), update_rule=OddRule()),
        )
        with pytest.raises(UnsupportedNetworkError):
            BatchedNetwork.from_networks([network])

    def test_plastic_connection_into_input_rejected(self):
        network = Network()
        source = network.add_layer("out", LIFNodes(2))
        target = network.add_layer("input", InputNodes(4))
        network.add_connection(
            "out", "input", Connection(source, target, w=np.ones((2, 4)), update_rule=PostPre())
        )
        with pytest.raises(UnsupportedNetworkError):
            BatchedNetwork.from_networks([network])

    def test_empty_batch_rejected(self):
        with pytest.raises(BatchedNetworkError):
            BatchedNetwork.from_networks([])

    def test_input_raster_shape_validated(self):
        network = MODEL_VARIANTS["lif_feedforward_postpre"](0)
        batched = BatchedNetwork.from_networks([network])
        with pytest.raises(ValueError):
            batched.run({"input": np.zeros((5, 3), dtype=bool)})
        with pytest.raises(KeyError):
            batched.run({"missing": np.zeros((5, 24), dtype=bool)})

    def test_rasters_survive_presentation(self):
        # The engine must not mutate caller-owned rasters via state resets.
        network = MODEL_VARIANTS["lif_feedforward_postpre"](0)
        batched = BatchedNetwork.from_networks([network])
        raster = np.ones((5, 24), dtype=bool)
        batched.present({"input": raster}, learning=False)
        batched.present({"input": raster}, learning=False)
        assert raster.all()


class TestScalarMonitorCompat:
    """The batched monitors mirror the scalar monitors' count conventions."""

    def test_counts_only_monitor_matches_raster_monitor(self):
        network = MODEL_VARIANTS["lif_feedforward_postpre"](3)
        raster = make_rasters(network, 1)[0]
        scalar_counts = None
        reference = MODEL_VARIANTS["lif_feedforward_postpre"](3)
        reference.set_learning(False)
        reference.reset_state_variables()
        reference.run({"input": raster})
        scalar_counts = reference.monitors["readout_spikes"].spike_counts()

        batched = BatchedNetwork.from_networks([network])
        counting = batched.add_monitor(
            "counts", BatchedSpikeMonitor("readout", counts_only=True)
        )
        full = batched.add_monitor("raster", BatchedSpikeMonitor("readout"))
        batched.present({"input": raster}, learning=False)
        assert np.array_equal(counting.spike_counts()[0, 0], scalar_counts)
        assert np.array_equal(full.spike_counts()[0, 0], scalar_counts)
        with pytest.raises(ValueError):
            counting.raster()

    def test_scalar_spike_monitor_still_composes(self):
        # Sanity: the rewritten scalar monitors behave like the originals.
        monitor = SpikeMonitor("layer")
        nodes = LIFNodes(3)
        nodes.spikes = np.array([True, False, True])
        monitor.record(nodes)
        nodes.spikes = np.array([False, False, True])
        monitor.record(nodes)
        assert np.array_equal(monitor.spike_counts(), [1, 0, 2])
        assert monitor.get().shape == (2, 3)


class TestMonitorLaneBounds:
    """A lane outside the recorded run raises instead of reading a neighbour."""

    @staticmethod
    def recorded(variants, rasters):
        networks = [MODEL_VARIANTS["lif_feedforward_postpre"](3) for _ in range(variants)]
        batched = BatchedNetwork.from_networks(networks)
        monitors = (
            batched.add_monitor("spikes", BatchedSpikeMonitor("readout")),
            batched.add_monitor("v", BatchedStateMonitor("readout", "v")),
            batched.add_monitor("inputs", BatchedSpikeMonitor("input")),
        )
        batched.present({"input": rasters}, learning=False)
        return monitors

    def test_raster_rejects_a_variant_outside_the_run(self):
        raster = make_rasters(MODEL_VARIANTS["lif_feedforward_postpre"](3), 1)[0]
        spikes, _, _ = self.recorded(2, raster)
        with pytest.raises(IndexError, match=r"variant 5, example 0.*\(2, 1\)"):
            spikes.raster(5)
        with pytest.raises(IndexError, match=r"variant 0, example 1"):
            spikes.raster(0, 1)
        with pytest.raises(IndexError):
            spikes.raster(-1)

    def test_trace_rejects_a_lane_outside_the_run(self):
        raster = make_rasters(MODEL_VARIANTS["lif_feedforward_postpre"](3), 1)[0]
        _, voltage, _ = self.recorded(1, raster)
        with pytest.raises(IndexError, match=r"variant 7, example 9.*\(1, 1\)"):
            voltage.trace(7, 9)
        with pytest.raises(IndexError, match=r"variant 0, example 1"):
            voltage.trace(0, 1)
        assert voltage.trace(0, 0).shape == (len(raster), 8)

    def test_uniform_input_monitor_serves_every_variant(self):
        rasters = np.stack(make_rasters(MODEL_VARIANTS["lif_feedforward_postpre"](3), 2))
        _, _, inputs = self.recorded(3, rasters)
        for variant in range(3):
            for example in range(2):
                assert np.array_equal(inputs.raster(variant, example), rasters[example])
        with pytest.raises(IndexError, match=r"variant 3, example 0.*\(3, 2\)"):
            inputs.raster(3)


#: Weights of the drive cases: signed zeros, a subnormal and plain values.
DRIVE_WEIGHTS = np.array([0.0, -0.0, -0.0, 5e-324, 0.25, -0.5, 3.0])


class TestPrefixSortedDrive:
    """The example-batched generic drive equals, lane by lane and byte for
    byte, the scalar drive: ``w[mask].sum(axis=0)`` added into zeros."""

    N_PRE, N_POST, VARIANTS, EXAMPLES = 7, 5, 3, 4

    def connection(self, uniform, shared, rng):
        shared_w = rng.choice(DRIVE_WEIGHTS, (self.N_PRE, self.N_POST))
        networks = []
        for _ in range(self.VARIANTS):
            network = Network()
            layer = InputNodes if uniform else LIFNodes
            source = network.add_layer("pre", layer(self.N_PRE))
            target = network.add_layer("post", LIFNodes(self.N_POST))
            w = shared_w if shared else rng.choice(DRIVE_WEIGHTS, (self.N_PRE, self.N_POST))
            network.add_connection("pre", "post", Connection(source, target, w=w))
            networks.append(network)
        connection = BatchedNetwork.from_networks(networks).connections[("pre", "post")]
        assert connection.shared == shared
        return connection

    @pytest.mark.parametrize(
        "uniform, shared",
        [(True, False), (False, False), (True, True), (False, True)],
        ids=["uniform-stacked", "per-variant-stacked", "uniform-shared", "per-variant-shared"],
    )
    @pytest.mark.parametrize("activity", ["mixed", "silent-lanes", "all-silent"])
    def test_drive_equals_scalar_sum_per_lane(self, uniform, shared, activity):
        rng = np.random.default_rng(41)
        connection = self.connection(uniform, shared, rng)
        lanes = 1 if uniform else self.VARIANTS
        spikes = rng.random((lanes, self.EXAMPLES, self.N_PRE)) < 0.5
        if activity == "silent-lanes":
            spikes[:, ::2] = False
        elif activity == "all-silent":
            spikes[:] = False
        drive = connection._generic_drive(spikes)
        assert drive.shape[1:] == (self.EXAMPLES, self.N_POST)
        assert drive.shape[0] in (1, self.VARIANTS)
        for variant in range(self.VARIANTS):
            w = connection.variant_weights(variant)
            for example in range(self.EXAMPLES):
                mask = spikes[0 if uniform else variant, example]
                expected = np.zeros(self.N_POST)
                if mask.any():
                    expected += w[mask].sum(axis=0)
                lane = drive[min(variant, len(drive) - 1), example]
                assert lane.tobytes() == expected.tobytes(), (variant, example)
