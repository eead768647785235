"""SNN-engine hot-path benchmark: scalar vs lockstep-batched execution.

Three workloads, mirroring ``test_engine_hotpath.py`` one tier up:

* **stepping throughput** — V corrupted variants of one Diehl&Cook network
  advanced through identical Poisson rasters, per-variant on the scalar
  :class:`~repro.snn.network.Network` vs one lockstep pass on
  :class:`~repro.snn.batched.BatchedNetwork`.  ``extra_info`` records
  variant-steps/second for both engines.
* **single-variant training** — one network (``V == 1``) trained on the
  lockstep engine vs the scalar loop.  ``extra_info`` records µs per
  training step for both; this margin is why single-attack runs train on
  the lockstep engine too.
* **campaign sweep wall-clock** — a Fig. 8-shaped layer-threshold sweep
  (threshold change × fraction grid, the benchmark-scale ``fig8`` grid) run
  once per engine on dedicated pipelines.  This is the number the PR-level
  claim is stated over: the batched sweep must beat the per-run scalar
  sweep by :data:`MIN_SWEEP_SPEEDUP` while producing bit-identical
  accuracy grids.

Speedup floors are asserted below typical measurements (~3x stepping with
STDP on, ~4x on the benchmark-scale sweep) to stay robust on noisy CI
runners; the measured values land in ``extra_info`` so the nightly
``BENCH_<date>.json`` snapshots carry the SNN engine's perf trajectory
alongside the circuit engine's.
"""

import time

import numpy as np

from repro.attacks.campaign import AttackCampaign
from repro.core import ClassificationPipeline, ExperimentConfig
from repro.snn import BatchedNetwork, DiehlAndCook2015, DiehlAndCookParameters

#: Fig. 8-shaped grid at benchmark scale (5 unique train-and-evaluate runs).
THRESHOLD_CHANGES = (-0.2, 0.2)
FRACTIONS = (0.0, 0.5, 1.0)

#: Variants advanced by the stepping benchmark.
N_VARIANTS = 8

#: Presentation length and count of the stepping benchmark.
STEP_TIME = 80
STEP_PRESENTATIONS = 4

#: Conservative speedup floors (measured ~3x stepping, ~3.8-4x sweep on
#: the reference container; the sweep floor is the PR-level claim).
MIN_STEP_SPEEDUP = 1.8
MIN_SWEEP_SPEEDUP = 3.0

#: Presentations of the single-variant training case, and its loose floor
#: (measured 1.3-1.6x).
SINGLE_PRESENTATIONS = 12
MIN_SINGLE_VARIANT_SPEEDUP = 1.1


def _variant_networks(n_variants: int = N_VARIANTS):
    """Attack-grid-shaped corruptions of one small Diehl&Cook topology."""
    networks = []
    for index in range(n_variants):
        network = DiehlAndCook2015(
            DiehlAndCookParameters(n_inputs=144, n_neurons=48, norm=60.0), rng=5
        )
        scale = 0.8 + 0.1 * (index % 5)
        network.excitatory_layer.set_threshold_scale(scale)
        network.inhibitory_layer.set_input_gain(1.2 - 0.05 * index)
        networks.append(network)
    return networks


def _rasters():
    rng = np.random.default_rng(17)
    return [rng.random((STEP_TIME, 144)) < 0.2 for _ in range(STEP_PRESENTATIONS)]


def test_lockstep_stepping_beats_scalar_loop(benchmark):
    """V variants in lockstep vs V scalar passes over identical rasters."""
    rasters = _rasters()

    def scalar_pass():
        for network in _variant_networks():
            for raster in rasters:
                network.present(raster, learning=True)

    def batched_pass():
        batched = BatchedNetwork.from_networks(_variant_networks())
        for raster in rasters:
            batched.present({"input": raster}, learning=True)

    start = time.perf_counter()
    scalar_pass()
    scalar_seconds = time.perf_counter() - start

    benchmark.pedantic(batched_pass, rounds=3, iterations=1)
    batched_seconds = benchmark.stats.stats.mean

    variant_steps = N_VARIANTS * STEP_PRESENTATIONS * STEP_TIME
    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["scalar_variant_steps_per_sec"] = variant_steps / scalar_seconds
    benchmark.extra_info["batched_variant_steps_per_sec"] = variant_steps / batched_seconds
    benchmark.extra_info["stepping_speedup"] = speedup
    assert speedup >= MIN_STEP_SPEEDUP, (
        f"lockstep stepping speedup {speedup:.2f}x below the "
        f"{MIN_STEP_SPEEDUP}x floor"
    )


def test_single_variant_lockstep_training_beats_scalar(benchmark):
    """V = 1: the lockstep engine must out-train the scalar loop on its own.

    The smoke-scale network, with input rasters as sparse as its Poisson
    encodings (about 2 % of 784 inputs spike per step).
    """
    parameters = ExperimentConfig.smoke().network
    rng = np.random.default_rng(29)
    rasters = [
        rng.random((STEP_TIME, parameters.n_inputs)) < 0.02
        for _ in range(SINGLE_PRESENTATIONS)
    ]
    steps = SINGLE_PRESENTATIONS * STEP_TIME

    def scalar_pass():
        network = DiehlAndCook2015(parameters, rng=5)
        for raster in rasters:
            network.present(raster, learning=True)
        return network

    def batched_pass():
        batched = BatchedNetwork.from_networks([DiehlAndCook2015(parameters, rng=5)])
        for raster in rasters:
            batched.present({"input": raster}, learning=True)
        return batched

    scalar_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        network = scalar_pass()
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
    batched = benchmark.pedantic(batched_pass, rounds=3, iterations=1)
    batched_seconds = benchmark.stats.stats.min

    for key, connection in network.connections.items():
        assert np.array_equal(batched.variant_weights(key, 0), connection.w)
    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["scalar_us_per_step"] = 1e6 * scalar_seconds / steps
    benchmark.extra_info["lockstep_us_per_step"] = 1e6 * batched_seconds / steps
    benchmark.extra_info["single_variant_speedup"] = speedup
    assert speedup >= MIN_SINGLE_VARIANT_SPEEDUP, (
        f"single-variant lockstep training speedup {speedup:.2f}x below the "
        f"{MIN_SINGLE_VARIANT_SPEEDUP}x floor"
    )


def test_fig8_shaped_sweep_speedup(benchmark, experiment_config):
    """The PR claim: >=3x on a Fig. 8-shaped layer-threshold sweep.

    Dedicated pipelines (not the shared session fixture) so both engines
    train from cold caches; the batched sweep must also reproduce the
    scalar grid bit for bit — speed never buys away determinism.
    """
    scalar_campaign = AttackCampaign(
        ClassificationPipeline(experiment_config, engine="scalar")
    )
    start = time.perf_counter()
    scalar_grid = scalar_campaign.sweep_layer_threshold(
        "excitatory", THRESHOLD_CHANGES, FRACTIONS
    )
    scalar_seconds = time.perf_counter() - start

    def batched_sweep():
        campaign = AttackCampaign(ClassificationPipeline(experiment_config))
        return campaign.sweep_layer_threshold(
            "excitatory", THRESHOLD_CHANGES, FRACTIONS
        )

    batched_grid = benchmark.pedantic(batched_sweep, rounds=1, iterations=1)
    batched_seconds = benchmark.stats.stats.mean

    assert np.array_equal(batched_grid.accuracies, scalar_grid.accuracies), (
        "batched sweep diverged from the scalar reference grid"
    )
    assert batched_grid.baseline_accuracy == scalar_grid.baseline_accuracy

    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["scalar_sweep_seconds"] = scalar_seconds
    benchmark.extra_info["batched_sweep_seconds"] = batched_seconds
    benchmark.extra_info["sweep_speedup"] = speedup
    benchmark.extra_info["grid_points"] = len(THRESHOLD_CHANGES) * len(FRACTIONS)
    assert speedup >= MIN_SWEEP_SPEEDUP, (
        f"Fig. 8-shaped sweep speedup {speedup:.2f}x below the "
        f"{MIN_SWEEP_SPEEDUP}x floor"
    )
