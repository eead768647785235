"""The experiment pipeline that regenerates the paper's evaluation.

* :mod:`repro.core.config` — experiment configuration presets (paper scale,
  benchmark scale, smoke-test scale).
* :mod:`repro.core.pipeline` — train the Diehl&Cook SNN on the synthetic
  digit task, optionally under a power attack, and measure classification
  accuracy.
* :mod:`repro.core.results` — result containers (baseline vs attacked
  accuracy, sweep grids).
* :mod:`repro.core.reporting` — plain-text execution and artifact reports.
"""

from repro.core.config import ExperimentConfig
from repro.core.pipeline import ClassificationPipeline
from repro.core.results import AttackGridResult, ExperimentResult

__all__ = [
    "ExperimentConfig",
    "ClassificationPipeline",
    "ExperimentResult",
    "AttackGridResult",
]
