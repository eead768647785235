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

from repro.utils.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    names={
        "config": ["ExperimentConfig"],
        "pipeline": ["ClassificationPipeline"],
        "results": ["AttackGridResult", "ExperimentResult"],
    },
)
