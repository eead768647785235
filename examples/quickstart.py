"""Quickstart: train the Diehl&Cook SNN and attack its power supply.

Reproduces Fig. 9a (the black-box global-VDD attack) through the figure
registry: the attack-free baseline plus the under/over-volted supply points,
then prints the paper-style table.

Figure reproduced
    Fig. 9a (Attack 5) at the reduced supply grid, against its baseline.
Expected runtime
    ~1-2 min on a laptop (smoke scale; three training runs).

Usage::

    python examples/quickstart.py
    REPRO_SCALE=tiny python examples/quickstart.py   # seconds, toy accuracy
"""

from repro.core import ExperimentConfig
from repro.figures import FigureContext, get_figure


def main() -> None:
    # ``smoke`` keeps the example fast; export REPRO_SCALE=benchmark (or
    # paper) for the accuracy regime reported in the figures.
    config = ExperimentConfig.from_environment(default="smoke")
    print(f"Training the Diehl&Cook SNN ({config.scale_name} scale)...")

    with FigureContext(config, figures=("fig9a",)) as context:
        result = get_figure("fig9a").run(context)

    print(result.render())
    print()
    degradation = result.metrics["relative_degradation_at_0v8"]
    print(
        f"The shared-supply fault at 0.8 V removed {degradation:.1%} of the "
        f"baseline accuracy ({result.metrics['baseline_accuracy']:.3f} -> "
        f"{result.metrics['accuracy_at_0v8']:.3f})."
    )
    print(
        "Persist this run with: python -m repro run fig9a --scale "
        f"{config.scale_name} --out results/"
    )


if __name__ == "__main__":
    main()
