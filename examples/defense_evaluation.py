"""Evaluate the paper's countermeasures (Sec. V).

Shows, for each defense, how much of the attack-induced parameter corruption
survives, what it costs, and whether the dummy-neuron detector flags the
supply fault — all through the figure registry, so the same tables are
served by ``python -m repro run residuals fig10c overheads``.

Figures reproduced
    The defense columns of Figs. 9b/9c/10a (residual corruption), Fig. 10b/c
    (dummy-neuron detector) and the Sec. V area/power overhead table.
Expected runtime
    A few seconds on a laptop (behavioural models and small circuit solves
    only; no SNN training).

Usage::

    python examples/defense_evaluation.py
"""

from repro.core import ExperimentConfig
from repro.figures import FigureContext, get_figure

FIGURES = ("residuals", "fig10c", "overheads")


def main() -> None:
    # The defense circuit tier is scale-independent; the config labels the run.
    config = ExperimentConfig.from_environment(default="benchmark")
    with FigureContext(config, figures=FIGURES) as context:
        for name in FIGURES:
            print(get_figure(name).run(context).render())
            print()
    print("Persist these with: python -m repro run " + " ".join(FIGURES))


if __name__ == "__main__":
    main()
