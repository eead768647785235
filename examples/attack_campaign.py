"""Run all five power-oriented attacks against one trained pipeline.

Reproduces the paper's headline comparison (the summary behind Figs. 7b-9a)
through the ``summary`` entry of the figure registry: the driver-only and
excitatory-layer attacks barely move the accuracy, while the
inhibitory-layer, both-layer and global-supply attacks collapse it.

Figure reproduced
    Summary row of Figs. 7b, 8a-8c and 9a (one representative point per
    attack family).
Expected runtime
    ~5 min serially at the default ``benchmark`` scale; seconds at
    ``REPRO_SCALE=smoke``.  ``--workers N`` fans the five attacked runs out
    over N processes and divides the wall-clock accordingly.

Usage::

    python examples/attack_campaign.py                     # serial, benchmark scale
    python examples/attack_campaign.py --workers 4         # parallel sweep
    REPRO_SCALE=smoke python examples/attack_campaign.py   # quick look
"""

import argparse

from repro.core import ExperimentConfig
from repro.core.reporting import format_execution_report
from repro.figures import FigureContext, get_figure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for the attack sweep (0/1 = serial, default)",
    )
    args = parser.parse_args()

    config = ExperimentConfig.from_environment(default="benchmark")
    mode = f"{args.workers} workers" if args.workers >= 2 else "serial"
    print(f"Running the 5-attack campaign ({config.scale_name} scale, {mode})...")

    with FigureContext(config, workers=args.workers, figures=("summary",)) as context:
        result = get_figure("summary").run(context)
        print()
        print(result.render())
        print()
        print(format_execution_report(context.executor.stats))


if __name__ == "__main__":
    main()
