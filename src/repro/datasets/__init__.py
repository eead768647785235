"""Synthetic digit dataset (offline MNIST substitute).

The paper evaluates on MNIST; this environment has no network access, so the
dataset substrate renders 28×28 grey-scale digits from stroke skeletons with
per-sample geometric jitter and noise.  The attacks act on network
parameters, not on the input distribution, so any separable ten-class
rate-coded image task preserves the relative accuracy-degradation trends
(see DESIGN.md, substitution table).

* :mod:`repro.datasets.digits` — the stroke renderer and the
  :class:`SyntheticDigits` dataset.
* :mod:`repro.datasets.loaders` — shuffled batching helpers.
"""

from repro.datasets.digits import (
    DIGIT_SKELETONS,
    SyntheticDigits,
    render_digit,
)
from repro.datasets.loaders import DataLoader, train_test_split

__all__ = [
    "DIGIT_SKELETONS",
    "SyntheticDigits",
    "render_digit",
    "DataLoader",
    "train_test_split",
]
