"""Shared report records and the one decision rule of the Monte Carlo check suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def flagged(kind: str, estimate: float, std_error: float, bound: float) -> bool:
    """The 3-SE rule: whether ``estimate`` strays more than 3 standard errors
    past what a check of this ``kind`` asserts about ``bound``.

    ``"upper"`` asserts estimate <= bound, ``"lower"`` asserts
    estimate >= bound, and ``"equal"`` asserts estimate == bound.  A NaN
    compares false, so it would pass every kind: a non-finite input raises
    ``FloatingPointError`` instead.
    """
    if not all(map(math.isfinite, (estimate, std_error, bound))):
        raise FloatingPointError(
            f"non-finite estimate, std_error or bound: {estimate}, {std_error}, {bound}")
    if kind == "upper":
        return estimate - 3.0 * std_error > bound
    if kind == "lower":
        return estimate + 3.0 * std_error < bound
    if kind == "equal":
        return abs(estimate - bound) > 3.0 * std_error
    raise ValueError(f"unknown check kind {kind!r}")


def mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (ddof=1) of ``vals``."""
    if len(vals) < 2:  # one value has no standard error
        raise ValueError("need at least 2 trials")
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


@dataclass
class MomentReport:
    """One Monte Carlo estimate against a theoretical bound or target.

    ``kind`` names what the producing suite asserts (see :func:`flagged`);
    ``bound`` is the bound of a one-sided check and the exact target of an
    ``"equal"`` one.  ``aux`` carries secondary reported (never asserted)
    values such as alternative bound shapes.
    """

    estimate: float
    std_error: float
    bound: float
    trials: int
    kind: str
    label: str = ""
    aux: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return flagged(self.kind, self.estimate, self.std_error, self.bound)
