"""Weighted water-filling over parallel channels.

Maximizes sum_i (w_i/2) log(1 + a_i p_i) subject to sum_i p_i <= P, p >= 0.
The optimum is p_i = [w_i/(2 mu) - 1/a_i]^+ with mu chosen to meet the
budget.  Channel i is active once the water level nu = 1/(2 mu) exceeds
1/(w_i a_i), so the kernel sorts the channels by that threshold, takes
cumulative sums of w and 1/a, and reads the exact level off the largest
active set that meets the budget (sorted-cumsum water-filling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBudgetError, ValidationError
from .kernels import waterfill_kernel, waterfill_residual


@dataclass
class WaterfillResult:
    powers: np.ndarray
    water_price: float  # the budget-meeting mu

    def rate(self, gains, weights) -> float:
        return float(np.sum(0.5 * np.asarray(weights) * np.log1p(np.asarray(gains) * self.powers)))


def waterfill(gains, weights, budget: float) -> WaterfillResult:
    gains = np.ascontiguousarray(gains, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    if gains.shape != weights.shape or gains.ndim != 1:
        raise ValidationError("gains and weights must be 1-d arrays of equal length")
    if (gains < 0).any() or (weights < 0).any():
        raise ValidationError("gains and weights must be nonnegative")
    if budget < 0:
        raise InfeasibleBudgetError("power budget must be >= 0")
    if budget > 0 and not (gains * weights > 0).any():
        raise InfeasibleBudgetError("positive budget but every channel has zero weighted gain")
    powers, mu = waterfill_kernel(gains, weights, float(budget))
    return WaterfillResult(powers=powers, water_price=float(mu))


def waterfill_or_zero(gains, weights, budget: float) -> WaterfillResult:
    """``waterfill``, except that channels of which none has a positive
    weighted gain get the zero allocation at water price 0: a pairing whose
    channels carry no rate is a candidate of rate 0, not an error."""
    if budget >= 0 and not (np.asarray(gains) * np.asarray(weights) > 0).any():
        return WaterfillResult(powers=np.zeros(np.shape(gains)), water_price=0.0)
    return waterfill(gains, weights, budget)


def kkt_residual(gains, weights, budget: float, powers) -> float:
    """Max relative deviation of the active water levels plus budget mismatch."""
    gains = np.ascontiguousarray(gains, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    powers = np.ascontiguousarray(powers, dtype=float)
    return float(waterfill_residual(gains, weights, float(budget), powers))
