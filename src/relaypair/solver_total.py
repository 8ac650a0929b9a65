"""Joint pairing and power allocation under one shared power budget.

The problem for the shared subgradient driver (``relaypair.dual``): one
power price mu, and pair scores from ``kernels.total_scores``.  Each repair
candidate water-fills the equivalent channels of its permutation, and the
dual is re-evaluated at the exact water-filling price.  After the
iteration, assignments at alpha = 0 re-price the power until the pairing
repeats; each gives both a bound and a candidate.
"""

from __future__ import annotations

import numpy as np

from .channel import channel_allocation, pair_channels, pair_tables, relay_mask_total
from .dual import DualProblem, solve
from .kernels import _buffers, _inv_gain, total_scores
from .pairing import amend_pairing
from .rates import weighted_sum_rate
from .types import ChannelRealization, SolveReport, SolverConfig
from .waterfill import waterfill


class TotalProblem(DualProblem):
    price_names = ("mu",)

    def __init__(self, real: ChannelRealization, budget: float):
        super().__init__(real, (float(budget),))
        self.relay = relay_mask_total(real)
        self.gains = np.ascontiguousarray(pair_tables(real, self.relay)[0])
        self.inv = _inv_gain(self.gains)
        self.out = _buffers(real.m, 3)

    def scores(self, prices, alpha):
        scores, self.powers = total_scores(self.real.w, self.gains, prices[0], alpha,
                                           inv=self.inv, out=self.out)
        return scores

    def used(self, sel):
        return (self.powers[self.rows, sel].sum(),)

    def candidate(self, perm):
        """Water-fill the permutation's channels; returns the water price."""
        relay = self.relay[self.rows, perm]
        gains, w, c_s, c_r = pair_channels(self.real, perm, relay)
        wf = waterfill(gains, w, self.budgets[0])
        self.keep(wf.rate(gains, w), perm, (relay, wf.powers, c_s, c_r), wf.water_price)
        return wf.water_price

    def evaluate(self, scores, sel, alpha):
        price = self.candidate(amend_pairing(scores, sel, alpha))
        self.bound = min(self.bound, self.dual_at((price,), alpha))

    def finish(self, prices, alpha):
        self.reprice(prices[0] if self.best is None else self.best[3], self.candidate)
        _, perm, powered, price = self.best
        alloc = channel_allocation(perm, *powered)
        return (weighted_sum_rate(self.real, alloc, extra_allowed=False), perm, alloc,
                {"water_price": price})


def solve_total(real: ChannelRealization, budget: float,
                cfg: SolverConfig | None = None, seed: int = 0,
                collect_trace: bool = False) -> SolveReport:
    return solve(TotalProblem(real, budget), cfg, seed, collect_trace)
