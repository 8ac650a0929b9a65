"""Joint pairing and power allocation under one shared power budget.

``SharedProblem`` is the candidate pipeline of both shared-budget problems:
one power price mu, and a candidate that water-fills the channel list of
its permutation.  ``TotalProblem`` scores pairs by ``kernels.total_scores``.
``solve_total`` runs the cutting planes (``dual.cuts``) in the one price
mu: at each mu the max-weight assignment bounds the dual, and its
permutation is the next candidate.
"""

from __future__ import annotations

import numpy as np

from .channel import channel_allocation, pair_channels, pair_tables, relay_mask_total
from .dual import DualProblem, cuts
from .kernels import _buffers, _inv_gain, total_scores
from .pairing import scp_pairing
from .rates import weighted_sum_rate
from .types import ChannelRealization, SolveReport, SolverConfig
from .waterfill import waterfill_or_zero


class SharedProblem(DualProblem):
    """Subclasses keep ``use_relay``, the M x M relay use at the last
    scores, and set ``extra`` when a direct pair reuses its second slot.

    The one final is the rank-matched pairing.  A candidate starts from
    its relay use at the last scores and is kept in channel form, (use,
    powers, c_s, c_r); ``finish`` turns the best one into an allocation."""

    extra = False

    def __init__(self, real: ChannelRealization, budget: float):
        super().__init__(real, (float(budget),))
        self.finals = [scp_pairing(real)]

    def start(self, perm):
        return self.use_relay[self.rows, perm]

    def allocate_pattern(self, perm, use):
        """Water-fill the channel list of (perm, use): (rate, (use, powers,
        c_s, c_r), (water price,))."""
        gains, w, c_s, c_r = pair_channels(self.real, perm, use, extra=self.extra)
        wf = waterfill_or_zero(gains, w, self.budgets[0])
        return wf.rate(gains, w), (use, wf.powers, c_s, c_r), (wf.water_price,)

    def allocate(self, perm, start):
        rate, powered, prices = self.settle(perm, start, self.allocate_pattern)
        return rate, powered, prices, {"water_price": prices[0]}

    def finish(self):
        _, perm, powered, diag = super().finish()
        alloc = channel_allocation(perm, *powered)
        return weighted_sum_rate(self.real, alloc, extra_allowed=self.extra), perm, alloc, diag


class TotalProblem(SharedProblem):

    def __init__(self, real: ChannelRealization, budget: float):
        super().__init__(real, budget)
        self.use_relay = relay_mask_total(real)
        self.gains = np.ascontiguousarray(pair_tables(real, self.use_relay)[0])
        self.inv = _inv_gain(self.gains)
        self.out = _buffers(real.m, 3)

    def scores(self, prices):
        scores, self.powers = total_scores(self.real.w, self.gains, prices[0],
                                           inv=self.inv, out=self.out)
        return scores

    def used(self, sel):
        return (self.powers[self.rows, sel].sum(),)

    def use_at(self, perm, prices):
        # relay use does not depend on the price
        return self.use_relay[self.rows, perm]


def solve_total(real: ChannelRealization, budget: float,
                cfg: SolverConfig | None = None,
                collect_trace: bool = False) -> SolveReport:
    """Kelley's cutting planes on one shared budget."""
    return cuts(TotalProblem(real, budget), cfg, collect_trace)
