"""Solvers that let direct-link pairs reuse the second slot.

When a pair skips the relay, the source transmits a second, independent
message on the second-slot subcarrier, so a direct pair contributes two
single-slot channels instead of one.  Relay use on a pair is admissible as
soon as a_sr > a_sd (the second slot is no longer free, so the comparison
against staying direct moves into the scores themselves).

Both are problems for the dual drivers (``relaypair.dual``).
``solve_extra_total`` runs the assignment-dual search (``dual.search``) on
its one shared budget, through the candidate pipeline of
``solver_total.SharedProblem``, and ``solve_extra_individual`` the
subgradient driver (``dual.solve``) on the split budgets, through that of
``solver_individual.SplitProblem``.  A candidate fixes its pairing and
relay-use pattern, which fixes its channel list (``channel.pair_channels``:
entry k is pair k's relay or first-slot channel, entry M + k its second
slot, dead where pair k relays), allocates power on it (water-filling under
the shared budget, ``extra_individual_allocate`` under split budgets), and
re-decides relay use at the prices that allocation implies until the
pattern settles (``DualProblem.settle``; the ``use_at`` hooks re-score).
"""

from __future__ import annotations

import numpy as np

from .channel import channel_allocation, pair_channels, pair_tables, relay_mask_extra
from .dual import search, solve
from .kernels import _inv_gain, _mode_buffers, extra_ind_scores, extra_scores
from .rates import weighted_sum_rate
from .refine import split_solve, zero_crossing_refine
from .solver_individual import SplitProblem
from .solver_total import SharedProblem
from .types import ChannelRealization, IndividualBudgets, SolveReport, SolverConfig


# -- shared budget -----------------------------------------------------------

class ExtraTotalProblem(SharedProblem):
    extra = True

    def __init__(self, real: ChannelRealization, budget: float):
        super().__init__(real, budget)
        self.relay_ok = relay_mask_extra(real)
        self.gains_relay = np.ascontiguousarray(pair_tables(real, self.relay_ok)[0])
        self.inv = _inv_gain(self.gains_relay)
        self.out = _mode_buffers(real.m, 3)
        # relay use at the last scores: all direct before the first
        self.use_relay = np.zeros((real.m, real.m), dtype=bool)

    def scores(self, prices, alpha):
        scores, self.use_relay, self.p1, self.p2 = extra_scores(
            self.real.w, self.real.a_sd, self.gains_relay, self.relay_ok,
            prices[0], alpha, inv=self.inv, out=self.out)
        return scores

    def used(self, sel):
        relay = self.use_relay[self.rows, sel]
        return (self.p1[self.rows, sel][relay].sum()
                + (self.p2 + self.p2[sel])[~relay].sum(),)

    def use_at(self, perm, prices):
        # relay use does not depend on the pairing prices
        self.scores(prices, self.no_alpha)
        return self.use_relay[self.rows, perm]


def solve_extra_total(real: ChannelRealization, budget: float,
                      cfg: SolverConfig | None = None, seed: int = 0,
                      collect_trace: bool = False) -> SolveReport:
    """The assignment-dual search on one shared budget.  ``seed`` is kept
    for the common solver signature; the search draws nothing."""
    return search(ExtraTotalProblem(real, budget), cfg, collect_trace)


# -- individual budgets ------------------------------------------------------

def extra_individual_allocate(real: ChannelRealization, perm: np.ndarray,
                              use_relay: np.ndarray,
                              budgets: IndividualBudgets):
    """Two-budget allocation for a fixed pairing and relay-use pattern: the
    frozen channel list (``channel.pair_channels``) solved by
    ``refine.split_solve``.  Returns (allocation, rate, price ratio, (mu_s,
    mu_r)); the power prices drive the re-decision loop.
    """
    channels = pair_channels(real, perm, use_relay, extra=True)
    powers, diag = split_solve(channels, budgets.p_source, budgets.p_relay)
    alloc = channel_allocation(perm, use_relay, powers, channels[2], channels[3])
    rate = weighted_sum_rate(real, alloc, extra_allowed=True)
    return alloc, rate, diag["ratio"], (diag["mu_s"], diag["mu_r"])


_SCAN_SCALES = 10.0 ** np.linspace(-1.0, 1.0, 5)   # ``scan``'s grid: source-price scales
_SCAN_STEPS = 10.0 ** np.linspace(-2.0, 2.0, 33)   # and steps of the ratio mu_r/mu_s,
_SCAN_RATIO_FLOOR = 1e-3                           # floored here


class ExtraIndividualProblem(SplitProblem):
    """A candidate starts from its relay use at the prices its pairing
    came from."""

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets,
                 warm_pairing=None):
        super().__init__(real, budgets, warm_pairing)
        self.out = _mode_buffers(real.m, 6)

    def scores(self, prices, alpha):
        real = self.real
        scores, self.use_relay, self.p1, self.c_s, self.c_r, self.p2 = extra_ind_scores(
            real.w, real.a_sd, real.a_sr, real.a_rd, *prices, alpha, out=self.out)
        return scores

    def used(self, sel):
        rows = self.rows
        relay = self.use_relay[rows, sel]
        p_rel = self.p1[rows, sel][relay]
        return (self.c_s[rows, sel][relay] @ p_rel + (self.p2 + self.p2[sel])[~relay].sum(),
                self.c_r[rows, sel][relay] @ p_rel)

    def start(self, perm):
        return self.use_relay[self.rows, perm]

    def use_at(self, perm, prices):
        self.scores(prices, self.no_alpha)
        return self.start(perm)

    def allocate_pattern(self, perm, use):
        alloc, rate, ratio, prices = extra_individual_allocate(self.real, perm, use, self.split)
        return rate, alloc, prices, {"ratio": ratio}

    def allocate(self, perm, use):
        real = self.real
        best = self.settle(perm, use, self.allocate_pattern)
        # an allocation with empty second slots is always admissible here,
        # so a plain no-extra refinement can only help as a fallback
        alt, diag = zero_crossing_refine(real, perm, *self.budgets)
        alt_rate = weighted_sum_rate(real, alt, extra_allowed=True)
        if alt_rate > best[0]:
            best = (alt_rate, alt, (diag["mu_s"], diag["mu_r"]), {"ratio": diag["ratio"]})
        return best

    def scan(self, perm):
        """The best ``allocate`` of a fixed pairing over the relay-use patterns
        met on a fixed price grid around its no-reuse refinement's prices."""
        _, diag = zero_crossing_refine(self.real, perm, *self.budgets)
        mu_s = diag["mu_s"] if 0.0 < diag["mu_s"] < np.inf else 1.0
        ratio = diag["mu_r"] / mu_s if diag["mu_r"] < np.inf else 1.0
        seen = set()
        for scale in _SCAN_SCALES * mu_s:
            for step in _SCAN_STEPS:
                use = self.use_at(perm, (scale, scale * max(ratio * step, _SCAN_RATIO_FLOOR)))
                if use.tobytes() not in seen:
                    seen.add(use.tobytes())
                    self.keep(*self.allocate(perm, use))
        return self.best


def solve_extra_individual(real: ChannelRealization, budgets: IndividualBudgets,
                           cfg: SolverConfig | None = None, seed: int = 0,
                           warm_pairing: np.ndarray | None = None,
                           collect_trace: bool = False) -> SolveReport:
    return solve(ExtraIndividualProblem(real, budgets, warm_pairing), cfg, seed, collect_trace)
