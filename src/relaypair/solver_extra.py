"""Solvers that let direct-link pairs reuse the second slot.

When a pair skips the relay, the source transmits a second, independent
message on the second-slot subcarrier, so a direct pair contributes two
single-slot channels instead of one.  Relay use on a pair is admissible as
soon as a_sr > a_sd (the second slot is no longer free, so the comparison
against staying direct moves into the scores themselves).

Both are problems for the dual drivers (``relaypair.dual``).
``solve_extra_total`` runs the assignment-dual search (``dual.search``) on
its one shared budget, and ``solve_extra_individual`` the subgradient
driver (``dual.solve``) on the split budgets, through the candidate
pipeline of ``solver_individual.SplitProblem``.  A candidate fixes its
pairing and relay-use pattern, which fixes its channel list
(``channel.pair_channels``: entry k is pair k's relay or first-slot
channel, entry M + k its second slot, dead where pair k relays), allocates
power on it (water-filling under the shared budget,
``extra_individual_allocate`` under split budgets), and re-decides relay
use at the prices that allocation implies until the pattern settles.
"""

from __future__ import annotations

import numpy as np

from .channel import channel_allocation, pair_channels, pair_tables, relay_mask_extra
from .dual import DualProblem, search, solve
from .kernels import _inv_gain, _mode_buffers, extra_ind_scores, extra_scores
from .pairing import amend_pairing
from .rates import weighted_sum_rate
from .refine import split_solve, zero_crossing_refine
from .solver_individual import SplitProblem
from .types import ChannelRealization, IndividualBudgets, SolveReport, SolverConfig
from .waterfill import waterfill_or_zero


# -- shared budget -----------------------------------------------------------

class ExtraTotalProblem(DualProblem):
    price_names = ("mu",)

    def __init__(self, real: ChannelRealization, budget: float):
        super().__init__(real, (float(budget),))
        self.relay_ok = relay_mask_extra(real)
        self.gains_relay = np.ascontiguousarray(pair_tables(real, self.relay_ok)[0])
        self.inv = _inv_gain(self.gains_relay)
        self.out = _mode_buffers(real.m, 3)
        self.zero = np.zeros(real.m)
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

    def candidate(self, perm):
        """Water-fill the permutation's channel list, starting from the relay
        use of the last scores and re-deciding it at the water price until it
        settles; keeps the best and returns its water price.  Re-scores, so
        whatever ``used`` should read must be read before."""
        use = self.use_relay[self.rows, perm]
        best = None
        for _ in range(5):
            gains, w, c_s, c_r = pair_channels(self.real, perm, use, extra=True)
            wf = waterfill_or_zero(gains, w, self.budgets[0])
            rate = wf.rate(gains, w)
            if best is None or rate > best[0]:
                best = (rate, (use, wf.powers, c_s, c_r), wf.water_price)
            # relay use does not depend on the pairing prices
            self.scores((wf.water_price,), self.zero)
            nxt = self.use_relay[self.rows, perm]
            if np.array_equal(nxt, use):
                break
            use = nxt
        rate, powered, price = best
        self.keep(rate, perm, channel_allocation(perm, *powered))
        return price

    def evaluate(self, scores, sel, alpha):
        price = self.candidate(amend_pairing(scores, sel, alpha))
        self.bound = min(self.bound, self.dual_at((price,), alpha))

    def finish(self, prices, alpha):
        rep = search(self)
        return rep.primal_rate, rep.pairing, rep.allocation, rep.diagnostics

    def result(self):
        _, perm, alloc = self.best
        return weighted_sum_rate(self.real, alloc, extra_allowed=True), perm, alloc, {}


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


class ExtraIndividualProblem(SplitProblem):
    """A candidate starts from its relay use at the prices its pairing
    came from."""

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets,
                 warm_pairing=None, fixed_pairing=None):
        super().__init__(real, budgets, warm_pairing, fixed_pairing)
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

    def allocate(self, perm, use):
        real = self.real
        best = None
        for _ in range(5):
            alloc, rate, ratio, prices = extra_individual_allocate(real, perm, use, self.split)
            if best is None or rate > best[0]:
                best = (rate, alloc, prices, {"ratio": ratio})
            if not np.isfinite(prices).all():
                break
            self.scores(prices, np.zeros(real.m))
            nxt = self.start(perm)
            if np.array_equal(nxt, use):
                break
            use = nxt
        # an allocation with empty second slots is always admissible here,
        # so a plain no-extra refinement can only help as a fallback
        alt, diag = zero_crossing_refine(real, perm, *self.budgets)
        alt_rate = weighted_sum_rate(real, alt, extra_allowed=True)
        if alt_rate > best[0]:
            best = (alt_rate, alt, (diag["mu_s"], diag["mu_r"]), {"ratio": diag["ratio"]})
        return best


def solve_extra_individual(real: ChannelRealization, budgets: IndividualBudgets,
                           cfg: SolverConfig | None = None, seed: int = 0,
                           warm_pairing: np.ndarray | None = None,
                           fixed_pairing: np.ndarray | None = None,
                           collect_trace: bool = False) -> SolveReport:
    return solve(ExtraIndividualProblem(real, budgets, warm_pairing, fixed_pairing),
                 cfg, seed, collect_trace)
