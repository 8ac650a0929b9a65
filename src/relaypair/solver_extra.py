"""Solvers that let direct-link pairs reuse the second slot.

When a pair skips the relay, the source transmits a second, independent
message on the second-slot subcarrier, so a direct pair contributes two
single-slot channels instead of one.  Relay use on a pair is admissible as
soon as a_sr > a_sd (the second slot is no longer free, so the comparison
against staying direct moves into the scores themselves).

Both are problems for the cutting planes of ``dual.cuts``.
``solve_extra_total`` runs them on its one shared budget, through the
candidate pipeline of ``solver_total.SharedProblem``, and
``solve_extra_individual`` on the split budgets, through that of
``solver_individual.SplitProblem``.  A candidate fixes its pairing and
relay-use pattern, which fixes its channel list (``channel.pair_channels``:
entry k is pair k's relay or first-slot channel, entry M + k its second
slot, dead where pair k relays), allocates power on it (water-filling under
the shared budget, ``extra_individual_allocate`` under split budgets), and
re-decides relay use at the prices that allocation implies until the
pattern settles (``DualProblem.settle``; the ``use_at`` hooks re-score).
Under split budgets the re-score reads only the pairing's M entries of the
scores (``kernels.extra_ind_scores`` with ``cols``), and each pairing and
relay-use pattern is allocated once per problem
(``ExtraIndividualProblem.allocate_pattern``): the re-decision loops of
different candidates, and the price scan, meet the same patterns again.  A
candidate also falls back to its pairing's no-reuse refinement, computed
once per pairing (``ExtraIndividualProblem.fallback``), whose prices also
give the relay use that a final candidate starts from.
"""

from __future__ import annotations

import numpy as np

from .channel import channel_allocation, pair_channels, pair_tables, relay_mask_extra
from .dual import cuts
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

    def scores(self, prices):
        scores, self.use_relay, self.p1, self.p2 = extra_scores(
            self.real.w, self.real.a_sd, self.gains_relay, self.relay_ok,
            prices[0], inv=self.inv, out=self.out)
        return scores

    def used(self, sel):
        relay = self.use_relay[self.rows, sel]
        return (self.p1[self.rows, sel][relay].sum()
                + (self.p2 + self.p2[sel])[~relay].sum(),)

    def use_at(self, perm, prices):
        self.scores(prices)
        return self.use_relay[self.rows, perm]


def solve_extra_total(real: ChannelRealization, budget: float,
                      cfg: SolverConfig | None = None,
                      collect_trace: bool = False) -> SolveReport:
    """Kelley's cutting planes on one shared budget."""
    return cuts(ExtraTotalProblem(real, budget), cfg, collect_trace)


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
    came from; a final candidate from that at its fallback's prices."""

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets,
                 warm_pairing=None):
        super().__init__(real, budgets, warm_pairing)
        self.out = _mode_buffers(real.m, 6)
        self.fallbacks = {}
        self.patterns = {}

    def scores(self, prices):
        real = self.real
        scores, self.use_relay, self.p1, self.c_s, self.c_r, self.p2 = extra_ind_scores(
            real.w, real.a_sd, real.a_sr, real.a_rd, *prices, out=self.out)
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
        """The pairing's relay use at ``prices``, read from its M entries of
        the scores alone; the score buffers are left as they are."""
        real = self.real
        return extra_ind_scores(real.w, real.a_sd, real.a_sr, real.a_rd, *prices,
                                cols=perm.reshape(-1, 1))[1][:, 0]

    def allocate_pattern(self, perm, use):
        """``extra_individual_allocate`` as a candidate, computed once per
        pairing and relay-use pattern."""
        key = perm.tobytes() + use.tobytes()
        if key not in self.patterns:
            alloc, rate, ratio, prices = extra_individual_allocate(self.real, perm, use,
                                                                   self.split)
            self.patterns[key] = (rate, alloc, prices, {"ratio": ratio})
        return self.patterns[key]

    def fallback(self, perm):
        """The pairing's no-reuse refinement as a candidate, computed once per
        pairing: (rate, allocation, (mu_s, mu_r), {"ratio": ...})."""
        key = perm.tobytes()
        if key not in self.fallbacks:
            alloc, diag = zero_crossing_refine(self.real, perm, *self.budgets)
            self.fallbacks[key] = (weighted_sum_rate(self.real, alloc, extra_allowed=True),
                                   alloc, (diag["mu_s"], diag["mu_r"]),
                                   {"ratio": diag["ratio"]})
        return self.fallbacks[key]

    def first(self, perm):
        prices = self.fallback(perm)[2]
        if not np.isfinite(prices).all():
            return np.zeros(self.real.m, dtype=bool)
        return self.use_at(perm, prices)

    def allocate(self, perm, use):
        best = self.settle(perm, use, self.allocate_pattern)
        # an allocation with empty second slots is always admissible here,
        # so a plain no-extra refinement can only help as a fallback
        alt = self.fallback(perm)
        return alt if alt[0] > best[0] else best

    def scan(self, perm):
        """The best ``allocate`` of a fixed pairing over the relay-use patterns
        met on a fixed price grid around its no-reuse refinement's prices."""
        mu_s, mu_r = self.fallback(perm)[2]
        mu_s = mu_s if 0.0 < mu_s < np.inf else 1.0
        ratio = mu_r / mu_s if mu_r < np.inf else 1.0
        seen = set()
        for scale in _SCAN_SCALES * mu_s:
            for step in _SCAN_STEPS:
                use = self.use_at(perm, (scale, scale * max(ratio * step, _SCAN_RATIO_FLOOR)))
                if use.tobytes() not in seen:
                    seen.add(use.tobytes())
                    self.keep(*self.allocate(perm, use))
        return self.best


def solve_extra_individual(real: ChannelRealization, budgets: IndividualBudgets,
                           cfg: SolverConfig | None = None,
                           warm_pairing: np.ndarray | None = None,
                           collect_trace: bool = False) -> SolveReport:
    """Kelley's cutting planes on the split budgets, with ``warm_pairing``
    as one more final candidate."""
    return cuts(ExtraIndividualProblem(real, budgets, warm_pairing), cfg, collect_trace)
