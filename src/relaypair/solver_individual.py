"""Joint pairing and power allocation under separate source and relay budgets.

The problem for the shared subgradient driver (``relaypair.dual``): two
power prices (mu_s, mu_r).  A pair's mode depends on the price ratio: the
relay branch applies when a_rd >= a_sd * mu_r/mu_s, and pair power is
priced at c_s mu_s + c_r mu_r.  Each repair candidate is re-solved exactly
by the zero-crossing refinement, which pins the source budget and locates
the price ratio where the relay budget binds; the assignment at the
refined prices bounds the dual and is itself a candidate.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .dual import DualProblem, solve
from .kernels import _buffers, ind_scores, ind_tables
from .pairing import amend_pairing, scp_pairing
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .types import ChannelRealization, IndividualBudgets, SolveReport, SolverConfig


class IndividualProblem(DualProblem):
    price_names = ("mu_s", "mu_r")

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets):
        super().__init__(real, (budgets.p_source, budgets.p_relay))
        self.tables = _buffers(real.m, 3)
        self.out = _buffers(real.m, 3)
        self.seen: set[bytes] = set()
        self.pending: list[np.ndarray] = []

    def scores(self, prices, alpha):
        real = self.real
        mu_s, mu_r = prices
        gains, self.c_s, self.c_r = ind_tables(real.a_sd, real.a_sr, real.a_rd,
                                               mu_s, mu_r, out=self.tables)
        scores, self.powers = ind_scores(real.w, gains, self.c_s, self.c_r,
                                         mu_s, mu_r, alpha, out=self.out)
        return scores

    def used(self, sel):
        p_sel = self.powers[self.rows, sel]
        return self.c_s[self.rows, sel] @ p_sel, self.c_r[self.rows, sel] @ p_sel

    def consider(self, perm):
        key = perm.tobytes()
        if key in self.seen:
            return
        self.seen.add(key)
        alloc, diag = zero_crossing_refine(self.real, perm, *self.budgets)
        ms, mr = diag.get("mu_s", np.inf), diag.get("mu_r", 0.0)
        if np.isfinite(ms) and np.isfinite(mr):
            self.pending.append(self.assign((ms, mr))[1])
        self.keep(weighted_sum_rate(self.real, alloc, extra_allowed=False),
                  perm, alloc, diag)

    def evaluate(self, scores, sel, alpha):
        self.consider(amend_pairing(scores, sel, alpha))

    def finish(self, prices, alpha):
        # cheap extra candidates: rank-matched pairing and the identity
        self.consider(scp_pairing(self.real))
        self.consider(self.rows.copy())
        # each refined candidate reports prices; the assignment permutation
        # that minimizes the dual at those prices is itself worth refining
        # (capped so a pathological instance cannot chain forever)
        budget_left = 3 * self.real.m
        while self.pending and budget_left > 0:
            budget_left -= 1
            self.consider(self.pending.pop())

        # the assignment dual is convex in the two power prices, so a short
        # derivative-free descent from the best candidate's prices tightens
        # the reported bound further
        rate, perm, alloc, diag = self.best
        ms0, mr0 = diag.get("mu_s", np.inf), diag.get("mu_r", 0.0)
        if np.isfinite(ms0) and np.isfinite(mr0):
            minimize(lambda x: self.assign((abs(x[0]), abs(x[1])))[0],
                     np.array([max(ms0, 1e-6), max(mr0, 1e-6)]),
                     method="Nelder-Mead",
                     options={"maxfev": 120, "xatol": 1e-6, "fatol": 1e-12})
        return rate, perm, alloc, {"refine": diag}


def solve_individual(real: ChannelRealization, budgets: IndividualBudgets,
                     cfg: SolverConfig | None = None, seed: int = 0,
                     collect_trace: bool = False) -> SolveReport:
    return solve(IndividualProblem(real, budgets), cfg, seed, collect_trace)
