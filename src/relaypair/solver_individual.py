"""Joint pairing and power allocation under separate source and relay budgets.

The problems for the shared subgradient driver (``relaypair.dual``): two
power prices (mu_s, mu_r).  ``SplitProblem`` is the candidate pipeline of
both split-budget problems; ``IndividualProblem`` allocates a candidate by
the zero-crossing refinement, which pins the source budget and locates the
price ratio where the relay budget binds.  A pair relays when a_rd >= a_sd
* mu_r/mu_s, and its power is priced at c_s mu_s + c_r mu_r.
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


class SplitProblem(DualProblem):
    """The candidate pipeline of a split-budget problem.

    A candidate (a pairing, plus ``start(perm)``: what its allocation starts
    from, read at the prices of the last ``scores`` call) is allocated by
    ``allocate(perm, start)``, which returns (rate, allocation, (mu_s, mu_r),
    diagnostics).  The assignment at those prices bounds the dual, and its
    permutation is queued.  ``finish`` adds the rank-matched, identity and
    warm pairings, drains the queue (at most 3M candidates), and ends with a
    Nelder-Mead descent on the assignment dual, convex in the two prices.
    With a pairing held fixed, only that pairing is allocated.
    """

    price_names = ("mu_s", "mu_r")

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets,
                 warm_pairing=None, fixed_pairing=None):
        super().__init__(real, (budgets.p_source, budgets.p_relay))
        self.split = budgets
        if fixed_pairing is None:
            warm = [] if warm_pairing is None else [np.asarray(warm_pairing, dtype=np.int64)]
            self.finals = [scp_pairing(real), self.rows.copy(), *warm]
        else:
            self.fixed = np.asarray(fixed_pairing, dtype=np.int64)
            self.finals = [self.fixed]
        self.seen: set[bytes] = set()
        self.pending: list[tuple] = []

    def start(self, perm):
        return perm[:0]

    def consider(self, perm, start):
        key = perm.tobytes() + start.tobytes()
        if key in self.seen:
            return
        self.seen.add(key)
        rate, alloc, prices, diag = self.allocate(perm, start)
        if self.fixed is None and np.isfinite(prices).all():
            nxt = self.assign(prices)[1]
            self.pending.append((nxt, self.start(nxt)))
        self.keep(rate, perm, alloc, prices, diag)

    def evaluate(self, scores, sel, alpha):
        perm = amend_pairing(scores, sel, alpha)
        self.consider(perm, self.start(perm))

    def finish(self, prices, alpha):
        finals = self.finals if self.fixed is None or self.best is None else []
        self.scores(prices, alpha)   # every start is read here, before any re-scoring
        for perm, start in [(perm, self.start(perm)) for perm in finals]:
            self.consider(perm, start)
        # each refined candidate's prices give an assignment permutation,
        # itself worth allocating (capped so that it cannot chain forever)
        for _ in range(3 * self.real.m):
            if not self.pending:
                break
            self.consider(*self.pending.pop())

        rate, perm, alloc, best_prices, diag = self.best
        if self.fixed is None and np.isfinite(best_prices).all():
            minimize(lambda x: self.assign((abs(x[0]), abs(x[1])))[0],
                     np.maximum(best_prices, 1e-6), method="Nelder-Mead",
                     options={"maxfev": 120, "xatol": 1e-6, "fatol": 1e-12})
        return rate, perm, alloc, diag


class IndividualProblem(SplitProblem):

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets):
        super().__init__(real, budgets)
        self.tables = _buffers(real.m, 3)
        self.out = _buffers(real.m, 3)

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

    def allocate(self, perm, start):
        alloc, diag = zero_crossing_refine(self.real, perm, *self.budgets)
        return (weighted_sum_rate(self.real, alloc, extra_allowed=False), alloc,
                (diag["mu_s"], diag["mu_r"]), {"refine": diag})


def solve_individual(real: ChannelRealization, budgets: IndividualBudgets,
                     cfg: SolverConfig | None = None, seed: int = 0,
                     collect_trace: bool = False) -> SolveReport:
    return solve(IndividualProblem(real, budgets), cfg, seed, collect_trace)
