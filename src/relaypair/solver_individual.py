"""Joint pairing and power allocation under separate source and relay budgets.

The problems for the cutting-plane driver ``dual.cuts``: two power prices
(mu_s, mu_r).  ``SplitProblem`` is the candidate pipeline of both
split-budget problems; ``IndividualProblem`` allocates a candidate by the
zero-crossing refinement, which pins the source budget and locates the
price ratio where the relay budget binds.  A pair relays when a_rd >= a_sd
* mu_r/mu_s, and its power is priced at c_s mu_s + c_r mu_r.
"""

from __future__ import annotations

import numpy as np

from .dual import DualProblem, _dual, cuts
from .kernels import _buffers, ind_scores, ind_tables
from .pairing import scp_pairing
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .types import ChannelRealization, IndividualBudgets, SolveReport, SolverConfig


class SplitProblem(DualProblem):
    """The candidate pipeline of a split-budget problem.

    A candidate (a pairing, plus ``start(perm)``: what its allocation starts
    from, read at the prices of the last ``scores`` call) is allocated by
    ``allocate(perm, start)``, which returns (rate, allocation, (mu_s, mu_r),
    diagnostics).  The assignment at those prices bounds the dual, and its
    permutation is queued.  Every assignment is kept as a cut for
    ``dual.cuts``: its prices, dual value and consumption.  ``begin`` adds
    the rank-matched, identity and warm pairings (each starting from
    ``first(perm)``) and returns the best candidate's prices; ``finish``
    drains the queue (at most 3M candidates), tries swaps in the best
    pairing (``polish``) and returns (rate, pairing, allocation,
    diagnostics) of the best candidate.
    """

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets,
                 warm_pairing=None):
        super().__init__(real, (budgets.p_source, budgets.p_relay))
        self.split = budgets
        warm = [] if warm_pairing is None else [np.asarray(warm_pairing, dtype=np.int64)]
        self.finals = [scp_pairing(real), self.rows.copy(), *warm]
        self.seen: set[bytes] = set()
        self.pending: list[tuple] = []
        self.planes: list[tuple] = []

    def start(self, perm):
        return perm[:0]

    def first(self, perm):
        return perm[:0]

    def assign(self, prices):
        bound, perm = super().assign(prices)
        self.planes.append((*prices, bound, *self.used(perm)))
        return bound, perm

    def cut_rows(self):
        """(prices, dual values, subgradients) of the cuts so far."""
        rows = np.array(self.planes)
        return rows[:, :2], rows[:, 2], np.array(self.budgets) - rows[:, 3:]

    def consider(self, perm, start):
        key = perm.tobytes() + start.tobytes()
        if key in self.seen:
            return
        self.seen.add(key)
        rate, alloc, prices, diag = self.allocate(perm, start)
        if np.isfinite(prices).all():
            nxt = self.assign(prices)[1]
            self.pending.append((nxt, self.start(nxt)))
        self.keep(rate, perm, alloc, prices, diag)

    def begin(self):
        for perm in self.finals:
            self.consider(perm, self.first(perm))
        return self.best[3]

    def finish(self):
        # each refined candidate's prices give an assignment permutation,
        # itself worth allocating (capped so that it cannot chain forever)
        for _ in range(3 * self.real.m):
            if not self.pending:
                break
            self.consider(*self.pending.pop())
        self.polish()
        rate, perm, alloc, _, diag = self.best
        return rate, perm, alloc, diag

    def polish(self):
        """Swap the partners of two rows of the best pairing while that can
        help.  At the best candidate's prices the Lagrangian of a pairing
        bounds its rate, so only the swaps whose Lagrangian exceeds the best
        rate are allocated: at most M, largest first, in each round."""
        while True:
            rate, perm, _, prices, _ = self.best
            if not np.isfinite(prices).all():
                return
            scores = self.scores(prices)
            own = scores[self.rows, perm]
            cross = scores[:, perm]
            gain = cross + cross.T - own[:, None] - own[None, :]
            base = _dual(own.sum(), prices, self.budgets)
            k, l = np.nonzero(np.triu(base + gain > rate + 1e-9 * abs(rate), 1))
            order = np.argsort(-gain[k, l], kind="stable")[:self.real.m]
            tried = []
            for i in order:
                swap = perm.copy()
                swap[[k[i], l[i]]] = swap[[l[i], k[i]]]
                tried.append((swap, self.start(swap)))
            for swap, start in tried:
                self.consider(swap, start)
            if self.best[0] <= rate:
                return


class IndividualProblem(SplitProblem):

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets):
        super().__init__(real, budgets)
        self.tables = _buffers(real.m, 3)
        self.out = _buffers(real.m, 3)

    def scores(self, prices):
        real = self.real
        mu_s, mu_r = prices
        gains, self.c_s, self.c_r = ind_tables(real.a_sd, real.a_sr, real.a_rd,
                                               mu_s, mu_r, out=self.tables)
        scores, self.powers = ind_scores(real.w, gains, self.c_s, self.c_r,
                                         mu_s, mu_r, out=self.out)
        return scores

    def used(self, sel):
        p_sel = self.powers[self.rows, sel]
        return self.c_s[self.rows, sel] @ p_sel, self.c_r[self.rows, sel] @ p_sel

    def allocate(self, perm, start):
        alloc, diag = zero_crossing_refine(self.real, perm, *self.budgets)
        return (weighted_sum_rate(self.real, alloc, extra_allowed=False), alloc,
                (diag["mu_s"], diag["mu_r"]), {"refine": diag})


def solve_individual(real: ChannelRealization, budgets: IndividualBudgets,
                     cfg: SolverConfig | None = None,
                     collect_trace: bool = False) -> SolveReport:
    """Kelley's cutting planes on the split budgets."""
    return cuts(IndividualProblem(real, budgets), cfg, collect_trace)
