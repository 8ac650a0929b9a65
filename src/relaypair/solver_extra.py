"""Solvers that let direct-link pairs reuse the second slot.

When a pair skips the relay, the source transmits a second, independent
message on the second-slot subcarrier, so a direct pair contributes two
single-slot channels instead of one.  Relay use on a pair is admissible as
soon as a_sr > a_sd (the second slot is no longer free, so the comparison
against staying direct moves into the scores themselves).

Both are problems for the shared subgradient driver (``relaypair.dual``).
A candidate fixes its pairing and relay-use pattern, allocates power
(water-filling under the shared budget, ``extra_individual_allocate``
under split budgets), and re-decides relay use at the prices that
allocation implies until the pattern settles.
"""

from __future__ import annotations

import numpy as np

from .channel import pair_tables
from .dual import DualProblem, solve
from .kernels import (MU_FLOOR, _inv_gain, _mode_buffers, extra_ind_scores,
                      extra_scores, nu_solve)
from .pairing import amend_pairing, scp_pairing
from .rates import weighted_sum_rate
from .refine import crossing, zero_crossing_refine
from .types import (Allocation, ChannelRealization, IndividualBudgets,
                    PairMode, SolveReport, SolverConfig)
from .waterfill import waterfill


def _relay_ok(real: ChannelRealization) -> np.ndarray:
    return np.broadcast_to((real.a_sr > real.a_sd)[:, None],
                           (real.m, real.m)).copy()


def _assemble_channels(real, perm, use_relay, gains_relay, c_s, c_r):
    """Flat channel list for a permutation and per-pair relay decision.

    Returns (gains, weights, cs, cr, tags) where tags[i] = (pair k, role)
    with role 0 = relay, 1 = first-slot direct, 2 = second-slot direct.
    """
    g, wgt, cs, cr, tags = [], [], [], [], []
    for k in range(real.m):
        m2 = perm[k]
        if use_relay[k]:
            g.append(gains_relay[k, m2])
            wgt.append(real.w[k])
            cs.append(c_s[k, m2])
            cr.append(c_r[k, m2])
            tags.append((k, 0))
        else:
            g.append(real.a_sd[k])
            wgt.append(real.w[k])
            cs.append(1.0)
            cr.append(0.0)
            tags.append((k, 1))
            g.append(real.a_sd[m2])
            wgt.append(real.w[m2])
            cs.append(1.0)
            cr.append(0.0)
            tags.append((k, 2))
    return (np.array(g), np.array(wgt), np.array(cs), np.array(cr), tags)


def _fill_alloc(real, perm, use_relay, powers, cs, cr, tags) -> Allocation:
    alloc = Allocation.zeros(real.m)
    alloc.pairing = np.asarray(perm, dtype=np.int64).copy()
    alloc.modes = np.where(use_relay, int(PairMode.RELAY),
                           int(PairMode.DIRECT)).astype(np.int8)
    for i, (k, role) in enumerate(tags):
        if role == 0:
            alloc.p_s[k] = cs[i] * powers[i]
            alloc.p_r[k] = cr[i] * powers[i]
        elif role == 1:
            alloc.p_s[k] = powers[i]
        else:
            alloc.q_s[k] = powers[i]
    return alloc


# -- shared budget -----------------------------------------------------------

class ExtraTotalProblem(DualProblem):
    price_names = ("mu",)

    def __init__(self, real: ChannelRealization, budget: float):
        super().__init__(real, (float(budget),))
        self.relay_ok = _relay_ok(real)
        gains_relay, self.c_s, self.c_r = pair_tables(real, self.relay_ok)
        self.gains_relay = np.ascontiguousarray(gains_relay)
        self.inv = _inv_gain(self.gains_relay)
        self.out = _mode_buffers(real.m, 3)

    def scores(self, prices, alpha):
        scores, self.use_relay, self.p1, self.p2 = extra_scores(
            self.real.w, self.real.a_sd, self.gains_relay, self.relay_ok,
            prices[0], alpha, inv=self.inv, out=self.out)
        return scores

    def used(self, sel):
        relay = self.use_relay[self.rows, sel]
        return (self.p1[self.rows, sel][relay].sum()
                + (self.p2 + self.p2[sel])[~relay].sum(),)

    def candidate(self, perm, alpha):
        """Water-fill the permutation's channel list, starting from the relay
        use of the last scores and re-deciding it at the water price until it
        settles; keeps the best and returns its water price."""
        use = self.use_relay[self.rows, perm]
        best = None
        for _ in range(5):
            g, wgt, cs, cr, tags = _assemble_channels(self.real, perm, use,
                                                      self.gains_relay, self.c_s, self.c_r)
            wf = waterfill(g, wgt, self.budgets[0])
            rate = wf.rate(g, wgt)
            if best is None or rate > best[0]:
                best = (rate, use, wf.powers, cs, cr, tags, wf.water_price)
            self.scores((wf.water_price,), alpha)
            nxt = self.use_relay[self.rows, perm]
            if np.array_equal(nxt, use):
                break
            use = nxt
        rate, use, powers, cs, cr, tags, price = best
        self.keep(rate, perm, _fill_alloc(self.real, perm, use, powers, cs, cr, tags))
        return price

    def evaluate(self, scores, sel, alpha):
        price = self.candidate(amend_pairing(scores, sel, alpha), alpha)
        self.bound = min(self.bound, self.dual_at((price,), alpha))

    def finish(self, prices, alpha):
        zero = np.zeros(self.real.m)
        self.reprice(prices[0], lambda perm: self.candidate(perm, zero))
        _, perm, alloc = self.best
        return weighted_sum_rate(self.real, alloc, extra_allowed=True), perm, alloc, {}


def solve_extra_total(real: ChannelRealization, budget: float,
                      cfg: SolverConfig | None = None, seed: int = 0,
                      collect_trace: bool = False) -> SolveReport:
    return solve(ExtraTotalProblem(real, budget), cfg, seed, collect_trace)


# -- individual budgets ------------------------------------------------------

def extra_individual_allocate(real: ChannelRealization, perm: np.ndarray,
                              use_relay: np.ndarray,
                              budgets: IndividualBudgets):
    """Two-budget allocation for a fixed pairing and relay-use pattern.

    With the pattern frozen the relay consumption is continuous and
    decreasing in the price ratio, so the binding ratio is a plain
    bisection (ratio 0 if the relay budget never binds).  Also returns the
    implied power prices (mu_s, mu_r) for the re-decision loop.
    """
    gains_relay, c_s, c_r = pair_tables(
        real, np.broadcast_to((real.a_sr > real.a_sd)[:, None],
                              (real.m, real.m)))
    g, wgt, cs, cr, tags = _assemble_channels(real, perm, use_relay,
                                              gains_relay, c_s, c_r)

    def relay_use(ratio):
        nu, powers, used = nu_solve(g, wgt, cs, cr, ratio, budgets.p_source)
        return used - budgets.p_relay, powers, nu

    excess, powers, nu = relay_use(0.0)
    ratio = 0.0
    if excess > 0.0:
        ratio = crossing(lambda r: relay_use(r)[0], 0.0, 1.0, grow=64)
        if ratio is not None:
            _, powers, nu = relay_use(ratio)
        else:
            # every channel carries a relay share, so pinning the source keeps
            # the relay over budget at any ratio: the source constraint is
            # slack and the relay budget is pinned instead (source price 0)
            g_r = np.where(cr > 0, g, 0.0)
            nu, powers, _ = nu_solve(g_r, wgt, cr, np.zeros_like(cr), 0.0,
                                     budgets.p_relay)
            ratio = np.inf
    alloc = _fill_alloc(real, perm, use_relay, powers, cs, cr, tags)
    rate = weighted_sum_rate(real, alloc, extra_allowed=True)
    price = 1.0 / (2.0 * nu) if nu > 0 else np.inf
    if np.isinf(ratio):
        mu_sr = (0.0, price)
    else:
        mu_sr = (price, ratio * price)
    return alloc, rate, ratio, mu_sr


class ExtraIndividualProblem(DualProblem):
    price_names = ("mu_s", "mu_r")

    def __init__(self, real: ChannelRealization, budgets: IndividualBudgets,
                 warm_pairing=None, fixed_pairing=None):
        super().__init__(real, (budgets.p_source, budgets.p_relay))
        self.split = budgets
        self.warm = None if warm_pairing is None else np.asarray(warm_pairing, dtype=np.int64)
        if fixed_pairing is not None:
            self.fixed = np.asarray(fixed_pairing, dtype=np.int64)
        self.out = _mode_buffers(real.m, 6)
        self.seen: set[bytes] = set()

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

    def consider(self, perm, use_relay):
        key = perm.tobytes() + use_relay.tobytes()
        if key in self.seen:
            return
        self.seen.add(key)
        real = self.real
        use = use_relay.copy()
        alloc = rate = ratio = None
        # re-decide relay use at the prices the allocation itself implies,
        # until the pattern stops changing
        for _ in range(5):
            cand, cand_rate, cand_ratio, (ms, mr) = extra_individual_allocate(
                real, perm, use, self.split)
            if rate is None or cand_rate > rate:
                alloc, rate, ratio = cand, cand_rate, cand_ratio
            if not (np.isfinite(ms) and np.isfinite(mr)):
                break
            self.scores((max(ms, MU_FLOOR), max(mr, MU_FLOOR)), np.zeros(real.m))
            nxt = self.use_relay[self.rows, perm]
            if np.array_equal(nxt, use):
                break
            use = nxt
        # an allocation with empty second slots is always admissible here,
        # so a plain no-extra refinement can only help as a fallback
        alt, _ = zero_crossing_refine(real, perm, *self.budgets)
        alt_rate = weighted_sum_rate(real, alt, extra_allowed=True)
        if alt_rate > rate:
            alloc, rate = alt, alt_rate
        self.keep(rate, perm, alloc, ratio)

    def evaluate(self, scores, sel, alpha):
        perm = amend_pairing(scores, sel, alpha)
        self.consider(perm, self.use_relay[self.rows, perm])

    def finish(self, prices, alpha):
        rows = self.rows
        self.scores(prices, alpha)
        use = self.use_relay.copy()
        perms = [] if self.fixed is not None else [scp_pairing(self.real), rows.copy()]
        if self.warm is not None:
            perms.append(self.warm)
        for perm in perms:
            self.consider(perm, use[rows, perm])
        if self.best is None:
            perm = rows.copy() if self.fixed is None else self.fixed
            self.consider(perm, use[rows, perm])
        rate, perm, alloc, ratio = self.best
        return rate, perm, alloc, {"ratio": ratio}


def solve_extra_individual(real: ChannelRealization, budgets: IndividualBudgets,
                           cfg: SolverConfig | None = None, seed: int = 0,
                           warm_pairing: np.ndarray | None = None,
                           fixed_pairing: np.ndarray | None = None,
                           collect_trace: bool = False) -> SolveReport:
    return solve(ExtraIndividualProblem(real, budgets, warm_pairing, fixed_pairing),
                 cfg, seed, collect_trace)
