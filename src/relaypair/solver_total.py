"""Joint pairing and power allocation under one shared power budget.

Dual decomposition: price total power with mu and the one-partner-per-
subcarrier constraint with alpha.  Per iteration every first-slot subcarrier
picks its best-scoring partner, then the duals take a subgradient step with
diminishing step size.  Once the duals settle, a short repair phase turns
the (possibly conflicting) greedy assignments into permutations, water-fills
the selected equivalent channels, and keeps the best primal seen.  The
reported dual value is the lowest upper bound encountered, including the
bound re-evaluated at the exact water-filling price.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import pair_tables, relay_mask_total
from .kernels import MU_FLOOR, total_phase1, total_scores
from .pairing import amend_pairing, greedy_assignment
from .rates import weighted_sum_rate
from .types import Allocation, ChannelRealization, PairMode, SolveReport, SolverConfig
from .waterfill import waterfill


def _dual_at(w, gains, mu, alpha, budget) -> float:
    scores, _ = total_scores(w, gains, mu, alpha)
    return float(scores.max(axis=1).sum() + max(mu, MU_FLOOR) * budget + alpha.sum())


def build_allocation(real: ChannelRealization, perm: np.ndarray,
                     powers: np.ndarray, relay_mask: np.ndarray,
                     c_s: np.ndarray, c_r: np.ndarray) -> Allocation:
    rows = np.arange(real.m)
    relay = relay_mask[rows, perm]
    modes = np.where(relay, int(PairMode.RELAY), int(PairMode.DIRECT)).astype(np.int8)
    return Allocation(pairing=perm.copy(), modes=modes,
                      p_s=c_s[rows, perm] * powers, p_r=c_r[rows, perm] * powers,
                      q_s=np.zeros(real.m))


def solve_total(real: ChannelRealization, budget: float,
                cfg: SolverConfig | None = None, seed: int = 0,
                collect_trace: bool = False) -> SolveReport:
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(cfg.dual_init_low, cfg.dual_init_high))
    alpha = rng.uniform(cfg.dual_init_low, cfg.dual_init_high, real.m)

    relay = relay_mask_total(real)
    gains, c_s, c_r = pair_tables(real, relay)
    gains = np.ascontiguousarray(gains)
    w = real.w

    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    trigger, mu, dual_min, converged = total_phase1(
        w, gains, float(budget), mu, alpha, cfg.step_scale,
        cfg.eps_converge, cfg.max_iter_hard, cfg.min_iter, trace)

    rows = np.arange(real.m)
    best_rate = -np.inf
    best_perm = rows.copy()
    best_powers = np.zeros(real.m)
    best_price = mu
    it = trigger
    span = cfg.amendment_span(trigger)
    while it < span and it < cfg.max_iter_hard:
        it += 1
        scores, powers = total_scores(w, gains, mu, alpha)
        sel = greedy_assignment(scores)
        perm = amend_pairing(scores, sel, alpha)
        wf = waterfill(gains[rows, perm], w, budget)
        rate = wf.rate(gains[rows, perm], w)
        dual_min = min(dual_min, _dual_at(w, gains, wf.water_price, alpha, budget))
        if rate > best_rate:
            best_rate = rate
            best_perm = perm
            best_powers = wf.powers
            best_price = wf.water_price

        power_sum = float(powers[rows, sel].sum())
        dual_g = float(scores[rows, sel].sum() + max(mu, MU_FLOOR) * budget + alpha.sum())
        dual_min = min(dual_min, dual_g)
        if collect_trace:
            trace[it - 1] = (mu, float(np.linalg.norm(alpha)), power_sum, dual_g)
        step = cfg.step_scale / np.sqrt(it)
        mu = max(mu - step * (budget - power_sum), 0.0)
        counts = np.bincount(sel, minlength=real.m)
        alpha -= step * (1.0 - counts)

    # minimizing the dual over the pairing prices alpha at a fixed power price
    # is a max-weight assignment on the alpha-free scores; this both tightens
    # the reported bound and supplies a strong pairing candidate
    mu_c = best_price
    prev = None
    for _ in range(8):
        scores0, _ = total_scores(w, gains, mu_c, np.zeros(real.m))
        ri, ci = linear_sum_assignment(-scores0)
        dual_min = min(dual_min, float(scores0[ri, ci].sum()
                                       + max(mu_c, MU_FLOOR) * budget))
        perm_c = ci.astype(np.int64)
        wf = waterfill(gains[rows, perm_c], w, budget)
        rate = wf.rate(gains[rows, perm_c], w)
        if rate > best_rate:
            best_rate = rate
            best_perm = perm_c
            best_powers = wf.powers
            best_price = wf.water_price
        if prev is not None and np.array_equal(perm_c, prev):
            break
        prev = perm_c
        mu_c = wf.water_price

    alloc = build_allocation(real, best_perm, best_powers, relay, c_s, c_r)
    primal = weighted_sum_rate(real, alloc, extra_allowed=False)
    return SolveReport(
        pairing=best_perm, allocation=alloc, primal_rate=primal,
        dual_value=dual_min, iterations=it, trigger_iter=trigger,
        converged=converged,
        trace=trace[:it].copy() if collect_trace else None,
        diagnostics={"mu": mu, "water_price": best_price,
                     "alpha": alpha.copy()},
    )
