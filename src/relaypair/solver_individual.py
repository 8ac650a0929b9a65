"""Joint pairing and power allocation under separate source and relay budgets.

Same dual scheme as the shared-budget solver but with two power prices
(mu_s, mu_r).  A pair's mode now depends on the price ratio: the relay
branch applies when a_rd >= a_sd * mu_r/mu_s, and pair power is priced at
c_s mu_s + c_r mu_r.  During the repair phase each candidate permutation is
re-solved exactly by the zero-crossing refinement, which pins the source
budget and locates the price ratio where the relay budget binds.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from .kernels import MU_FLOOR, ind_phase1, ind_scores, ind_tables
from .pairing import amend_pairing, greedy_assignment
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .types import ChannelRealization, IndividualBudgets, SolveReport, SolverConfig


def _dual_at(real, mu_s, mu_r, alpha, budgets) -> float:
    gains, c_s, c_r = ind_tables(real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r)
    scores, _ = ind_scores(real.w, gains, c_s, c_r, mu_s, mu_r, alpha)
    return float(scores.max(axis=1).sum()
                 + max(mu_s, MU_FLOOR) * budgets.p_source
                 + max(mu_r, MU_FLOOR) * budgets.p_relay + alpha.sum())


def _assignment_dual(real, mu_s, mu_r, budgets):
    """Dual value minimized over the pairing prices: a max-weight assignment
    on the alpha-free scores.  Returns (bound, assignment permutation)."""
    gains, c_s, c_r = ind_tables(real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r)
    scores0, _ = ind_scores(real.w, gains, c_s, c_r, mu_s, mu_r,
                            np.zeros(real.m))
    ri, ci = linear_sum_assignment(-scores0)
    bound = float(scores0[ri, ci].sum()
                  + max(mu_s, MU_FLOOR) * budgets.p_source
                  + max(mu_r, MU_FLOOR) * budgets.p_relay)
    return bound, ci.astype(np.int64)


def solve_individual(real: ChannelRealization, budgets: IndividualBudgets,
                     cfg: SolverConfig | None = None, seed: int = 0,
                     collect_trace: bool = False) -> SolveReport:
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    mu_s = float(rng.uniform(cfg.dual_init_low, cfg.dual_init_high))
    mu_r = float(rng.uniform(cfg.dual_init_low, cfg.dual_init_high))
    alpha = rng.uniform(cfg.dual_init_low, cfg.dual_init_high, real.m)

    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    trigger, mu_s, mu_r, dual_min, converged = ind_phase1(
        real.w, real.a_sd, real.a_sr, real.a_rd,
        budgets.p_source, budgets.p_relay, mu_s, mu_r, alpha,
        cfg.step_scale, cfg.eps_converge, cfg.max_iter_hard, cfg.min_iter, trace)

    rows = np.arange(real.m)
    best_rate = -np.inf
    best = None
    seen: set[bytes] = set()

    pending: list[np.ndarray] = []

    def consider(perm):
        nonlocal best_rate, best, dual_min
        key = perm.tobytes()
        if key in seen:
            return
        seen.add(key)
        alloc, diag = zero_crossing_refine(real, perm, budgets.p_source,
                                           budgets.p_relay)
        rate = weighted_sum_rate(real, alloc, extra_allowed=False)
        ms, mr = diag.get("mu_s", np.inf), diag.get("mu_r", 0.0)
        if np.isfinite(ms) and np.isfinite(mr):
            bound, assign = _assignment_dual(real, ms, mr, budgets)
            dual_min = min(dual_min, bound)
            pending.append(assign)
        if rate > best_rate:
            best_rate = rate
            best = (perm, alloc, diag)

    it = trigger
    span = cfg.amendment_span(trigger)
    while it < span and it < cfg.max_iter_hard:
        it += 1
        gains, c_s, c_r = ind_tables(real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r)
        scores, powers = ind_scores(real.w, gains, c_s, c_r, mu_s, mu_r, alpha)
        sel = greedy_assignment(scores)
        perm = amend_pairing(scores, sel, alpha)
        consider(perm)

        src_used = float((c_s[rows, sel] * powers[rows, sel]).sum())
        rly_used = float((c_r[rows, sel] * powers[rows, sel]).sum())
        dual_g = float(scores[rows, sel].sum()
                       + max(mu_s, MU_FLOOR) * budgets.p_source
                       + max(mu_r, MU_FLOOR) * budgets.p_relay + alpha.sum())
        dual_min = min(dual_min, dual_g)
        if collect_trace:
            trace[it - 1] = (mu_s, float(np.linalg.norm(alpha)),
                             src_used + rly_used, dual_g)
        step = cfg.step_scale / np.sqrt(it)
        mu_s = max(mu_s - step * (budgets.p_source - src_used), 0.0)
        mu_r = max(mu_r - step * (budgets.p_relay - rly_used), 0.0)
        counts = np.bincount(sel, minlength=real.m)
        alpha -= step * (1.0 - counts)

    # cheap extra candidates: rank-matched pairing and the identity
    scp = np.empty(real.m, dtype=np.int64)
    scp[np.argsort(-real.w * real.a_sr, kind="stable")] = \
        np.argsort(-real.a_rd, kind="stable")
    consider(scp)
    consider(rows.copy())

    # each refined candidate reports prices; the assignment permutation that
    # minimizes the dual at those prices is itself worth refining (capped so
    # a pathological instance cannot chain forever)
    budget_left = 3 * real.m
    while pending and budget_left > 0:
        budget_left -= 1
        consider(pending.pop())

    # the assignment dual is convex in the two power prices, so a short
    # derivative-free descent from the best candidate's prices tightens the
    # reported bound further
    d0 = best[2]
    ms0, mr0 = d0.get("mu_s", np.inf), d0.get("mu_r", 0.0)
    if np.isfinite(ms0) and np.isfinite(mr0):
        res = minimize(
            lambda x: _assignment_dual(real, abs(x[0]), abs(x[1]), budgets)[0],
            np.array([max(ms0, 1e-6), max(mr0, 1e-6)]),
            method="Nelder-Mead",
            options={"maxfev": 120, "xatol": 1e-6, "fatol": 1e-12})
        dual_min = min(dual_min, float(res.fun))

    perm, alloc, diag = best
    return SolveReport(
        pairing=perm, allocation=alloc, primal_rate=best_rate,
        dual_value=dual_min, iterations=it, trigger_iter=trigger,
        converged=converged,
        trace=trace[:it].copy() if collect_trace else None,
        diagnostics={"mu_s": mu_s, "mu_r": mu_r, "alpha": alpha.copy(),
                     "refine": diag},
    )
