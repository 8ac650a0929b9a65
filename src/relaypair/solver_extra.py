"""Solvers that let direct-link pairs reuse the second slot.

When a pair skips the relay, the source transmits a second, independent
message on the second-slot subcarrier, so a direct pair contributes two
single-slot channels instead of one.  Relay use on a pair is admissible as
soon as a_sr > a_sd (the second slot is no longer free, so the comparison
against staying direct moves into the scores themselves).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import pair_tables
from .kernels import (MU_FLOOR, extra_ind_phase1, extra_ind_scores,
                      extra_phase1, extra_scores, nu_solve)
from .pairing import amend_pairing, greedy_assignment
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .types import (Allocation, ChannelRealization, IndividualBudgets,
                    PairMode, SolveReport, SolverConfig)
from .waterfill import waterfill

_MAX_BISECT = 80


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

def _extra_total_candidate(real, perm, use_relay, gains_relay, c_s, c_r,
                           budget, alpha, relay_ok):
    """Water-fill the channel list, re-deciding relay use at the water price."""
    use = use_relay.copy()
    best = None
    for _ in range(5):
        g, wgt, cs, cr, tags = _assemble_channels(real, perm, use, gains_relay,
                                                  c_s, c_r)
        wf = waterfill(g, wgt, budget)
        rate = wf.rate(g, wgt)
        if best is None or rate > best[0]:
            best = (rate, use.copy(), wf.powers, cs, cr, tags, wf.water_price)
        scores, new_use, _, _ = extra_scores(real.w, real.a_sd, gains_relay,
                                             relay_ok, wf.water_price, alpha)
        rows = np.arange(real.m)
        nxt = new_use[rows, perm]
        if np.array_equal(nxt, use):
            break
        use = nxt
    rate, use, powers, cs, cr, tags, price = best
    alloc = _fill_alloc(real, perm, use, powers, cs, cr, tags)
    return alloc, rate, price


def solve_extra_total(real: ChannelRealization, budget: float,
                      cfg: SolverConfig | None = None, seed: int = 0,
                      collect_trace: bool = False) -> SolveReport:
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    mu = float(rng.uniform(cfg.dual_init_low, cfg.dual_init_high))
    alpha = rng.uniform(cfg.dual_init_low, cfg.dual_init_high, real.m)

    relay_ok = _relay_ok(real)
    gains_relay, c_s, c_r = pair_tables(real, relay_ok)
    gains_relay = np.ascontiguousarray(gains_relay)

    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    trigger, mu, dual_min, converged = extra_phase1(
        real.w, real.a_sd, gains_relay, relay_ok, float(budget), mu, alpha,
        cfg.step_scale, cfg.eps_converge, cfg.max_iter_hard, cfg.min_iter, trace)

    rows = np.arange(real.m)
    best_rate = -np.inf
    best_alloc = None
    best_perm = rows.copy()
    it = trigger
    span = cfg.amendment_span(trigger)
    while it < span and it < cfg.max_iter_hard:
        it += 1
        scores, use_relay, p1, p2 = extra_scores(real.w, real.a_sd, gains_relay,
                                                 relay_ok, mu, alpha)
        sel = greedy_assignment(scores)
        perm = amend_pairing(scores, sel, alpha)
        alloc, rate, price = _extra_total_candidate(
            real, perm, use_relay[rows, perm], gains_relay, c_s, c_r,
            budget, alpha, relay_ok)
        s2, _, _, _ = extra_scores(real.w, real.a_sd, gains_relay, relay_ok,
                                   price, alpha)
        dual_min = min(dual_min, float(s2.max(axis=1).sum()
                                       + max(price, MU_FLOOR) * budget
                                       + alpha.sum()))
        if rate > best_rate:
            best_rate = rate
            best_alloc = alloc
            best_perm = perm

        p_sel = np.where(use_relay[rows, sel], p1[rows, sel], p2 + p2[sel])
        power_sum = float(p_sel.sum())
        dual_g = float(scores[rows, sel].sum()
                       + max(mu, MU_FLOOR) * budget + alpha.sum())
        dual_min = min(dual_min, dual_g)
        if collect_trace:
            trace[it - 1] = (mu, float(np.linalg.norm(alpha)), power_sum, dual_g)
        step = cfg.step_scale / np.sqrt(it)
        mu = max(mu - step * (budget - power_sum), 0.0)
        counts = np.bincount(sel, minlength=real.m)
        alpha -= step * (1.0 - counts)

    # alpha-optimized dual at a fixed power price = max-weight assignment on
    # the alpha-free scores; also a strong pairing candidate
    zero_a = np.zeros(real.m)
    mu_c = mu
    prev = None
    for _ in range(8):
        scores0, use0, _, _ = extra_scores(real.w, real.a_sd, gains_relay,
                                           relay_ok, mu_c, zero_a)
        ri, ci = linear_sum_assignment(-scores0)
        dual_min = min(dual_min, float(scores0[ri, ci].sum()
                                       + max(mu_c, MU_FLOOR) * budget))
        perm_c = ci.astype(np.int64)
        alloc, rate, price = _extra_total_candidate(
            real, perm_c, use0[rows, perm_c], gains_relay, c_s, c_r,
            budget, zero_a, relay_ok)
        if rate > best_rate:
            best_rate = rate
            best_alloc = alloc
            best_perm = perm_c
        if prev is not None and np.array_equal(perm_c, prev):
            break
        prev = perm_c
        mu_c = price

    primal = weighted_sum_rate(real, best_alloc, extra_allowed=True)
    return SolveReport(
        pairing=best_perm, allocation=best_alloc, primal_rate=primal,
        dual_value=dual_min, iterations=it, trigger_iter=trigger,
        converged=converged,
        trace=trace[:it].copy() if collect_trace else None,
        diagnostics={"mu": mu, "alpha": alpha.copy()},
    )


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
        lo, hi = 0.0, 1.0
        bracketed = False
        for _ in range(64):
            e, _, _ = relay_use(hi)
            if e <= 0.0:
                bracketed = True
                break
            lo = hi
            hi *= 2.0
        if bracketed:
            for _ in range(_MAX_BISECT):
                mid = 0.5 * (lo + hi)
                e, _, _ = relay_use(mid)
                if e > 0.0:
                    lo = mid
                else:
                    hi = mid
            ratio = 0.5 * (lo + hi)
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


def solve_extra_individual(real: ChannelRealization, budgets: IndividualBudgets,
                           cfg: SolverConfig | None = None, seed: int = 0,
                           warm_pairing: np.ndarray | None = None,
                           fixed_pairing: np.ndarray | None = None,
                           collect_trace: bool = False) -> SolveReport:
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    mu_s = float(rng.uniform(cfg.dual_init_low, cfg.dual_init_high))
    mu_r = float(rng.uniform(cfg.dual_init_low, cfg.dual_init_high))
    alpha = rng.uniform(cfg.dual_init_low, cfg.dual_init_high, real.m)

    use_fixed = fixed_pairing is not None
    fixed = (np.asarray(fixed_pairing, dtype=np.int64) if use_fixed
             else np.zeros(real.m, dtype=np.int64))
    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    trigger, mu_s, mu_r, dual_min, converged = extra_ind_phase1(
        real.w, real.a_sd, real.a_sr, real.a_rd,
        budgets.p_source, budgets.p_relay, mu_s, mu_r, alpha,
        cfg.step_scale, cfg.eps_converge, cfg.max_iter_hard, cfg.min_iter,
        fixed, use_fixed, trace)

    rows = np.arange(real.m)
    best_rate = -np.inf
    best = None
    seen: set[bytes] = set()

    def consider(perm, use_relay):
        nonlocal best_rate, best
        key = perm.tobytes() + use_relay.tobytes()
        if key in seen:
            return
        seen.add(key)
        use = use_relay.copy()
        alloc = rate = ratio = None
        # re-decide relay use at the prices the allocation itself implies,
        # until the pattern stops changing
        for _ in range(5):
            cand, cand_rate, cand_ratio, (ms, mr) = extra_individual_allocate(
                real, perm, use, budgets)
            if rate is None or cand_rate > rate:
                alloc, rate, ratio = cand, cand_rate, cand_ratio
            if not (np.isfinite(ms) and np.isfinite(mr)):
                break
            s2, use2, _, _, _, _ = extra_ind_scores(
                real.w, real.a_sd, real.a_sr, real.a_rd,
                max(ms, MU_FLOOR), max(mr, MU_FLOOR), np.zeros(real.m))
            nxt = use2[rows, perm]
            if np.array_equal(nxt, use):
                break
            use = nxt
        # an allocation with empty second slots is always admissible here,
        # so a plain no-extra refinement can only help as a fallback
        alt, _ = zero_crossing_refine(real, perm, budgets.p_source,
                                      budgets.p_relay)
        alt_rate = weighted_sum_rate(real, alt, extra_allowed=True)
        if alt_rate > rate:
            alloc, rate = alt, alt_rate
        if rate > best_rate:
            best_rate = rate
            best = (perm, alloc, ratio)

    it = trigger
    span = cfg.amendment_span(trigger)
    while it < span and it < cfg.max_iter_hard:
        it += 1
        scores, use_relay, p1, c_s, c_r, p2 = extra_ind_scores(
            real.w, real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r, alpha)
        if use_fixed:
            sel = fixed
            perm = fixed
        else:
            sel = greedy_assignment(scores)
            perm = amend_pairing(scores, sel, alpha)
        consider(perm, use_relay[rows, perm])

        src_used = float(np.where(use_relay[rows, sel],
                                  c_s[rows, sel] * p1[rows, sel],
                                  p2 + p2[sel]).sum())
        rly_used = float(np.where(use_relay[rows, sel],
                                  c_r[rows, sel] * p1[rows, sel], 0.0).sum())
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
        if not use_fixed:
            counts = np.bincount(sel, minlength=real.m)
            alpha -= step * (1.0 - counts)

    if not use_fixed:
        # cheap extra candidates: rank-matched pairing and the identity
        scores, use_relay, _, _, _, _ = extra_ind_scores(
            real.w, real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r, alpha)
        scp = np.empty(real.m, dtype=np.int64)
        scp[np.argsort(-real.w * real.a_sr, kind="stable")] = \
            np.argsort(-real.a_rd, kind="stable")
        consider(scp, use_relay[rows, scp])
        consider(rows.copy(), use_relay[rows, rows])
    if warm_pairing is not None:
        perm = np.asarray(warm_pairing, dtype=np.int64)
        scores, use_relay, _, _, _, _ = extra_ind_scores(
            real.w, real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r, alpha)
        consider(perm, use_relay[rows, perm])
    if best is None:
        perm0 = fixed if use_fixed else rows.copy()
        scores, use_relay, _, _, _, _ = extra_ind_scores(
            real.w, real.a_sd, real.a_sr, real.a_rd, mu_s, mu_r, alpha)
        consider(perm0, use_relay[rows, perm0])
    perm, alloc, ratio = best
    return SolveReport(
        pairing=perm, allocation=alloc, primal_rate=best_rate,
        dual_value=dual_min, iterations=it, trigger_iter=trigger,
        converged=converged,
        trace=trace[:it].copy() if collect_trace else None,
        diagnostics={"mu_s": mu_s, "mu_r": mu_r, "ratio": ratio,
                     "alpha": alpha.copy()},
    )
