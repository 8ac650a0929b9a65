"""Exact two-budget power allocation for a fixed pairing.

For a fixed permutation, maximize the weighted sum rate subject to separate
source and relay budgets.  Each pair's operating mode depends only on the
price ratio r = mu_r / mu_s: with the relay branch active when
a_rd > a_sd * r (and a_sr > a_sd), the pair behaves as one channel with an
equivalent gain whose power costs c_s + c_r * r source-price units.

The solve walks the mode-boundary ratios a_rd/a_sd in ascending order.  On
each segment the mode pattern is frozen, the source budget is pinned
exactly (see ``kernels.nu_solve``), and the relay consumption R(r) is
decreasing, so the ratio where R crosses the relay budget is found by
Brent's bracketed root finder.  If the crossing happens across a boundary,
the boundary pair operates between modes with a free power split, fixed by
a scalar water-level equation.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .kernels import nu_solve
from .types import Allocation, ChannelRealization, PairMode

_RTOL = 4.0 * np.finfo(float).eps   # the tightest relative tolerance brentq accepts


def crossing(f, lo, hi, grow=0):
    """Zero crossing of a decreasing function f with f(lo) > 0 >= f(hi), by
    Brent's method to full float64 precision.

    f is continuous but may have kinks (where an active set changes); Brent
    falls back to bisection steps there, and converges superlinearly on the
    smooth pieces in between.  With ``grow`` > 0 the bracket is found first:
    while f(hi) > 0, lo moves up to hi and hi doubles, at most ``grow`` times;
    None if f is still positive at the last doubled hi.
    """
    for _ in range(grow):
        if f(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        if grow and f(hi) > 0.0:
            return None
    # brentq's default of 100 iterations is too few where f falls almost like
    # a step (gains spread over many decades): Brent then mostly bisects, and
    # took up to 166 iterations over 2000 random refines with gains 1e±12
    return brentq(f, lo, hi, xtol=1e-300, rtol=_RTOL, maxiter=1000)


def _pair_arrays(real: ChannelRealization, perm: np.ndarray, relay_rows: np.ndarray):
    """Per-pair (gain, c_s, c_r) for a given boolean relay-mode row mask."""
    a_sd = real.a_sd
    a_sr = real.a_sr
    a_rd = real.a_rd[perm]
    denom = np.where(relay_rows, a_sr + a_rd - a_sd, 1.0)
    gains = np.where(relay_rows, a_sr * a_rd / denom, a_sd)
    c_s = np.where(relay_rows, a_rd / denom, 1.0)
    c_r = np.where(relay_rows, (a_sr - a_sd) / denom, 0.0)
    return gains, c_s, c_r


def _pattern(real, perm, relay_rows):
    """Bind the per-pair channel arrays once per mode pattern; the returned
    closure evaluates the source-pinned solve at one price ratio."""
    gains, c_s, c_r = _pair_arrays(real, perm, relay_rows)
    w = real.w

    def excess(ratio, p_src, p_rly):
        nu, powers, relay_used = nu_solve(gains, w, c_s, c_r, ratio, p_src)
        return relay_used - p_rly, nu, powers

    return excess, gains, c_s, c_r


def _build_alloc(perm, relay_rows, powers, c_s, c_r) -> Allocation:
    m = perm.shape[0]
    modes = np.where(relay_rows, int(PairMode.RELAY), int(PairMode.DIRECT)).astype(np.int8)
    return Allocation(pairing=perm.copy(), modes=modes,
                      p_s=c_s * powers, p_r=c_r * powers, q_s=np.zeros(m))


def _intermediate_solve(real, perm, relay_rows, inter, ratio, p_src, p_rly):
    """Boundary pair with a free source/relay split; both budgets bind.

    The non-boundary pairs water-fill at level nu (power per unit nu given
    by their equivalent gains at price ratio ``ratio``), the boundary pair
    absorbs the budget residuals, and nu is fixed by its own stationarity
    1 + a_sd p_s + a_rd p_r = w a_sd nu, which is strictly decreasing in nu.
    """
    others = relay_rows.copy()
    gains, c_s, c_r = _pair_arrays(real, perm, others)
    slope = np.where((gains > 0) & (real.w > 0),
                     real.w / (c_s + c_r * ratio), 0.0)
    inv = np.where(gains > 0, 1.0 / np.maximum(gains, 1e-300), np.inf)
    a_sd_i = real.a_sd[inter]
    a_rd_i = real.a_rd[perm[inter]]
    w_i = real.w[inter]

    def residuals(nu):
        p = np.maximum(slope * nu - inv, 0.0)
        p[inter] = 0.0
        return p_src - float(np.sum(c_s * p)), p_rly - float(np.sum(c_r * p)), p

    def psi(nu):
        ps, pr, _ = residuals(nu)
        return 1.0 + a_sd_i * max(ps, 0.0) + a_rd_i * max(pr, 0.0) - w_i * a_sd_i * nu

    nu = crossing(psi, 0.0, 1.0, grow=200)
    ps_i, pr_i, powers = residuals(nu)
    alloc = _build_alloc(perm, others, powers, c_s, c_r)
    alloc.modes[inter] = int(PairMode.INTERMEDIATE)
    alloc.p_s[inter] = max(ps_i, 0.0)
    alloc.p_r[inter] = max(pr_i, 0.0)
    mu_s = 1.0 / (2.0 * nu) if nu > 0 else np.inf
    return alloc, {"case": "intermediate", "ratio": ratio, "nu": nu,
                   "mu_s": mu_s, "mu_r": ratio * mu_s}


def zero_crossing_refine(real: ChannelRealization, pairing: np.ndarray,
                         p_src: float, p_rly: float):
    """Optimal powers for a fixed pairing under separate budgets.

    Returns (allocation, diagnostics).
    """
    perm = np.asarray(pairing, dtype=np.int64)
    m = real.m
    can_relay = real.a_sr > real.a_sd
    a_rd_p = real.a_rd[perm]
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = np.where(can_relay & (real.a_sd > 0), a_rd_p / real.a_sd,
                            np.where(can_relay & (a_rd_p > 0), np.inf, 0.0))

    if p_rly <= 0.0 or not np.any(boundary > 0):
        relay_rows = np.zeros(m, dtype=bool)
        gains, c_s, c_r = _pair_arrays(real, perm, relay_rows)
        nu, powers, _ = nu_solve(gains, real.w, c_s, c_r, 0.0, p_src)
        alloc = _build_alloc(perm, relay_rows, powers, c_s, c_r)
        mu_s = 1.0 / (2.0 * nu) if nu > 0 else np.inf
        return alloc, {"case": "all_direct", "ratio": 0.0, "nu": nu,
                       "mu_s": mu_s, "mu_r": 0.0}

    # relay price zero: if the relay budget is slack there, it never binds
    relay0 = boundary > 0.0
    ex0, gains, c_s, c_r = _pattern(real, perm, relay0)
    excess, nu, powers = ex0(0.0, p_src, p_rly)
    if excess <= 0.0:
        alloc = _build_alloc(perm, relay0, powers, c_s, c_r)
        mu_s = 1.0 / (2.0 * nu) if nu > 0 else np.inf
        return alloc, {"case": "relay_slack", "ratio": 0.0, "nu": nu,
                       "mu_s": mu_s, "mu_r": 0.0}

    finite = np.unique(boundary[np.isfinite(boundary) & (boundary > 0)])
    prev = 0.0
    for b in finite:
        rows = boundary >= b          # mode pattern on (prev, b]
        ex, gains, c_s, c_r = _pattern(real, perm, rows)
        left, _, _ = ex(b, p_src, p_rly)
        if left <= 0.0:
            ratio = crossing(lambda r: ex(r, p_src, p_rly)[0], prev, b)
            _, nu, powers = ex(ratio, p_src, p_rly)
            alloc = _build_alloc(perm, rows, powers, c_s, c_r)
            mu_s = 1.0 / (2.0 * nu) if nu > 0 else np.inf
            return alloc, {"case": "interior", "ratio": ratio, "nu": nu,
                           "mu_s": mu_s, "mu_r": ratio * mu_s}
        rows_right = boundary > b
        ex_r, _, _, _ = _pattern(real, perm, rows_right)
        right, _, _ = ex_r(b, p_src, p_rly)
        if right <= 0.0:
            inter = int(np.flatnonzero(boundary == b)[0])
            return _intermediate_solve(real, perm, rows_right, inter, b, p_src, p_rly)
        prev = b

    # only pairs with a_sd == 0 remain relay-capable; their relay use still
    # shrinks to zero as the ratio grows, so a crossing bracket must exist
    rows = ~np.isfinite(boundary) | (boundary > prev)
    rows &= boundary > 0
    ex, gains, c_s, c_r = _pattern(real, perm, rows)
    ratio = crossing(lambda r: ex(r, p_src, p_rly)[0], prev, max(2.0 * prev, 1.0),
                     grow=64)
    if ratio is None:
        # every remaining pair is relay-only (a_sd = 0), so the source can be
        # slack: pin the relay budget instead, with the source price at zero
        g_r = np.where(c_r > 0, gains, 0.0)
        nu, powers, _ = nu_solve(g_r, real.w, c_r, np.zeros(m), 0.0, p_rly)
        alloc = _build_alloc(perm, rows, powers, c_s, c_r)
        mu_r = 1.0 / (2.0 * nu) if nu > 0 else np.inf
        return alloc, {"case": "source_slack", "ratio": np.inf, "nu": nu,
                       "mu_s": 0.0, "mu_r": mu_r}
    _, nu, powers = ex(ratio, p_src, p_rly)
    alloc = _build_alloc(perm, rows, powers, c_s, c_r)
    mu_s = 1.0 / (2.0 * nu) if nu > 0 else np.inf
    return alloc, {"case": "interior_tail", "ratio": ratio, "nu": nu,
                   "mu_s": mu_s, "mu_r": ratio * mu_s}
