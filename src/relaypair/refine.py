"""Exact two-budget power allocation for a fixed pairing.

For a fixed permutation, maximize the weighted sum rate subject to separate
source and relay budgets.  Each pair's operating mode depends only on the
price ratio r = mu_r / mu_s: with the relay branch active when
a_rd > a_sd * r (and a_sr > a_sd), the pair behaves as one channel with an
equivalent gain whose power costs c_s + c_r * r source-price units.

The mode-boundary ratios a_rd/a_sd cut the ratio axis into segments.  On
each segment the mode pattern is frozen, so the pairs are one fixed channel
list (``channel.pair_channels``), solved by ``split_solve``: the source
budget is pinned exactly (see ``kernels.nu_solve``), and the relay
consumption R(r) is decreasing, so the ratio where R crosses the relay
budget is found by Brent's bracketed root finder (``crossing``).  R also
falls across each boundary, which only drops relay pairs, so the crossing
lies on the first segment whose upper end is within the relay budget.  The
solve finds that segment by a galloping search (segments 0, 1, 3, 7, ...,
then bisection), one evaluation of R per segment probed, and reuses the
probe's evaluations in the segment's solve.  If the crossing happens
across a boundary, the pairs on that boundary operate between modes with a
free power split, fixed by a scalar water-level equation.  ``split_solve``
also allocates the extra-direct problem, whose relay-use pattern is fixed
by its caller.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .channel import channel_allocation, pair_channels
from .kernels import nu_prepare, nu_solve
from .types import ChannelRealization, PairMode

_RTOL = 4.0 * np.finfo(float).eps   # the tightest relative tolerance brentq accepts
_TINY = 5e-324                        # the smallest positive float


def crossing(f, lo, hi, grow=0):
    """Zero crossing of a decreasing function f with f(lo) > 0, by Brent's
    method to full float64 precision; None if f(hi) > 0.

    f is continuous but may have kinks (where an active set changes); Brent
    falls back to bisection steps there, and converges superlinearly on the
    smooth pieces in between.  With ``grow`` > 0 the bracket is found first:
    while f(hi) > 0, lo moves up to hi and hi doubles, at most ``grow`` times.
    The result is the evaluated point closest to the lowest root from the
    side where f <= 0, so a budget that f measures is never exceeded; f is
    evaluated once per point.
    """
    seen = {}

    def memo(x):
        if x not in seen:
            seen[x] = f(x)
        return seen[x]

    for _ in range(grow):
        if memo(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    if memo(hi) > 0.0:
        return None
    # a zero counts as negative, so Brent closes in on the lowest point where
    # f <= 0 (f can be flat at zero, e.g. when only relay-only pairs are on).
    # brentq's default of 100 iterations is too few where f falls almost like
    # a step (gains spread over many decades): Brent then mostly bisects, and
    # took up to 166 iterations over 2000 random refines with gains 1e±12
    brentq(lambda x: memo(x) or -_TINY, lo, hi, xtol=1e-300, rtol=_RTOL, maxiter=1000)
    return min(x for x, v in seen.items() if v <= 0.0)


def _prices(nu, ratio):
    """Power prices (mu_s, mu_r) at water level nu = 1/(2 mu_s) and price
    ratio mu_r/mu_s; at an infinite ratio the source price is 0 and nu is
    the relay's water level."""
    mu = 1.0 / (2.0 * nu) if nu > 0 else np.inf
    if ratio == np.inf:
        return 0.0, mu
    return mu, ratio * mu if ratio > 0 else 0.0


def evaluations(channels, p_src):
    """``nu_solve`` on a frozen channel list (``channel.pair_channels``) with
    its source budget, prepared once (``nu_prepare``): a function of the
    price ratio that remembers every ratio it has solved."""
    prep = nu_prepare(*channels, p_src)
    solved = {}

    def at(ratio):
        if ratio not in solved:
            solved[ratio] = nu_solve(prep, ratio)
        return solved[ratio]

    return at


def split_solve(channels, p_src, p_rly, lo=0.0, hi=np.inf, at=None):
    """Powers on a frozen channel list (``channel.pair_channels``) under a
    source budget and a relay budget, for a price ratio in [lo, hi].

    The source budget is pinned at every ratio (``nu_solve``, prepared once
    for the list) and the relay use falls as the ratio grows.  A finite hi
    must be a ratio where the relay use is within its budget.  ``at`` is the
    list's ``evaluations`` if the caller has already solved some ratios on
    it.  Returns (powers, diagnostics), with diagnostics["case"]:

    - "slack": the relay budget is slack at ratio lo;
    - "crossing": the ratio where the relay use meets its budget, by
      ``crossing`` (with bracket growth from [lo, max(2 lo, 1)] when hi is
      infinite);
    - "source_slack" (hi infinite only): no ratio brings the relay within
      budget, because every active channel carries a relay share; the relay
      budget is pinned instead, with the source price at 0 (ratio inf).
    """
    gains, weights, c_s, c_r = channels
    at = at or evaluations(channels, p_src)

    def excess(ratio):
        return at(ratio)[2] - p_rly

    case, ratio = "slack", lo
    if excess(lo) > 0.0:
        case = "crossing"
        if hi < np.inf:
            ratio = crossing(excess, lo, hi)
        else:
            ratio = crossing(excess, lo, max(2.0 * lo, 1.0), grow=64)
            if ratio is None:
                case, ratio = "source_slack", np.inf
    if case == "source_slack":
        nu, powers, _ = nu_solve(nu_prepare(np.where(c_r > 0, gains, 0.0), weights, c_r,
                                            np.zeros_like(c_r), p_rly), 0.0)
    else:
        nu, powers, _ = at(ratio)
    mu_s, mu_r = _prices(nu, ratio)
    return powers, {"case": case, "ratio": ratio, "nu": nu, "mu_s": mu_s, "mu_r": mu_r}


def _intermediate_solve(real, perm, rows, tied, ratio, p_src, p_rly):
    """The pairs whose boundary is ``ratio`` (mask ``tied``) operate between
    modes with a free source/relay split; both budgets bind.

    The other pairs (pattern ``rows``) water-fill at level nu.  At the
    boundary a tied pair's power cost mu_s (p_s + ratio p_r) is
    (mu_s / a_sd) times its combined SNR x = a_sd p_s + a_rd p_r, so its
    stationarity fixes x = w a_sd nu - 1 and its cost p_s + ratio p_r =
    x / a_sd.  The budget residuals R_s, R_r of the other pairs must pay for
    the tied pairs, R_s + ratio R_r = sum x / a_sd, which fixes nu: the left
    side falls and the right side grows with nu.  The residuals are then shared so that each tied pair gets source
    power in [x / a_sr, x / a_sd]; its relay then decodes at least what it
    forwards.
    """
    gains, w, c_s, c_r = pair_channels(real, perm, rows)
    slope = np.where((gains > 0) & (w > 0), w / (c_s + c_r * ratio), 0.0)
    inv = np.where(gains > 0, 1.0 / np.maximum(gains, 1e-300), np.inf)
    a_sd = real.a_sd[tied]
    a_sr = real.a_sr[tied]
    w_t = w[tied]

    def residuals(nu):
        p = np.maximum(slope * nu - inv, 0.0)
        p[tied] = 0.0
        return max(p_src - c_s @ p, 0.0), max(p_rly - c_r @ p, 0.0), p

    def psi(nu):
        r_s, r_r, _ = residuals(nu)
        return r_s + ratio * r_r - np.maximum(w_t * nu - 1.0 / a_sd, 0.0).sum()

    nu = crossing(psi, 0.0, 1.0, grow=200)
    r_s, r_r, powers = residuals(nu)
    snr = np.maximum(w_t * a_sd * nu - 1.0, 0.0)
    low = snr / a_sr
    span = snr / a_sd - low
    share = span / span.sum() if span.sum() > 0.0 else np.full(span.size, 1.0 / span.size)
    alloc = channel_allocation(perm, rows, powers, c_s, c_r)
    alloc.modes[tied] = int(PairMode.INTERMEDIATE)
    alloc.p_s[tied] = np.maximum(r_s * share + (low - low.sum() * share), 0.0)
    alloc.p_r[tied] = r_r * share
    mu_s, mu_r = _prices(nu, ratio)
    return alloc, {"case": "intermediate", "ratio": ratio, "nu": nu,
                   "mu_s": mu_s, "mu_r": mu_r}


def zero_crossing_refine(real: ChannelRealization, pairing: np.ndarray,
                         p_src: float, p_rly: float):
    """Optimal powers for a fixed pairing under separate budgets.

    Returns (allocation, diagnostics).
    """
    perm = np.asarray(pairing, dtype=np.int64)
    can_relay = real.a_sr > real.a_sd
    a_rd_p = real.a_rd[perm]
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = np.where(can_relay & (real.a_sd > 0), a_rd_p / real.a_sd,
                            np.where(can_relay & (a_rd_p > 0), np.inf, 0.0))
    if p_rly <= 0.0:
        boundary[:] = 0.0

    # the mode pattern is frozen on each segment (bounds[j], bounds[j + 1]];
    # after the last finite boundary only pairs with a_sd == 0 still relay,
    # and their relay use shrinks to zero as the ratio grows
    bounds = np.concatenate(([0.0], np.unique(boundary[np.isfinite(boundary) & (boundary > 0)]),
                             [np.inf]))
    tail = bounds.size - 2
    segments = {}

    def segment(j):
        if j not in segments:
            rows = boundary > bounds[j]
            channels = pair_channels(real, perm, rows)
            segments[j] = rows, channels, evaluations(channels, p_src)
        return segments[j]

    def stops(j):
        # whether segment j holds the crossing or lies past it: its relay
        # use at the upper end is not over budget; the tail segment, without
        # an upper end, always does
        return j == tail or not segment(j)[2](bounds[j + 1])[2] > p_rly

    # gallop over segments 0, 1, 3, 7, ... then bisect between the last
    # segment passed and the first that stops
    passed, j = -1, 0
    while not stops(j):
        passed, j = j, min(2 * j + 1, tail)
    while j - passed > 1:
        mid = (passed + j) // 2
        if stops(mid):
            j = mid
        else:
            passed = mid
    rows, channels, at = segment(j)
    prev, b = bounds[j], bounds[j + 1]
    powers, diag = split_solve(channels, p_src, p_rly, prev, b, at)
    case = diag["case"]
    if case == "slack" and prev > 0.0:
        # over budget just below prev, slack just above: the pairs with that
        # boundary sit between the modes
        return _intermediate_solve(real, perm, rows, boundary == prev, prev, p_src, p_rly)
    if case == "slack":
        case = "relay_slack" if rows.any() else "all_direct"
    elif case == "crossing":
        case = "interior" if b < np.inf else "interior_tail"
    alloc = channel_allocation(perm, rows, powers, channels[2], channels[3])
    return alloc, {**diag, "case": case}
