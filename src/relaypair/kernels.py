"""Hot numeric kernels: pair scores for the dual drivers, and water-filling.

Everything here is plain vectorized numpy.  The score kernels build the
O(M^2) pair-score matrices that the dual drivers (``relaypair.dual``)
evaluate at every step, so each problem allocates its M x M buffers once
and the kernels write into them (the ``out`` keyword) instead of
allocating fresh matrices at every step.
Water-filling and the source-pinned ``nu_solve`` share one exact water-level
kernel (``_water``): channels are sorted by the level at which they switch
on, cumulative sums give the level at which the active set meets the
budget, and one linear correction meets it to machine precision.  Its
callers gather the active channels first (``_active``); ``nu_prepare`` does
that once per channel list, so that ``nu_solve`` at each price ratio does
only the ratio's work.

Conventions: ``mu`` prices are floored at ``MU_FLOOR`` wherever they divide,
row index k is the first-slot subcarrier, column index m the second-slot
subcarrier.  Ties in argmax/argmin resolve to the smallest index.
"""

import numpy as np

MU_FLOOR = 1e-12
_BIG = 1e300


def _inv_gain(gains, out=None):
    """1/a where a > 0, and _BIG (a channel that never switches on) elsewhere."""
    out = np.maximum(gains, 1e-300, out=out)
    np.divide(1.0, out, out=out)
    np.copyto(out, _BIG, where=gains <= 0.0)
    return out


def _buffers(m, n, ncols=None):
    """n float buffers of M x M (M x ``ncols`` if given)."""
    return tuple(np.empty((m, m if ncols is None else ncols)) for _ in range(n))


def _mode_buffers(m, n, ncols=None):
    """n float buffers plus the bool relay-use buffer of the extra-direct kernels."""
    return _buffers(m, n, ncols) + (np.empty((m, m if ncols is None else ncols), dtype=bool),)


def _active(gains, weights, budget):
    """Indices of the channels that can get power (a_i, w_i > 0); none when
    the budget is 0."""
    if budget <= 0.0:
        return np.empty(0, dtype=np.intp)
    return ((gains > 0.0) & (weights > 0.0)).nonzero()[0]


def _water(n, idx, budget, g, inv, slope, c=None, c_inv=None):
    """Water level nu and powers p_i = [slope_i nu - 1/a_i]^+ at which the
    channels ``idx`` (``_active``) of n use exactly ``budget``, channel i
    using c_i p_i of it (c defaults to 1).  g, inv = 1/g, slope and c (with
    c_inv = c inv) are gathered over ``idx``.  Returns (nu, powers over all
    n channels); nu is 0 and every power 0 when ``idx`` is empty.

    Channel i is on above nu = 1/(slope_i a_i).  Walking the channels in
    that order, the level of the first active set that does not reach the
    next threshold is the answer (Palomar & Fonollosa, IEEE TSP 2005).
    slope nu - 1/a cancels when 1/a dwarfs the power, so one linear step in
    nu puts the rounding back and the budget is met to machine precision.
    """
    powers = np.zeros(n)
    if idx.size == 0:
        return 0.0, powers
    thresh = 1.0 / (slope * g)
    # budget use per unit of nu above the threshold, and at the threshold
    c_slope, c_inv = (slope, inv) if c is None else (c * slope, c_inv)
    order = thresh.argsort()
    cand = (budget + c_inv[order].cumsum()) / c_slope[order].cumsum()
    stops = (cand[:-1] <= thresh[order[1:]]).nonzero()[0]
    nu = cand[stops[0]] if stops.size else cand[-1]
    on = (thresh < nu).nonzero()[0]
    slope_on = slope[on]
    p = slope_on * nu - inv[on]
    # no correction where every active channel is free (c = 0): nu is then
    # infinite and so is every power
    den = c_slope[on].sum()
    if den > 0.0:
        used = p.sum() if c is None else c[on] @ p
        p += slope_on * ((budget - used) / den)
    powers[idx[on]] = np.maximum(p, 0.0)
    return nu, powers


def _relay_terms(wcol, gains, inv, price, p, y, work):
    """Water-filled pair power p = [w/(2 price) - 1/a]^+ and its Lagrangian
    y = (w/2) log(1 + a p) - price p, written into the M x M buffers p and y.

    ``price`` is a scalar or an M x M matrix and may be the ``work`` buffer;
    ``inv`` may be the ``y`` buffer (both are read before being overwritten).
    """
    np.multiply(price, 2.0, out=p)
    np.divide(wcol, p, out=p)
    np.subtract(p, inv, out=p)
    np.maximum(p, 0.0, out=p)
    np.multiply(price, p, out=work)
    np.multiply(gains, p, out=y)
    np.log1p(y, out=y)
    y *= 0.5 * wcol
    y -= work


# -- water-filling ----------------------------------------------------------

def waterfill_kernel(gains, weights, budget):
    """Weighted water-filling p_i = [w_i/(2 mu) - 1/a_i]^+ meeting the budget.

    Returns (powers, mu); mu = 1/(2 nu) for the water level nu of ``_water``.
    """
    idx = _active(gains, weights, budget)
    g = gains[idx]
    nu, powers = _water(gains.shape[0], idx, budget, g, 1.0 / g, weights[idx])
    if nu == 0.0:
        return powers, 0.5 * (weights * gains).max(initial=0.0)
    return powers, 0.5 / nu


def waterfill_residual(gains, weights, budget, powers):
    """Max KKT violation (stationarity, complementary slackness, budget)."""
    act = (gains > 0.0) & (weights > 0.0)
    lvl = 0.5 * weights[act] / (1.0 / gains[act] + powers[act])
    mu_est = lvl.max(initial=0.0)
    res = abs(budget - powers.sum()) / max(1.0, budget)
    dev = np.abs(lvl[powers[act] > 0.0] - mu_est) / max(mu_est, 1e-300)
    return max(res, dev.max(initial=0.0))


# -- total power constraint -------------------------------------------------

def total_scores(w, gains, mu, inv=None, out=None):
    """Per-pair score X and candidate power at price mu.

    ``inv`` is ``_inv_gain(gains)`` if the caller keeps it; ``out`` is three
    M x M buffers, the first two of which receive (scores, powers).
    """
    scores, powers, work = out if out is not None else _buffers(w.shape[0], 3)
    if inv is None:
        inv = _inv_gain(gains)
    _relay_terms(w.reshape(-1, 1), gains, inv, max(mu, MU_FLOOR),
                 powers, scores, work)
    return scores, powers


# -- individual power constraints -------------------------------------------

def ind_tables(a_sd, a_sr, a_rd, mu_s, mu_r, out=None):
    """Mode-dependent equivalent gain and power split at the current price ratio.

    The relay branch applies when a_sr > a_sd and a_rd >= a_sd * mu_r/mu_s;
    the boundary (intermediate) case is folded into the relay branch.
    a_rd is a row of second-slot gains (one column each), or an M x 1
    column of one second-slot gain per row.  ``out`` is three buffers of
    the table's shape that receive (gains, c_s, c_r).
    """
    ard = np.atleast_2d(a_rd)
    gains, c_s, c_r = out if out is not None else _buffers(a_sd.shape[0], 3, ard.shape[1])
    ratio = max(mu_r, MU_FLOOR) / max(mu_s, MU_FLOOR)
    asd = a_sd.reshape(-1, 1)
    asr = a_sr.reshape(-1, 1)
    direct = ~((asr > asd) & (ard >= asd * ratio))
    # c_s first holds the relay-branch denominator, 1 on direct pairs
    np.add(asr, ard, out=c_s)
    c_s -= asd
    np.copyto(c_s, 1.0, where=direct)
    np.multiply(asr, ard, out=gains)
    gains /= c_s
    np.subtract(asr, asd, out=c_r)
    c_r /= c_s
    np.divide(ard, c_s, out=c_s)
    np.copyto(gains, asd, where=direct)
    np.copyto(c_s, 1.0, where=direct)
    np.copyto(c_r, 0.0, where=direct)
    return gains, c_s, c_r


def ind_scores(w, gains, c_s, c_r, mu_s, mu_r, out=None):
    """Per-pair score and power with pair power priced at c_s mu_s + c_r mu_r.

    ``out`` is three M x M buffers, the first two of which receive
    (scores, powers).
    """
    scores, powers, work = out if out is not None else _buffers(w.shape[0], 3)
    np.multiply(c_s, max(mu_s, MU_FLOOR), out=work)
    np.multiply(c_r, max(mu_r, MU_FLOOR), out=powers)
    work += powers
    _relay_terms(w.reshape(-1, 1), gains, _inv_gain(gains, out=scores), work,
                 powers, scores, work)
    return scores, powers


# -- extra second-slot direct transmission ----------------------------------

def direct_slot_terms(w, a_sd, mu):
    """Per-subcarrier direct power and Lagrangian contribution at price mu."""
    mu_eff = max(mu, MU_FLOOR)
    p = np.maximum(w / (2.0 * mu_eff) - _inv_gain(a_sd), 0.0)
    g = 0.5 * w * np.log1p(a_sd * p) - mu_eff * p
    return p, g


def _pick_mode(y_r, y_d, relay_ok, use_relay):
    """use_relay = relay_ok & (y_r > y_d); y_d becomes the score matrix."""
    np.greater(y_r, y_d, out=use_relay)
    use_relay &= relay_ok
    np.copyto(y_d, y_r, where=use_relay)
    return y_d


def extra_scores(w, a_sd, gains_relay, relay_ok, mu, inv=None, out=None):
    """Scores for the joint pairing / relay-use selection under a total budget.

    relay_ok[k, m] marks pairs where relay use is admissible (a_sr > a_sd).
    Returns (scores, use_relay, relay_power_matrix, direct_power_vector).
    ``inv`` is ``_inv_gain(gains_relay)`` if the caller keeps it; ``out`` is
    three M x M float buffers and one M x M bool buffer.
    """
    m = w.shape[0]
    y_r, p1, y_d, use_relay = out if out is not None else _mode_buffers(m, 3)
    if inv is None:
        inv = _inv_gain(gains_relay)
    _relay_terms(w.reshape(-1, 1), gains_relay, inv, max(mu, MU_FLOOR),
                 p1, y_r, y_d)
    p2, g2 = direct_slot_terms(w, a_sd, mu)
    np.add(g2.reshape(-1, 1), g2.reshape(1, -1), out=y_d)
    scores = _pick_mode(y_r, y_d, relay_ok, use_relay)
    return scores, use_relay, p1, p2


def extra_ind_scores(w, a_sd, a_sr, a_rd, mu_s, mu_r, out=None, cols=None):
    """Extra-direct scores under individual budgets.

    The relay-side contribution prices power at c_s mu_s + c_r mu_r; the
    direct side prices both slots at mu_s.  ``cols`` holds the second-slot
    subcarrier of each entry, broadcast against the first-slot rows: by
    default a 1 x M row of every subcarrier, giving M x M matrices; a
    pairing as an M x 1 column gives only its M entries (k, perm[k]), in
    O(M).  ``out`` is six float buffers and one bool buffer of that shape.
    """
    m = w.shape[0]
    cols = np.arange(m).reshape(1, -1) if cols is None else cols
    gains, c_s, c_r, y_r, p1, y_d, use_relay = (
        out if out is not None else _mode_buffers(m, 6, cols.shape[1]))
    ind_tables(a_sd, a_sr, a_rd[cols], mu_s, mu_r, out=(gains, c_s, c_r))
    np.multiply(c_s, max(mu_s, MU_FLOOR), out=y_d)
    np.multiply(c_r, max(mu_r, MU_FLOOR), out=p1)
    y_d += p1
    _relay_terms(w.reshape(-1, 1), gains, _inv_gain(gains, out=y_r), y_d,
                 p1, y_r, y_d)
    p2, g2 = direct_slot_terms(w, a_sd, mu_s)
    np.add(g2.reshape(-1, 1), g2[cols], out=y_d)
    scores = _pick_mode(y_r, y_d, (a_sr > a_sd).reshape(-1, 1), use_relay)
    return scores, use_relay, p1, c_s, c_r, p2


# -- exact source-pinned solve for the two-budget inner problem -------------

def nu_prepare(gains, weights, c_s, c_r, p_src):
    """The part of ``nu_solve`` that the price ratio does not change, for one
    channel list and source budget: the active channels (``_active``) and
    their gains, weights, splits, 1/a_i and c_s_i / a_i, gathered once.
    The result is opaque: pass it to ``nu_solve``."""
    idx = _active(gains, weights, p_src)
    g = gains[idx]
    inv = 1.0 / g
    cs = c_s[idx]
    return gains.shape[0], idx, p_src, g, inv, weights[idx], cs, c_r[idx], cs * inv, c_r


def nu_solve(prep, ratio):
    """Exact water level for channels priced by c_s + c_r * ratio (per mu_s),
    pinned so the source consumption equals p_src, on the channel list that
    ``nu_prepare`` made ``prep`` from.

    Power on channel i is [w_i * nu / (c_s_i + c_r_i * ratio) - 1/a_i]^+
    with nu = 1/(2 mu_s), and it costs c_s_i of it at the source (see
    ``_water``).  Returns (nu, powers, relay_used).
    """
    n, idx, p_src, g, inv, w, c_s, c_r, c_inv, c_r_all = prep
    nu, powers = _water(n, idx, p_src, g, inv, w / (c_s + c_r * ratio), c_s, c_inv)
    return nu, powers, c_r_all @ powers


# -- brute-force pairing search (total power) -------------------------------

def exhaustive_total_kernel(gains, w, budget, perms):
    """Max water-filled rate over an explicit array of permutations."""
    rows = np.arange(perms.shape[1])
    best_rate = -1.0
    best_idx = 0
    for idx, perm in enumerate(perms):
        sel_gains = gains[rows, perm]
        powers, _ = waterfill_kernel(sel_gains, w, budget)
        rate = 0.5 * (w @ np.log1p(sel_gains * powers))
        if rate > best_rate:
            best_rate = rate
            best_idx = idx
    return best_rate, best_idx
