"""Reference computations made apart from the program.

Nothing here imports relaypair.  An instance is anything with ``m``,
``a_sd``, ``a_sr``, ``a_rd`` and ``w`` (a ``ChannelRealization`` works); an
allocation is anything with ``pairing``, ``modes``, ``p_s``, ``p_r`` and
``q_s`` (mode 0 is a direct pair, any other mode uses the relay).

Rates are in nats per two-slot channel use.  A direct pair k -> m carries
(w_k/2) log(1 + a_sd_k p_s) plus, with extra-direct reuse, a second message
(w_m/2) log(1 + a_sd_m q_s) on the idle second-slot subcarrier m.  A relay
pair carries (w_k/2) min(log(1 + a_sr_k p_s), log(1 + a_sd_k p_s + a_rd_m p_r)),
the minimum of the relay-decoding and destination-combining terms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

TOL = 1e-9
GOLDEN_ITERS = 40  # shrinks a search interval by 0.618**40, about 4e-9


def waterfill(gains, weights, budget: float) -> np.ndarray:
    """Closed-form weighted water-filling.

    Maximizes sum_i (w_i/2) log(1 + g_i p_i) subject to sum_i p_i <= budget:
    p_i = [w_i nu - 1/g_i]^+, where the channels are taken in decreasing
    order of w_i g_i and nu is fixed by the largest active set that meets
    the budget exactly.
    """
    g = np.asarray(gains, dtype=float)
    w = np.asarray(weights, dtype=float)
    powers = np.zeros(g.shape)
    useful = np.flatnonzero(g * w > 0)
    if budget <= 0 or useful.size == 0:
        return powers
    order = useful[np.argsort(-(g[useful] * w[useful]), kind="stable")]
    nu = (budget + np.cumsum(1.0 / g[order])) / np.cumsum(w[order])
    active = np.flatnonzero(nu * w[order] * g[order] > 1.0)
    k = active[-1]
    powers[order[:k + 1]] = np.maximum(w[order[:k + 1]] * nu[k] - 1.0 / g[order[:k + 1]], 0.0)
    return powers


def channel_rate(gains, weights, powers) -> float:
    return float(np.sum(0.5 * np.asarray(weights) * np.log1p(np.asarray(gains) * powers)))


def sum_rate(inst, alloc) -> float:
    """Weighted sum rate of an allocation, from the paper's pair rates."""
    perm = np.asarray(alloc.pairing)
    relay = np.asarray(alloc.modes) != 0
    direct = (0.5 * inst.w * np.log1p(inst.a_sd * alloc.p_s)
              + 0.5 * inst.w[perm] * np.log1p(inst.a_sd[perm] * alloc.q_s))
    decode = np.log1p(inst.a_sr * alloc.p_s)
    combine = np.log1p(inst.a_sd * alloc.p_s + inst.a_rd[perm] * alloc.p_r)
    return float(np.where(relay, 0.5 * inst.w * np.minimum(decode, combine), direct).sum())


def feasibility_problems(inst, alloc, *, total: float | None = None,
                         p_source: float | None = None,
                         p_relay: float | None = None,
                         extra: bool = False) -> list[str]:
    """What makes an allocation infeasible; empty when it is feasible.

    Give either ``total`` (one shared budget) or ``p_source`` and
    ``p_relay`` (split budgets).  Budgets may be exceeded by 1e-9 relative.
    """
    m = inst.m
    perm = np.asarray(alloc.pairing)
    if perm.shape != (m,) or sorted(perm.tolist()) != list(range(m)):
        return ["pairing is not a permutation"]
    bad = []
    vectors = {"p_s": alloc.p_s, "p_r": alloc.p_r, "q_s": alloc.q_s}
    for name, v in vectors.items():
        v = np.asarray(v, dtype=float)
        if v.shape != (m,) or not np.all(np.isfinite(v)) or np.any(v < 0):
            bad.append(f"{name} is not a finite nonnegative vector of length {m}")
    if bad:
        return bad
    relay = np.asarray(alloc.modes) != 0
    if np.any(alloc.p_r[~relay] > 0):
        bad.append("a direct pair carries relay power")
    if np.any(alloc.q_s[relay] > 0):
        bad.append("a relay pair carries second-slot source power")
    if not extra and np.any(alloc.q_s > 0):
        bad.append("second-slot source power without extra-direct reuse")
    source = float(np.sum(alloc.p_s) + np.sum(alloc.q_s))
    relay_power = float(np.sum(alloc.p_r))
    used = [("total", source + relay_power, total), ("source", source, p_source),
            ("relay", relay_power, p_relay)]
    for name, value, budget in used:
        if budget is not None and value > budget * (1 + TOL) + TOL:
            bad.append(f"{name} power {value!r} exceeds its budget {budget!r}")
    return bad


def direct_only_rate(inst, budget: float, extra: bool) -> float:
    """Best rate with the relay silent: water-filling over a_sd, and over
    both slots when the idle second slot may carry a message."""
    g, w = inst.a_sd, inst.w
    if extra:
        g, w = np.concatenate([g, g]), np.concatenate([w, w])
    return channel_rate(g, w, waterfill(g, w, budget))


def _equivalent_gain(a_sr, a_sd, a_rd):
    """Gain per unit pair power of a relay pair at the equal-information
    split, where the relay decodes exactly what the destination combines."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a_sr > a_sd, a_sr * a_rd / (a_sr + a_rd - a_sd), 0.0)


def brute_force_total(inst, budget: float, extra: bool) -> float:
    """Optimum under one shared budget by enumeration (m <= 6).

    Every pairing and every relay-use vector is tried with exact
    water-filling over the channels it leaves.  A relay pair is one channel
    with the equal-information gain; a direct pair is a_sd_k, plus a_sd_m
    with extra-direct reuse.
    """
    m = inst.m
    if m > 6:
        raise ValueError("brute force is limited to m <= 6")
    g_eq = _equivalent_gain(inst.a_sr[:, None], inst.a_sd[:, None], inst.a_rd[None, :])
    rows = np.arange(m)
    best = -math.inf
    for perm in itertools.permutations(range(m)):
        perm = np.array(perm)
        relay_gain = g_eq[rows, perm]
        for use in itertools.product((False, True), repeat=m):
            use = np.array(use)
            if np.any(relay_gain[use] <= 0):
                continue
            g = np.where(use, relay_gain, inst.a_sd)
            w = inst.w
            if extra:
                g = np.concatenate([g, inst.a_sd[perm][~use]])
                w = np.concatenate([w, inst.w[perm][~use]])
            best = max(best, channel_rate(g, w, waterfill(g, w, budget)))
    return best


def _channel_value(w, g, price):
    """max over p >= 0 of (w/2) log(1 + g p) - price p."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = w * g / (2.0 * price)
        value = 0.5 * w * np.log(x) - 0.5 * w + price / g
    return np.where(x > 1.0, value, 0.0)


def pair_values(inst, mu_s: float, mu_r: float, extra: bool) -> np.ndarray:
    """Lagrangian value of every pair (k, m) at power prices (mu_s, mu_r).

    A relay pair is best operated at the equal-information split: along it,
    one unit of source power buys gain a_sr and costs
    mu_s + mu_r (a_sr - a_sd) / a_rd.  Off the split, either a term of the
    minimum is wasted or the pair is no better than a direct one.
    """
    w = inst.w[:, None]
    a_sd = inst.a_sd[:, None]
    a_sr = inst.a_sr[:, None]
    a_rd = inst.a_rd[None, :]
    direct = _channel_value(w, a_sd, mu_s) + np.zeros((inst.m, inst.m))
    if extra:
        direct = direct + _channel_value(inst.w, inst.a_sd, mu_s)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = mu_s + mu_r * (a_sr - a_sd) / a_rd
    relay = np.where((a_sr > a_sd) & (a_rd > 0), _channel_value(w, a_sr, cost), 0.0)
    return np.maximum(direct, relay)


def dual_value(inst, mu_s: float, mu_r: float, p_source: float,
               p_relay: float, extra: bool) -> float:
    """The Lagrangian dual at prices (mu_s, mu_r), minimized over the
    pairing prices: a max-weight assignment.  An upper bound on every
    feasible rate for any positive prices."""
    values = pair_values(inst, mu_s, mu_r, extra)
    rows, cols = linear_sum_assignment(values, maximize=True)
    return float(values[rows, cols].sum() + mu_s * p_source + mu_r * p_relay)


def _golden_min(f, lo: float, hi: float) -> float:
    """Smallest value of f seen by a golden-section search of log(x) on
    [lo, hi]; f is convex in x, hence unimodal in log(x)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    best = min(fc, fd)
    for _ in range(GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(math.exp(d))
        best = min(best, fc, fd)
    return best


def dual_bound(inst, *, total: float | None = None,
               p_source: float | None = None, p_relay: float | None = None,
               extra: bool = False) -> float:
    """Benchmark's own upper bound on the optimum: the assignment dual,
    minimized over one shared price (total budget) or over the source and
    relay prices (split budgets) by golden-section search."""
    wg_max = float(np.max(inst.w * np.maximum(inst.a_sd, inst.a_sr)))
    if wg_max <= 0:
        return 0.0
    mu_hi = wg_max / 2.0  # at higher prices every pair value is zero
    if total is not None:
        return _golden_min(lambda mu: dual_value(inst, mu, mu, total, 0.0, extra),
                           mu_hi * 1e-9, mu_hi)
    gap = inst.a_sr - inst.a_sd
    relay = gap > 0
    if not np.any(relay) or p_relay <= 0:
        mu_r_hi = mu_hi
    else:
        mu_r_hi = float(np.max(inst.w[relay] * inst.a_sr[relay] / gap[relay])
                        * np.max(inst.a_rd) / 2.0)

    def over_source(mu_r):
        return _golden_min(
            lambda mu_s: dual_value(inst, mu_s, mu_r, p_source, p_relay, extra),
            mu_hi * 1e-9, mu_hi)

    return _golden_min(over_source, mu_r_hi * 1e-12, mu_r_hi)
