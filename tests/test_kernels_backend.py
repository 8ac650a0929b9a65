"""The vectorized numpy kernels against short scalar reference versions.

The references below are the loop forms the kernels had before they were
vectorized: water-filling by bisection plus a linear budget correction, the
source-pinned ``nu_solve`` as an active-set walk, per-element score tables
and the shared-budget phase-1 iteration with a per-row argmax loop (now run
by ``relaypair.dual.iterate``).  Summation order differs between the two
forms, so results are compared within a tolerance fixed from float64
rounding: 1e-12 relative for water-filling powers and ``nu_solve``, and
identical iteration counts for phase 1.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relaypair.kernels as kernels
from relaypair.dual import iterate
from relaypair.solver_total import TotalProblem
from relaypair.types import ChannelRealization, SolverConfig

MU_FLOOR = kernels.MU_FLOOR


# -- scalar references -------------------------------------------------------

def _ref_waterfill(gains, weights, budget):
    def used(mu):
        total = 0.0
        for i in range(n):
            if gains[i] > 0.0 and weights[i] > 0.0:
                total += max(weights[i] / (2.0 * mu) - 1.0 / gains[i], 0.0)
        return total

    n = gains.shape[0]
    powers = np.zeros(n)
    wa_max = max([weights[i] * gains[i] for i in range(n)] + [0.0])
    if budget <= 0.0 or wa_max <= 0.0:
        return powers, 0.5 * wa_max
    mu_hi = mu_lo = 0.5 * wa_max
    for _ in range(4000):
        mu_lo *= 0.5
        if used(mu_lo) >= budget:
            break
    for _ in range(200):
        mid = 0.5 * (mu_lo + mu_hi)
        if used(mid) > budget:
            mu_lo = mid
        else:
            mu_hi = mid
        if mu_hi - mu_lo <= 1e-15 * mu_hi:
            break
    mu = 0.5 * (mu_lo + mu_hi)
    w_active = 0.0
    for i in range(n):
        if gains[i] > 0.0 and weights[i] > 0.0:
            p = weights[i] / (2.0 * mu) - 1.0 / gains[i]
            if p > 0.0:
                powers[i] = p
                w_active += weights[i]
    dnu = (budget - powers.sum()) / w_active
    for i in range(n):
        if powers[i] > 0.0:
            powers[i] = max(powers[i] + weights[i] * dnu, 0.0)
    return powers, mu


def _ref_nu_solve(gains, weights, c_s, c_r, ratio, p_src):
    n = gains.shape[0]
    powers = np.zeros(n)
    slope = np.zeros(n)
    thresh = np.full(n, np.inf)
    for i in range(n):
        if gains[i] > 0.0 and weights[i] > 0.0:
            slope[i] = weights[i] / (c_s[i] + c_r[i] * ratio)
            thresh[i] = 1.0 / (slope[i] * gains[i])
    order = np.argsort(thresh, kind="stable")
    if p_src <= 0.0 or not np.isfinite(thresh[order[0]]):
        return 0.0, powers, 0.0
    src_slope = src_icpt = 0.0
    nu = thresh[order[0]]
    with np.errstate(divide="ignore"):
        for j in range(n):
            i = order[j]
            if not np.isfinite(thresh[i]):
                break
            src_slope += c_s[i] * slope[i]
            src_icpt += c_s[i] / gains[i]
            nu = np.float64(p_src + src_icpt) / src_slope
            nxt = thresh[order[j + 1]] if j + 1 < n else np.inf
            if not (np.isfinite(nxt) and nu > nxt):
                break
    relay_used = 0.0
    for i in range(n):
        if nu > thresh[i]:
            powers[i] = slope[i] * nu - 1.0 / gains[i]
            relay_used += c_r[i] * powers[i]
    return nu, powers, relay_used


def _ref_total_scores(w, gains, mu, alpha):
    m = w.shape[0]
    mu_eff = max(mu, MU_FLOOR)
    scores = np.empty((m, m))
    powers = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            if gains[k, j] > 0.0:
                powers[k, j] = max(w[k] / (2.0 * mu_eff) - 1.0 / gains[k, j], 0.0)
            scores[k, j] = (0.5 * w[k] * np.log1p(gains[k, j] * powers[k, j])
                            - alpha[j] - mu_eff * powers[k, j])
    return scores, powers


def _ref_ind_tables(a_sd, a_sr, a_rd, mu_s, mu_r):
    m = a_sd.shape[0]
    ratio = max(mu_r, MU_FLOOR) / max(mu_s, MU_FLOOR)
    gains = np.empty((m, m))
    c_s = np.ones((m, m))
    c_r = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            gains[k, j] = a_sd[k]
            if a_sr[k] > a_sd[k] and a_rd[j] >= a_sd[k] * ratio:
                denom = a_sr[k] + a_rd[j] - a_sd[k]
                gains[k, j] = a_sr[k] * a_rd[j] / denom
                c_s[k, j] = a_rd[j] / denom
                c_r[k, j] = (a_sr[k] - a_sd[k]) / denom
    return gains, c_s, c_r


def _ref_ind_scores(w, gains, c_s, c_r, mu_s, mu_r, alpha):
    m = w.shape[0]
    scores = np.empty((m, m))
    powers = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            price = c_s[k, j] * max(mu_s, MU_FLOOR) + c_r[k, j] * max(mu_r, MU_FLOOR)
            if gains[k, j] > 0.0:
                powers[k, j] = max(w[k] / (2.0 * price) - 1.0 / gains[k, j], 0.0)
            scores[k, j] = (0.5 * w[k] * np.log1p(gains[k, j] * powers[k, j])
                            - alpha[j] - price * powers[k, j])
    return scores, powers


def _ref_total_phase1(w, gains, budget, mu, alpha, step_scale, eps, max_hard,
                      min_iter):
    m = w.shape[0]
    dual_min = np.inf
    i = consec = 0
    converged = False
    while i < max_hard:
        i += 1
        scores, powers = _ref_total_scores(w, gains, mu, alpha)
        counts = np.zeros(m)
        power_sum = best_sum = 0.0
        for k in range(m):
            sel = np.argmax(scores[k])
            counts[sel] += 1.0
            power_sum += powers[k, sel]
            best_sum += scores[k, sel]
        dual_min = min(dual_min, best_sum + max(mu, MU_FLOOR) * budget + alpha.sum())
        step = step_scale / np.sqrt(i)
        new_mu = max(mu - step * (budget - power_sum), 0.0)
        d_sq = alpha_sq = 0.0
        for j in range(m):
            d = step * (1.0 - counts[j])
            alpha[j] -= d
            d_sq += d * d
            alpha_sq += alpha[j] * alpha[j]
        ok = (abs(new_mu - mu) / max(abs(new_mu), MU_FLOOR) < eps
              and np.sqrt(d_sq) / max(np.sqrt(alpha_sq), MU_FLOOR) < eps)
        mu = new_mu
        consec = consec + 1 if ok else 0
        if consec >= 3 and i >= min_iter:
            converged = True
            break
    return i, mu, dual_min, converged


# -- inputs ------------------------------------------------------------------

def _instance(seed, m=6):
    rng = np.random.default_rng(seed)
    a_sd = rng.uniform(0.01, 2.0, m)
    a_sr = rng.uniform(0.01, 4.0, m)
    a_rd = rng.uniform(0.01, 4.0, m)
    w = rng.uniform(0.5, 2.0, m)
    return w, a_sd, a_sr, a_rd


def _assert_powers_close(p, p_ref, height):
    """Powers agree to 1e-12 relative to each channel's water height.

    Both forms compute a power as the difference (water height) - 1/a, so
    the rounding they can disagree by scales with the height, not with the
    (possibly much smaller) power itself.
    """
    with np.errstate(invalid="ignore"):
        close = np.abs(p - p_ref) <= 1e-12 * np.nan_to_num(height, posinf=0.0)
    assert np.all(close | (p == p_ref))


# few distinct values, so zeros and ties are common
_gain = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                  st.floats(1e-9, 1e9))
_weight = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.05, 5.0))


@st.composite
def _channels(draw):
    n = draw(st.integers(1, 24))
    gains = np.array(draw(st.lists(_gain, min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(_weight, min_size=n, max_size=n)))
    return gains, weights


@settings(max_examples=300, deadline=None)
@given(_channels(), st.one_of(st.just(0.0), st.floats(1e-3, 100.0)))
def test_waterfill_matches_reference(channels, budget):
    gains, weights = channels
    p, mu = kernels.waterfill_kernel(gains, weights, budget)
    p_ref, mu_ref = _ref_waterfill(gains, weights, budget)
    assert mu == pytest.approx(mu_ref, rel=1e-12)
    if budget > 0.0 and np.any(p_ref > 0.0):
        _assert_powers_close(p, p_ref, weights / (2.0 * mu_ref))
        assert abs(p.sum() - budget) <= 1e-12 * max(1.0, budget)
    else:
        assert not np.any(p)


@settings(max_examples=300, deadline=None)
@given(_channels(), st.data())
def test_nu_solve_matches_reference(channels, data):
    gains, weights = channels
    n = gains.shape[0]
    # c_s + c_r = 1 as for every pair; c_r = 1 leaves a relay-only row (c_s = 0)
    c_r = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        min_size=n, max_size=n)))
    c_s = 1.0 - c_r
    ratio = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    # a relay-only row at relay price 0 costs nothing: unbounded power
    assume(ratio > 0.0 or np.all(c_s > 0.0))
    p_src = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        nu, p, used = kernels.nu_solve(gains, weights, c_s, c_r, ratio, p_src)
    nu_ref, p_ref, used_ref = _ref_nu_solve(gains, weights, c_s, c_r, ratio, p_src)
    assert nu == pytest.approx(nu_ref, rel=1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        height = weights / (c_s + c_r * ratio) * nu_ref
    _assert_powers_close(p, p_ref, height)
    assert used == pytest.approx(used_ref, rel=1e-12,
                                 abs=1e-12 * float(c_r @ np.nan_to_num(height, posinf=0.0)))


def test_waterfill_agrees():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.uniform(1e-3, 5.0, 12)
        w = rng.uniform(0.2, 2.0, 12)
        p1, m1 = kernels.waterfill_kernel(g, w, 7.0)
        p2, m2 = _ref_waterfill(g, w, 7.0)
        _assert_powers_close(p1, p2, w / (2.0 * m2))
        assert m1 == pytest.approx(m2, rel=1e-12)


def test_nu_solve_agrees():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        m = 8
        gains = rng.uniform(0.05, 4.0, m)
        w = rng.uniform(0.5, 2.0, m)
        c_r = rng.uniform(0.0, 0.5, m)
        c_s = 1.0 - c_r
        out1 = kernels.nu_solve(gains, w, c_s, c_r, 0.7, 4.0)
        out2 = _ref_nu_solve(gains, w, c_s, c_r, 0.7, 4.0)
        assert out1[0] == pytest.approx(out2[0], rel=1e-12)
        _assert_powers_close(out1[1], out2[1], w / (c_s + 0.7 * c_r) * out2[0])
        assert out1[2] == pytest.approx(out2[2], rel=1e-12)


def test_total_scores_agree():
    w, a_sd, a_sr, a_rd = _instance(1)
    gains = np.outer(a_sr, a_rd) / (a_sr[:, None] + a_rd[None, :])
    gains[0, 1] = 0.0
    alpha = np.linspace(0.0, 1.0, 6)
    s1, p1 = kernels.total_scores(w, gains, 0.3, alpha)
    s2, p2 = _ref_total_scores(w, gains, 0.3, alpha)
    np.testing.assert_allclose(s1, s2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(p1, p2, rtol=1e-13, atol=1e-13)


def test_ind_tables_and_scores_agree():
    w, a_sd, a_sr, a_rd = _instance(2)
    g1, cs1, cr1 = kernels.ind_tables(a_sd, a_sr, a_rd, 0.2, 0.5)
    g2, cs2, cr2 = _ref_ind_tables(a_sd, a_sr, a_rd, 0.2, 0.5)
    assert np.array_equal(g1, g2)
    assert np.array_equal(cs1, cs2)
    assert np.array_equal(cr1, cr2)
    alpha = np.linspace(0.0, 1.0, 6)
    s1, p1 = kernels.ind_scores(w, g1, cs1, cr1, 0.2, 0.5, alpha)
    s2, p2 = _ref_ind_scores(w, g2, cs2, cr2, 0.2, 0.5, alpha)
    np.testing.assert_allclose(s1, s2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(p1, p2, rtol=1e-13, atol=1e-13)


def test_score_kernels_fill_reused_buffers():
    """Writing into buffers left over from other prices gives the same
    matrices as a fresh call, for every kernel a phase-1 loop reuses."""
    w, a_sd, a_sr, a_rd = _instance(4)
    m = w.shape[0]
    alpha = np.linspace(0.1, 0.9, m)
    gains = np.outer(a_sr, a_rd) / (a_sr[:, None] + a_rd[None, :])
    relay_ok = np.broadcast_to((a_sr > a_sd)[:, None], (m, m)).copy()

    def dirty(n, extra_bool=False):
        bufs = tuple(np.full((m, m), np.nan) for _ in range(n))
        return bufs + ((np.ones((m, m), dtype=bool),) if extra_bool else ())

    calls = [
        (kernels.total_scores, (w, gains, 0.4, alpha), dirty(3)),
        (kernels.ind_tables, (a_sd, a_sr, a_rd, 0.3, 0.6), dirty(3)),
        (kernels.ind_scores, (w, *_ref_ind_tables(a_sd, a_sr, a_rd, 0.3, 0.6),
                              0.3, 0.6, alpha), dirty(3)),
        (kernels.extra_scores, (w, a_sd, gains, relay_ok, 0.4, alpha), dirty(3, True)),
        (kernels.extra_ind_scores, (w, a_sd, a_sr, a_rd, 0.3, 0.6, alpha), dirty(6, True)),
    ]
    for fn, args, out in calls:
        fresh = fn(*args)
        reused = fn(*args, out=out)
        for a, b in zip(fresh, reused):
            assert np.array_equal(a, b), fn.__name__


def test_phase1_agrees():
    # the shared driver's phase 1 on the shared-budget problem against the
    # loop form of the old total-power phase-1 kernel
    for m, seed in [(1, 6), (6, 6), (6, 7), (16, 8), (16, 9)]:
        w, a_sd, a_sr, a_rd = _instance(seed, m)
        problem = TotalProblem(ChannelRealization(m, a_sd, a_sr, a_rd, w), 5.0)
        alpha_ref = np.linspace(0.1, 0.9, m)
        r2 = _ref_total_phase1(w, problem.gains, 5.0, 1.3, alpha_ref,
                               0.05, 0.01, 400, 60)
        # capped at the reference's trigger, the driver runs phase 1 only
        alpha = np.linspace(0.1, 0.9, m)
        trace = np.zeros((400, 4))
        cfg = SolverConfig(max_iter_hard=r2[0], min_iter=60)
        r1 = iterate(problem, [1.3], alpha, cfg, trace)
        assert r1[0] == r1[1] == r2[0]
        assert r1[2][0] == pytest.approx(r2[1], rel=1e-9)
        assert r1[3] == pytest.approx(r2[2], rel=1e-9)
        assert r1[4] == r2[3]
        np.testing.assert_allclose(alpha, alpha_ref, rtol=1e-9, atol=1e-12)
        assert trace[r1[0] - 1, 3] != 0.0
        # at a cap of 400 the trigger is the same, with or without a trace
        cfg = SolverConfig(max_iter_hard=400, min_iter=60)
        for trace in (np.zeros((400, 4)), None):
            assert iterate(problem, [1.3], np.linspace(0.1, 0.9, m), cfg,
                           trace)[0] == r2[0]
