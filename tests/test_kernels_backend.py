"""The vectorized numpy kernels against short scalar reference versions.

The references below are the loop forms the kernels had before they were
vectorized: water-filling by bisection plus a linear budget correction, the
source-pinned ``nu_solve`` as an active-set walk, and per-element score
tables.  Summation order differs between the two forms, so results are
compared within a tolerance fixed from float64 rounding: 1e-12 relative for
water-filling powers and ``nu_solve``, 1e-13 for the scores.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relaypair.kernels as kernels

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


def _ref_total_scores(w, gains, mu):
    m = w.shape[0]
    mu_eff = max(mu, MU_FLOOR)
    scores = np.empty((m, m))
    powers = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            if gains[k, j] > 0.0:
                powers[k, j] = max(w[k] / (2.0 * mu_eff) - 1.0 / gains[k, j], 0.0)
            scores[k, j] = (0.5 * w[k] * np.log1p(gains[k, j] * powers[k, j])
                            - mu_eff * powers[k, j])
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


def _ref_ind_scores(w, gains, c_s, c_r, mu_s, mu_r):
    m = w.shape[0]
    scores = np.empty((m, m))
    powers = np.zeros((m, m))
    for k in range(m):
        for j in range(m):
            price = c_s[k, j] * max(mu_s, MU_FLOOR) + c_r[k, j] * max(mu_r, MU_FLOOR)
            if gains[k, j] > 0.0:
                powers[k, j] = max(w[k] / (2.0 * price) - 1.0 / gains[k, j], 0.0)
            scores[k, j] = (0.5 * w[k] * np.log1p(gains[k, j] * powers[k, j])
                            - price * powers[k, j])
    return scores, powers


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
        nu, p, used = kernels.nu_solve(kernels.nu_prepare(gains, weights, c_s, c_r, p_src), ratio)
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
        out1 = kernels.nu_solve(kernels.nu_prepare(gains, w, c_s, c_r, 4.0), 0.7)
        out2 = _ref_nu_solve(gains, w, c_s, c_r, 0.7, 4.0)
        assert out1[0] == pytest.approx(out2[0], rel=1e-12)
        _assert_powers_close(out1[1], out2[1], w / (c_s + 0.7 * c_r) * out2[0])
        assert out1[2] == pytest.approx(out2[2], rel=1e-12)


def test_total_scores_agree():
    w, a_sd, a_sr, a_rd = _instance(1)
    gains = np.outer(a_sr, a_rd) / (a_sr[:, None] + a_rd[None, :])
    gains[0, 1] = 0.0
    s1, p1 = kernels.total_scores(w, gains, 0.3)
    s2, p2 = _ref_total_scores(w, gains, 0.3)
    np.testing.assert_allclose(s1, s2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(p1, p2, rtol=1e-13, atol=1e-13)


def test_ind_tables_and_scores_agree():
    w, a_sd, a_sr, a_rd = _instance(2)
    g1, cs1, cr1 = kernels.ind_tables(a_sd, a_sr, a_rd, 0.2, 0.5)
    g2, cs2, cr2 = _ref_ind_tables(a_sd, a_sr, a_rd, 0.2, 0.5)
    assert np.array_equal(g1, g2)
    assert np.array_equal(cs1, cs2)
    assert np.array_equal(cr1, cr2)
    s1, p1 = kernels.ind_scores(w, g1, cs1, cr1, 0.2, 0.5)
    s2, p2 = _ref_ind_scores(w, g2, cs2, cr2, 0.2, 0.5)
    np.testing.assert_allclose(s1, s2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(p1, p2, rtol=1e-13, atol=1e-13)


def test_score_kernels_fill_reused_buffers():
    """Writing into buffers left over from other prices gives the same
    matrices as a fresh call, for every kernel whose buffers a problem reuses."""
    w, a_sd, a_sr, a_rd = _instance(4)
    m = w.shape[0]
    gains = np.outer(a_sr, a_rd) / (a_sr[:, None] + a_rd[None, :])
    relay_ok = np.broadcast_to((a_sr > a_sd)[:, None], (m, m)).copy()

    def dirty(n, extra_bool=False):
        bufs = tuple(np.full((m, m), np.nan) for _ in range(n))
        return bufs + ((np.ones((m, m), dtype=bool),) if extra_bool else ())

    calls = [
        (kernels.total_scores, (w, gains, 0.4), dirty(3)),
        (kernels.ind_tables, (a_sd, a_sr, a_rd, 0.3, 0.6), dirty(3)),
        (kernels.ind_scores, (w, *_ref_ind_tables(a_sd, a_sr, a_rd, 0.3, 0.6),
                              0.3, 0.6), dirty(3)),
        (kernels.extra_scores, (w, a_sd, gains, relay_ok, 0.4), dirty(3, True)),
        (kernels.extra_ind_scores, (w, a_sd, a_sr, a_rd, 0.3, 0.6), dirty(6, True)),
    ]
    for fn, args, out in calls:
        fresh = fn(*args)
        reused = fn(*args, out=out)
        for a, b in zip(fresh, reused):
            assert np.array_equal(a, b), fn.__name__
