import numpy as np
import pytest

from relaypair import (Allocation, ChannelRealization, PairMode, ValidationError,
                       equivalent_gain, read_instance, sample_realization,
                       waterfill, weighted_sum_rate, write_instance)
from relaypair.channel import (channel_allocation, pair_channels, pair_tables,
                               power_split, relay_beneficial_total,
                               relay_mask_extra, relay_mask_total)
from relaypair.errors import DomainError

from conftest import make_rician, manual_real, random_real


def test_equivalent_gain_relay_hand_values():
    assert equivalent_gain(3.0, 3.0, 1.0, PairMode.RELAY) == pytest.approx(1.8)
    # boundary a_sr == a_sd still has a positive denominator
    assert equivalent_gain(2.0, 2.0, 2.0, PairMode.RELAY) == pytest.approx(2.0)


def test_equivalent_gain_direct_is_sd():
    assert equivalent_gain(3.0, 3.0, 1.0, PairMode.DIRECT) == 1.0


def test_equivalent_gain_bad_denominator():
    with pytest.raises(DomainError):
        equivalent_gain(1.0, 0.5, 2.0, PairMode.RELAY)


def test_power_split_hand_value():
    c_s, c_r = power_split(3.0, 3.0, 1.0, PairMode.RELAY)
    assert c_s == pytest.approx(0.6)
    assert c_r == pytest.approx(0.4)
    assert power_split(3.0, 3.0, 1.0, PairMode.DIRECT) == (1.0, 0.0)


def test_power_split_sums_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a_sd = rng.uniform(0.1, 2.0)
        a_sr = a_sd + rng.uniform(0.01, 3.0)
        a_rd = rng.uniform(0.1, 4.0)
        c_s, c_r = power_split(a_sr, a_rd, a_sd, PairMode.RELAY)
        assert c_s + c_r == pytest.approx(1.0)
        assert c_s > 0 and c_r > 0


def test_relay_beneficial_total():
    assert relay_beneficial_total(3.0, 3.0, 1.0)
    assert not relay_beneficial_total(0.5, 3.0, 1.0)
    assert not relay_beneficial_total(3.0, 0.5, 1.0)


def test_relay_mask_matches_scalar_rule():
    real = random_real(6, seed=3)
    mask = relay_mask_total(real)
    for k in range(6):
        for m in range(6):
            assert mask[k, m] == relay_beneficial_total(
                real.a_sr[k], real.a_rd[m], real.a_sd[k])


def test_pair_tables_consistency():
    real = random_real(5, seed=9)
    mask = relay_mask_total(real)
    gains, c_s, c_r = pair_tables(real, mask)
    for k in range(5):
        for m in range(5):
            mode = PairMode.RELAY if mask[k, m] else PairMode.DIRECT
            assert gains[k, m] == pytest.approx(
                equivalent_gain(real.a_sr[k], real.a_rd[m], real.a_sd[k], mode))
            cs, cr = power_split(real.a_sr[k], real.a_rd[m], real.a_sd[k], mode)
            assert (c_s[k, m], c_r[k, m]) == (pytest.approx(cs), pytest.approx(cr))


def test_sample_realization_deterministic():
    cfg = make_rician(8)
    a = sample_realization(cfg, 42)
    b = sample_realization(cfg, 42)
    c = sample_realization(cfg, 43)
    assert np.array_equal(a.a_sr, b.a_sr)
    assert not np.array_equal(a.a_sr, c.a_sr)


def test_sample_realization_mean_square():
    # empirical mean of the normalized gain tracks mean_sq / noise_var
    cfg = make_rician(4000, sr=3.0, noise=1.5)
    real = sample_realization(cfg, 0)
    assert real.a_sr.mean() == pytest.approx(2.0, rel=0.1)
    assert np.all(real.a_sr >= 0)


def test_realization_validation():
    with pytest.raises(ValidationError):
        ChannelRealization(m=2, a_sd=[1.0], a_sr=[1.0, 1.0],
                           a_rd=[1.0, 1.0], w=[1.0, 1.0])
    with pytest.raises(ValidationError):
        manual_real([1.0, -0.5], [1.0, 1.0], [1.0, 1.0])


def test_instance_roundtrip(tmp_path):
    real = random_real(6, seed=11)
    path = tmp_path / "inst.csv"
    write_instance(path, real)
    back = read_instance(path)
    assert back.m == real.m
    for name in ("a_sd", "a_sr", "a_rd", "w"):
        assert np.array_equal(getattr(back, name), getattr(real, name))


def test_instance_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,a,b,c,d\n1,1,1,1,1\n")
    with pytest.raises(ValidationError):
        read_instance(path)


# -- the channel layout against the loops it replaced ------------------------

def _ref_assemble_channels(real, perm, use_relay, gains_relay, c_s, c_r):
    """The former tagged channel list: a relay channel for a relay pair, two
    direct channels (first and second slot) for a direct pair; tags[i] =
    (pair k, role) with role 0 = relay, 1 = first slot, 2 = second slot."""
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


def _ref_fill_alloc(real, perm, use_relay, powers, cs, cr, tags):
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


def test_extra_layout_matches_tagged_list():
    rng = np.random.default_rng(21)
    for trial in range(60):
        m = int(rng.integers(1, 9))
        real = random_real(m, seed=2000 + trial)
        perm = rng.permutation(m)
        use = rng.random(m) < 0.5
        use &= real.a_sr > real.a_sd
        budget = float(10.0 ** rng.uniform(-1.0, 1.5))
        ref = _ref_assemble_channels(real, perm, use, *pair_tables(real, relay_mask_extra(real)))
        wf = waterfill(ref[0], ref[1], budget)
        ref_alloc = _ref_fill_alloc(real, perm, use, wf.powers, ref[2], ref[3], ref[4])
        gains, w, c_s, c_r = pair_channels(real, perm, use, extra=True)
        alloc = channel_allocation(perm, use, waterfill(gains, w, budget).powers, c_s, c_r)
        assert np.array_equal(alloc.pairing, ref_alloc.pairing)
        assert np.array_equal(alloc.modes, ref_alloc.modes)
        for name in ("p_s", "p_r", "q_s"):
            np.testing.assert_allclose(getattr(alloc, name), getattr(ref_alloc, name),
                                       rtol=1e-12, atol=1e-12 * budget)
        assert weighted_sum_rate(real, alloc, extra_allowed=True) == pytest.approx(
            weighted_sum_rate(real, ref_alloc, extra_allowed=True), rel=1e-12)


def test_layout_without_reuse_is_the_pair_tables_diagonal():
    real = random_real(6, seed=17)
    perm = np.array([3, 0, 5, 1, 4, 2])
    mask = relay_mask_total(real)
    relay = mask[np.arange(6), perm]
    gains, w, c_s, c_r = pair_channels(real, perm, relay)
    for got, table in zip((gains, c_s, c_r), pair_tables(real, mask)):
        assert np.array_equal(got, table[np.arange(6), perm])
    assert np.array_equal(w, real.w)
    alloc = channel_allocation(perm, relay, np.arange(6.0), c_s, c_r)
    assert np.array_equal(alloc.p_s, c_s * np.arange(6.0))
    assert np.array_equal(alloc.p_r, c_r * np.arange(6.0))
    assert not alloc.q_s.any()
