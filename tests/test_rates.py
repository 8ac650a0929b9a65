import numpy as np
import pytest

from relaypair import (Allocation, PairMode, ValidationError, nats_to_bits,
                       pair_rate, pair_rate_relay_raw, weighted_sum_rate)
from relaypair.rates import pair_rate_extra_direct

from conftest import manual_real


def test_pair_rate_hand_value():
    # w=2, a=1.8, p=5 -> log(10)
    assert pair_rate(2.0, 1.8, 5.0) == pytest.approx(np.log(10.0))
    assert pair_rate(1.0, 1.0, 0.0) == 0.0


def test_nats_to_bits():
    assert nats_to_bits(np.log(2.0)) == pytest.approx(1.0)


def test_relay_raw_equal_information_split():
    # with the 0.6/0.4 split both min arguments equal log(2.8)
    r = pair_rate_relay_raw(1.0, 3.0, 1.0, 3.0, 0.6, 0.4)
    assert r == pytest.approx(0.5 * np.log(2.8))


def test_relay_raw_starved_relay():
    r = pair_rate_relay_raw(1.0, 3.0, 1.0, 3.0, 1.0, 0.0)
    assert r == pytest.approx(0.5 * np.log(2.0))


def test_relay_raw_takes_min():
    balanced = pair_rate_relay_raw(1.0, 3.0, 1.0, 3.0, 0.6, 0.4)
    skewed = pair_rate_relay_raw(1.0, 3.0, 1.0, 3.0, 0.2, 0.8)
    assert skewed < balanced


def test_extra_direct_two_slots():
    assert pair_rate_extra_direct(1.0, 1.0, 1.0, 1.0, 1.0, 1.0) == \
        pytest.approx(np.log(2.0))
    # no second-slot power reduces to a single direct slot
    assert pair_rate_extra_direct(1.0, 1.0, 2.0, 1.0, 3.0, 0.0) == \
        pytest.approx(0.5 * np.log(7.0))


def test_weighted_sum_rate_single_direct():
    real = manual_real([1.0], [0.5], [1.0])
    alloc = Allocation(pairing=np.array([0]), modes=np.array([0], np.int8),
                       p_s=np.array([5.0]), p_r=np.zeros(1), q_s=np.zeros(1))
    assert weighted_sum_rate(real, alloc, extra_allowed=False) == \
        pytest.approx(0.5 * np.log(6.0))


def test_weighted_sum_rate_additive():
    real = manual_real([1.0, 1.0], [3.0, 3.0], [3.0, 3.0])
    alloc = Allocation(pairing=np.array([0, 1]),
                       modes=np.array([1, 0], np.int8),
                       p_s=np.array([0.6, 1.0]), p_r=np.array([0.4, 0.0]),
                       q_s=np.zeros(2))
    want = 0.5 * np.log(2.8) + 0.5 * np.log(2.0)
    assert weighted_sum_rate(real, alloc, extra_allowed=False) == pytest.approx(want)


def test_weighted_sum_rate_gating():
    real = manual_real([1.0], [3.0], [3.0])
    bad = Allocation(pairing=np.array([0]), modes=np.array([0], np.int8),
                     p_s=np.array([1.0]), p_r=np.array([0.5]), q_s=np.zeros(1))
    with pytest.raises(ValidationError):
        weighted_sum_rate(real, bad, extra_allowed=False)
    extra = Allocation(pairing=np.array([0]), modes=np.array([0], np.int8),
                       p_s=np.array([1.0]), p_r=np.zeros(1),
                       q_s=np.array([1.0]))
    with pytest.raises(ValidationError):
        weighted_sum_rate(real, extra, extra_allowed=False)
    # allowed when extra transmission is on
    assert weighted_sum_rate(real, extra, extra_allowed=True) > 0


def test_weighted_sum_rate_monotone_in_power(rng):
    real = manual_real(rng.uniform(0.2, 2.0, 3), rng.uniform(0.2, 4.0, 3),
                       rng.uniform(0.2, 4.0, 3))
    alloc = Allocation(pairing=np.arange(3), modes=np.zeros(3, np.int8),
                       p_s=np.ones(3), p_r=np.zeros(3), q_s=np.zeros(3))
    r1 = weighted_sum_rate(real, alloc, extra_allowed=False)
    alloc.p_s *= 2.0
    assert weighted_sum_rate(real, alloc, extra_allowed=False) > r1


def test_weighted_sum_rate_names_first_offending_pair():
    real = manual_real([1.0, 1.0, 1.0], [3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
    alloc = Allocation(pairing=np.arange(3), modes=np.array([0, 1, 0], np.int8),
                       p_s=np.ones(3), p_r=np.array([0.0, 0.5, 0.5]),
                       q_s=np.array([0.0, 0.5, 0.0]))
    with pytest.raises(ValidationError, match="relay pair 1 carries second-slot"):
        weighted_sum_rate(real, alloc, extra_allowed=True)
    alloc.q_s[1] = 0.0
    with pytest.raises(ValidationError, match="direct-link pair 2 carries relay power"):
        weighted_sum_rate(real, alloc, extra_allowed=True)


def test_weighted_sum_rate_is_sum_of_pair_rates(rng):
    for m in (1, 5, 32):
        real = manual_real(rng.uniform(0.0, 2.0, m), rng.uniform(0.2, 4.0, m),
                           rng.uniform(0.2, 4.0, m), w=rng.uniform(0.1, 2.0, m))
        modes = rng.integers(0, 3, m).astype(np.int8)
        direct = modes == PairMode.DIRECT
        alloc = Allocation(pairing=rng.permutation(m), modes=modes,
                           p_s=rng.uniform(0.0, 2.0, m),
                           p_r=np.where(direct, 0.0, rng.uniform(0.0, 2.0, m)),
                           q_s=np.where(direct, rng.uniform(0.0, 2.0, m), 0.0))
        want = 0.0
        for k, j in enumerate(alloc.pairing):
            if direct[k]:
                want += pair_rate_extra_direct(real.w[k], real.w[j], real.a_sd[k],
                                               real.a_sd[j], alloc.p_s[k], alloc.q_s[k])
            else:
                want += pair_rate_relay_raw(real.w[k], real.a_sr[k], real.a_sd[k],
                                            real.a_rd[j], alloc.p_s[k], alloc.p_r[k])
        assert weighted_sum_rate(real, alloc, extra_allowed=True) == pytest.approx(want, rel=1e-14)
