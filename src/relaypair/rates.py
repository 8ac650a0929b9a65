"""Achievable weighted rates.

Rates are in nats per two-slot channel use (natural log throughout);
``nats_to_bits`` converts for display.  Relay-mode rates are always
recomputed through the min of the relay-decoding and destination-combining
terms, so any violation of the equal-information power split shows up as a
lower rate instead of being silently assumed away.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .types import Allocation, ChannelRealization, PairMode, check_permutation

LN2 = float(np.log(2.0))


def nats_to_bits(rate: float) -> float:
    return rate / LN2


def pair_rate(w_k, a_km, p) -> float:
    """Unified single-channel form (w/2) log(1 + a p)."""
    return 0.5 * w_k * float(np.log1p(a_km * p))


def pair_rate_relay_raw(w_k, a_sr, a_sd, a_rd, p_s, p_r) -> float:
    """Relay-mode rate without assuming the equal-information split."""
    at_relay = np.log1p(a_sr * p_s)
    at_dest = np.log1p(a_sd * p_s + a_rd * p_r)
    return 0.5 * w_k * float(min(at_relay, at_dest))


def pair_rate_extra_direct(w_k, w_m, a_sd_k, a_sd_m, p, q) -> float:
    """Direct-link pair carrying a second, independent message in slot two."""
    return 0.5 * w_k * float(np.log1p(a_sd_k * p)) + 0.5 * w_m * float(np.log1p(a_sd_m * q))


def weighted_sum_rate(real: ChannelRealization, alloc: Allocation,
                      extra_allowed: bool) -> float:
    perm = check_permutation(alloc.pairing, real.m)
    if not extra_allowed and np.any(alloc.q_s > 0):
        raise ValidationError("second-slot source power present but extra transmission is disabled")
    direct = alloc.modes == int(PairMode.DIRECT)
    bad = np.flatnonzero(np.where(direct, alloc.p_r != 0.0, alloc.q_s != 0.0))
    if bad.size:
        k = int(bad[0])
        if direct[k]:
            raise ValidationError(f"direct-link pair {k} carries relay power")
        raise ValidationError(f"relay pair {k} carries second-slot source power")
    # same per-pair expressions as pair_rate_extra_direct / pair_rate_relay_raw
    half_w = 0.5 * real.w
    direct_rate = (half_w * np.log1p(real.a_sd * alloc.p_s)
                   + half_w[perm] * np.log1p(real.a_sd[perm] * alloc.q_s))
    relay_rate = half_w * np.minimum(
        np.log1p(real.a_sr * alloc.p_s),
        np.log1p(real.a_sd * alloc.p_s + real.a_rd[perm] * alloc.p_r))
    return float(np.sum(np.where(direct, direct_rate, relay_rate)))
