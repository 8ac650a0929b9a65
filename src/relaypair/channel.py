"""Channel sampling and the per-pair derived quantities.

A subcarrier pair (k, m) with gains (a_sr[k], a_rd[m], a_sd[k]) either uses
the relay (second-slot forwarding, destination combining) or falls back to
the direct link.  In relay operation the total pair power is split between
source and relay so that relay and destination receive the same amount of
information; the pair then behaves like a single channel with an equivalent
gain.

For a fixed pairing every pair is then a set of single-slot channels (one
for a relay pair, one or, with second-slot reuse, two for a direct pair):
``pair_channels`` lays them out and ``channel_allocation`` maps powers on
them back to an ``Allocation``.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DomainError, ValidationError
from .types import Allocation, ChannelRealization, PairMode, RicianConfig


def sample_realization(cfg: RicianConfig, seed: int) -> ChannelRealization:
    """Draw one i.i.d. Rician realization, deterministic in ``seed``.

    Each complex gain is sqrt(K/(K+1))*s*exp(j*theta) + sqrt(1/(K+1))*s*z with
    z standard complex Gaussian, theta uniform, and s chosen so that
    E[|h|^2] equals the configured mean square.  Only the normalized power
    gain |h|^2 / noise_var is kept.
    """
    rng = np.random.default_rng(seed)
    kf = cfg.k_factor

    def draw(mean_sq):
        s = np.sqrt(mean_sq)
        theta = rng.uniform(0.0, 2.0 * np.pi, cfg.m)
        los = np.sqrt(kf / (kf + 1.0)) * s * np.exp(1j * theta)
        z = (rng.standard_normal(cfg.m) + 1j * rng.standard_normal(cfg.m)) / np.sqrt(2.0)
        h = los + np.sqrt(1.0 / (kf + 1.0)) * s * z
        return np.abs(h) ** 2 / cfg.noise_var

    a_sd = draw(cfg.mean_sq_sd)
    a_sr = draw(cfg.mean_sq_sr)
    a_rd = draw(cfg.mean_sq_rd)
    return ChannelRealization(m=cfg.m, a_sd=a_sd, a_sr=a_sr, a_rd=a_rd, w=cfg.weights())


def relay_beneficial_total(a_sr_k: float, a_rd_m: float, a_sd_k: float) -> bool:
    """Relay use improves the pair rate under a shared pair power budget."""
    return a_sr_k > a_sd_k and a_rd_m > a_sd_k


def equivalent_gain(a_sr_k, a_rd_m, a_sd_k, mode: PairMode) -> float:
    if mode == PairMode.DIRECT:
        return float(a_sd_k)
    denom = a_sr_k + a_rd_m - a_sd_k
    if denom <= 0:
        raise DomainError("relay-mode equivalent gain needs a_sr + a_rd - a_sd > 0")
    return float(a_sr_k * a_rd_m / denom)


def power_split(a_sr_k, a_rd_m, a_sd_k, mode: PairMode) -> tuple[float, float]:
    """Fractions (c_s, c_r) of the pair power carried by source and relay."""
    if mode == PairMode.DIRECT:
        return 1.0, 0.0
    denom = a_sr_k + a_rd_m - a_sd_k
    if denom <= 0:
        raise DomainError("relay-mode power split needs a_sr + a_rd - a_sd > 0")
    return float(a_rd_m / denom), float((a_sr_k - a_sd_k) / denom)


def relay_mask_total(real: ChannelRealization) -> np.ndarray:
    """Boolean (M, M) matrix: pair (k, m) prefers the relay under a shared budget."""
    a_sd = real.a_sd[:, None]
    return (real.a_sr[:, None] > a_sd) & (real.a_rd[None, :] > a_sd)


def relay_mask_extra(real: ChannelRealization) -> np.ndarray:
    """Boolean (M, M) matrix: pair (k, m) may use the relay when direct pairs
    reuse the second slot (a_sr > a_sd; the comparison against staying
    direct is left to the allocation)."""
    return np.broadcast_to((real.a_sr > real.a_sd)[:, None], (real.m, real.m)).copy()


def _relay_channel(a_sd, a_sr, a_rd, relay):
    """Equivalent gain and split (c_s, c_r) where ``relay``, the direct link
    (a_sd, 1, 0) elsewhere; the arguments broadcast."""
    denom = np.where(relay, a_sr + a_rd - a_sd, 1.0)
    gains = np.where(relay, a_sr * a_rd / denom, a_sd)
    c_s = np.where(relay, a_rd / denom, 1.0)
    c_r = np.where(relay, (a_sr - a_sd) / denom, 0.0)
    return gains, c_s, c_r


def pair_tables(real: ChannelRealization, relay: np.ndarray):
    """Equivalent gain and split matrices for a given relay-branch mask."""
    return _relay_channel(real.a_sd[:, None], real.a_sr[:, None], real.a_rd[None, :], relay)


def pair_channels(real: ChannelRealization, perm: np.ndarray, relay: np.ndarray,
                  extra: bool = False):
    """The single-slot channels of a pairing: (gains, weights, c_s, c_r).

    Entry k is pair k's relay channel where relay[k], its first-slot direct
    channel elsewhere; a unit of power on entry k costs c_s[k] at the source
    and c_r[k] at the relay.  With ``extra`` (second-slot reuse), entry M + k
    is pair k's second-slot direct channel, with zero gain where pair k
    relays, so it gets no power.
    """
    gains, c_s, c_r = _relay_channel(real.a_sd, real.a_sr, real.a_rd[perm], relay)
    w = real.w
    if extra:
        gains = np.concatenate((gains, np.where(relay, 0.0, real.a_sd[perm])))
        w = np.concatenate((w, w[perm]))
        c_s = np.concatenate((c_s, np.ones(real.m)))
        c_r = np.concatenate((c_r, np.zeros(real.m)))
    return gains, w, c_s, c_r


def channel_allocation(perm: np.ndarray, relay: np.ndarray, powers: np.ndarray,
                       c_s: np.ndarray, c_r: np.ndarray) -> Allocation:
    """The allocation of ``powers`` on the channels ``pair_channels`` built
    for (perm, relay), whose splits are c_s and c_r."""
    m = perm.shape[0]
    p = powers[:m]
    modes = np.where(relay, int(PairMode.RELAY), int(PairMode.DIRECT)).astype(np.int8)
    q_s = powers[m:].copy() if powers.shape[0] > m else np.zeros(m)
    return Allocation(pairing=perm.copy(), modes=modes, p_s=c_s[:m] * p,
                      p_r=c_r[:m] * p, q_s=q_s)


# -- instance file interface ------------------------------------------------

INSTANCE_HEADER = ["k", "a_sd", "a_sr", "a_rd", "w"]


def write_instance(path, real: ChannelRealization) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(INSTANCE_HEADER)
        for k in range(real.m):
            out.writerow([k + 1, repr(float(real.a_sd[k])), repr(float(real.a_sr[k])),
                          repr(float(real.a_rd[k])), repr(float(real.w[k]))])


def read_instance(path) -> ChannelRealization:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != INSTANCE_HEADER:
        raise ValidationError(f"instance file must start with header {','.join(INSTANCE_HEADER)}")
    body = [r for r in rows[1:] if r and any(c.strip() for c in r)]
    m = len(body)
    a_sd = np.empty(m)
    a_sr = np.empty(m)
    a_rd = np.empty(m)
    w = np.empty(m)
    seen = set()
    for row in body:
        if len(row) != 5:
            raise ValidationError(f"bad instance row: {row}")
        k = int(row[0])
        if k < 1 or k > m or k in seen:
            raise ValidationError(f"instance rows must carry 1-based k exactly once, got k={k}")
        seen.add(k)
        a_sd[k - 1], a_sr[k - 1], a_rd[k - 1], w[k - 1] = (float(c) for c in row[1:])
    return ChannelRealization(m=m, a_sd=a_sd, a_sr=a_sr, a_rd=a_rd, w=w)
