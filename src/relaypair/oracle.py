"""Brute-force reference optima for small subcarrier counts."""

from __future__ import annotations

import itertools

import numpy as np

from .channel import pair_channels, pair_tables, relay_mask_extra, relay_mask_total
from .errors import SizeLimitError
from .kernels import exhaustive_total_kernel
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .solver_extra import extra_individual_allocate
from .types import ChannelRealization, IndividualBudgets
from .waterfill import waterfill


def _perm_array(m: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(m))), dtype=np.int64)


def _check_size(m: int, limit: int, what: str) -> None:
    if m > limit:
        raise SizeLimitError(f"{what} supports m <= {limit}, got {m}")


def exhaustive_total(real: ChannelRealization, budget: float):
    """Max water-filled rate over all pairings under a shared budget."""
    _check_size(real.m, 8, "exhaustive_total")
    relay = relay_mask_total(real)
    gains, _, _ = pair_tables(real, relay)
    perms = _perm_array(real.m)
    rate, idx = exhaustive_total_kernel(np.ascontiguousarray(gains),
                                        real.w, float(budget), perms)
    return float(rate), perms[idx].copy()


def _extra_candidates(real: ChannelRealization):
    """Every pairing with every relay-use vector admissible under
    second-slot reuse (``relay_mask_extra``, the same for every partner)."""
    free = np.flatnonzero(relay_mask_extra(real)[:, 0])
    for perm in _perm_array(real.m):
        for bits in itertools.product((False, True), repeat=free.size):
            use = np.zeros(real.m, dtype=bool)
            use[free] = bits
            yield perm, use


def exhaustive_extra_total(real: ChannelRealization, budget: float):
    """Adds enumeration of the per-pair relay-use vector s."""
    _check_size(real.m, 6, "exhaustive_extra_total")
    best = (-np.inf, None, None)
    for perm, use in _extra_candidates(real):
        gains, w, _, _ = pair_channels(real, perm, use, extra=True)
        rate = waterfill(gains, w, budget).rate(gains, w)
        if rate > best[0]:
            best = (rate, perm.copy(), use)
    return float(best[0]), best[1], best[2]


def exhaustive_individual(real: ChannelRealization, budgets: IndividualBudgets):
    """Exact per-pairing two-budget solve over all pairings."""
    _check_size(real.m, 6, "exhaustive_individual")
    best = (-np.inf, None)
    for perm in _perm_array(real.m):
        alloc, _ = zero_crossing_refine(real, perm, budgets.p_source,
                                        budgets.p_relay)
        rate = weighted_sum_rate(real, alloc, extra_allowed=False)
        if rate > best[0]:
            best = (rate, perm.copy())
    return float(best[0]), best[1]


def reference_extra_individual(real: ChannelRealization,
                               budgets: IndividualBudgets):
    """Enumerates pairings and relay-use vectors with the fixed-pattern
    two-budget allocation.  The inner allocation freezes the equal-
    information split on relay pairs, so this is a strong reference value
    rather than a guaranteed optimum."""
    _check_size(real.m, 4, "reference_extra_individual")
    best = (-np.inf, None, None)
    for perm, use in _extra_candidates(real):
        _, rate, _, _ = extra_individual_allocate(real, perm, use, budgets)
        if rate > best[0]:
            best = (rate, perm.copy(), use)
    return float(best[0]), best[1], best[2]
