"""Reference schemes: sorted channel pairing and fixed identity pairing.

Sorted channel pairing (SCP) ranks first-slot subcarriers by w_k * a_sr_k
(or a_sr_k alone for the unweighted variant) and second-slot subcarriers by
a_rd_m, both descending, and pairs equal ranks.  The second-slot key is
never weighted since the pairing is not known in advance.  Given the fixed
pairing, mode selection and power allocation follow the same rules as the
corresponding solver so the comparison isolates the pairing quality.
"""

from __future__ import annotations

import enum

import numpy as np

from .channel import pair_tables, relay_mask_total
from .pairing import scp_pairing
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .solver_extra import _assemble_channels, _fill_alloc, solve_extra_individual
from .solver_total import build_allocation
from .types import (ChannelRealization, IndividualBudgets, SolveReport,
                    SolverConfig, check_permutation)
from .waterfill import waterfill


class BaselineKind(enum.Enum):
    SCP_WEIGHTED = "scp"
    SCP_UNWEIGHTED = "scp-unweighted"
    FIXED_IDENTITY = "fixed"


def baseline_pairing(real: ChannelRealization, kind: BaselineKind) -> np.ndarray:
    if kind is BaselineKind.FIXED_IDENTITY:
        return np.arange(real.m, dtype=np.int64)
    return scp_pairing(real, weighted=kind is BaselineKind.SCP_WEIGHTED)


def evaluate_baseline(real: ChannelRealization, pairing: np.ndarray, *,
                      total_budget: float | None = None,
                      budgets: IndividualBudgets | None = None,
                      extra_direct: bool = False,
                      cfg: SolverConfig | None = None,
                      seed: int = 0) -> SolveReport:
    """Best allocation for a fixed pairing under the requested scenario."""
    perm = check_permutation(pairing, real.m)
    if (total_budget is None) == (budgets is None):
        raise ValueError("exactly one of total_budget and budgets is required")
    rows = np.arange(real.m)

    if total_budget is not None:
        relay = relay_mask_total(real)
        gains, c_s, c_r = pair_tables(real, relay)
        if not extra_direct:
            wf = waterfill(gains[rows, perm], real.w, total_budget)
            alloc = build_allocation(real, perm, wf.powers, relay, c_s, c_r)
        else:
            g, wgt, cs, cr, tags = _assemble_channels(
                real, perm, relay[rows, perm], gains, c_s, c_r)
            wf = waterfill(g, wgt, total_budget)
            alloc = _fill_alloc(real, perm, relay[rows, perm], wf.powers,
                                cs, cr, tags)
        rate = weighted_sum_rate(real, alloc, extra_allowed=extra_direct)
        return SolveReport(pairing=perm, allocation=alloc, primal_rate=rate,
                           dual_value=np.nan, iterations=0, trigger_iter=0,
                           diagnostics={"water_price": wf.water_price})

    if extra_direct:
        return solve_extra_individual(real, budgets, cfg=cfg, seed=seed,
                                      fixed_pairing=perm)
    alloc, diag = zero_crossing_refine(real, perm, budgets.p_source,
                                       budgets.p_relay)
    rate = weighted_sum_rate(real, alloc, extra_allowed=False)
    return SolveReport(pairing=perm, allocation=alloc, primal_rate=rate,
                       dual_value=np.nan, iterations=0, trigger_iter=0,
                       diagnostics=diag)
