"""Reference schemes: sorted channel pairing and fixed identity pairing.

Sorted channel pairing (SCP) ranks first-slot subcarriers by w_k * a_sr_k
(or a_sr_k alone for the unweighted variant) and second-slot subcarriers by
a_rd_m, both descending, and pairs equal ranks.  The second-slot key is
never weighted since the pairing is not known in advance.  Given the fixed
pairing, mode selection and power allocation follow the same rules as the
corresponding solver so the comparison isolates the pairing quality: one
candidate of the shared-budget problem, the split-budget refinement, or (split
budgets with reuse) the best relay use on a price grid (``ExtraIndividualProblem.scan``).
No baseline draws a random number or reports a dual bound.
"""

from __future__ import annotations

import enum

import numpy as np

from .pairing import scp_pairing
from .rates import weighted_sum_rate
from .refine import zero_crossing_refine
from .solver_extra import ExtraIndividualProblem, ExtraTotalProblem
from .solver_total import TotalProblem
from .types import ChannelRealization, IndividualBudgets, SolveReport, check_permutation


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
                      extra_direct: bool = False) -> SolveReport:
    """Best allocation for a fixed pairing under the requested scenario."""
    perm = check_permutation(pairing, real.m)
    if (total_budget is None) == (budgets is None):
        raise ValueError("exactly one of total_budget and budgets is required")

    if total_budget is not None:
        problem = (ExtraTotalProblem if extra_direct else TotalProblem)(real, total_budget)
        problem.candidate(perm)
        rate, _, alloc, diag = problem.result()
    elif extra_direct:
        rate, alloc, (mu_s, mu_r), diag = ExtraIndividualProblem(real, budgets).scan(perm)
        diag = {"mu_s": mu_s, "mu_r": mu_r, **diag}
    else:
        alloc, diag = zero_crossing_refine(real, perm, budgets.p_source, budgets.p_relay)
        rate = weighted_sum_rate(real, alloc, extra_allowed=False)
        diag = {key: diag[key] for key in ("mu_s", "mu_r", "ratio")}
    return SolveReport(pairing=perm, allocation=alloc, primal_rate=rate,
                       dual_value=np.nan, iterations=0, diagnostics=diag)
