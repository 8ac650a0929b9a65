"""Checks of the program's outputs against the reference computations.

Every check returns a list of failure messages; an empty list means the
output passed.  Tolerances are 1e-9, relative to the larger of 1 and the
reference value.
"""

from __future__ import annotations

from . import reference
from .reference import TOL


def _slack(x: float) -> float:
    return TOL * max(1.0, abs(x))


def check_solve(inst, report, limits: dict, *, extra: bool, direct_rate: float,
                upper_bound: float) -> list[str]:
    """One solver report: feasibility, rate, weak duality, direct-only
    floor and the benchmark's own dual bound.  ``limits`` holds ``total``
    or ``p_source`` and ``p_relay``."""
    bad = reference.feasibility_problems(inst, report.allocation, extra=extra, **limits)
    if bad:
        return bad
    rate = report.primal_rate
    own = reference.sum_rate(inst, report.allocation)
    if not abs(own - rate) <= _slack(own):
        bad.append(f"primal_rate {rate!r} differs from the recomputed rate {own!r}")
    if not report.dual_value >= rate - _slack(rate):
        bad.append(f"dual_value {report.dual_value!r} is below primal_rate {rate!r}")
    if not rate >= direct_rate - _slack(direct_rate):
        bad.append(f"primal_rate {rate!r} is below the direct-only rate {direct_rate!r}")
    if not rate <= upper_bound + _slack(upper_bound):
        bad.append(f"primal_rate {rate!r} exceeds the benchmark's dual bound {upper_bound!r}")
    return bad


def check_trial(rates: dict, *, split: bool, brute: float,
                reference_extra: float | None = None,
                direct_rate: float, upper_bound: float) -> list[str]:
    """One Monte-Carlo trial, given each scheme's rate.

    ``brute`` is the benchmark's brute-force optimum under one shared budget
    (the scenario's budget, or Ps + Pr for split budgets).  With a shared
    budget the Oracle must equal it and the dual bound must reach it; with
    split budgets no rate may exceed it.  ``reference_extra`` is the
    program's reference value for split budgets with extra-direct reuse,
    which the dual bound must reach.
    """
    bad = []
    schemes = ("Proposed", "ScpWeighted", "ScpUnweighted", "Fixed")
    if split:
        schemes += ("Oracle",)
    elif not abs(rates["Oracle"] - brute) <= _slack(brute):
        bad.append(f"Oracle {rates['Oracle']!r} differs from the brute force {brute!r}")
    for name in schemes:
        if not rates[name] <= brute + _slack(brute):
            bad.append(f"{name} rate {rates[name]!r} exceeds the brute-force optimum {brute!r}")
    dual = rates["DualBound"]
    if not split and not dual >= brute - _slack(brute):
        bad.append(f"DualBound {dual!r} is below the brute-force optimum {brute!r}")
    if reference_extra is not None and not dual >= reference_extra - _slack(reference_extra):
        bad.append(f"DualBound {dual!r} is below the reference value {reference_extra!r}")
    proposed = rates["Proposed"]
    if not dual >= proposed - _slack(proposed):
        bad.append(f"DualBound {dual!r} is below the Proposed rate {proposed!r}")
    if not proposed >= direct_rate - _slack(direct_rate):
        bad.append(f"Proposed rate {proposed!r} is below the direct-only rate {direct_rate!r}")
    if not proposed <= upper_bound + _slack(upper_bound):
        bad.append(f"Proposed rate {proposed!r} exceeds the benchmark's dual bound {upper_bound!r}")
    return bad
