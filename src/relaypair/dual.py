"""The dual subgradient method that solves all four problems.

Each problem is relaxed the same way: one price per power budget (mu for a
shared budget, (mu_s, mu_r) for separate source and relay budgets) and one
pairing price alpha[m] per second-slot subcarrier for the one-partner-per-
subcarrier constraint.  At fixed prices every first-slot subcarrier picks
its best-scoring partner, which gives the dual function, and the prices
take a subgradient step of length _STEP_SCALE / sqrt(i).  Yu & Lui (IEEE
Trans. Commun. 2006) show why the duality gap of such nonconvex
multicarrier problems shrinks as the number of subcarriers grows.

``iterate`` runs the two phases of the method.  Phase 1 stops once every
price moves by less than _EPS_CONVERGE (relative) on three iterations in a
row, after at least ``min_iter`` of them, or at the hard cap.  The repair
span then runs _EXTRA_ITER_FRAC more iterations and hands each iteration's
scores and column choice to the problem, which repairs them into a
feasible candidate.  ``solve`` draws the initial prices, runs ``iterate``,
lets the problem add its own final candidates, and reports the best primal
with the lowest dual bound seen.

A problem (a ``DualProblem`` subclass) supplies its budgets, the score
matrix at given prices, the consumption per budget at the chosen columns,
optionally a pairing held fixed, and its candidate evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kernels import MU_FLOOR
from .types import Allocation, ChannelRealization, SolveReport, SolverConfig

_EPS_CONVERGE = 0.01      # relative price step that counts as settled
_EXTRA_ITER_FRAC = 0.10   # repair span, as a fraction of the phase-1 length
_STEP_SCALE = 0.05        # step length at iteration i: _STEP_SCALE / sqrt(i)
_DUAL_INIT_LOW = 0.0      # initial prices are uniform in [low, high]
_DUAL_INIT_HIGH = 2.0
_LAP_ROUNDS = 8


class DualProblem:
    """One problem as the driver sees it.

    Subclasses set ``price_names`` (one per budget) and implement:

    - ``scores(prices, alpha)``: the M x M pair scores, keeping what
      ``used`` and the candidate evaluation need at the same prices;
    - ``used(sel)``: the consumption per budget when row k takes column
      sel[k], at the prices of the last ``scores`` call;
    - ``evaluate(scores, sel, alpha)``: a candidate from one repair-span
      iteration, before the prices step;
    - ``finish(prices, alpha)``: the last candidates; returns (rate,
      pairing, allocation, diagnostics) of the best one.

    ``fixed`` is a pairing held fixed through the iteration (the pairing
    prices then stay put), or None.
    """

    price_names: tuple = ()
    fixed: np.ndarray | None = None

    def __init__(self, real: ChannelRealization, budgets: tuple):
        self.real = real
        self.budgets = budgets
        self.rows = np.arange(real.m)
        self.bound = np.inf   # lowest dual bound found outside the iteration
        self.best = None      # (rate, ...) of the best candidate so far

    def keep(self, rate, *candidate) -> None:
        if self.best is None or rate > self.best[0]:
            self.best = (rate, *candidate)

    def dual_at(self, prices, alpha) -> float:
        """Dual function: every row takes its best-scoring column."""
        scores = self.scores(prices, alpha)
        return _dual(scores.max(axis=1).sum(), prices, self.budgets, alpha.sum())

    def assign(self, prices):
        """The dual minimized over alpha at fixed power prices is a
        max-weight assignment on the alpha-free scores.  Lowers the bound
        and returns (bound, assignment permutation)."""
        scores = self.scores(prices, np.zeros(self.real.m))
        rows, perm = linear_sum_assignment(-scores)
        bound = _dual(scores[rows, perm].sum(), prices, self.budgets, 0.0)
        self.bound = min(self.bound, bound)
        return bound, perm.astype(np.int64)

    def reprice(self, price, candidate) -> None:
        """Alternate the assignment at one power price with
        ``candidate(perm)``, which evaluates the permutation and returns its
        water price, the next price to assign at.  Stops at the first
        permutation evaluated before, since equally good pairings can
        otherwise alternate, or after _LAP_ROUNDS rounds."""
        seen = set()
        for _ in range(_LAP_ROUNDS):
            _, perm = self.assign((price,))
            price = candidate(perm)
            key = perm.tobytes()
            if key in seen:
                break
            seen.add(key)


def _dual(row_sum, prices, budgets, alpha_sum):
    for price, budget in zip(prices, budgets):
        row_sum += max(price, MU_FLOOR) * budget
    return row_sum + alpha_sum


def _relative_step(new, old):
    return abs(new - old) / max(abs(new), MU_FLOOR)


def _alpha_step(alpha, counts, step):
    """Subgradient step on the pairing prices (in place); returns the step
    length relative to the new prices."""
    d = step * (1.0 - counts)
    alpha -= d
    return math.sqrt(d @ d) / max(math.sqrt(alpha @ alpha), MU_FLOOR)


def iterate(problem: DualProblem, prices, alpha: np.ndarray,
            cfg: SolverConfig, trace: np.ndarray | None = None):
    """Phase 1, then the repair span, from the given prices and alpha.

    Updates alpha in place and fills trace rows (first price, |alpha|,
    total consumption, dual value) unless trace is None.  Returns
    (trigger_iter, iterations, prices, dual_min, converged).
    """
    budgets = problem.budgets
    fixed = problem.fixed
    rows = problem.rows
    m = rows.shape[0]
    stop = cfg.max_iter_hard
    trigger = None
    dual_min = np.inf
    consec = 0
    i = 0
    while i < stop:
        i += 1
        scores = problem.scores(prices, alpha)
        sel = scores.argmax(axis=1) if fixed is None else fixed
        used = problem.used(sel)
        dual = _dual(scores[rows, sel].sum(), prices, budgets, alpha.sum())
        dual_min = min(dual_min, dual)
        if trace is not None:
            trace[i - 1] = (prices[0], math.sqrt(alpha @ alpha), sum(used), dual)
        if trigger is not None:
            problem.evaluate(scores, sel, alpha)

        step = _STEP_SCALE / math.sqrt(i)
        new = [max(p - step * (b - u), 0.0) for p, b, u in zip(prices, budgets, used)]
        al_rel = 0.0 if fixed is not None else _alpha_step(
            alpha, np.bincount(sel, minlength=m), step)
        if trigger is None:
            ok = (al_rel < _EPS_CONVERGE
                  and max(map(_relative_step, new, prices)) < _EPS_CONVERGE)
            consec = consec + 1 if ok else 0
            if consec >= 3 and i >= cfg.min_iter:
                trigger = i
                span = max(math.floor((1.0 + _EXTRA_ITER_FRAC) * i), i + 1)
                stop = min(span, cfg.max_iter_hard)
        prices = new
    if trigger is None:
        return i, i, prices, dual_min, False
    return trigger, i, prices, dual_min, True


def _carries_rate(real: ChannelRealization) -> bool:
    """Whether some channel has a positive weighted gain: a subcarrier with
    w > 0 that reaches the destination directly (a_sd > 0) or through the
    relay (a_sr > 0 and some a_rd > 0)."""
    reach = np.maximum(real.a_sd, real.a_sr if real.a_rd.any() else 0.0)
    return bool((real.w * reach).any())


def solve(problem: DualProblem, cfg: SolverConfig | None = None, seed: int = 0,
          collect_trace: bool = False) -> SolveReport:
    """Run the subgradient method on one problem and report the best primal.

    Without a channel of positive weighted gain every allocation has rate
    0, so the zero allocation is returned with the exact bound 0.
    """
    cfg = cfg or SolverConfig()
    real = problem.real
    if not _carries_rate(real):
        alloc = Allocation.zeros(real.m)
        if problem.fixed is not None:
            alloc.pairing = problem.fixed.copy()
        return SolveReport(pairing=alloc.pairing.copy(), allocation=alloc,
                           primal_rate=0.0, dual_value=0.0, iterations=0,
                           trigger_iter=0, converged=True,
                           trace=np.zeros((0, 4)) if collect_trace else None)

    rng = np.random.default_rng(seed)
    prices = [float(rng.uniform(_DUAL_INIT_LOW, _DUAL_INIT_HIGH))
              for _ in problem.budgets]
    alpha = rng.uniform(_DUAL_INIT_LOW, _DUAL_INIT_HIGH, real.m)
    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    trigger, it, prices, dual_min, converged = iterate(problem, prices, alpha,
                                                       cfg, trace)
    rate, perm, alloc, diag = problem.finish(prices, alpha)
    return SolveReport(
        pairing=perm, allocation=alloc, primal_rate=rate,
        dual_value=min(dual_min, problem.bound), iterations=it,
        trigger_iter=trigger, converged=converged,
        trace=trace[:it].copy() if collect_trace else None,
        diagnostics={**dict(zip(problem.price_names, prices)),
                     "alpha": alpha.copy(), **diag})
