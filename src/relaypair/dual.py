"""The two dual drivers that solve the four problems.

Each problem is relaxed the same way: one price per power budget (mu for a
shared budget, (mu_s, mu_r) for separate source and relay budgets) and one
pairing price alpha[m] per second-slot subcarrier for the one-partner-per-
subcarrier constraint.  Yu & Lui (IEEE Trans. Commun. 2006) show why the
duality gap of such nonconvex multicarrier problems shrinks as the number
of subcarriers grows.

``solve`` is the paper's subgradient method, and the driver of the split-
budget problems.  At fixed prices every first-slot subcarrier picks its
best-scoring partner, which gives the dual function, and the prices take a
subgradient step of length _STEP_SCALE / sqrt(i).  ``iterate`` runs its two
phases: phase 1 stops once every price moves by less than _EPS_CONVERGE
relative to the largest one (so a price pinned near 0 settles too) on
three iterations in a row, after at least ``min_iter`` of them, or at the
hard cap.  The repair span then runs _EXTRA_ITER_FRAC more
iterations and hands each iteration's scores and column choice to the
problem, which repairs them into a feasible candidate.  ``solve`` draws the
initial prices from its seed, runs ``iterate``, lets the problem add its
own final candidates, and reports the best primal with the lowest dual
bound seen.

``search`` drives the shared-budget problems.  Minimized over alpha, the
dual at a fixed power price mu is a max-weight assignment on the alpha-free
scores (``DualProblem.assign``, a LAP solved by ``linear_sum_assignment``;
Crouse, IEEE TAES 2016), so what is left is the convex function
D(mu) = assignment(mu) + mu P of one price, with subgradient P minus the
consumption at the assignment.  ``search`` minimizes it by a bracketed 1-D
search: every assignment permutation is water-filled as a candidate, and
the candidate's water price is the next mu to try whenever it lies inside
the bracket.  It uses no random draw.  ``SolverConfig.max_iter_hard`` caps
the iterations of ``solve`` and the assignment evaluations of ``search``.

A problem (a ``DualProblem`` subclass) supplies its budgets, the score
matrix at given prices, the consumption per budget at the chosen columns,
and its candidate evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kernels import MU_FLOOR
from .pairing import scp_pairing
from .types import Allocation, ChannelRealization, SolveReport, SolverConfig

_EPS_CONVERGE = 0.01      # price step, relative to the largest price, that counts as settled
_EXTRA_ITER_FRAC = 0.10   # repair span, as a fraction of the phase-1 length
_STEP_SCALE = 0.05        # step length at iteration i: _STEP_SCALE / sqrt(i)
_DUAL_INIT_LOW = 0.0      # initial prices are uniform in [low, high]
_DUAL_INIT_HIGH = 2.0
_BRACKET_TOL = 1e-12      # relative bracket width at which ``search`` stops
_SETTLE_ROUNDS = 5        # allocations per candidate while its relay use changes


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

    ``solver_individual.SplitProblem`` (split budgets, driven by ``solve``)
    and ``solver_total.SharedProblem`` (a shared budget, driven by
    ``search`` through ``candidate(perm)`` and ``result()``) implement the
    last two.  ``use_at(perm, prices)``, the relay use of a pairing at
    given prices, lets ``settle`` re-decide a candidate's relay use.
    """

    price_names: tuple = ()

    def __init__(self, real: ChannelRealization, budgets: tuple):
        self.real = real
        self.budgets = budgets
        self.rows = np.arange(real.m)
        self.no_alpha = np.zeros(real.m)
        self.bound = np.inf   # lowest dual bound found outside the iteration
        self.best = None      # (rate, ...) of the best candidate so far

    def keep(self, rate, *candidate) -> None:
        if self.best is None or rate > self.best[0]:
            self.best = (rate, *candidate)

    def settle(self, perm, use, allocate):
        """Allocate the pairing from relay use ``use`` and re-decide relay
        use at the prices of that allocation until it settles.
        ``allocate(perm, use)`` returns (rate, allocation, prices, ...);
        returns the best."""
        best = None
        for _ in range(_SETTLE_ROUNDS):
            out = allocate(perm, use)
            if best is None or out[0] > best[0]:
                best = out
            if not np.isfinite(out[2]).all():
                break
            nxt = self.use_at(perm, out[2])
            if np.array_equal(nxt, use):
                break
            use = nxt
        return best

    def dual_at(self, prices, alpha) -> float:
        """Dual function: every row takes its best-scoring column."""
        scores = self.scores(prices, alpha)
        return _dual(scores.max(axis=1).sum(), prices, self.budgets, alpha.sum())

    def assign(self, prices):
        """The dual minimized over alpha at fixed power prices is a
        max-weight assignment on the alpha-free scores.  Lowers the bound
        and returns (bound, assignment permutation)."""
        scores = self.scores(prices, self.no_alpha)
        rows, perm = linear_sum_assignment(-scores)
        bound = _dual(scores[rows, perm].sum(), prices, self.budgets, 0.0)
        self.bound = min(self.bound, bound)
        return bound, perm.astype(np.int64)


def _dual(row_sum, prices, budgets, alpha_sum):
    for price, budget in zip(prices, budgets):
        row_sum += max(price, MU_FLOOR) * budget
    return row_sum + alpha_sum


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
        sel = scores.argmax(axis=1)
        used = problem.used(sel)
        dual = _dual(scores[rows, sel].sum(), prices, budgets, alpha.sum())
        dual_min = min(dual_min, dual)
        if trace is not None:
            trace[i - 1] = (prices[0], math.sqrt(alpha @ alpha), sum(used), dual)
        if trigger is not None:
            problem.evaluate(scores, sel, alpha)

        step = _STEP_SCALE / math.sqrt(i)
        new = [max(p - step * (b - u), 0.0) for p, b, u in zip(prices, budgets, used)]
        al_rel = _alpha_step(alpha, np.bincount(sel, minlength=m), step)
        if trigger is None:
            ok = (al_rel < _EPS_CONVERGE
                  and max(abs(n - p) for n, p in zip(new, prices))
                  / max(max(new), MU_FLOOR) < _EPS_CONVERGE)
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


def _silent(problem: DualProblem, collect_trace: bool) -> SolveReport:
    """Without a channel of positive weighted gain every allocation has
    rate 0: the zero allocation, with the exact bound 0."""
    alloc = Allocation.zeros(problem.real.m)
    return SolveReport(pairing=alloc.pairing.copy(), allocation=alloc,
                       primal_rate=0.0, dual_value=0.0, iterations=0,
                       trigger_iter=0, converged=True,
                       trace=np.zeros((0, 4)) if collect_trace else None)


def solve(problem: DualProblem, cfg: SolverConfig | None = None, seed: int = 0,
          collect_trace: bool = False) -> SolveReport:
    """Run the subgradient method on one problem and report the best primal."""
    cfg = cfg or SolverConfig()
    real = problem.real
    if not _carries_rate(real):
        return _silent(problem, collect_trace)

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


def search(problem: DualProblem, cfg: SolverConfig | None = None,
           collect_trace: bool = False) -> SolveReport:
    """Minimize the assignment dual D(mu) of a shared-budget problem and
    report the best candidate with the lowest D found.

    The search starts at the water price of the rank-matched pairing.  At
    each mu it solves the assignment, whose subgradient P - used moves one
    end of the bracket [lo, hi] around the minimum, and water-fills the
    assignment permutation.  That candidate's water price is the next mu
    while it lies strictly inside the bracket; otherwise mu doubles or
    halves until the bracket closes, then the bracket is bisected
    geometrically.  It stops when the water price equals mu (the
    candidate's rate then equals D(mu): a zero gap), when the subgradient
    is 0, when the bracket is narrower than _BRACKET_TOL relative (or
    below MU_FLOOR, where the prices are floored), or after
    ``cfg.max_iter_hard`` evaluations.

    ``iterations`` counts the assignment evaluations and ``converged`` says
    whether a stopping rule held before the cap.  Trace rows are (mu, 0,
    consumption at the assignment, D(mu)).
    """
    cfg = cfg or SolverConfig()
    if not _carries_rate(problem.real):
        return _silent(problem, collect_trace)
    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    budget = problem.budgets[0]
    price = problem.candidate(scp_pairing(problem.real))
    lo, hi = 0.0, math.inf
    mu = max(price, MU_FLOOR)
    converged = False
    it = 0
    while it < cfg.max_iter_hard:
        it += 1
        bound, perm = problem.assign((mu,))
        # the candidate may re-score at other prices: read the use first
        used = sum(problem.used(perm))
        if trace is not None:
            trace[it - 1] = (mu, 0.0, used, bound)
        price = problem.candidate(perm)
        if used == budget or price == mu:
            converged = True
            break
        if used > budget:
            lo = mu
        else:
            hi = mu
        if hi <= MU_FLOOR or hi - lo <= _BRACKET_TOL * lo:
            converged = True
            break
        if lo < price < hi:
            mu = max(price, MU_FLOOR)
        elif hi == math.inf:
            mu = 2.0 * lo
        elif lo == 0.0:
            mu = max(0.5 * hi, MU_FLOOR)
        else:
            mu = math.sqrt(lo * hi)
    rate, perm, alloc, diag = problem.result()
    return SolveReport(
        pairing=perm, allocation=alloc, primal_rate=rate,
        dual_value=problem.bound, iterations=it, trigger_iter=0,
        converged=converged, trace=trace[:it].copy() if collect_trace else None,
        diagnostics=diag)
