"""The dual drivers that solve the four problems.

Each problem is relaxed the same way: one price per power budget (mu for a
shared budget, (mu_s, mu_r) for separate source and relay budgets) and one
pairing price alpha[m] per second-slot subcarrier for the one-partner-per-
subcarrier constraint.  Yu & Lui (IEEE Trans. Commun. 2006) show why the
duality gap of such nonconvex multicarrier problems shrinks as the number
of subcarriers grows.

Minimized over alpha, the dual at fixed power prices is a max-weight
assignment on the alpha-free scores (``DualProblem.assign``, a LAP solved
by ``linear_sum_assignment``; Crouse, IEEE TAES 2016).  What is left is a
convex function D of the power prices, with subgradient the budgets minus
the consumption at the assignment.  (The paper instead takes subgradient
steps on all the prices, alpha included.)  Two drivers minimize it, and
every assignment permutation they meet is a candidate:

- ``search`` drives the shared-budget problems: a bracketed 1-D search on
  D(mu) = assignment(mu) + mu P, where the water price of each candidate
  is the next mu to try whenever it lies inside the bracket;
- ``cuts`` drives the split-budget problems: Kelley's cutting planes (SIAM
  J. 1960; Cheney & Goldstein, Numer. Math. 1959) on
  D(mu_s, mu_r) = assignment + mu_s Ps + mu_r Pr, each step the exact
  minimum of the cut model over a box: constraint generation over a few
  cuts, each round a vertex enumeration of the 2-D model.

Neither draws a random number.  ``SolverConfig.max_iter_hard`` caps their
assignment evaluations.

A problem (a ``DualProblem`` subclass) supplies its budgets, the score
matrix at given prices, the consumption per budget at the chosen columns,
and its candidate evaluation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kernels import MU_FLOOR
from .pairing import scp_pairing
from .types import Allocation, ChannelRealization, SolveReport, SolverConfig

_BRACKET_TOL = 1e-12      # relative bracket width at which ``search`` stops
_SETTLE_ROUNDS = 5        # allocations per candidate while its relay use changes
_CUT_RTOL = 1e-9          # relative gap at which ``cuts`` stops
_CUT_STALL = 5            # points in a row that do not narrow the model gap, at which ``cuts`` stops


class DualProblem:
    """One problem as the driver sees it.

    Subclasses implement:

    - ``scores(prices)``: the M x M alpha-free pair scores, keeping what
      ``used`` and the candidate evaluation need at the same prices;
    - ``used(sel)``: the consumption per budget when row k takes column
      sel[k], at the prices of the last ``scores`` call;

    and the candidate pipeline of its driver:

    - ``solver_total.SharedProblem`` (a shared budget): ``candidate(perm)``
      and ``result()`` for ``search``;
    - ``solver_individual.SplitProblem`` (split budgets): ``begin()``,
      ``consider(perm, start)``, ``cut_rows()`` and ``finish()`` for
      ``cuts``.

    ``use_at(perm, prices)``, the relay use of a pairing at given prices,
    lets ``settle`` re-decide a candidate's relay use.
    """

    def __init__(self, real: ChannelRealization, budgets: tuple):
        self.real = real
        self.budgets = budgets
        self.rows = np.arange(real.m)
        self.bound = np.inf   # lowest dual bound found
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

    def assign(self, prices):
        """The dual minimized over alpha at fixed power prices is a
        max-weight assignment on the alpha-free scores.  Lowers the bound
        and returns (bound, assignment permutation)."""
        scores = self.scores(prices)
        rows, perm = linear_sum_assignment(-scores)
        bound = _dual(scores[rows, perm].sum(), prices, self.budgets)
        self.bound = min(self.bound, bound)
        return bound, perm.astype(np.int64)


def _dual(row_sum, prices, budgets):
    for price, budget in zip(prices, budgets):
        row_sum += max(price, MU_FLOOR) * budget
    return row_sum


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
                       primal_rate=0.0, dual_value=0.0, iterations=0, converged=True,
                       trace=np.zeros((0, 4)) if collect_trace else None)


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
        dual_value=problem.bound, iterations=it,
        converged=converged, trace=trace[:it].copy() if collect_trace else None,
        diagnostics=diag)


def _combinations(n, r):
    """The r-subsets of range(n) in lexicographic order, as r index rows."""
    return np.array(list(itertools.combinations(range(n), r)), dtype=np.intp).reshape(-1, r).T


def _dot(u, v):
    """u . v over the last axis, of length 2 (numpy sums a short last axis
    slowly)."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def _levels(x, planes):
    """The value of each cut at x (one point, or one per row)."""
    pts, vals, grads = planes
    return vals + _dot(x[..., None, :] - pts, grads)


def _vertex_minimum(planes, lo, hi):
    """A point of the box lo <= x <= hi where the model of a few cuts is
    lowest.  The model is convex and piecewise affine in two variables, so a
    vertex attains its minimum: a box corner, a point of a box edge where
    two cuts meet, or a point where three cuts meet.  Each is solved for
    (cuts that do not meet in one point give none) and clipped into the
    box; of those points and their next floats each way along each axis,
    the first of the lowest is returned.

    A vertex is solved for twice, in y = x - origin: first with the origin
    at the point of one of its cuts, then at the first solution.  There its
    cuts take values close to the model's, so that a cut of slope 1e12 at a
    price next to MU_FLOOR costs the second solve no precision."""
    pts, vals, grads = planes
    i, j = _combinations(vals.size, 2)
    a, b, c = _combinations(vals.size, 3)
    # cuts a and b meet on edge e, x_{e // 2} = ends[e], or cuts a, b and c
    # meet (e = -1): (g_a - g_b) . y = off_b - off_a, with off the cuts'
    # values at the origin, and y_{e // 2} = ends[e] - origin_{e // 2} or
    # (g_a - g_c) . y = off_c - off_a
    ends = np.array([lo[0], hi[0], lo[1], hi[1]])
    e = np.concatenate([np.repeat(np.arange(4), i.size), np.full(a.size, -1)])
    cuts = np.concatenate([np.tile([i, j, j], 4), [a, b, c]], axis=1)
    rows, on_edge, axis = np.arange(e.size), e >= 0, np.maximum(e, 0) // 2
    s1 = grads[cuts[0]] - grads[cuts[1]]
    s2 = np.where(on_edge[:, None], np.eye(2)[axis], grads[cuts[0]] - grads[cuts[2]])
    det = s1[:, 0] * s2[:, 1] - s1[:, 1] * s2[:, 0]
    origin = pts[cuts[0]]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            off = vals[cuts] + _dot(origin - pts[cuts], grads[cuts])
            r1 = off[1] - off[0]
            r2 = np.where(on_edge, ends[e] - origin[rows, axis], off[2] - off[0])
            origin = origin + np.column_stack([r1 * s2[:, 1] - r2 * s1[:, 1],
                                               r2 * s1[:, 0] - r1 * s2[:, 0]]) / det[:, None]
    origin[on_edge, axis[on_edge]] = ends[e[on_edge]]
    points = np.concatenate([np.array([lo, (hi[0], lo[1]), (lo[0], hi[1]), hi]), origin])
    points = np.clip(points[np.isfinite(points).all(axis=1)], lo, hi)
    # a vertex may fall between two floats, across which a steep cut moves
    # by far more than the model's values: try the next float each way too
    steps = [points]
    for k in (0, 1):
        for end in (lo[k], hi[k]):
            step = points.copy()
            step[:, k] = np.nextafter(points[:, k], end)
            steps.append(step)
    points = np.concatenate(steps)
    return points[np.argmin(_levels(points, planes).max(axis=1))]


def _model_minimum(planes, lo, hi, work):
    """Minimum of the cut model f(x) = max_i D_i + g_i . (x - x_i) over the
    box lo <= x <= hi: (f there, the point, the three cuts highest there).
    ``planes`` is (points x_i, values D_i, subgradients g_i) and ``work``
    the indices of the cuts to start from.

    Constraint generation: the model of the cuts in ``work`` is minimized
    exactly (``_vertex_minimum``), and while some cut lies above that model
    at its minimum, the highest one joins ``work``.  ``work`` grows every
    round, so the loop ends, with f equal to the working model at the
    working model's minimum: that point minimizes f too.  Three cuts fix a
    vertex of the model, so three are returned for the next call to start
    from."""
    work = list(work)
    while True:
        x = _vertex_minimum(tuple(part[work] for part in planes), lo, hi)
        level = _levels(x, planes)
        top = int(np.argmax(level))
        if level[top] <= level[work].max():
            break
        work.append(top)
    keep = np.argsort(-level[work], kind="stable")[:3]
    return level[top], x, [work[i] for i in keep]


def cuts(problem: DualProblem, cfg: SolverConfig | None = None,
         collect_trace: bool = False) -> SolveReport:
    """Minimize the assignment dual D(mu_s, mu_r) of a split-budget problem
    by Kelley's cutting planes and report the best candidate with the
    lowest D found.

    Every assignment evaluation gives D and a subgradient (Ps - used_s,
    Pr - used_r) at its prices: a cut below the convex D, which the problem
    keeps (``cut_rows``).  The problem allocates its final candidates first
    (``begin``), and the driver starts at the prices of the best of them.
    At each point it solves the assignment and allocates the assignment
    permutation as a candidate, then moves to the minimum of the cut model
    over the box that holds the minimum of D: mu_j <= D / P_j, since the
    assignment is never negative (twice the largest price tried, and at
    least 1, for a budget P_j of 0).  It stops when the bound is within
    _CUT_RTOL relative of the larger of the model minimum and the best
    rate, when the model minimum is the point just tried, when _CUT_STALL
    points in a row do not narrow the model gap (the bound less the model
    minimum: where a duality gap remains, or where the zigzag of Kelley's
    points into a kink stops gaining), or after ``cfg.max_iter_hard``
    points.  Each model minimum starts from the cuts highest at the last
    one and the cuts added since.  The problem then allocates the rest of
    its candidates (``finish``).

    ``iterations`` counts the driver's assignment evaluations and
    ``converged`` says whether a stopping rule held before the cap.  Trace
    rows are (mu_s, 0, consumption at the assignment, D).
    """
    cfg = cfg or SolverConfig()
    if not _carries_rate(problem.real):
        return _silent(problem, collect_trace)
    trace = np.zeros((cfg.max_iter_hard, 4)) if collect_trace else None
    budgets = np.array(problem.budgets)
    x = np.asarray(problem.begin(), dtype=float)
    x = np.where(np.isfinite(x), np.maximum(x, MU_FLOOR), 1.0)
    floor = -math.inf
    last = math.inf   # the model gap, bound - floor, at the last point
    active, seen = [], 0   # the cuts highest at the last model minimum; how many cuts it had
    converged = False
    stall = it = 0
    while it < cfg.max_iter_hard:
        it += 1
        bound, perm = problem.assign(tuple(x))
        if trace is not None:
            trace[it - 1] = (x[0], 0.0, sum(problem.used(perm)), bound)
        problem.consider(perm, problem.start(perm))
        bound = problem.bound
        tol = _CUT_RTOL * abs(bound)
        if bound - max(floor, problem.best[0]) <= tol:
            converged = True
            break
        stall = stall + 1 if bound - floor > last - tol else 0
        last = bound - floor
        if stall >= _CUT_STALL:
            converged = True
            break
        planes = problem.cut_rows()
        top = np.where(budgets > 0.0, bound / np.where(budgets > 0.0, budgets, 1.0),
                       np.maximum(2.0 * planes[0].max(axis=0), 1.0))
        step, nxt, active = _model_minimum(planes, np.minimum(top, MU_FLOOR), top,
                                           active + list(range(seen, planes[1].size)))
        seen = planes[1].size
        floor = max(floor, step)
        if np.array_equal(nxt, x):
            converged = True
            break
        x = nxt
    rate, perm, alloc, diag = problem.finish()
    return SolveReport(
        pairing=perm, allocation=alloc, primal_rate=rate,
        dual_value=problem.bound, iterations=it,
        converged=converged, trace=trace[:it].copy() if collect_trace else None,
        diagnostics=diag)
