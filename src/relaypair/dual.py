"""The dual driver that solves the four problems.

Each problem is relaxed the same way: one price per power budget (mu for a
shared budget, (mu_s, mu_r) for separate source and relay budgets) and one
pairing price alpha[m] per second-slot subcarrier for the one-partner-per-
subcarrier constraint.  Yu & Lui (IEEE Trans. Commun. 2006) show why the
duality gap of such nonconvex multicarrier problems shrinks as the number
of subcarriers grows.

Minimized over alpha, the dual at fixed power prices is a max-weight
assignment on the alpha-free scores (``DualProblem.assign``, a LAP solved
by ``linear_sum_assignment``; Crouse, IEEE TAES 2016).  What is left is a
convex function D of the power prices, D = assignment + sum_j mu_j P_j,
with subgradient the budgets minus the consumption at the assignment.
(The paper instead takes subgradient steps on all the prices, alpha
included.)  ``cuts`` minimizes it by Kelley's cutting planes (SIAM J. 1960;
Cheney & Goldstein, Numer. Math. 1959), each step the exact minimum of the
cut model over a box: constraint generation over a few cuts, each round a
vertex enumeration of the 2-D model.  A shared budget's model, in its one
price, is solved as a 2-D one whose second coordinate is held at 0 with a
zero subgradient.  Every assignment permutation the driver meets is a
candidate.

The driver draws no random number.  ``SolverConfig.max_iter_hard`` caps
its points.

A problem (a ``DualProblem`` subclass) supplies its budgets, the score
matrix at given prices, the consumption per budget at the chosen columns,
its final candidates and its candidate allocation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .kernels import MU_FLOOR
from .types import Allocation, ChannelRealization, SolveReport, SolverConfig

_SETTLE_ROUNDS = 5        # allocations per candidate while its relay use changes
_CUT_RTOL = 1e-9          # relative gap at which ``cuts`` stops
_CUT_STALL = 5            # points in a row that do not narrow the model gap, at which ``cuts`` stops


class DualProblem:
    """One problem as the driver sees it, and its candidate pipeline.

    Subclasses implement:

    - ``scores(prices)``: the M x M alpha-free pair scores, keeping what
      ``used`` and ``start`` need at the same prices;
    - ``used(sel)``: the consumption per budget when row k takes column
      sel[k], at the prices of the last ``scores`` call;
    - ``start(perm)``: what the allocation of a candidate pairing starts
      from, read at the prices of the last ``scores`` call;
    - ``allocate(perm, start)``: the candidate's (rate, allocation, prices,
      diagnostics);

    and set ``finals``, the pairings allocated before the first point.

    A candidate (a pairing and its start) is allocated once.  The
    assignment at the prices of its allocation bounds the dual, and its
    permutation is queued (``pending``).  Every assignment is kept as a cut
    for ``dual.cuts``: its prices, dual value and consumption, and it is
    solved once per price vector.  ``begin`` allocates the finals, each from
    ``first(perm)`` (``start`` unless a subclass says otherwise), and
    returns the best candidate's prices; ``finish`` returns (rate, pairing,
    allocation, diagnostics) of the best candidate.

    ``use_at(perm, prices)``, the relay use of a pairing at given prices,
    lets ``settle`` re-decide a candidate's relay use.
    """

    def __init__(self, real: ChannelRealization, budgets: tuple):
        self.real = real
        self.budgets = budgets
        self.rows = np.arange(real.m)
        self.bound = np.inf   # lowest dual bound found
        self.best = None      # (rate, perm, allocation, prices, diagnostics) of the best candidate
        self.seen: set[bytes] = set()
        self.pending: list[tuple] = []
        self.assigned: dict[tuple, tuple] = {}   # prices -> what ``assign`` returned there

    def keep(self, rate, *candidate) -> None:
        if self.best is None or rate > self.best[0]:
            self.best = (rate, *candidate)

    def first(self, perm):
        return self.start(perm)

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
        max-weight assignment on the alpha-free scores.  Lowers the bound,
        keeps the cut and returns (bound, assignment permutation,
        consumption, its ``start``); a price vector met before returns what
        it gave then."""
        key = tuple(map(float, prices))
        if key not in self.assigned:
            scores = self.scores(prices)
            rows, perm = linear_sum_assignment(-scores)
            perm = perm.astype(np.int64)
            bound = _dual(scores[rows, perm].sum(), prices, self.budgets)
            used = self.used(perm)
            self.bound = min(self.bound, bound)
            self.assigned[key] = (bound, perm, used, self.start(perm))
        return self.assigned[key]

    def cut_rows(self):
        """(prices, dual values, subgradients) of the cuts so far."""
        rows = np.array([(*key, bound, *used)
                         for key, (bound, _, used, _) in self.assigned.items()])
        n = len(self.budgets)
        return rows[:, :n], rows[:, n], np.array(self.budgets) - rows[:, n + 1:]

    def consider(self, perm, start):
        key = perm.tobytes() + start.tobytes()
        if key in self.seen:
            return
        self.seen.add(key)
        rate, alloc, prices, diag = self.allocate(perm, start)
        if np.isfinite(prices).all():
            _, nxt, _, nxt_start = self.assign(prices)
            self.pending.append((nxt, nxt_start))
        self.keep(rate, perm, alloc, prices, diag)

    def begin(self):
        for perm in self.finals:
            self.consider(perm, self.first(perm))
        return self.best[3]

    def finish(self):
        rate, perm, alloc, _, diag = self.best
        return rate, perm, alloc, diag


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


def _pad(a):
    """``a`` with its last axis padded by zeros to length 2: a cut model in
    one price as a 2-D one, whose second coordinate is held at 0 by the box
    and has a zero subgradient."""
    a = np.asarray(a, dtype=float)
    return np.concatenate([a, np.zeros(a.shape[:-1] + (2 - a.shape[-1],))], axis=-1)


def cuts(problem: DualProblem, cfg: SolverConfig | None = None,
         collect_trace: bool = False) -> SolveReport:
    """Minimize the assignment dual D of a problem's power prices by
    Kelley's cutting planes and report the best candidate with the lowest D
    found.

    Every assignment evaluation gives D and a subgradient (the budgets less
    the consumption at the assignment) at its prices: a cut below the
    convex D, which the problem keeps (``cut_rows``).  The problem allocates
    its final candidates first (``begin``), and the driver starts at the
    prices of the best of them, whose assignment ``begin`` has already
    solved.  At each point it takes the assignment and allocates the
    assignment permutation as a candidate, then moves to the minimum of the
    cut model over the box that holds the minimum of D: mu_j <= D / P_j,
    since the assignment is never negative (twice the largest price tried,
    and at least 1, for a budget P_j of 0).  It stops when the bound is
    within _CUT_RTOL relative of the larger of the model minimum and the
    best rate, when the model minimum is the point just tried, when
    _CUT_STALL points in a row do not narrow the model gap (the bound less
    the model minimum: where a duality gap remains, or where the zigzag of
    Kelley's points into a kink stops gaining), or after
    ``cfg.max_iter_hard`` points.  Each model minimum starts from the cuts
    highest at the last one and the cuts added since.  The problem then
    reports its best candidate (``finish``).

    ``iterations`` counts the driver's points and ``converged`` says
    whether a stopping rule held before the cap.  Trace rows are (mu or
    mu_s, mu_r or 0, consumption at the assignment, D).
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
        bound, perm, used, start = problem.assign(tuple(x))
        if trace is not None:
            trace[it - 1] = (*_pad(x), sum(used), bound)
        problem.consider(perm, start)
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
        pts, vals, grads = problem.cut_rows()
        top = np.where(budgets > 0.0, bound / np.where(budgets > 0.0, budgets, 1.0),
                       np.maximum(2.0 * pts.max(axis=0), 1.0))
        step, nxt, active = _model_minimum((_pad(pts), vals, _pad(grads)),
                                           _pad(np.minimum(top, MU_FLOOR)), _pad(top),
                                           active + list(range(seen, vals.size)))
        nxt = nxt[:x.size]
        seen = vals.size
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
