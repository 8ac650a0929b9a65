"""The dual driver: input without a channel that can carry rate, the
cutting planes of the shared-budget problems at a duality-gap kink and
against the rates the subgradient method reached, those of the
split-budget problems on gains spanning many decades, their cut-model minimum against
exact vertex enumeration and below the bound, generated instances of all four
problems against the brute-force optimum (the reference value with
extra-direct reuse under split budgets) and of the split-budget solvers
against the baselines and each other, and invariants of all four solvers
within the reported gaps."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import relaypair.dual as dual
from relaypair import (BaselineKind, ChannelRealization, IndividualBudgets, RicianConfig,
                       WeightRule, assert_feasible, baseline_pairing, evaluate_baseline,
                       exhaustive_extra_total, exhaustive_individual, exhaustive_total,
                       reference_extra_individual, sample_realization,
                       solve_extra_individual, solve_extra_total, solve_individual,
                       solve_total, validate_allocation)
from relaypair.experiments import solve_proposed
from relaypair.kernels import MU_FLOOR
from relaypair.solver_extra import ExtraTotalProblem
from relaypair.solver_total import TotalProblem
from relaypair.types import SolverConfig

from conftest import manual_real, random_real

SPLIT = IndividualBudgets(4.0, 1.0)
CALLS_WHEN_ALTERNATING = 40
CALLS_AT_THE_KINK = 12


@pytest.mark.parametrize("solver, budget, extra", [
    (solve_total, 5.0, False), (solve_extra_total, 5.0, True),
    (solve_individual, SPLIT, False), (solve_extra_individual, SPLIT, True),
], ids=["total", "extra_total", "individual", "extra_individual"])
def test_zero_weighted_gain_gives_zero_allocation(solver, budget, extra):
    limits = ({"budgets": budget} if isinstance(budget, IndividualBudgets)
              else {"total_budget": budget})
    silent = [
        manual_real([1.0] * 4, [2.0] * 4, [2.0] * 4, w=np.zeros(4)),
        # positive weights, but no direct link and no relay-to-destination link
        manual_real([0.0] * 4, [2.0] * 4, [0.0] * 4),
    ]
    for real in silent:
        rep = solver(real, budget, collect_trace=True)
        assert rep.primal_rate == 0.0
        assert rep.dual_value == 0.0
        assert rep.converged
        assert rep.iterations == 0
        assert rep.trace.shape == (0, 4)
        assert rep.allocation.total_power() == 0.0
        assert_feasible(real, rep.allocation, extra_allowed=extra, **limits)


def test_zero_weighted_gain_keeps_a_fixed_pairing():
    real = manual_real([1.0] * 3, [2.0] * 3, [2.0] * 3, w=np.zeros(3))
    perm = np.array([2, 0, 1])
    rep = evaluate_baseline(real, perm, budgets=SPLIT, extra_direct=True)
    assert np.array_equal(rep.pairing, perm)
    assert np.array_equal(rep.allocation.pairing, perm)
    assert rep.primal_rate == 0.0


# (a_sd, a_sr, a_rd, w) with subnormal entries, and the same with those at 0
SUBNORMAL = {
    "gain": (([0.0, 0.0], [0.0, 0.693], [0.0, 2.2e-311], [1.0, 1.0]),
             ([0.0, 0.0], [0.0, 0.693], [0.0, 0.0], [1.0, 1.0])),
    "gain_and_weight": (([0.3, 0.0], [0.5, 0.693], [0.7, 2.2e-311], [5e-324, 1.0]),
                        ([0.3, 0.0], [0.5, 0.693], [0.7, 0.0], [0.0, 1.0])),
}


@pytest.mark.parametrize("case", SUBNORMAL.values(), ids=SUBNORMAL.keys())
def test_subnormal_input_is_flushed_to_zero(case):
    # 1 / 2.2e-311 overflows; the realization holds 0 instead, so the solvers
    # and baselines run warning-free and the solvers give the rates of the twin
    real, twin = (manual_real(*args) for args in case)
    for name in ("a_sd", "a_sr", "a_rd", "w"):
        assert np.array_equal(getattr(real, name), getattr(twin, name))
    for extra in (False, True):
        for limits in ({"total_budget": 5.0}, {"budgets": SPLIT}):
            reports = [solve_proposed(real, extra_direct=extra, **limits)]
            reports += [evaluate_baseline(real, perm, extra_direct=extra, **limits)
                        for perm in ([0, 1], [1, 0])]
            for rep in reports:
                assert np.isfinite(rep.primal_rate)
                assert_feasible(real, rep.allocation, extra_allowed=extra, **limits)
            assert reports[0].primal_rate == solve_proposed(
                twin, extra_direct=extra, **limits).primal_rate


def test_cuts_converge_when_pairings_alternate(monkeypatch):
    # two assignments returned in turn, whatever the price (so the bound is
    # not a dual bound): the driver still stops within a bounded number of
    # assignments, with a feasible allocation
    turns = [np.array([1, 0, 3, 2]), np.array([0, 1, 2, 3])]
    calls = []

    def spy(cost):
        calls.append(cost)
        return np.arange(cost.shape[0]), turns[(len(calls) - 1) % 2]

    monkeypatch.setattr(dual, "linear_sum_assignment", spy)
    real = random_real(4, seed=5)
    rep = solve_total(real, 5.0)
    assert len(calls) <= CALLS_WHEN_ALTERNATING
    assert 1 <= rep.iterations <= len(calls)
    assert rep.converged
    assert_feasible(real, rep.allocation, total_budget=5.0)


def test_a_duality_gap_kink_takes_few_assignments(monkeypatch):
    # D(mu) has its minimum at a kink between two pairings, with a duality
    # gap of 8.9e-5 relative: a bisection of the price down to 1e-12 spent
    # 39 assignments here, though the bound stopped moving after about 5
    calls = []

    def spy(cost):
        calls.append(cost)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(dual, "linear_sum_assignment", spy)
    cfg = RicianConfig(k_factor=1.0, mean_sq_sr=5.0, mean_sq_sd=1.0, mean_sq_rd=1.0,
                       noise_var=1.0, m=8, weight_rule=WeightRule.ALL_ONE)
    real = sample_realization(cfg, 68112)
    rep = solve_total(real, 5.0)
    assert len(calls) <= CALLS_AT_THE_KINK
    assert rep.primal_rate == pytest.approx(2.0244195134894936, rel=1e-12)
    assert rep.primal_rate <= rep.dual_value <= 2.0245994338237736 * (1.0 + 1e-9)
    assert_feasible(real, rep.allocation, total_budget=5.0)


def test_silent_pattern_is_a_zero_rate_candidate():
    # at a price where the relay gets no power, relay use ties with the dead
    # direct link; that pattern must count as rate 0, not as an error
    real = manual_real([0.0], [2.0], [2.0])
    for budget in (1e-3, 5.0):
        for solver in (solve_total, solve_extra_total):
            rep = solver(real, budget)
            # one relay channel of equivalent gain 1
            assert rep.primal_rate == pytest.approx(0.5 * np.log1p(budget), rel=1e-12)
            assert rep.dual_value >= rep.primal_rate - 1e-9
            assert_feasible(real, rep.allocation, total_budget=budget,
                            extra_allowed=solver is solve_extra_total)


def test_gains_spanning_decades_take_a_few_dozen_cuts():
    # the subgradient method ran 8320 iterations on this instance from seed 0
    # (phase 1 stopped at 7564); the instance has a true duality gap of
    # 3.13e-7 relative without reuse, and none with it
    real = ChannelRealization(m=2, a_sd=[0.0, 1.19e-6], a_sr=[1870.0, 5.49e5],
                              a_rd=[11.98, 6.86e-3], w=[0.793, 1.367])
    budgets = IndividualBudgets(8.41, 0.139)
    ind = solve_individual(real, budgets)
    assert ind.iterations <= 40
    assert ind.primal_rate == pytest.approx(exhaustive_individual(real, budgets)[0], rel=1e-12)
    assert 0.0 <= ind.gap <= 3.13e-7 * ind.primal_rate
    extra = solve_extra_individual(real, budgets, warm_pairing=ind.pairing)
    assert extra.iterations <= 40
    ref = reference_extra_individual(real, budgets)[0]
    assert extra.primal_rate == pytest.approx(ref, rel=1e-12)
    assert 0.0 <= extra.gap <= 1e-9 * extra.primal_rate


def _det(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _exact_model_minimum(planes, lo, hi):
    """The minimum of the cut model max_k D_k + g_k . (x - x_k) over the box
    lo <= x <= hi in exact rational arithmetic, with the cuts active at a
    minimizer x*: the LP in (x, z) attains it where three of its
    constraints (a cut z = ..., or a box side x_j = lo_j or hi_j) hold."""
    cuts = [(Fraction(d), [Fraction(v) for v in g], [Fraction(v) for v in p])
            for p, d, g in zip(*(part.tolist() for part in planes))]
    box = [(Fraction(lo_j), Fraction(hi_j)) for lo_j, hi_j in zip(lo.tolist(), hi.tolist())]
    rows = [((-g[0], -g[1], 1), d - g[0] * p[0] - g[1] * p[1]) for d, g, p in cuts]
    rows += [((j == 0, j == 1, 0), end) for j in (0, 1) for end in box[j]]
    best = None
    for trio in itertools.combinations(rows, 3):
        lhs = [row for row, _ in trio]
        det = _det(lhs)
        if det == 0:
            continue
        x = [_det([[rhs if k == j else v for k, v in enumerate(row)] for row, rhs in trio]) / det
             for j in (0, 1)]
        if all(low <= x_j <= high for x_j, (low, high) in zip(x, box)):
            levels = [d + g[0] * (x[0] - p[0]) + g[1] * (x[1] - p[1]) for d, g, p in cuts]
            if best is None or max(levels) < best[0]:
                best = max(levels), x, [k for k, v in enumerate(levels) if v == max(levels)]
    return best


# a box side: at or below MU_FLOOR (then lo = hi there), or 0.1 to 1000
_side = st.one_of(st.just(MU_FLOOR), st.just(0.5 * MU_FLOOR),
                  st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e))
_slope = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                   st.floats(-3.0, 3.0).map(lambda e: -(10.0 ** e)))
# a budget of 0: the subgradient is minus the use, up to 1e20
_zero_budget_slope = st.one_of(st.just(0.0), st.floats(10.0, 20.0).map(lambda e: -(10.0 ** e)))


@st.composite
def _cut_models(draw):
    """Cuts (points x_k in the box, values D_k, subgradients g_k) and the
    box, with duplicate and parallel cuts, zero subgradients, zero budgets,
    box sides at MU_FLOOR and cuts at prices next to MU_FLOOR, where the
    use, and so the slope, runs to about 1 / price."""
    hi = np.array([draw(_side), draw(_side)])
    lo = np.minimum(hi, MU_FLOOR)

    def coordinate(j):
        kind = draw(st.sampled_from(("any", "floor", "zero budget")))
        if kind == "floor":
            x = float(np.clip(10.0 ** draw(st.floats(-12.0, -6.0)), lo[j], hi[j]))
            return x, -draw(st.floats(0.1, 10.0)) / x
        x = lo[j] + (hi[j] - lo[j]) * draw(st.floats(0.0, 1.0))
        return x, draw(_zero_budget_slope if kind == "zero budget" else _slope)

    n = draw(st.integers(1, 6))
    pts, grads = np.array([[coordinate(j) for j in (0, 1)] for _ in range(n)]).transpose(2, 0, 1)
    vals = np.array(draw(st.lists(st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
                                  min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, n - 1))
        pts, grads = np.vstack([pts, pts[k]]), np.vstack([grads, grads[k]])
        vals = np.append(vals, vals[k] + draw(st.sampled_from((0.0, 1.0, -0.05))))
    return (pts, vals, grads), lo, hi


def _line_case(pts, vals, grads, hi):
    """Cuts on the box MU_FLOOR <= x <= hi."""
    return ((np.array(pts), np.array(vals), np.array(grads)),
            np.array([MU_FLOOR, MU_FLOOR]), np.array(hi))


@settings(max_examples=200, deadline=None)
@given(_cut_models(), st.lists(st.integers(0, 7), min_size=1, max_size=3))
# the vertex of the first and third cuts falls between two floats, and the
# third cut moves by 5.5 from one to the next
@example(_line_case([(MU_FLOOR, MU_FLOOR), (1.0, MU_FLOOR), (0.25, MU_FLOOR)],
                    [1.0, 1.0, 3.16227766], [(1.0, 0.0), (-1.0, 0.0), (-1e17, 0.0)],
                    [1.0, MU_FLOOR]), [0])
# the first cut's point lies far from the vertex, which the second cut of
# slope -1e6 fixes to within 1e-6
@example(_line_case([(MU_FLOOR, 1.0), (MU_FLOOR, 1e-6)], [1.0, 1.0],
                    [(-1e12, 1.0), (0.0, -1e6)], [MU_FLOOR, 1.0]), [0])
def test_model_minimum_matches_exact_vertex_enumeration(case, picks):
    # from any working set of one to three cuts.  Rounding the minimizer x*
    # to floats and evaluating an active cut k there err by about the unit
    # roundoff times |D_k| + |g_k| . (|x* - x_k| + |x*|), so the value is
    # compared relative to the larger of that and the minimum
    planes, lo, hi = case
    work = list(dict.fromkeys(k % planes[1].size for k in picks))
    value, x, active = dual._model_minimum(planes, lo, hi, work)
    assert np.all(lo <= x) and np.all(x <= hi)
    assert value == dual._levels(x, planes).max()
    assert len(active) <= 3
    exact, at, cuts = _exact_model_minimum(planes, lo, hi)
    at = np.array(at, dtype=float)
    pts, vals, grads = planes
    terms = [abs(vals[k]) + np.abs(grads[k]) @ (np.abs(at - pts[k]) + np.abs(at)) for k in cuts]
    size = max(abs(float(exact)), *terms)
    assert abs(value - float(exact)) <= 1e-12 * size


def test_model_minimum_stays_below_the_bound(monkeypatch):
    # a linear program solver once put this model's minimum at 6.5862, above
    # the lowest dual value found (6.5386), and the driver stopped there as
    # converged with the dual 6.538486686060889 and the rate 6.538483392987569
    real = random_real(32, seed=9025, sr=5.0, sd=1.0, rd=1.0,
                       weight_rule=WeightRule.LINEAR_RAMP)
    warm = solve_individual(real, SPLIT).pairing
    floors = []
    model_minimum = dual._model_minimum

    def spy(planes, *args):
        step = model_minimum(planes, *args)
        floors.append((step[0], planes[1].min()))
        return step

    monkeypatch.setattr(dual, "_model_minimum", spy)
    rep = solve_extra_individual(real, SPLIT, warm_pairing=warm)
    assert floors and all(floor <= bound for floor, bound in floors)
    assert rep.primal_rate >= 6.538483392987569 * (1.0 - 1e-12)
    assert rep.dual_value <= 6.538486686060889 * (1.0 + 1e-12)
    assert rep.dual_value >= rep.primal_rate - 1e-9 * max(1.0, rep.primal_rate)


PROFILES = {"3/1/3": dict(sr=3.0, sd=1.0, rd=3.0),
            "5/1/1": dict(sr=5.0, sd=1.0, rd=1.0),
            "1/1/5": dict(sr=1.0, sd=1.0, rd=5.0)}


# primal rates of the paper's subgradient method (random initial prices from
# seed t, then its repair span and final candidates), recorded before it was
# removed: SUBGRADIENT_RATES[problem][profile][m][t]
SUBGRADIENT_RATES = {
    "TotalProblem": {
        "3/1/3": {8: (2.917412842426713, 3.327444755292448, 3.260660603662764),
                  16: (4.330198028923889, 3.5649172359959187, 4.785280849875648)},
        "5/1/1": {8: (2.4549686063093152, 2.783880373800755, 2.8845678889851554),
                  16: (3.534434305767321, 2.867682032944655, 3.4842824166329294)},
        "1/1/5": {8: (2.612023779558365, 2.5116961326824416, 2.6200594942589723),
                  16: (3.6163871151845415, 2.473026525696559, 3.5561488374634758)},
    },
    "ExtraTotalProblem": {
        "3/1/3": {8: (3.290216203296152, 3.563047186000579, 3.694030348146043),
                  16: (4.673128453897416, 3.659679774242393, 4.951006656484913)},
        "5/1/1": {8: (2.9346237741065053, 3.1195143757964967, 3.410003869356573),
                  16: (4.0852000091466, 3.083374651336527, 3.847790051662396)},
        "1/1/5": {8: (3.019597256450062, 3.083146406428028, 3.220260063053784),
                  16: (4.163185890891468, 2.851995068176451, 3.930493719723369)},
    },
}


@pytest.mark.parametrize("problem, solver", [(TotalProblem, solve_total),
                                             (ExtraTotalProblem, solve_extra_total)],
                         ids=["TotalProblem", "ExtraTotalProblem"])
def test_search_never_loses_to_the_subgradient_method(problem, solver):
    for name, stats in PROFILES.items():
        for m in (8, 16):
            for t in range(3):
                real = random_real(m, seed=4000 + 10 * m + t, **stats)
                found = solver(real, 5.0)
                iterated = SUBGRADIENT_RATES[problem.__name__][name][m][t]
                assert found.converged
                assert found.primal_rate >= iterated * (1.0 - 1e-12), (name, m, t)
                assert found.dual_value >= found.primal_rate - 1e-9


_gain = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
_budget = st.one_of(st.just(0.0), st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))


def _share(m, tenths):
    """m flags, each set with probability tenths / 10."""
    return st.lists(st.integers(0, 9).map(lambda d: d < tenths), min_size=m, max_size=m)


@st.composite
def _realizations(draw, max_m):
    m = draw(st.integers(1, max_m))
    vec = st.lists(_gain, min_size=m, max_size=m)
    a_sd = np.array(draw(vec))
    a_sd[np.array(draw(_share(m, 3)))] = 0.0
    a_sr = np.array(draw(vec))
    a_rd = a_sr.copy() if draw(st.booleans()) else np.array(draw(vec))
    w = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m)))
    w[np.array(draw(_share(m, 1)))] = 0.0
    return ChannelRealization(m=m, a_sd=a_sd, a_sr=a_sr, a_rd=a_rd, w=w)


def _check(real, rep, cfg, optimum, extra, **limits):
    assert validate_allocation(real, rep.allocation, extra_allowed=extra, **limits) == []
    assert rep.dual_value >= optimum - 1e-9 * max(1.0, optimum)
    assert rep.iterations <= cfg.max_iter_hard


def _check_shared(real, budget, solver, extra, optimum):
    cfg = SolverConfig()
    _check(real, solver(real, budget, cfg=cfg), cfg, optimum, extra, total_budget=budget)


@settings(max_examples=300, deadline=None)
@given(_realizations(6), _budget)
def test_solve_total_on_generated_input(real, budget):
    _check_shared(real, budget, solve_total, False, exhaustive_total(real, budget)[0])


# the extra-direct oracle water-fills up to 6! * 2^6 candidates per example
@settings(max_examples=40, deadline=None)
@given(_realizations(6), _budget)
def test_solve_extra_total_on_generated_input(real, budget):
    _check_shared(real, budget, solve_extra_total, True,
                  exhaustive_extra_total(real, budget)[0])


@settings(max_examples=100, deadline=None)
@given(_realizations(4), _budget, _budget)
def test_solve_individual_on_generated_input(real, p_source, p_relay):
    budgets = IndividualBudgets(p_source, p_relay)
    cfg = SolverConfig()
    _check(real, solve_individual(real, budgets, cfg=cfg), cfg,
           exhaustive_individual(real, budgets)[0], False, budgets=budgets)


# the reference allocates up to 4! * 2^4 candidates per example
@settings(max_examples=50, deadline=None)
@given(_realizations(4), _budget, _budget)
def test_solve_extra_individual_on_generated_input(real, p_source, p_relay):
    # the reference rate is that of a feasible allocation, so the bound
    # must reach it
    budgets = IndividualBudgets(p_source, p_relay)
    cfg = SolverConfig()
    warm = solve_individual(real, budgets, cfg=cfg).pairing
    _check(real, solve_extra_individual(real, budgets, cfg=cfg, warm_pairing=warm), cfg,
           reference_extra_individual(real, budgets)[0], True, budgets=budgets)


@settings(max_examples=100, deadline=None)
@given(_realizations(4), _budget, _budget)
def test_split_budget_solvers_never_lose_to_a_baseline_or_the_no_reuse_solver(
        real, p_source, p_relay):
    # every baseline pairing is a candidate the solver could allocate, and
    # the warm start's pairing is one of the reuse solver's candidates
    budgets = IndividualBudgets(p_source, p_relay)
    ind = solve_individual(real, budgets)
    rate = ind.primal_rate
    for kind in BaselineKind:
        base = evaluate_baseline(real, baseline_pairing(real, kind), budgets=budgets).primal_rate
        assert rate >= base - 1e-9 * max(1.0, base), kind
    extra = solve_extra_individual(real, budgets, warm_pairing=ind.pairing).primal_rate
    assert extra >= rate - 1e-9 * max(1.0, rate)


@settings(max_examples=40, deadline=None)
@given(_realizations(4), _budget, _budget, st.data())
def test_extra_direct_baseline_on_generated_input(real, p_source, p_relay, data):
    # with reuse a fixed pairing gets at least its no-reuse allocation and at
    # most the dual bound over all pairings
    budgets = IndividualBudgets(p_source, p_relay)
    perm = np.array(data.draw(st.permutations(range(real.m))))
    rep = evaluate_baseline(real, perm, budgets=budgets, extra_direct=True)
    assert validate_allocation(real, rep.allocation, budgets=budgets, extra_allowed=True) == []
    plain = evaluate_baseline(real, perm, budgets=budgets).primal_rate
    assert rep.primal_rate >= plain - 1e-9 * max(1.0, plain)
    warm = solve_individual(real, budgets).pairing
    bound = solve_extra_individual(real, budgets, warm_pairing=warm).dual_value
    assert rep.primal_rate <= bound + 1e-9 * max(1.0, bound)


# -- invariants within the reported gaps --------------------------------------
#
# Weak duality bounds each rate by the optimum within the gap, so a change of
# labels or units, which keeps the optimum, moves the rate by at most the
# larger gap, and larger budgets, which cannot lower the optimum, lower the
# rate by at most the new gap.

# an exponential draw, kept to gains of at least 1e-12 like ``_gain``
_exp = st.floats(1e-12, 0.999).map(lambda u: -math.log1p(-u))


@st.composite
def _invariant_cases(draw, max_m, common):
    """A realization with exponential gains of mean 1, 3 or 5 per link, or
    gains 10^U(-6, 6) with 20% dead direct links; a relabeling of the first
    slot (a_sd, a_sr, w) and one of the second slot (a_rd), common to both
    slots when ``common``; and a unit change c."""
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        vec = st.lists(_exp, min_size=m, max_size=m)
        a_sd, a_sr, a_rd = (draw(st.sampled_from((1.0, 3.0, 5.0))) * np.array(draw(vec))
                            for _ in range(3))
    else:
        vec = st.lists(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e), min_size=m, max_size=m)
        a_sd, a_sr, a_rd = (np.array(draw(vec)) for _ in range(3))
        a_sd[np.array(draw(_share(m, 2)))] = 0.0
    w = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m)))
    real = ChannelRealization(m=m, a_sd=a_sd, a_sr=a_sr, a_rd=a_rd, w=w)
    first = np.array(draw(st.permutations(range(m))))
    second = first if common else np.array(draw(st.permutations(range(m))))
    return real, first, second, 10.0 ** draw(st.floats(-3.0, 3.0))


def _check_invariants(case, limits):
    """``limits(k)`` gives solve_proposed's constraint keywords with every
    budget times k."""
    real, first, second, c = case

    def run(real, limits):
        rep = solve_proposed(real, **limits)
        return rep.primal_rate, rep.dual_value - rep.primal_rate

    rate, gap = run(real, limits(1.0))
    tol = 1e-9 * max(1.0, rate)
    relabeled = ChannelRealization(m=real.m, a_sd=real.a_sd[first], a_sr=real.a_sr[first],
                                   a_rd=real.a_rd[second], w=real.w[first])
    other, other_gap = run(relabeled, limits(1.0))
    assert abs(other - rate) <= max(gap, other_gap) + tol, "relabeling"
    rescaled = ChannelRealization(m=real.m, a_sd=c * real.a_sd, a_sr=c * real.a_sr,
                                  a_rd=c * real.a_rd, w=real.w)
    other, other_gap = run(rescaled, limits(1.0 / c))
    assert abs(other - rate) <= max(gap, other_gap) + tol, "unit change"
    other, other_gap = run(real, limits(1.5))
    assert other >= rate - other_gap - tol, "larger budgets"


_shared_budget = st.floats(-1.0, 1.5).map(lambda e: 10.0 ** e)
_split_budget = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)


# the second-slot message of a direct pair uses the a_sd and w of its
# second-slot subcarrier, so with reuse only a common relabeling is a symmetry
@pytest.mark.parametrize("extra", [False, True], ids=["total", "extra_total"])
@settings(max_examples=200, deadline=None)
@given(data=st.data(), budget=_shared_budget)
def test_shared_budget_invariants(extra, data, budget):
    case = data.draw(_invariant_cases(8, common=extra))
    _check_invariants(case, lambda k: dict(total_budget=k * budget, extra_direct=extra))


@pytest.mark.parametrize("extra", [False, True], ids=["individual", "extra_individual"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), p_source=_split_budget, p_relay=_split_budget)
def test_split_budget_invariants(extra, data, p_source, p_relay):
    case = data.draw(_invariant_cases(6, common=extra))
    _check_invariants(case, lambda k: dict(budgets=IndividualBudgets(k * p_source, k * p_relay),
                                           extra_direct=extra))
