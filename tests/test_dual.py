"""The dual drivers: input without a channel that can carry rate, the
assignment-dual search of the shared-budget problems against the rates the
subgradient method reached, the cutting planes of the split-budget
problems on gains spanning many decades, generated instances of all four
problems against the brute-force optimum (the reference value with
extra-direct reuse under split budgets) and of the split-budget solvers
against the baselines and each other, and invariants of all four solvers
within the reported gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaypair.dual as dual
from relaypair import (BaselineKind, ChannelRealization, IndividualBudgets,
                       assert_feasible, baseline_pairing, evaluate_baseline,
                       exhaustive_extra_total, exhaustive_individual, exhaustive_total,
                       reference_extra_individual, solve_extra_individual,
                       solve_extra_total, solve_individual, solve_total,
                       validate_allocation)
from relaypair.experiments import solve_proposed
from relaypair.solver_extra import ExtraTotalProblem
from relaypair.solver_total import TotalProblem
from relaypair.types import SolverConfig

from conftest import manual_real, random_real

SPLIT = IndividualBudgets(4.0, 1.0)
CALLS_WHEN_ALTERNATING = 40


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


def test_search_bisects_when_pairings_alternate(monkeypatch):
    # two assignments returned in turn, whatever the price: each one's water
    # price is already an end of the bracket after it has been tried once,
    # so the search bisects the bracket until it is 1e-12 wide
    turns = [np.array([1, 0, 3, 2]), np.array([0, 1, 2, 3])]
    calls = []

    def spy(cost):
        calls.append(cost)
        return np.arange(cost.shape[0]), turns[(len(calls) - 1) % 2]

    monkeypatch.setattr(dual, "linear_sum_assignment", spy)
    real = random_real(4, seed=5)
    rep = solve_total(real, 5.0)
    assert len(calls) == rep.iterations == CALLS_WHEN_ALTERNATING
    assert rep.converged
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


@pytest.mark.parametrize("problem", [TotalProblem, ExtraTotalProblem])
def test_search_never_loses_to_the_subgradient_method(problem):
    for name, stats in PROFILES.items():
        for m in (8, 16):
            for t in range(3):
                real = random_real(m, seed=4000 + 10 * m + t, **stats)
                found = dual.search(problem(real, 5.0))
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
