"""The two dual drivers: input without a channel that can carry rate, the
assignment-dual search of the shared-budget problems against the
subgradient method, generated instances of all four problems against the
brute-force optimum (the reference value with extra-direct reuse under
split budgets), and invariants of all four solvers within the reported
gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaypair.dual as dual
from relaypair import (ChannelRealization, IndividualBudgets, assert_feasible,
                       evaluate_baseline, exhaustive_extra_total,
                       exhaustive_individual, exhaustive_total,
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
        assert (rep.iterations, rep.trigger_iter) == (0, 0)
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


PROFILES = {"3/1/3": dict(sr=3.0, sd=1.0, rd=3.0),
            "5/1/1": dict(sr=5.0, sd=1.0, rd=1.0),
            "1/1/5": dict(sr=1.0, sd=1.0, rd=5.0)}


@pytest.mark.parametrize("problem", [TotalProblem, ExtraTotalProblem])
def test_search_never_loses_to_the_subgradient_method(problem):
    for name, stats in PROFILES.items():
        for m in (8, 16):
            for t in range(3):
                real = random_real(m, seed=4000 + 10 * m + t, **stats)
                found = dual.search(problem(real, 5.0))
                iterated = dual.solve(problem(real, 5.0), seed=t)
                assert found.converged
                assert found.primal_rate >= iterated.primal_rate * (1.0 - 1e-12), (name, m, t)
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
