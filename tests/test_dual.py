"""The subgradient driver shared by the four solvers: input without a
channel that can carry rate, and the assignment re-pricing loop."""

import numpy as np
import pytest

import relaypair.dual as dual
from relaypair import (IndividualBudgets, assert_feasible, evaluate_baseline,
                       solve_extra_individual, solve_extra_total,
                       solve_individual, solve_total)

from conftest import manual_real, random_real

SPLIT = IndividualBudgets(4.0, 1.0)


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


def test_reprice_stops_at_a_pairing_seen_before(monkeypatch):
    # two equally good assignments returned in turn would otherwise be
    # re-evaluated until the round cap
    turns = [np.array([1, 0, 3, 2]), np.array([0, 1, 2, 3])]
    calls = []

    def spy(cost):
        calls.append(cost)
        return np.arange(cost.shape[0]), turns[(len(calls) - 1) % 2]

    monkeypatch.setattr(dual, "linear_sum_assignment", spy)
    real = random_real(4, seed=5)
    rep = solve_total(real, 5.0, seed=5)
    assert len(calls) == 3
    assert_feasible(real, rep.allocation, total_budget=5.0)
