import numpy as np
import pytest

from relaypair import (IndividualBudgets, PairMode, assert_feasible, evaluate_baseline,
                       exhaustive_total, scp_pairing, solve_extra_individual,
                       solve_extra_total, solve_individual, solve_total,
                       weighted_sum_rate)
from relaypair.channel import pair_channels
from relaypair.kernels import total_scores
from relaypair.types import SolverConfig
from relaypair.waterfill import waterfill_or_zero

from conftest import manual_real, random_real


def test_dual_power_hand_value():
    # w=1, a=1.8, price 0.1 -> 1/(2*0.1) - 1/1.8 = 4.444..., score
    # 0.5 log 9 - 0.1 * 4.444...
    scores, powers = total_scores(np.ones(1), np.array([[1.8]]), 0.1)
    assert powers[0, 0] == pytest.approx(5.0 - 1.0 / 1.8)
    assert scores[0, 0] == pytest.approx(0.5 * np.log(9.0) - 0.1 * powers[0, 0])


def test_dual_power_shutoff():
    _, powers = total_scores(np.ones(1), np.array([[0.5]]), 10.0)
    assert powers[0, 0] == 0.0


def test_single_pair_strong_duality():
    real = manual_real([1.0], [3.0], [3.0])
    rep = solve_total(real, 5.0)
    # one pair: equivalent gain 1.8, water-filling puts everything on it
    assert rep.primal_rate == pytest.approx(0.5 * np.log(10.0), rel=1e-6)
    assert rep.dual_value >= rep.primal_rate - 1e-9
    assert rep.gap <= 1e-4


def test_matches_oracle_small():
    hits = 0
    for seed in range(20):
        real = random_real(4, seed=200 + seed)
        rep = solve_total(real, 5.0)
        opt, _ = exhaustive_total(real, 5.0)
        assert rep.primal_rate <= opt + 1e-9
        if opt - rep.primal_rate <= 0.01 * opt:
            hits += 1
    assert hits >= 19


def test_feasible_and_weak_duality():
    for seed in range(10):
        real = random_real(8, seed=300 + seed)
        rep = solve_total(real, 5.0)
        assert_feasible(real, rep.allocation, total_budget=5.0)
        assert rep.dual_value - rep.primal_rate >= -1e-9
        assert rep.primal_rate == pytest.approx(
            weighted_sum_rate(real, rep.allocation, extra_allowed=False))


def test_monotone_in_budget():
    real = random_real(6, seed=88)
    rates = [solve_total(real, float(p)).primal_rate
             for p in range(1, 8)]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 1e-9


def test_identical_subcarriers_symmetry():
    real = manual_real([1.0] * 4, [3.0] * 4, [3.0] * 4)
    rep = solve_total(real, 4.0)
    # every pairing is equivalent: four copies of gain 1.8, one unit each
    assert rep.primal_rate == pytest.approx(4 * 0.5 * np.log(1 + 1.8), rel=1e-6)


# the shared driver owns the trace and the iteration cap of every solver
SOLVERS = [(solve_total, 5.0), (solve_extra_total, 5.0),
           (solve_individual, IndividualBudgets(4.0, 1.0)),
           (solve_extra_individual, IndividualBudgets(4.0, 1.0))]


def test_trace_collection():
    real = random_real(4, seed=5)
    for solver, budget in SOLVERS:
        rep = solver(real, budget, collect_trace=True)
        assert rep.trace is not None, solver.__name__
        assert rep.trace.shape == (rep.iterations, 4), solver.__name__
        assert rep.iterations >= 1, solver.__name__
        assert np.all(rep.trace[:, 3] >= rep.dual_value), solver.__name__
        assert solver(real, budget).trace is None


def test_respects_hard_iteration_cap():
    cfg = SolverConfig(max_iter_hard=50)
    real = random_real(4, seed=6)
    for solver, budget in SOLVERS:
        rep = solver(real, budget, cfg=cfg)
        assert rep.iterations <= 50, solver.__name__


def test_deterministic_given_seed():
    # no solver draws a random number: on the realization of a given seed,
    # two calls give the same report
    real = random_real(6, seed=77)
    for solver, budget in SOLVERS:
        a, b = solver(real, budget), solver(real, budget)
        assert (a.primal_rate, a.dual_value) == (b.primal_rate, b.dual_value), solver.__name__
        assert np.array_equal(a.pairing, b.pairing), solver.__name__
        for name in ("pairing", "modes", "p_s", "p_r", "q_s"):
            assert np.array_equal(getattr(a.allocation, name),
                                  getattr(b.allocation, name)), (solver.__name__, name)


@pytest.mark.parametrize("extra", [False, True])
def test_shared_budget_reports_the_winning_water_price(extra):
    real = random_real(8, seed=31)
    solver = solve_extra_total if extra else solve_total
    for rep in (solver(real, 5.0),
                evaluate_baseline(real, scp_pairing(real), total_budget=5.0,
                                  extra_direct=extra)):
        assert set(rep.diagnostics) == {"water_price"}
        # the water price of the reported allocation's channel list
        relay = rep.allocation.modes == PairMode.RELAY
        gains, w, _, _ = pair_channels(real, rep.pairing, relay, extra=extra)
        assert rep.diagnostics["water_price"] == waterfill_or_zero(gains, w, 5.0).water_price
