import numpy as np
import pytest

from relaypair import (IndividualBudgets, assert_feasible,
                       exhaustive_individual, solve_individual, solve_total)
from relaypair.kernels import ind_scores, ind_tables

from conftest import manual_real, random_real

BUD = IndividualBudgets(4.0, 1.0)


def test_tables_hand_value():
    # relay branch at price ratio 1: gain 1.8, split 0.6 / 0.4
    gains, c_s, c_r = ind_tables(np.array([1.0]), np.array([3.0]),
                                 np.array([3.0]), 0.2, 0.2)
    assert gains[0, 0] == pytest.approx(1.8)
    assert c_s[0, 0] == pytest.approx(0.6)
    assert c_r[0, 0] == pytest.approx(0.4)


def test_tables_direct_when_sd_dominates():
    gains, c_s, c_r = ind_tables(np.array([2.0]), np.array([1.0]),
                                 np.array([5.0]), 0.2, 0.2)
    assert gains[0, 0] == 2.0
    assert (c_s[0, 0], c_r[0, 0]) == (1.0, 0.0)


def test_tables_ratio_gates_relay():
    # a_rd < a_sd * mu_r/mu_s turns the relay branch off
    a = (np.array([1.0]), np.array([3.0]), np.array([2.0]))
    gains_hi, _, c_r_hi = ind_tables(*a, 0.1, 0.3)
    gains_lo, _, c_r_lo = ind_tables(*a, 0.3, 0.1)
    assert c_r_hi[0, 0] == 0.0 and gains_hi[0, 0] == 1.0
    assert c_r_lo[0, 0] > 0.0 and gains_lo[0, 0] > 1.0


def test_score_power_hand_value():
    # effective price c_s*mu_s + c_r*mu_r = 0.6*0.1 + 0.4*0.2 = 0.14
    gains = np.array([[1.8]])
    c_s = np.array([[0.6]])
    c_r = np.array([[0.4]])
    scores, powers = ind_scores(np.ones(1), gains, c_s, c_r, 0.1, 0.2)
    p = 1.0 / 0.28 - 1.0 / 1.8
    assert powers[0, 0] == pytest.approx(p)
    assert scores[0, 0] == pytest.approx(0.5 * np.log1p(1.8 * p) - 0.14 * p)


def test_matches_oracle_small():
    hits = 0
    for seed in range(20):
        real = random_real(4, seed=400 + seed)
        rep = solve_individual(real, BUD)
        opt, _ = exhaustive_individual(real, BUD)
        assert rep.primal_rate <= opt + 1e-9
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 18


def test_feasible_and_weak_duality():
    for seed in range(10):
        real = random_real(8, seed=500 + seed)
        rep = solve_individual(real, BUD)
        assert_feasible(real, rep.allocation, budgets=BUD)
        assert rep.dual_value - rep.primal_rate >= -1e-9


def test_total_budget_dominates_split_budgets():
    # pooling the two budgets can only help
    for seed in range(8):
        real = random_real(6, seed=600 + seed)
        pooled = solve_total(real, 5.0)
        split = solve_individual(real, BUD)
        assert pooled.primal_rate >= split.primal_rate - 1e-6


def test_relay_powers_jointly_zero_or_positive():
    from relaypair.types import PairMode
    for seed in range(8):
        real = random_real(6, seed=700 + seed)
        alloc = solve_individual(real, BUD).allocation
        for k in range(6):
            if alloc.modes[k] == PairMode.RELAY:
                assert (alloc.p_s[k] > 1e-12) == (alloc.p_r[k] > 1e-12)


def test_deterministic_given_seed():
    real = random_real(5, seed=31)
    a = solve_individual(real, BUD)
    b = solve_individual(real, BUD)
    assert (a.primal_rate, a.dual_value) == (b.primal_rate, b.dual_value)
    assert np.array_equal(a.pairing, b.pairing)


def test_relay_price_pinned_near_zero_settles():
    # the relay budget is slack at the optimum, so mu_r sits near 0; the
    # subgradient method once ran to its 30000-iteration cap here, and the
    # cutting planes stop long before it
    from relaypair import RicianConfig, WeightRule, sample_realization, trial_seed
    seed = trial_seed(2010, "extra-individual", 4, 5)
    cfg = RicianConfig(k_factor=1.0, mean_sq_sr=3.0, mean_sq_sd=1.0, mean_sq_rd=3.0,
                       noise_var=1.0, m=4, weight_rule=WeightRule.LINEAR_RAMP)
    real = sample_realization(cfg, seed)
    rep = solve_individual(real, BUD)
    assert rep.converged
    assert rep.iterations < 1000
    assert rep.diagnostics["refine"]["case"] == "relay_slack"
    assert rep.gap <= 1e-9 * rep.primal_rate
