import numpy as np
import pytest

from relaypair import (IndividualBudgets, assert_feasible, evaluate_baseline,
                       exhaustive_extra_total, reference_extra_individual,
                       solve_extra_individual, solve_extra_total,
                       solve_individual, solve_total)
from relaypair.kernels import extra_scores
from relaypair.types import PairMode

from conftest import manual_real, random_real

BUD = IndividualBudgets(4.0, 1.0)


def test_direct_score_counts_both_slots():
    # w=1, a_sd=2 on both slots, price 0.1: each slot water-fills to
    # p = 1/0.2 - 1/2 = 4.5, value 0.5 log 10 - 0.45, and the pair score
    # is the sum of the two slots
    w = np.ones(2)
    a_sd = np.array([2.0, 2.0])
    gains_relay = np.full((2, 2), 1.8)
    relay_ok = np.zeros((2, 2), dtype=np.bool_)
    scores, use_relay, _, _ = extra_scores(w, a_sd, gains_relay, relay_ok,
                                           0.1, np.zeros(2))
    slot = 0.5 * np.log(10.0) - 0.1 * 4.5
    assert scores[0, 1] == pytest.approx(2 * slot)
    assert not use_relay[0, 1]


def test_relay_chosen_when_clearly_better():
    w = np.ones(1)
    a_sd = np.array([0.1])
    gains_relay = np.array([[5.0]])
    relay_ok = np.ones((1, 1), dtype=np.bool_)
    scores, use_relay, _, _ = extra_scores(w, a_sd, gains_relay, relay_ok,
                                           0.1, np.zeros(1))
    assert use_relay[0, 0]


def test_extra_total_matches_oracle_small():
    hits = 0
    for seed in range(20):
        real = random_real(4, seed=800 + seed)
        rep = solve_extra_total(real, 5.0, seed=seed)
        opt, _, _ = exhaustive_extra_total(real, 5.0)
        assert rep.primal_rate <= opt + 1e-9
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 18


def test_extra_total_improves_on_no_extra():
    for seed in range(10):
        real = random_real(6, seed=900 + seed)
        with_extra = solve_extra_total(real, 5.0, seed=seed)
        without = solve_total(real, 5.0, seed=seed)
        assert with_extra.primal_rate >= without.primal_rate - 1e-6


def test_extra_individual_improves_on_no_extra():
    for seed in range(10):
        real = random_real(6, seed=1000 + seed)
        without = solve_individual(real, BUD, seed=seed)
        with_extra = solve_extra_individual(real, BUD, seed=seed,
                                            warm_pairing=without.pairing)
        assert with_extra.primal_rate >= without.primal_rate - 1e-6


def test_extra_individual_matches_reference_small():
    hits = 0
    for seed in range(15):
        real = random_real(4, seed=1100 + seed)
        warm = solve_individual(real, BUD, seed=seed)
        rep = solve_extra_individual(real, BUD, seed=seed,
                                     warm_pairing=warm.pairing)
        opt, _, _ = reference_extra_individual(real, BUD)
        assert rep.primal_rate <= opt + 1e-9
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 12


def test_extra_allocations_feasible():
    for seed in range(8):
        real = random_real(6, seed=1200 + seed)
        tot = solve_extra_total(real, 5.0, seed=seed)
        assert_feasible(real, tot.allocation, total_budget=5.0,
                        extra_allowed=True)
        ind = solve_extra_individual(real, BUD, seed=seed)
        assert_feasible(real, ind.allocation, budgets=BUD, extra_allowed=True)


def test_second_slot_power_only_on_direct_pairs():
    for seed in range(8):
        real = random_real(6, seed=1300 + seed)
        alloc = solve_extra_total(real, 5.0, seed=seed).allocation
        for k in range(6):
            if alloc.q_s[k] > 0:
                assert alloc.modes[k] == PairMode.DIRECT


def test_relay_inadmissible_without_sr_advantage():
    # a_sr <= a_sd everywhere: the extra solver must stay all-direct
    real = manual_real([2.0, 3.0], [1.0, 2.0], [5.0, 5.0])
    rep = solve_extra_total(real, 4.0, seed=1)
    assert np.all(rep.allocation.modes == PairMode.DIRECT)


def test_fixed_pairing_mode():
    real = random_real(5, seed=1400)
    fixed = np.array([2, 0, 4, 1, 3])
    rep = evaluate_baseline(real, fixed, budgets=BUD, extra_direct=True)
    assert np.array_equal(rep.pairing, fixed)
    assert np.array_equal(rep.allocation.pairing, fixed)
    assert_feasible(real, rep.allocation, budgets=BUD, extra_allowed=True)
