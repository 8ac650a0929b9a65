import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaypair.solver_extra as solver_extra
from relaypair import (IndividualBudgets, assert_feasible, evaluate_baseline,
                       exhaustive_extra_total, reference_extra_individual,
                       solve_extra_individual, solve_extra_total,
                       solve_individual, solve_total)
from relaypair.kernels import MU_FLOOR, extra_ind_scores, extra_scores
from relaypair.solver_extra import ExtraIndividualProblem
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
        rep = solve_extra_total(real, 5.0)
        opt, _, _ = exhaustive_extra_total(real, 5.0)
        assert rep.primal_rate <= opt + 1e-9
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 18


def test_extra_total_improves_on_no_extra():
    for seed in range(10):
        real = random_real(6, seed=900 + seed)
        with_extra = solve_extra_total(real, 5.0)
        without = solve_total(real, 5.0)
        assert with_extra.primal_rate >= without.primal_rate - 1e-6


def test_extra_individual_improves_on_no_extra():
    for seed in range(10):
        real = random_real(6, seed=1000 + seed)
        without = solve_individual(real, BUD)
        with_extra = solve_extra_individual(real, BUD, warm_pairing=without.pairing)
        assert with_extra.primal_rate >= without.primal_rate - 1e-6


def test_extra_individual_matches_reference_small():
    hits = 0
    for seed in range(15):
        real = random_real(4, seed=1100 + seed)
        warm = solve_individual(real, BUD)
        rep = solve_extra_individual(real, BUD, warm_pairing=warm.pairing)
        opt, _, _ = reference_extra_individual(real, BUD)
        assert rep.primal_rate <= opt + 1e-9
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 12


def test_extra_allocations_feasible():
    for seed in range(8):
        real = random_real(6, seed=1200 + seed)
        tot = solve_extra_total(real, 5.0)
        assert_feasible(real, tot.allocation, total_budget=5.0,
                        extra_allowed=True)
        ind = solve_extra_individual(real, BUD)
        assert_feasible(real, ind.allocation, budgets=BUD, extra_allowed=True)


def test_second_slot_power_only_on_direct_pairs():
    for seed in range(8):
        real = random_real(6, seed=1300 + seed)
        alloc = solve_extra_total(real, 5.0).allocation
        for k in range(6):
            if alloc.q_s[k] > 0:
                assert alloc.modes[k] == PairMode.DIRECT


def test_relay_inadmissible_without_sr_advantage():
    # a_sr <= a_sd everywhere: the extra solver must stay all-direct
    real = manual_real([2.0, 3.0], [1.0, 2.0], [5.0, 5.0])
    rep = solve_extra_total(real, 4.0)
    assert np.all(rep.allocation.modes == PairMode.DIRECT)


def test_fixed_pairing_mode():
    real = random_real(5, seed=1400)
    fixed = np.array([2, 0, 4, 1, 3])
    rep = evaluate_baseline(real, fixed, budgets=BUD, extra_direct=True)
    assert np.array_equal(rep.pairing, fixed)
    assert np.array_equal(rep.allocation.pairing, fixed)
    assert_feasible(real, rep.allocation, budgets=BUD, extra_allowed=True)


def test_each_relay_use_pattern_allocated_once(monkeypatch):
    # re-deciding relay use at each allocation's prices meets the same
    # patterns again: without the memo, 13 of 24 allocations here repeated one
    seen = []
    allocate = solver_extra.extra_individual_allocate

    def recording(real, perm, use, budgets):
        seen.append(perm.tobytes() + use.tobytes())
        return allocate(real, perm, use, budgets)

    monkeypatch.setattr(solver_extra, "extra_individual_allocate", recording)
    solve_extra_individual(random_real(4, seed=0), BUD)
    assert len(seen) == len(set(seen)) > 0


_price = st.one_of(st.sampled_from([0.0, MU_FLOOR, 1.0]),
                   st.floats(-12.0, 2.0).map(lambda e: 10.0 ** e))


@st.composite
def _pairing_inputs(draw):
    m = draw(st.integers(1, 12))
    # few distinct gains: zeros, and rows with a_sr <= a_sd, are common
    vec = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                             st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)),
                   min_size=m, max_size=m)
    real = manual_real(draw(vec), draw(vec), draw(vec),
                       w=draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                       min_size=m, max_size=m)))
    perm = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    return real, perm, (draw(_price), draw(_price))


@settings(max_examples=300, deadline=None)
@given(_pairing_inputs())
def test_pairing_entries_equal_the_full_score_matrix(inputs):
    real, perm, prices = inputs
    args = (real.w, real.a_sd, real.a_sr, real.a_rd, *prices)
    full = extra_ind_scores(*args)
    pair = extra_ind_scores(*args, cols=perm.reshape(-1, 1))
    rows = np.arange(real.m)
    for a, b in zip(full[:5], pair[:5]):
        assert a[rows, perm].tobytes() == b[:, 0].tobytes()
    assert full[5].tobytes() == pair[5].tobytes()
    use = ExtraIndividualProblem(real, BUD).use_at(perm, prices)
    assert use.tobytes() == full[1][rows, perm].tobytes()
