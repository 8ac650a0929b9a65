import numpy as np
import pytest

from relaypair import (BaselineKind, IndividualBudgets, PairMode, WeightRule,
                       baseline_pairing, evaluate_baseline, scp_pairing, solve_total,
                       zero_crossing_refine)
from relaypair.solver_extra import extra_individual_allocate

from conftest import manual_real, random_real

BUD = IndividualBudgets(4.0, 1.0)


def test_scp_identity_when_ranks_agree():
    real = manual_real([0.5, 0.5], [2.0, 5.0], [1.0, 4.0])
    # both links rank subcarrier 1 first -> identity matching
    assert list(scp_pairing(real)) == [0, 1]


def test_scp_reversal():
    real = manual_real([0.5, 0.5], [5.0, 2.0], [1.0, 4.0])
    assert list(scp_pairing(real)) == [1, 0]


def test_scp_ties_stable():
    real = manual_real([0.5] * 3, [2.0, 2.0, 2.0], [3.0, 3.0, 3.0])
    assert list(scp_pairing(real)) == [0, 1, 2]


def test_scp_weighting_matters_only_with_weights():
    real = random_real(6, seed=21)
    assert np.array_equal(scp_pairing(real, weighted=True),
                          scp_pairing(real, weighted=False))
    real_w = manual_real(real.a_sd, real.a_sr, real.a_rd,
                         w=np.linspace(1.0, 2.0, 6))
    weighted = scp_pairing(real_w, weighted=True)
    unweighted = scp_pairing(real_w, weighted=False)
    # ranking by w*a_sr vs a_sr can differ once weights are uneven
    assert weighted.shape == unweighted.shape


def test_baseline_pairing_kinds():
    real = random_real(5, seed=22)
    assert np.array_equal(baseline_pairing(real, BaselineKind.FIXED_IDENTITY),
                          np.arange(5))
    assert np.array_equal(baseline_pairing(real, BaselineKind.SCP_WEIGHTED),
                          scp_pairing(real, weighted=True))


def test_evaluate_baseline_total_feasible():
    from relaypair import assert_feasible
    real = random_real(6, seed=23)
    pairing = scp_pairing(real)
    rep = evaluate_baseline(real, pairing, total_budget=5.0)
    assert np.array_equal(rep.pairing, pairing)
    assert_feasible(real, rep.allocation, total_budget=5.0)


def test_evaluate_baseline_individual_feasible():
    from relaypair import assert_feasible
    real = random_real(6, seed=24)
    rep = evaluate_baseline(real, np.arange(6), budgets=BUD)
    assert_feasible(real, rep.allocation, budgets=BUD)


def test_solver_beats_baselines_on_average():
    diffs_scp = []
    diffs_fix = []
    for seed in range(15):
        real = random_real(8, seed=2000 + seed)
        rep = solve_total(real, 5.0, seed=seed)
        scp = evaluate_baseline(real, scp_pairing(real), total_budget=5.0)
        fix = evaluate_baseline(real, np.arange(8), total_budget=5.0)
        diffs_scp.append(rep.primal_rate - scp.primal_rate)
        diffs_fix.append(scp.primal_rate - fix.primal_rate)
    assert np.mean(diffs_scp) >= -1e-9
    assert np.mean(diffs_fix) >= 0.0


def test_shared_budget_baseline_reuses_idle_second_slots():
    # the relay helps without reuse (equivalent gain 1.125 > a_sd = 1), but
    # with reuse two direct slots of gain 1 per pair beat one relay channel
    from relaypair import PairMode, assert_feasible
    real = manual_real([1.0, 1.0], [1.5, 1.5], [1.5, 1.5])
    plain = evaluate_baseline(real, np.arange(2), total_budget=5.0)
    assert np.all(plain.allocation.modes == PairMode.RELAY)
    reuse = evaluate_baseline(real, np.arange(2), total_budget=5.0, extra_direct=True)
    assert_feasible(real, reuse.allocation, total_budget=5.0, extra_allowed=True)
    assert np.all(reuse.allocation.modes == PairMode.DIRECT)
    # four equal single-slot channels share the budget evenly
    assert reuse.primal_rate == pytest.approx(2.0 * np.log1p(5.0 / 4.0), rel=1e-12)
    assert reuse.primal_rate > plain.primal_rate


@pytest.mark.parametrize("extra", [False, True])
def test_shared_budget_baseline_on_zero_weights(extra):
    from relaypair import assert_feasible
    real = manual_real([1.0] * 3, [2.0] * 3, [2.0] * 3, w=np.zeros(3))
    perm = np.array([1, 2, 0])
    rep = evaluate_baseline(real, perm, total_budget=5.0, extra_direct=extra)
    assert rep.primal_rate == 0.0
    assert np.array_equal(rep.pairing, perm)
    assert rep.allocation.total_power() == 0.0
    assert_feasible(real, rep.allocation, total_budget=5.0, extra_allowed=extra)


PROFILES = [dict(sr=3.0, sd=1.0, rd=3.0), dict(sr=5.0, sd=1.0, rd=1.0),
            dict(sr=1.0, sd=1.0, rd=5.0)]


def test_reuse_never_lowers_a_split_budget_baseline():
    # an allocation with empty second slots is admissible under reuse, so the
    # zero-crossing fallback of the extra-direct allocation keeps every
    # extra-direct baseline at or above the no-reuse one; without it, draw 3
    # falls below (4.2012 against 4.2024 with the unweighted rank-matched pairing)
    for t in range(40):
        rule = WeightRule.LINEAR_RAMP if t % 2 else WeightRule.ALL_ONE
        real = random_real(8, seed=7000 + t, weight_rule=rule, **PROFILES[t % 3])
        for kind in BaselineKind:
            pairing = baseline_pairing(real, kind)
            reuse = evaluate_baseline(real, pairing, budgets=BUD, extra_direct=True).primal_rate
            plain = evaluate_baseline(real, pairing, budgets=BUD).primal_rate
            assert reuse >= plain - 1e-9 * max(1.0, plain), (t, kind)
            if t == 25 and kind is BaselineKind.SCP_WEIGHTED:
                assert reuse == pytest.approx(3.2955, abs=1e-4)


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("seed", [30, 31])
def test_split_budget_baselines_report_the_kept_prices(extra, seed):
    # with reuse, draw 30 keeps the pairing's no-reuse refinement and draw 31
    # a relay-use pattern with second-slot messages
    real = random_real(8, seed=seed)
    perm = scp_pairing(real)
    rep = evaluate_baseline(real, perm, budgets=BUD, extra_direct=extra)
    assert set(rep.diagnostics) == {"mu_s", "mu_r", "ratio"}
    kept = [zero_crossing_refine(real, perm, BUD.p_source, BUD.p_relay)]
    if extra:
        relay = rep.allocation.modes == PairMode.RELAY
        alloc, _, ratio, (mu_s, mu_r) = extra_individual_allocate(real, perm, relay, BUD)
        kept.append((alloc, {"mu_s": mu_s, "mu_r": mu_r, "ratio": ratio}))
    # the prices of the allocation that equals the reported one
    assert any(rep.diagnostics == {key: diag[key] for key in rep.diagnostics}
               for alloc, diag in kept
               if all(np.array_equal(getattr(alloc, f), getattr(rep.allocation, f))
                      for f in ("modes", "p_s", "p_r", "q_s")))
    assert (rep.allocation.q_s > 0).any() == (extra and seed == 31)
