"""Acceptance gate: ten release criteria, one summary line each.

Run with ``pytest -v tests/test_acceptance.py`` to see per-criterion
pass/fail; each test also prints its measured statistic.

Criterion 9 checks that the O(M^2) part of every dual-driver step on the
total-power problem (``TotalProblem.scores``: an M x M score matrix, plus
its row-wise argmax) costs O(M^2), by timing it at M=256 and M=512 and
asking for a cost ratio in [3, 6].  Those sizes are where the M^2 term
dominates the vectorized numpy kernels: below M=256 the fixed cost of the
numpy calls made in each call outweighs it.
"""

import time

import numpy as np
import pytest

from relaypair import (IndividualBudgets, RicianConfig, evaluate_baseline,
                       exhaustive_extra_total, exhaustive_individual,
                       exhaustive_total, kkt_residual,
                       reference_extra_individual, sample_realization,
                       scp_pairing, solve_extra_individual, solve_extra_total,
                       solve_individual, solve_total, validate_allocation,
                       waterfill)
from relaypair.channel import pair_tables, relay_mask_total
from relaypair.experiments import trial_seed
from relaypair.solver_total import TotalProblem

BUD = IndividualBudgets(4.0, 1.0)
POWER = 5.0

_violations = []        # criterion 7 ledger: all allocations ever validated
_validated = [0]


def _profile(m, sr=3.0, sd=1.0, rd=3.0):
    return RicianConfig(k_factor=1.0, mean_sq_sr=sr, mean_sq_sd=sd,
                        mean_sq_rd=rd, noise_var=1.0, m=m)


def _draw(name, m, trial, **stats):
    return sample_realization(_profile(m, **stats),
                              trial_seed(0, name, m, trial))


def _record(real, alloc, **kw):
    _validated[0] += 1
    bad = validate_allocation(real, alloc, **kw)
    if bad:
        _violations.append(bad)


def _report(label, detail):
    print(f"\n[{label}] PASS: {detail}")


def test_criterion_1_total_power_oracle_equivalence():
    hits = 0
    trials = 200
    for t in range(trials):
        real = _draw("c1", 4, t)
        rep = solve_total(real, POWER)
        _record(real, rep.allocation, total_budget=POWER)
        assert rep.gap >= -1e-9
        opt, _ = exhaustive_total(real, POWER)
        if opt - rep.primal_rate <= 0.01 * opt:
            hits += 1
    assert hits >= 0.95 * trials, f"only {hits}/{trials} within 1%"
    _report("criterion 1", f"{hits}/{trials} trials within 1% of the "
            "exhaustive total-power optimum (need 190)")


def test_criterion_2_individual_oracle_equivalence():
    hits = 0
    trials = 200
    for t in range(trials):
        real = _draw("c2", 4, t)
        rep = solve_individual(real, BUD)
        _record(real, rep.allocation, budgets=BUD)
        assert rep.gap >= -1e-9
        opt, _ = exhaustive_individual(real, BUD)
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 0.90 * trials, f"only {hits}/{trials} within 1.5%"
    _report("criterion 2", f"{hits}/{trials} trials within 1.5% of the "
            "exhaustive individual-budget optimum (need 180)")


def test_criterion_3_extra_direct_oracle_equivalence():
    hits = 0
    trials = 200
    for t in range(trials):
        real = _draw("c3", 4, t)
        rep = solve_extra_total(real, POWER)
        _record(real, rep.allocation, total_budget=POWER, extra_allowed=True)
        assert rep.gap >= -1e-9
        opt, _, _ = exhaustive_extra_total(real, POWER)
        if opt - rep.primal_rate <= 0.015 * opt:
            hits += 1
    assert hits >= 0.90 * trials, f"only {hits}/{trials} within 1.5%"
    _report("criterion 3", f"{hits}/{trials} trials within 1.5% of the "
            "extra-direct total-power optimum (need 180)")


def test_criterion_4_weak_duality_and_gap_exceedance():
    trials = 150
    exceed = {}
    for m in (4, 8, 16):
        over = 0
        for t in range(trials):
            real = _draw("c4", m, t)
            rep = solve_total(real, POWER)
            _record(real, rep.allocation, total_budget=POWER)
            assert rep.gap >= -1e-9, f"weak duality broken: {rep.gap}"
            if rep.gap / max(rep.primal_rate, 1e-12) > 1e-3:
                over += 1
        exceed[m] = over / trials
    assert exceed[8] <= 0.02, f"gap exceedance at M=8 is {exceed[8]:.1%}"
    assert exceed[16] <= exceed[8] + 1e-12, "exceedance not trending down"
    _report("criterion 4", "dual - primal >= -1e-9 on every run; relative "
            f"gap > 1e-3 on {exceed[4]:.1%} / {exceed[8]:.1%} / "
            f"{exceed[16]:.1%} of trials at M=4/8/16 (need <=2% at M=8, "
            "nonincreasing after)")


def _nonconcave_fraction(m, trials):
    grid = np.arange(1.0, 11.0)
    count = 0
    for t in range(trials):
        real = _draw("c5", m, t)
        mask = relay_mask_total(real)
        gains, _, _ = pair_tables(real, mask)
        rows = np.arange(m)
        rates = np.empty(grid.size)
        for i, p in enumerate(grid):
            best = -np.inf
            import itertools
            for perm in itertools.permutations(range(m)):
                g = gains[rows, list(perm)]
                best = max(best, waterfill(g, real.w, p).rate(g, real.w))
            rates[i] = best
        second = rates[2:] - 2.0 * rates[1:-1] + rates[:-2]
        if np.any(second > 1e-6 + 1e-3 * rates[1:-1]):
            count += 1
    return count / trials


def test_criterion_5_nonconcavity_frequencies():
    trials = 2000
    f2 = _nonconcave_fraction(2, trials)
    f4 = _nonconcave_fraction(4, trials)
    assert abs(f2 - 0.01) <= 0.01, f"M=2 nonconcave fraction {f2:.2%}"
    assert abs(f4 - 0.004) <= 0.01, f"M=4 nonconcave fraction {f4:.2%}"
    _report("criterion 5", f"rate-vs-budget curve nonconcave on {f2:.2%} of "
            f"M=2 and {f4:.2%} of M=4 realizations over {trials} trials "
            "(targets 1% and 0.4%, +/-1pp)")


def test_criterion_6_scheme_ordering():
    trials = 500
    profiles = {"3/1/3": dict(sr=3.0, sd=1.0, rd=3.0),
                "5/1/1": dict(sr=5.0, sd=1.0, rd=1.0),
                "1/1/5": dict(sr=1.0, sd=1.0, rd=5.0)}
    lines = []
    for m in (8, 16):
        for pname, stats in profiles.items():
            prop = scp = fix = 0.0
            extra = ind = 0.0
            first = pname == "3/1/3"
            for t in range(trials):
                real = _draw(f"c6-{pname}", m, t, **stats)
                rep = solve_total(real, POWER)
                _record(real, rep.allocation, total_budget=POWER)
                assert rep.gap >= -1e-9
                prop += rep.primal_rate
                b = evaluate_baseline(real, scp_pairing(real),
                                      total_budget=POWER)
                _record(real, b.allocation, total_budget=POWER)
                scp += b.primal_rate
                b = evaluate_baseline(real, np.arange(m), total_budget=POWER)
                _record(real, b.allocation, total_budget=POWER)
                fix += b.primal_rate
                if first:
                    x = solve_extra_total(real, POWER)
                    _record(real, x.allocation, total_budget=POWER,
                            extra_allowed=True)
                    extra += x.primal_rate
                    i = solve_individual(real, BUD)
                    _record(real, i.allocation, budgets=BUD)
                    ind += i.primal_rate
            assert prop >= scp - 1e-9, f"{pname} M={m}: proposed < scp"
            assert scp >= fix - 1e-9, f"{pname} M={m}: scp < fixed"
            if first:
                assert extra >= prop - 1e-9, f"M={m}: extra < no-extra"
                assert prop >= ind - 1e-9, f"M={m}: total < individual"
            lines.append(f"{pname}@M={m} proposed {prop / trials:.3f} >= "
                         f"scp {scp / trials:.3f} >= fixed {fix / trials:.3f}")
    _report("criterion 6", "mean-rate orderings hold on all profiles "
            "(proposed >= scp >= fixed; extra >= plain; total >= "
            "individual): " + "; ".join(lines))


def test_criterion_7_every_allocation_feasible():
    assert _validated[0] > 0, "no allocations were validated"
    assert not _violations, f"violations: {_violations[:3]}"
    _report("criterion 7", f"all {_validated[0]} allocations emitted by the "
            "preceding suites passed the feasibility validator")


def test_criterion_8_waterfill_kernel_quality():
    rng = np.random.default_rng(2024)
    worst_kkt = 0.0
    worst_budget = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 129))
        gains = rng.uniform(1e-3, 10.0, n)
        weights = rng.uniform(0.2, 3.0, n)
        budget = float(rng.uniform(0.1, 50.0))
        res = waterfill(gains, weights, budget)
        worst_kkt = max(worst_kkt, kkt_residual(gains, weights, budget,
                                                res.powers))
        worst_budget = max(worst_budget,
                           abs(res.powers.sum() - budget) / max(1.0, budget))
        best = res.rate(gains, weights)
        # 1000 random feasible competitors, vectorized
        shares = rng.gamma(1.0, size=(1000, n))
        shares *= budget / shares.sum(axis=1, keepdims=True)
        rates = 0.5 * (weights * np.log1p(gains * shares)).sum(axis=1)
        assert rates.max() <= best + 1e-9
    assert worst_kkt <= 1e-8
    assert worst_budget <= 1e-9
    _report("criterion 8", f"1000 instances up to N=128: worst KKT residual "
            f"{worst_kkt:.2e} (<=1e-8), worst budget mismatch "
            f"{worst_budget:.2e} (<=1e-9), never beaten by 1000 random "
            "feasible allocations each")


def _per_call_cost(sizes):
    """Best per-call time of the shared-budget score matrix and its
    row-wise argmax for each ``(m, calls)``.

    Each timed run makes ``calls`` calls at one price.  Round 0 is an
    untimed warm-up; the best of the 7 timed rounds is kept.  Each round
    times every size in turn, so a change in machine load during the run
    hits all sizes alike instead of biasing their ratio.
    """
    cases = [(TotalProblem(_draw("c9", m, 0), POWER), calls) for m, calls in sizes]
    best = [np.inf] * len(cases)
    for rnd in range(8):
        for i, (problem, calls) in enumerate(cases):
            t0 = time.perf_counter()
            for _ in range(calls):
                problem.scores((1.0,)).argmax(axis=1)
            if rnd:
                best[i] = min(best[i], (time.perf_counter() - t0) / calls)
    return best


def test_criterion_9_scale_smoke():
    real = _draw("c9-solve", 64, 0)
    t0 = time.perf_counter()
    rep = solve_total(real, POWER)
    elapsed = time.perf_counter() - t0
    _record(real, rep.allocation, total_budget=POWER)
    assert elapsed < 60.0, f"M=64 solve took {elapsed:.1f}s"
    # call counts chosen for ~0.1-0.2 s per timed run
    c256, c512 = _per_call_cost([(256, 200), (512, 60)])
    ratio = c512 / c256
    assert 3.0 <= ratio <= 6.0, f"per-call cost ratio {ratio:.2f}"
    _report("criterion 9", f"M=64 full solve in {elapsed:.1f}s (<60s); "
            f"score-matrix cost ratio M=512/M=256 = {ratio:.2f} (in [3, 6], "
            "consistent with quadratic per-step scaling; below M=256 "
            "fixed per-call overhead hides the M^2 term)")


def test_criterion_10_extra_individual_certificate():
    # the fourth problem (split budgets, extra-direct reuse), warm-started as
    # in experiments: feasible, above the reference value where M <= 4, and
    # certified by its dual bound.  Measured on these draws: median relative
    # gap 2.4e-13 / 7.5e-14, largest 3.0e-3 / 4.0e-4, 3 / 0 of 30 above
    # 1e-3 at M=8/16; the gates leave a margin of 2x or more on each
    trials = 30
    profiles = [dict(sr=3.0, sd=1.0, rd=3.0), dict(sr=5.0, sd=1.0, rd=1.0),
                dict(sr=1.0, sd=1.0, rd=5.0)]
    gaps = {}
    for m in (4, 8, 16):
        rel = []
        for t in range(trials):
            real = _draw("c10", m, t, **profiles[t % 3])
            warm = solve_individual(real, BUD)
            rep = solve_extra_individual(real, BUD, warm_pairing=warm.pairing)
            assert validate_allocation(real, rep.allocation, budgets=BUD,
                                       extra_allowed=True) == []
            assert rep.gap >= -1e-9, f"weak duality broken: {rep.gap}"
            if m <= 4:
                ref, _, _ = reference_extra_individual(real, BUD)
                assert rep.dual_value >= ref - 1e-9 * max(1.0, ref)
            rel.append(rep.gap / max(rep.primal_rate, 1e-12))
        gaps[m] = np.array(rel)
    for m in (8, 16):
        assert np.median(gaps[m]) <= 1e-9, f"median gap at M={m}: {np.median(gaps[m]):.2e}"
        assert gaps[m].max() <= 1e-2, f"largest gap at M={m}: {gaps[m].max():.2e}"
    over = {m: int((gaps[m] > 1e-3).sum()) for m in (8, 16)}
    assert over[8] <= 6, f"{over[8]}/{trials} gaps above 1e-3 at M=8"
    assert over[16] <= over[8], "gaps above 1e-3 not trending down"
    _report("criterion 10", "extra-direct split-budget solves feasible, dual >= "
            "reference value at M=4; median relative gap "
            f"{np.median(gaps[8]):.1e} / {np.median(gaps[16]):.1e} (<=1e-9), "
            f"largest {gaps[8].max():.1e} / {gaps[16].max():.1e} (<=1e-2), "
            f"{over[8]} / {over[16]} of {trials} above 1e-3 (<=6, nonincreasing) "
            "at M=8/16")
