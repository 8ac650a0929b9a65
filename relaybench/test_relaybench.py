"""Tests of the benchmark's own checks, references and tracing.

    python3 -m pytest -q relaybench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relaybench import checks, program, reference, tracing, workloads
from relaybench.run import END_TO_END

rp = program.load()
ROOT = Path(__file__).resolve().parent.parent


def _real(seed, m=4, combo=0):
    return workloads.realization(rp, seed, m, combo, draw=0)


def _solved(problem, seed=3, m=4):
    real = _real(seed, m)
    rep, _ = workloads.solve(rp, problem, real)
    return real, rep, workloads.direct_rate(real, problem), workloads.dual_bound(real, problem)


def _check(problem, real, rep, direct, bound):
    return checks.check_solve(real, rep, problem.limits(), extra=problem.extra,
                              direct_rate=direct, upper_bound=bound)


@pytest.mark.parametrize("seed", range(20))
def test_waterfill_meets_budget_at_one_level(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    g = rng.exponential(size=n) * (rng.random(n) > 0.2)
    w = rng.uniform(0.5, 2.0, n)
    p = reference.waterfill(g, w, 3.0)
    if not np.any(g > 0):
        assert np.all(p == 0)
        return
    assert p.sum() == pytest.approx(3.0, rel=1e-12)
    active = p > 0
    level = w[active] / (1.0 / g[active] + p[active])   # = 2 mu on active channels
    assert np.ptp(level) <= 1e-12 * level.max()
    idle = (~active) & (g > 0)
    assert np.all(w[idle] * g[idle] <= level.max() * (1 + 1e-12))
    program_p = rp.waterfill(g, w, 3.0).powers
    assert np.allclose(p, program_p, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_brute_force_matches_program_oracles(seed):
    real = _real(seed, m=4, combo=seed)
    assert reference.brute_force_total(real, 5.0, False) == pytest.approx(
        rp.exhaustive_total(real, 5.0)[0], rel=1e-12)
    assert reference.brute_force_total(real, 5.0, True) == pytest.approx(
        rp.exhaustive_extra_total(real, 5.0)[0], rel=1e-12)


@pytest.mark.parametrize("problem", workloads.PROBLEMS, ids=lambda p: p.name)
def test_own_dual_bound_is_above_the_optimum(problem):
    for seed in range(3):
        real = _real(seed, m=4, combo=seed)
        bound = workloads.dual_bound(real, problem)
        if problem.split:
            budgets = rp.IndividualBudgets(*workloads.P_SPLIT)
            best = (rp.reference_extra_individual(real, budgets)[0] if problem.extra
                    else rp.exhaustive_individual(real, budgets)[0])
        else:
            best = reference.brute_force_total(real, workloads.P_TOTAL, problem.extra)
        assert bound >= best - 1e-9


@pytest.mark.parametrize("problem", workloads.PROBLEMS, ids=lambda p: p.name)
def test_program_output_passes(problem):
    assert _check(problem, *_solved(problem)) == []


def test_raised_rate_is_rejected():
    real, rep, direct, bound = _solved(workloads.TOTAL)
    rep = copy.deepcopy(rep)
    rep.primal_rate += 1e-6
    bad = _check(workloads.TOTAL, real, rep, direct, bound)
    assert any("recomputed rate" in b for b in bad)


def test_repeated_partner_is_rejected():
    real, rep, direct, bound = _solved(workloads.INDIVIDUAL)
    rep = copy.deepcopy(rep)
    rep.allocation.pairing[1] = rep.allocation.pairing[0]
    assert _check(workloads.INDIVIDUAL, real, rep, direct, bound) == [
        "pairing is not a permutation"]


@pytest.mark.parametrize("problem", workloads.PROBLEMS, ids=lambda p: p.name)
def test_exceeded_budget_is_rejected(problem):
    real, rep, direct, bound = _solved(problem)
    rep = copy.deepcopy(rep)
    k = int(np.argmax(rep.allocation.p_s))
    rep.allocation.p_s[k] += 1e-6
    bad = _check(problem, real, rep, direct, bound)
    assert any("exceeds its budget" in b for b in bad)


def test_relay_power_on_direct_pair_is_rejected():
    # subcarrier 0 is better direct than through the relay
    real = rp.ChannelRealization(m=3, a_sd=np.array([4.0, 0.5, 0.5]),
                                 a_sr=np.array([1.0, 3.0, 3.0]),
                                 a_rd=np.array([3.0, 3.0, 3.0]), w=np.ones(3))
    rep = rp.solve_total(real, 5.0)
    direct = reference.direct_only_rate(real, 5.0, False)
    bound = reference.dual_bound(real, total=5.0)
    assert _check(workloads.TOTAL, real, rep, direct, bound) == []
    k = int(np.flatnonzero(rep.allocation.modes == 0)[0])
    rep.allocation.p_r[k] = 1e-3
    rep.allocation.p_s[k] -= 1e-3
    bad = _check(workloads.TOTAL, real, rep, direct, bound)
    assert "a direct pair carries relay power" in bad


def _total_trial_rates(real):
    """Every scheme's rate on one realization under the shared budget, as
    run_trial reports them."""
    rep = rp.solve_total(real, workloads.P_TOTAL)
    rates = {"Proposed": rep.primal_rate, "DualBound": rep.dual_value,
             "Oracle": rp.exhaustive_total(real, workloads.P_TOTAL)[0]}
    for scheme, kind in (("ScpWeighted", rp.BaselineKind.SCP_WEIGHTED),
                         ("ScpUnweighted", rp.BaselineKind.SCP_UNWEIGHTED),
                         ("Fixed", rp.BaselineKind.FIXED_IDENTITY)):
        rates[scheme] = rp.evaluate_baseline(real, rp.baseline_pairing(real, kind),
                                             total_budget=workloads.P_TOTAL).primal_rate
    return rates


def test_dual_below_brute_force_is_rejected():
    real = _real(5)
    brute = reference.brute_force_total(real, workloads.P_TOTAL, False)
    rates = _total_trial_rates(real)
    kw = dict(split=False, brute=brute,
              direct_rate=reference.direct_only_rate(real, workloads.P_TOTAL, False),
              upper_bound=reference.dual_bound(real, total=workloads.P_TOTAL))
    assert checks.check_trial(rates, **kw) == []
    rates["DualBound"] = brute - 1e-6
    assert any("below the brute-force optimum" in b for b in checks.check_trial(rates, **kw))


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_records_spans_and_restores_the_program(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "kernels.gone", ("relaypair.kernels:no_such_kernel",))
    original = rp.solver_total.total_phase1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rp.solver_total.total_phase1 is not original
        rep = rp.solve_total(_real(1), 5.0)
    finally:
        tracer.uninstall()
    assert rp.solver_total.total_phase1 is original
    assert tracer.absent == ["kernels.gone"]
    metrics = tracer.metrics(rounds=1, round_s=1.0)
    assert metrics["solver.calls"]["value"] == 1
    assert metrics["kernels.phase1.calls"]["value"] == 1
    assert metrics["kernels.phase1.iters"]["value"] == rep.trigger_iter
    assert metrics["kernels.phase1.cells"]["value"] == rep.trigger_iter * 16
    assert metrics["lap.calls"]["value"] >= 1
    assert 0 < metrics["solver.self_s"]["value"] < 1


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(ROOT / "relaybench", tmp_path / "relaybench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "relaybench/run.py", "--workload", "sweep-total",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
