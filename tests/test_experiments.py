import csv
import dataclasses

import numpy as np
import pytest

from relaypair import (ConfigError, IndividualBudgets, Scenario,
                       concavity_probe, duality_gap_stats, parse_scenario_file,
                       run_scenario, run_trial, trial_seed, write_results)
from relaypair.experiments import RESULT_FIELDS
from relaypair.types import SolverConfig

from conftest import make_rician, random_real

CFG = SolverConfig()


def small_scenario(**kw):
    base = dict(name="t", rician=make_rician(4), total_budget=5.0,
                m_list=(4,), trials=3, schemes=("Proposed", "Fixed"))
    base.update(kw)
    return Scenario(**base)


def test_trial_seed_distinct_and_stable():
    s1 = trial_seed(7, "a", 4, 0)
    assert s1 == trial_seed(7, "a", 4, 0)
    assert s1 != trial_seed(7, "a", 4, 1)
    assert s1 != trial_seed(7, "b", 4, 0)
    assert s1 != trial_seed(8, "a", 4, 0)


def test_scenario_requires_one_constraint():
    with pytest.raises(ConfigError):
        Scenario(name="x", rician=make_rician(4), total_budget=5.0,
                 budgets=IndividualBudgets(4.0, 1.0))
    with pytest.raises(ConfigError):
        Scenario(name="x", rician=make_rician(4), total_budget=None)


def test_scenario_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        small_scenario(schemes=("Nope",))


def test_run_trial_rows():
    sc = small_scenario()
    rows = run_trial(sc, base_seed=1, m=4, trial=0, cfg=CFG)
    schemes = [r.scheme for r in rows]
    assert schemes == ["Proposed", "Fixed"]
    for r in rows:
        assert r.m == 4 and r.trial == 0
        assert np.isfinite(r.rate) and r.rate > 0


def test_run_scenario_deterministic():
    sc = small_scenario()
    a = [r.rate for r in run_scenario(sc, base_seed=5, cfg=CFG)]
    b = [r.rate for r in run_scenario(sc, base_seed=5, cfg=CFG)]
    assert a == b
    c = [r.rate for r in run_scenario(sc, base_seed=6, cfg=CFG)]
    assert a != c


def test_write_results_csv(tmp_path):
    sc = small_scenario(trials=2)
    path = tmp_path / "out.csv"
    n = write_results(run_scenario(sc, base_seed=2, cfg=CFG), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RESULT_FIELDS)
    assert len(rows) == n + 1


def test_duality_gap_stats_nonnegative():
    sc = small_scenario(trials=5, schemes=("Proposed",))
    stats = duality_gap_stats(sc, base_seed=3, cfg=CFG)
    assert set(stats) == {4}
    assert 0.0 <= stats[4] <= 1.0


def test_concavity_probe_monotone_rates():
    real = random_real(4, seed=60)
    probe = concavity_probe(real, np.arange(1.0, 8.0))
    assert np.all(np.diff(probe["rates"]) >= -1e-9)
    assert probe["max_positive_second_difference"] >= 0.0


def test_concavity_probe_rejects_bad_grid():
    real = random_real(4, seed=61)
    with pytest.raises(ConfigError):
        concavity_probe(real, [3.0, 2.0, 1.0])


def test_parse_scenario_file(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text(
        "name = demo\n"
        "# comment line\n"
        "constraint = individual\n"
        "ps = 4\n"
        "pr = 1\n"
        "m_list = 4,8\n"
        "trials = 10\n"
        "schemes = Proposed, Fixed\n")
    sc = parse_scenario_file(path)
    assert sc.name == "demo"
    assert sc.budgets == IndividualBudgets(4.0, 1.0)
    assert sc.total_budget is None
    assert sc.m_list == (4, 8)
    assert sc.schemes == ("Proposed", "Fixed")


def test_parse_scenario_file_unknown_key(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text("name = demo\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_file(path)
