import csv

import numpy as np
import pytest

from relaypair import write_instance
from relaypair.cli import build_parser, main

from conftest import random_real


@pytest.fixture
def instance_path(tmp_path):
    real = random_real(4, seed=70)
    path = tmp_path / "inst.csv"
    write_instance(path, real)
    return str(path)


def test_solve_total(instance_path, capsys):
    rc = main(["solve", "--instance", instance_path, "--constraint", "total",
               "--power", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("rate ")
    assert "pairing" in out


def test_solve_individual_with_trace(instance_path, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(["solve", "--instance", instance_path, "--constraint",
               "individual", "--ps", "4", "--pr", "1", "--trace", str(trace)])
    assert rc == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "mu", "alpha_norm", "power_sum", "dual_value"]
    assert len(rows) > 1


def test_solve_total_trace_has_a_row_per_assignment(instance_path, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    rc = main(["solve", "--instance", instance_path, "--constraint", "total",
               "--power", "5", "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    iterations = int(next(line for line in out if line.startswith("iterations")).split()[1])
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "mu", "alpha_norm", "power_sum", "dual_value"]
    assert len(rows) - 1 == iterations >= 1
    # the search has no pairing prices
    assert all(float(row[2]) == 0.0 for row in rows[1:])


def test_solve_baseline(instance_path, capsys):
    rc = main(["solve", "--instance", instance_path, "--constraint", "total",
               "--power", "5", "--baseline", "scp"])
    assert rc == 0


def test_solve_extra_direct(instance_path, capsys):
    rc = main(["solve", "--instance", instance_path, "--constraint", "total",
               "--power", "5", "--extra-direct"])
    assert rc == 0


def test_oracle_command(instance_path, capsys):
    rc = main(["oracle", "--instance", instance_path, "--constraint", "total",
               "--power", "5"])
    assert rc == 0
    rate_line = capsys.readouterr().out.splitlines()[0]
    assert rate_line.startswith("rate ")


def test_solver_matches_oracle_through_cli(instance_path, capsys):
    main(["oracle", "--instance", instance_path, "--constraint", "total",
          "--power", "5"])
    oracle_rate = float(capsys.readouterr().out.splitlines()[0].split()[1])
    main(["solve", "--instance", instance_path, "--constraint", "total",
          "--power", "5"])
    solver_rate = float(capsys.readouterr().out.splitlines()[0].split()[1])
    assert solver_rate <= oracle_rate + 1e-9
    assert solver_rate >= 0.98 * oracle_rate


def test_bits_flag(instance_path, capsys):
    main(["solve", "--instance", instance_path, "--constraint", "total",
          "--power", "5"])
    nats = float(capsys.readouterr().out.splitlines()[0].split()[1])
    main(["solve", "--instance", instance_path, "--constraint", "total",
          "--power", "5", "--bits"])
    bits = float(capsys.readouterr().out.splitlines()[0].split()[1])
    assert bits == pytest.approx(nats / np.log(2.0), rel=1e-6)


def test_simulate_command(tmp_path, instance_path, capsys):
    scen = tmp_path / "scen.txt"
    scen.write_text("name = cli\nconstraint = total\npower = 5\n"
                    "m_list = 4\ntrials = 2\nschemes = Proposed,Fixed\n")
    out = tmp_path / "res.csv"
    rc = main(["simulate", "--scenario", str(scen), "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * 2


def test_missing_instance_is_error(capsys):
    rc = main(["solve", "--instance", "/nonexistent.csv", "--constraint",
               "total", "--power", "5"])
    assert rc == 2


def test_parser_rejects_conflicting_budgets(instance_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--instance", instance_path,
                                   "--constraint", "bogus", "--power", "5"])


def test_solve_zero_weighted_gain(tmp_path, capsys):
    path = tmp_path / "silent.csv"
    real = random_real(4, seed=71)
    write_instance(path, type(real)(m=4, a_sd=real.a_sd, a_sr=real.a_sr,
                                    a_rd=real.a_rd, w=np.zeros(4)))
    for limits in (["total", "--power", "5"], ["individual", "--ps", "4", "--pr", "1"]):
        for extra in ([], ["--extra-direct"]):
            rc = main(["solve", "--instance", str(path), "--constraint", *limits, *extra])
            assert rc == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == "rate 0.000000000 nat"
            assert out[1] == "dual 0.000000000 nat"


def test_baseline_zero_weighted_gain(tmp_path, capsys):
    path = tmp_path / "silent.csv"
    real = random_real(4, seed=71)
    write_instance(path, type(real)(m=4, a_sd=real.a_sd, a_sr=real.a_sr,
                                    a_rd=real.a_rd, w=np.zeros(4)))
    for extra in ([], ["--extra-direct"]):
        rc = main(["solve", "--instance", str(path), "--constraint", "total",
                   "--power", "5", "--baseline", "scp", *extra])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "rate 0.000000000 nat"
