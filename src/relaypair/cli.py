"""Command line interface.

Subcommands: solve one instance file, query the brute-force oracle, or run
a Monte-Carlo scenario sweep to CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import __version__
from .baselines import BaselineKind, baseline_pairing, evaluate_baseline
from .channel import read_instance
from .errors import RelayPairError
from .experiments import (parse_scenario_file, run_scenario, solve_oracle,
                          solve_proposed, write_results)
from .rates import nats_to_bits
from .types import IndividualBudgets
from .validate import assert_feasible


def _add_constraint_args(p):
    p.add_argument("--instance", required=True, help="instance CSV (k,a_sd,a_sr,a_rd,w)")
    p.add_argument("--constraint", required=True, choices=["total", "individual"])
    p.add_argument("--power", type=float, help="total power budget")
    p.add_argument("--ps", type=float, help="source power budget")
    p.add_argument("--pr", type=float, help="relay power budget")
    p.add_argument("--extra-direct", action="store_true",
                   help="allow a second direct-link message in the second slot")


def _budgets_from(args):
    if args.constraint == "total":
        if args.power is None:
            raise SystemExit("--power is required with --constraint total")
        return float(args.power), None
    if args.ps is None or args.pr is None:
        raise SystemExit("--ps and --pr are required with --constraint individual")
    return None, IndividualBudgets(args.ps, args.pr)


def _rate_str(rate, bits):
    return f"{nats_to_bits(rate):.9f} bit" if bits else f"{rate:.9f} nat"


def cmd_solve(args) -> int:
    real = read_instance(args.instance)
    total, budgets = _budgets_from(args)
    if args.baseline:
        kind = BaselineKind(args.baseline)
        pairing = baseline_pairing(real, kind)
        rep = evaluate_baseline(real, pairing, total_budget=total,
                                budgets=budgets, extra_direct=args.extra_direct)
    else:
        rep = solve_proposed(real, total_budget=total, budgets=budgets,
                             extra_direct=args.extra_direct, collect_trace=bool(args.trace))
    assert_feasible(real, rep.allocation, total_budget=total, budgets=budgets,
                    extra_allowed=args.extra_direct)

    print(f"rate {_rate_str(rep.primal_rate, args.bits)}")
    if np.isfinite(rep.dual_value):
        print(f"dual {_rate_str(rep.dual_value, args.bits)}")
        print(f"gap {rep.gap:.3e}")
    print(f"iterations {rep.iterations}")
    print("pairing " + " ".join(f"{k + 1}->{m + 1}"
                                for k, m in enumerate(rep.pairing)))
    a = rep.allocation
    for k in range(real.m):
        print(f"k={k + 1} m={int(a.pairing[k]) + 1} mode={int(a.modes[k])} "
              f"p_s={a.p_s[k]:.6g} p_r={a.p_r[k]:.6g} q_s={a.q_s[k]:.6g}")
    if args.trace:
        if rep.trace is None:
            print("no trace recorded", file=sys.stderr)
        else:
            with open(args.trace, "w", newline="") as fh:
                out = csv.writer(fh)
                out.writerow(["iter", "mu", "alpha_norm", "power_sum",
                              "dual_value"])
                for i, row in enumerate(rep.trace, 1):
                    out.writerow([i] + [repr(float(x)) for x in row])
    return 0


def cmd_oracle(args) -> int:
    real = read_instance(args.instance)
    total, budgets = _budgets_from(args)
    rate, pairing, s = solve_oracle(real, total_budget=total, budgets=budgets,
                                    extra_direct=args.extra_direct)
    print(f"rate {_rate_str(rate, args.bits)}")
    print("pairing " + " ".join(f"{k + 1}->{m + 1}"
                                for k, m in enumerate(pairing)))
    if s is not None:
        print("relay " + " ".join(str(int(x)) for x in s))
    return 0


def cmd_simulate(args) -> int:
    sc = parse_scenario_file(args.scenario)
    if args.trials is not None:
        sc = dataclasses.replace(sc, trials=args.trials)
    rows = run_scenario(sc, args.seed, parallel=args.parallel)
    n = write_results(rows, args.out)
    print(f"wrote {n} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relaypair",
        description="joint subcarrier pairing and power allocation for "
                    "two-hop decode-and-forward relay OFDM")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    _add_constraint_args(p)
    p.add_argument("--baseline", choices=[k.value for k in BaselineKind])
    p.add_argument("--trace", help="write the dual trace CSV here: one row per "
                   "assignment evaluation of the dual driver")
    p.add_argument("--bits", action="store_true", help="report rates in bits")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force optimum for a small instance")
    _add_constraint_args(p)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="run a Monte-Carlo scenario to CSV")
    p.add_argument("--scenario", required=True, help="key = value scenario file")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--parallel", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RelayPairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
