"""Dual-driver solves of a working tree against a parent checkout.

Runs the four solvers on one instance set in each tree and writes a JSON
file with the two trees' numbers side by side, per M, solver and budget:
median and total solve time, losses and gains of the rate above 1e-9
relative, the count of dual bounds more than 1e-9 relative above the
parent's and the largest relative rise, the median and largest relative
gap, the median and largest iteration count (the driver's points) and
assignment count (``linear_sum_assignment`` calls), and the count of
reports with ``converged=False``.  Weak duality (dual >= primal - 1e-9)
and ``validate_allocation`` are checked on every report; the count of
reports failing either is written too.

The instance set: M = 4, 8, 16 with 60 draws each, M = 32 with 30,
M = 64 with 12 and M = 128 with 6, ``sample_realization`` seed 9000 + t,
Rician K = 1 with the mean-square profiles SR/SD/RD = 3/1/3, 5/1/1 and
1/1/5 rotating over t, linear-ramp weights on odd t.  The split-budget
solvers (``solve_individual`` and the warm-started
``solve_extra_individual``) run at budgets (Ps, Pr) = (4, 1); the warm
start of ``solve_extra_individual`` is a ``solve_individual`` run on the
same instance, and its time is not counted in the extra-direct solve.
The shared-budget solvers (``solve_total`` and ``solve_extra_total``) run
at P = 5 on every instance, and at P = 0.5 and 50 on those of M <= 32.
Each M has rows of its own, so the split-budget rows of M <= 32 compare
with files written before M = 64 and 128 joined the set.

Usage::

    python scripts/bench_split.py --parent PATH --out BENCH.json

where PATH is a checkout of the parent commit (for example made by
``git archive``).  Each tree runs in its own process with its own ``src``
on the import path, one tree after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIZES = ((4, 60), (8, 60), (16, 60), (32, 30), (64, 12), (128, 6))
PROFILES = ((3.0, 1.0, 3.0), (5.0, 1.0, 1.0), (1.0, 1.0, 5.0))
BUDGETS = (4.0, 1.0)
SHARED = 5.0                 # the shared budget of every instance,
SHARED_SMALL_M = (0.5, 50.0)  # and those added at M <= 32
TOL = 1e-9
SOLVERS = ("individual", "extra_individual", "total", "extra_total")


def instances():
    """(m, t) of every instance, in run order."""
    return [(m, t) for m, n in SIZES for t in range(n)]


def run_tree() -> list[dict]:
    """Solve the instance set with the relaypair on the import path."""
    import relaypair as rp
    import relaypair.dual as dual

    lap = dual.linear_sum_assignment
    calls = [0]

    def counted(cost):
        calls[0] += 1
        return lap(cost)

    dual.linear_sum_assignment = counted
    budgets = rp.IndividualBudgets(*BUDGETS)
    records = []

    def record(real, m, t, solver, budget, reuse, solve):
        calls[0] = 0
        t0 = time.perf_counter()
        rep = solve()
        dt = time.perf_counter() - t0
        limits = {"budgets": budgets} if budget is None else {"total_budget": budget}
        ok = (rep.dual_value >= rep.primal_rate - TOL * max(1.0, rep.primal_rate)
              and rp.validate_allocation(real, rep.allocation, extra_allowed=reuse,
                                         **limits) == [])
        records.append({"m": m, "t": t, "solver": solver, "budget": budget,
                        "rate": rep.primal_rate, "dual": rep.dual_value,
                        "iterations": rep.iterations, "assignments": calls[0],
                        "converged": rep.converged, "ms": dt * 1e3, "ok": bool(ok)})
        return rep

    for m, t in instances():
        sr, sd, rd = PROFILES[t % 3]
        cfg = rp.RicianConfig(k_factor=1.0, mean_sq_sr=sr, mean_sq_sd=sd, mean_sq_rd=rd,
                              noise_var=1.0, m=m,
                              weight_rule=rp.WeightRule.LINEAR_RAMP if t % 2
                              else rp.WeightRule.ALL_ONE)
        real = rp.sample_realization(cfg, 9000 + t)
        ind = record(real, m, t, "individual", None, False,
                     lambda: rp.solve_individual(real, budgets))
        record(real, m, t, "extra_individual", None, True,
               lambda: rp.solve_extra_individual(real, budgets, warm_pairing=ind.pairing))
        for p in (SHARED, *(SHARED_SMALL_M if m <= 32 else ())):
            record(real, m, t, "total", p, False, lambda: rp.solve_total(real, p))
            record(real, m, t, "extra_total", p, True, lambda: rp.solve_extra_total(real, p))
    return records


def _tree_records(tree: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, __file__, "--run"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _rise(new: float, old: float) -> float:
    """(new - old) relative to old."""
    return (new - old) / max(abs(old), 1e-300)


def _stats(records: list[dict]) -> dict:
    gaps = np.array([(r["dual"] - r["rate"]) / max(r["rate"], 1e-12) for r in records])
    iters = np.array([r["iterations"] for r in records])
    laps = np.array([r["assignments"] for r in records])
    return {"median_ms": float(np.median([r["ms"] for r in records])),
            "total_ms": float(sum(r["ms"] for r in records)),
            "median_gap": float(np.median(gaps)), "largest_gap": float(gaps.max()),
            "median_iterations": float(np.median(iters)),
            "largest_iterations": int(iters.max()),
            "median_assignments": float(np.median(laps)),
            "largest_assignments": int(laps.max()),
            "not_converged": sum(not r["converged"] for r in records),
            "failed_checks": sum(not r["ok"] for r in records)}


def _key(record: dict) -> tuple:
    return record["m"], record["t"], record["solver"], record["budget"]


def compare(before: list[dict], after: list[dict]) -> dict:
    """Per M, solver and budget: both trees' stats, the rate losses and
    gains of ``after`` above TOL relative, and its bounds above TOL
    relative over ``before``'s."""
    old = {_key(r): r for r in before}
    table = {}
    rows = sorted({(r["m"], r["solver"], r["budget"]) for r in after},
                  key=lambda k: (k[0], SOLVERS.index(k[1]), k[2] or 0.0))
    for m, solver, budget in rows:
        new = [r for r in after if (r["m"], r["solver"], r["budget"]) == (m, solver, budget)]
        ref = [old[_key(r)] for r in new]
        losses, gains = [], []
        for r, o in zip(new, ref):
            rel = _rise(r["rate"], o["rate"])
            if rel < -TOL:
                losses.append({"t": r["t"], "relative": rel})
            elif rel > TOL:
                gains.append({"t": r["t"], "relative": rel})
        rises = [_rise(r["dual"], o["dual"]) for r, o in zip(new, ref)]
        name = f"M={m} {solver}" + ("" if budget is None else f" P={budget:g}")
        table[name] = {"instances": len(new), "before": _stats(ref), "after": _stats(new),
                       "losses": losses, "gains": gains,
                       "bound_rises": sum(rise > TOL for rise in rises),
                       "largest_bound_rise": max(rises)}
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--run", action="store_true",
                    help="solve the set with the relaypair on the import path and "
                         "print the per-instance records as JSON")
    args = ap.parse_args(argv)
    if args.run:
        json.dump(run_tree(), sys.stdout)
        return 0
    if args.parent is None or args.out is None:
        ap.error("--parent and --out are required")
    here = Path(__file__).resolve().parent.parent
    before = _tree_records(args.parent.resolve())
    after = _tree_records(here)
    result = {"instances": "M = 4/8/16 x 60, M = 32 x 30, M = 64 x 12, M = 128 x 6; "
                           "sample_realization seed 9000+t, "
                           "profiles 3/1/3, 5/1/1, 1/1/5 rotating, ramp weights on odd t, "
                           "split budgets (4, 1), extra-direct solves warm-started "
                           "from solve_individual, whose time is not counted in theirs; "
                           "shared budget P = 5, and P = 0.5 and 50 at M <= 32",
              "tolerance": TOL, "by_m_and_solver": compare(before, after)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
