"""Split-budget solves of a working tree against a parent checkout.

Runs both split-budget solvers (``solve_individual`` and the warm-started
``solve_extra_individual``) on one instance set in each tree and writes a
JSON file with the two trees' numbers side by side, per M and solver:
median and total solve time, losses and gains of the rate above 1e-9
relative, the median and largest relative gap, the median and largest
iteration count (for the cutting planes, the count of cuts) and the count
of reports with ``converged=False``.  Weak duality (dual >= primal - 1e-9)
and ``validate_allocation`` are checked on every report; the count of
reports failing either is written too.

The instance set: M = 4, 8, 16 with 60 draws each, M = 32 with 30,
M = 64 with 12 and M = 128 with 6, ``sample_realization`` seed 9000 + t,
Rician K = 1 with the mean-square profiles SR/SD/RD = 3/1/3, 5/1/1 and
1/1/5 rotating over t, linear-ramp weights on odd t, budgets (Ps, Pr) =
(4, 1).  The warm start of
``solve_extra_individual`` is a ``solve_individual`` run on the same
instance; its time is not counted in the extra-direct solve.  Each M has
rows of its own, so the rows of M <= 32 compare with files written before
M = 64 and 128 joined the set.

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
TOL = 1e-9
SOLVERS = ("individual", "extra_individual")


def instances():
    """(m, t) of every instance, in run order."""
    return [(m, t) for m, n in SIZES for t in range(n)]


def run_tree() -> list[dict]:
    """Solve the instance set with the relaypair on the import path."""
    import relaypair as rp

    budgets = rp.IndividualBudgets(*BUDGETS)
    records = []
    for m, t in instances():
        sr, sd, rd = PROFILES[t % 3]
        cfg = rp.RicianConfig(k_factor=1.0, mean_sq_sr=sr, mean_sq_sd=sd, mean_sq_rd=rd,
                              noise_var=1.0, m=m,
                              weight_rule=rp.WeightRule.LINEAR_RAMP if t % 2
                              else rp.WeightRule.ALL_ONE)
        real = rp.sample_realization(cfg, 9000 + t)
        t0 = time.perf_counter()
        ind = rp.solve_individual(real, budgets)
        t1 = time.perf_counter()
        extra = rp.solve_extra_individual(real, budgets, warm_pairing=ind.pairing)
        t2 = time.perf_counter()
        for name, rep, dt, reuse in (("individual", ind, t1 - t0, False),
                                     ("extra_individual", extra, t2 - t1, True)):
            ok = (rep.dual_value >= rep.primal_rate - TOL * max(1.0, rep.primal_rate)
                  and rp.validate_allocation(real, rep.allocation, budgets=budgets,
                                             extra_allowed=reuse) == [])
            records.append({"m": m, "t": t, "solver": name, "rate": rep.primal_rate,
                            "dual": rep.dual_value, "iterations": rep.iterations,
                            "converged": rep.converged, "ms": dt * 1e3, "ok": bool(ok)})
    return records


def _tree_records(tree: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, __file__, "--run"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _stats(records: list[dict]) -> dict:
    gaps = np.array([(r["dual"] - r["rate"]) / max(r["rate"], 1e-12) for r in records])
    iters = np.array([r["iterations"] for r in records])
    return {"median_ms": float(np.median([r["ms"] for r in records])),
            "total_ms": float(sum(r["ms"] for r in records)),
            "median_gap": float(np.median(gaps)), "largest_gap": float(gaps.max()),
            "median_iterations": float(np.median(iters)),
            "largest_iterations": int(iters.max()),
            "not_converged": sum(not r["converged"] for r in records),
            "failed_checks": sum(not r["ok"] for r in records)}


def _key(record: dict) -> tuple:
    return record["m"], record["t"], record["solver"]


def compare(before: list[dict], after: list[dict]) -> dict:
    """Per M and solver: both trees' stats, and the rate losses and gains of
    ``after`` above TOL relative."""
    old = {_key(r): r for r in before}
    table = {}
    for m, _ in SIZES:
        for solver in SOLVERS:
            new = [r for r in after if r["m"] == m and r["solver"] == solver]
            ref = [old[_key(r)] for r in new]
            losses, gains = [], []
            for r, o in zip(new, ref):
                rel = (r["rate"] - o["rate"]) / max(1.0, abs(o["rate"]))
                if rel < -TOL:
                    losses.append({"t": r["t"], "relative": rel})
                elif rel > TOL:
                    gains.append({"t": r["t"], "relative": rel})
            table[f"M={m} {solver}"] = {"instances": len(new), "before": _stats(ref),
                                        "after": _stats(new), "losses": losses,
                                        "gains": gains}
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
                           "budgets (4, 1); extra-direct solves warm-started "
                           "from solve_individual, whose time is not counted in theirs",
              "tolerance": TOL, "by_m_and_solver": compare(before, after)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
