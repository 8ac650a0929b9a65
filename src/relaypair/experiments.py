"""Monte-Carlo driver: scenario sweeps, duality-gap statistics, concavity probe.

One channel realization per (m, trial) is shared by every scheme, and the
trial seed is derived by hashing (base_seed, scenario name, m, trial) so
results are reproducible and independent of execution order or parallelism.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import BaselineKind, baseline_pairing, evaluate_baseline
from .channel import sample_realization
from .errors import ConfigError
from .oracle import (exhaustive_extra_total, exhaustive_individual,
                     exhaustive_total, reference_extra_individual)
from .solver_extra import solve_extra_individual, solve_extra_total
from .solver_individual import solve_individual
from .solver_total import solve_total
from .types import IndividualBudgets, RicianConfig, SolveReport, SolverConfig, WeightRule
from .validate import assert_feasible

ALL_SCHEMES = ("Proposed", "ScpWeighted", "ScpUnweighted", "Fixed",
               "DualBound", "Oracle")
RESULT_FIELDS = ("scenario", "scheme", "m", "trial", "seed", "rate",
                 "dual_value", "gap", "iterations", "wall_time")


@dataclass(frozen=True)
class Scenario:
    name: str
    rician: RicianConfig
    total_budget: float | None = 5.0
    budgets: IndividualBudgets | None = None
    extra_direct: bool = False
    m_list: tuple = (4, 8, 16, 32, 64)
    trials: int = 1000
    schemes: tuple = ("Proposed",)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if (self.total_budget is None) == (self.budgets is None):
            raise ConfigError("exactly one constraint (total or individual) required")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown:
            raise ConfigError(f"unknown schemes: {sorted(unknown)}")
        if "Oracle" in self.schemes and max(self.m_list) > 6:
            raise ConfigError("Oracle scheme requires max(m_list) <= 6")


@dataclass
class ResultRow:
    scenario: str
    scheme: str
    m: int
    trial: int
    seed: int
    rate: float
    dual_value: float
    gap: float
    iterations: int
    wall_time: float


def trial_seed(base_seed: int, name: str, m: int, trial: int) -> int:
    h = hashlib.blake2b(f"{base_seed}|{name}|{m}|{trial}".encode(),
                        digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _validate(sc, real, alloc):
    assert_feasible(real, alloc, total_budget=sc.total_budget,
                    budgets=sc.budgets, extra_allowed=sc.extra_direct)


def solve_proposed(real, *, total_budget: float | None = None,
                   budgets: IndividualBudgets | None = None, extra_direct: bool = False,
                   cfg: SolverConfig | None = None, seed: int = 0,
                   collect_trace: bool = False) -> SolveReport:
    """The proposed solver for one constraint; with extra-direct reuse under
    split budgets it starts from the ``solve_individual`` pairing."""
    if total_budget is not None:
        fn = solve_extra_total if extra_direct else solve_total
        return fn(real, total_budget, cfg=cfg, seed=seed, collect_trace=collect_trace)
    if not extra_direct:
        return solve_individual(real, budgets, cfg=cfg, seed=seed,
                                collect_trace=collect_trace)
    warm = solve_individual(real, budgets, cfg=cfg, seed=seed)
    return solve_extra_individual(real, budgets, cfg=cfg, seed=seed,
                                  warm_pairing=warm.pairing, collect_trace=collect_trace)


def solve_oracle(real, *, total_budget: float | None = None,
                 budgets: IndividualBudgets | None = None, extra_direct: bool = False):
    """The brute-force optimum for one constraint (the reference value with
    extra-direct reuse under split budgets): (rate, pairing, relay use or
    None)."""
    if total_budget is not None:
        if extra_direct:
            return exhaustive_extra_total(real, total_budget)
        return (*exhaustive_total(real, total_budget), None)
    if extra_direct:
        return reference_extra_individual(real, budgets)
    return (*exhaustive_individual(real, budgets), None)


_BASELINE_OF = {"ScpWeighted": BaselineKind.SCP_WEIGHTED,
                "ScpUnweighted": BaselineKind.SCP_UNWEIGHTED,
                "Fixed": BaselineKind.FIXED_IDENTITY}


def run_trial(sc: Scenario, base_seed: int, m: int, trial: int,
              cfg: SolverConfig | None = None) -> list[ResultRow]:
    seed = trial_seed(base_seed, sc.name, m, trial)
    real = sample_realization(dataclasses.replace(sc.rician, m=m), seed)
    limits = dict(total_budget=sc.total_budget, budgets=sc.budgets,
                  extra_direct=sc.extra_direct)
    rows: list[ResultRow] = []
    proposed = None

    def add(scheme, rate, dual=np.nan, iters=0, dt=0.0):
        gap = dual - rate if np.isfinite(dual) else np.nan
        rows.append(ResultRow(sc.name, scheme, m, trial, seed, rate,
                              dual, gap, iters, dt))

    for scheme in sc.schemes:
        t0 = time.perf_counter()
        if scheme in ("Proposed", "DualBound"):
            if proposed is None:
                proposed = solve_proposed(real, **limits, cfg=cfg, seed=seed)
                _validate(sc, real, proposed.allocation)
            dt = time.perf_counter() - t0
            if scheme == "Proposed":
                add("Proposed", proposed.primal_rate, proposed.dual_value,
                    proposed.iterations, dt)
            else:
                add("DualBound", proposed.dual_value, proposed.dual_value,
                    proposed.iterations, dt)
        elif scheme in _BASELINE_OF:
            pairing = baseline_pairing(real, _BASELINE_OF[scheme])
            rep = evaluate_baseline(real, pairing, **limits)
            _validate(sc, real, rep.allocation)
            add(scheme, rep.primal_rate, rep.dual_value, rep.iterations,
                time.perf_counter() - t0)
        elif scheme == "Oracle":
            add("Oracle", solve_oracle(real, **limits)[0], dt=time.perf_counter() - t0)
    return rows


def run_scenario(sc: Scenario, base_seed: int, parallel: int = 0,
                 cfg: SolverConfig | None = None):
    """Yields ResultRow in deterministic (m, trial) order."""
    tasks = [(m, t) for m in sc.m_list for t in range(sc.trials)]
    if parallel and parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            for rows in pool.map(_run_trial_star,
                                 [(sc, base_seed, m, t, cfg) for m, t in tasks],
                                 chunksize=8):
                yield from rows
    else:
        for m, t in tasks:
            yield from run_trial(sc, base_seed, m, t, cfg)


def _run_trial_star(args):
    return run_trial(*args)


def write_results(rows, path) -> int:
    n = 0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(RESULT_FIELDS)
        for r in rows:
            out.writerow([r.scenario, r.scheme, r.m, r.trial, r.seed,
                          repr(float(r.rate)), repr(float(r.dual_value)),
                          repr(float(r.gap)), r.iterations,
                          repr(float(r.wall_time))])
            n += 1
            fh.flush()
    return n


def duality_gap_stats(sc: Scenario, base_seed: int, rel_tol: float = 1e-3,
                      cfg: SolverConfig | None = None) -> dict:
    """Per-m fraction of trials whose relative duality gap exceeds rel_tol."""
    sc = dataclasses.replace(sc, schemes=("Proposed",))
    exceed = {m: 0 for m in sc.m_list}
    for row in run_scenario(sc, base_seed, cfg=cfg):
        if row.gap < -1e-9:
            raise AssertionError(
                f"weak duality violated at m={row.m} trial={row.trial}: {row.gap}")
        if row.gap / max(row.rate, 1e-12) > rel_tol:
            exceed[row.m] += 1
    return {m: exceed[m] / sc.trials for m in sc.m_list}


def concavity_probe(real, p_grid, use_oracle: bool | None = None,
                    cfg: SolverConfig | None = None) -> dict:
    """Rate vs budget along p_grid and the largest positive second difference."""
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size < 3 or np.any(np.diff(p_grid) <= 0):
        raise ConfigError("p_grid must be increasing with length >= 3")
    if use_oracle is None:
        use_oracle = real.m <= 4
    rates = np.empty(p_grid.size)
    for i, p in enumerate(p_grid):
        if use_oracle:
            rates[i] = exhaustive_total(real, float(p))[0]
        else:
            rates[i] = solve_total(real, float(p), cfg=cfg, seed=0).primal_rate
    second = rates[2:] - 2.0 * rates[1:-1] + rates[:-2]
    return {"p_grid": p_grid, "rates": rates,
            "max_positive_second_difference": float(max(second.max(), 0.0)),
            "second_differences": second}


# -- scenario files ----------------------------------------------------------

def parse_scenario_file(path) -> Scenario:
    """Plain key = value lines; '#' starts a comment."""
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad scenario line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            kv[key] = val

    def get(key, default=None):
        return kv.pop(key, default)

    name = get("name", "scenario")
    rician = RicianConfig(
        k_factor=float(get("k_factor", 1.0)),
        mean_sq_sr=float(get("mean_sq_sr", 3.0)),
        mean_sq_sd=float(get("mean_sq_sd", 1.0)),
        mean_sq_rd=float(get("mean_sq_rd", 3.0)),
        noise_var=float(get("noise_var", 1.0)),
        m=4,
        weight_rule=WeightRule(get("weight_rule", "all_one")),
    )
    constraint = get("constraint", "total")
    if constraint == "total":
        total = float(get("power", 5.0))
        budgets = None
    elif constraint == "individual":
        total = None
        budgets = IndividualBudgets(float(get("ps", 4.0)), float(get("pr", 1.0)))
    else:
        raise ConfigError(f"constraint must be total or individual, got {constraint!r}")
    extra = get("extra_direct", "false").lower() in ("1", "true", "yes")
    m_list = tuple(int(s) for s in get("m_list", "4,8,16,32,64").split(","))
    trials = int(get("trials", 1000))
    schemes = tuple(s.strip() for s in get("schemes", "Proposed").split(","))
    if kv:
        raise ConfigError(f"unknown scenario keys: {sorted(kv)}")
    return Scenario(name=name, rician=rician, total_budget=total,
                    budgets=budgets, extra_direct=extra, m_list=m_list,
                    trials=trials, schemes=schemes)
