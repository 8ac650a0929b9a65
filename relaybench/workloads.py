"""The benchmark's instances and its three workloads.

Instances use Rician fading with K = 1 and unit noise, the budgets P = 5
(shared) and (Ps, Pr) = (4, 1) (split).  Realizations rotate over the
mean-square profiles SR/SD/RD = 3/1/3, 5/1/1 and 1/1/5 and over the two
weight rules (all one, linear ramp 1..2).

The instances are a fixed suite drawn from ``SUITE_SEED``, and every solve
uses the solvers' default dual initialization; ``--seed`` sets only the
order of the operations in each round.  Solve time varies several-fold
with the realization and with the initial duals (see the README), so
inputs drawn afresh for each seed would make the timings measure the draw
more than the program.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import checks, reference

K_FACTOR = 1.0
PROFILES = ((3.0, 1.0, 3.0), (5.0, 1.0, 1.0), (1.0, 1.0, 5.0))
P_TOTAL = 5.0
P_SPLIT = (4.0, 1.0)
SUITE_SEED = 2010


@dataclass(frozen=True)
class Problem:
    name: str
    split: bool
    extra: bool

    def limits(self) -> dict:
        if self.split:
            return {"p_source": P_SPLIT[0], "p_relay": P_SPLIT[1]}
        return {"total": P_TOTAL}


TOTAL = Problem("total", split=False, extra=False)
EXTRA_TOTAL = Problem("extra-total", split=False, extra=True)
INDIVIDUAL = Problem("individual", split=True, extra=False)
EXTRA_INDIVIDUAL = Problem("extra-individual", split=True, extra=True)
PROBLEMS = (TOTAL, INDIVIDUAL, EXTRA_TOTAL, EXTRA_INDIVIDUAL)


def rician_gains(rng, mean_sq: float, m: int) -> np.ndarray:
    """|h|^2 of i.i.d. Rician taps with factor K_FACTOR and E|h|^2 = mean_sq."""
    s = np.sqrt(mean_sq)
    los = np.sqrt(K_FACTOR / (K_FACTOR + 1.0)) * s * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
    z = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    return np.abs(los + np.sqrt(1.0 / (K_FACTOR + 1.0)) * s * z) ** 2


def weights(m: int, ramp: bool) -> np.ndarray:
    return 1.0 + np.arange(m) / (m - 1) if ramp else np.ones(m)


def realization(rp, seed: int, m: int, combo: int, draw: int):
    """One realization of size m.  ``combo`` picks the profile (combo mod 3)
    and the weight rule (combo mod 2, 1 = ramp); ``draw`` picks the fading
    draw for this seed."""
    sr, sd, rd = PROFILES[combo % 3]
    rng = np.random.default_rng([seed, m, draw])
    a_sd = rician_gains(rng, sd, m)
    a_sr = rician_gains(rng, sr, m)
    a_rd = rician_gains(rng, rd, m)
    return rp.ChannelRealization(m=m, a_sd=a_sd, a_sr=a_sr, a_rd=a_rd,
                                 w=weights(m, ramp=combo % 2 == 1))


def solve(rp, problem: Problem, real):
    """Solve as ``relaypair solve`` does.  Returns the report and the list of
    (problem, report) outputs to check: split budgets with extra-direct
    reuse start from a ``solve_individual`` pairing, whose report is an
    output too."""
    if not problem.split:
        fn = rp.solve_extra_total if problem.extra else rp.solve_total
        rep = fn(real, P_TOTAL)
        return rep, [(problem, rep)]
    budgets = rp.IndividualBudgets(*P_SPLIT)
    if not problem.extra:
        rep = rp.solve_individual(real, budgets)
        return rep, [(problem, rep)]
    warm = rp.solve_individual(real, budgets)
    rep = rp.solve_extra_individual(real, budgets, warm_pairing=warm.pairing)
    return rep, [(INDIVIDUAL, warm), (problem, rep)]


def warm_up(rp, problems) -> None:
    """One untimed solve per problem on a fixed M=4 instance."""
    real = realization(rp, 0, 4, 0, 0)
    for problem in problems:
        solve(rp, problem, real)


def direct_rate(real, problem: Problem) -> float:
    budget = P_SPLIT[0] if problem.split else P_TOTAL
    return reference.direct_only_rate(real, budget, problem.extra)


def dual_bound(real, problem: Problem) -> float:
    return reference.dual_bound(real, extra=problem.extra, **problem.limits())


@dataclass
class Tally:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    round_rates: list = dataclasses.field(default_factory=list)   # (solves/s, trials/s)
    solve_ms: dict = dataclasses.field(default_factory=dict)      # class -> wall times
    rates: list = dataclasses.field(default_factory=list)
    cert_ratios: list = dataclasses.field(default_factory=list)
    oracle_ratios: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)     # failed operations
    failures: list = dataclasses.field(default_factory=list)   # wrong outputs

    def timed(self, key, seconds: float) -> None:
        self.solve_ms.setdefault(key, []).append(seconds * 1e3)


def _order(seed: int, r: int, n: int) -> np.ndarray:
    """The seed's order of a round's n operations."""
    return np.random.default_rng([seed, r]).permutation(n)


class Sweep:
    """A fixed suite of realizations, two per size, solved once by each of
    the workload's problems in every round.  The six realizations cover the
    three profiles and both weight rules once.  The seed sets the order of
    the solves in each round.
    """

    def __init__(self, rp, seed: int, problems, sizes):
        self.rp = rp
        self.seed = seed
        self.problems = problems
        self.reals = [realization(rp, SUITE_SEED, m, 2 * i + s, s)
                      for i, m in enumerate(sizes) for s in range(2)]
        self._refs = {}

    def warm_up(self):
        warm_up(self.rp, self.problems)

    def round(self, r: int, tally: Tally) -> list:
        ops = [(i, problem) for i in range(len(self.reals)) for problem in self.problems]
        outputs = []
        wall = 0.0
        for k in _order(self.seed, r, len(ops)):
            i, problem = ops[k]
            real = self.reals[i]
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                _, reports = solve(self.rp, problem, real)
            except Exception as exc:  # a failed solve is counted, the run goes on
                tally.failed += 1
                tally.errors.append(f"{problem.name} m={real.m} #{i}: {exc!r}")
                continue
            dt = time.perf_counter() - t0
            wall += dt
            tally.timed((problem.name, real.m), dt)
            outputs.append((i, reports))
        if outputs:
            tally.round_rates.append((len(outputs) / wall, len(self.reals) / wall))
        return outputs

    def _reference(self, i: int, problem: Problem):
        key = (i, problem.name)
        if key not in self._refs:
            real = self.reals[i]
            self._refs[key] = (direct_rate(real, problem), dual_bound(real, problem))
        return self._refs[key]

    def check(self, rounds: list, tally: Tally) -> None:
        for r, outputs in enumerate(rounds):
            for i, reports in outputs:
                real = self.reals[i]
                for problem, rep in reports:
                    direct, bound = self._reference(i, problem)
                    bad = checks.check_solve(real, rep, problem.limits(), extra=problem.extra,
                                             direct_rate=direct, upper_bound=bound)
                    tally.failures += [f"{problem.name} m={real.m} #{i} round {r}: {b}"
                                       for b in bad]
                if r == 0:
                    # the last report is the workload's problem; a warm start precedes it
                    tally.rates.append(rep.primal_rate)
                    tally.cert_ratios.append(rep.primal_rate / rep.dual_value)
                    tally.oracle_ratios.append(rep.primal_rate / bound)


class MonteCarlo:
    """``experiments.run_scenario`` over four scenarios, one per problem, at
    M=4 with every scheme; a trial runs every scheme on one realization.
    Every round runs the same trials, from a fixed base seed; the seed sets
    the order of the scenarios in each round."""

    SCHEMES = ("Proposed", "ScpWeighted", "ScpUnweighted", "Fixed", "DualBound", "Oracle")

    def __init__(self, rp, seed: int, trials: int):
        self.rp = rp
        self.seed = seed
        self.problems = PROBLEMS
        self.scenarios = []
        for i, problem in enumerate(PROBLEMS):
            sr, sd, rd = PROFILES[i % 3]
            rician = rp.RicianConfig(
                k_factor=K_FACTOR, mean_sq_sr=sr, mean_sq_sd=sd, mean_sq_rd=rd,
                noise_var=1.0, m=4,
                weight_rule=rp.WeightRule.LINEAR_RAMP if i % 2 else rp.WeightRule.ALL_ONE)
            budgets = rp.IndividualBudgets(*P_SPLIT) if problem.split else None
            self.scenarios.append((problem, rp.Scenario(
                name=problem.name, rician=rician,
                total_budget=None if problem.split else P_TOTAL, budgets=budgets,
                extra_direct=problem.extra, m_list=(4,), trials=trials,
                schemes=self.SCHEMES)))
        self._refs = {}

    def warm_up(self):
        warm_up(self.rp, self.problems)

    def round(self, r: int, tally: Tally) -> list:
        outputs = []
        wall = solve_s = 0.0
        for k in _order(self.seed, r, len(self.scenarios)):
            problem, sc = self.scenarios[k]
            tally.attempted += sc.trials
            rows = []
            t0 = time.perf_counter()
            try:
                for row in self.rp.run_scenario(sc, SUITE_SEED, parallel=0):
                    rows.append(row)
            except Exception as exc:  # the trials left in the scenario count as failed
                tally.errors.append(f"{problem.name}: {exc!r}")
            wall += time.perf_counter() - t0
            done = {}
            for row in rows:
                done.setdefault(row.trial, {})[row.scheme] = row
            complete = [t for t, by in done.items() if len(by) == len(self.SCHEMES)]
            tally.failed += sc.trials - len(complete)
            for t in complete:
                solve_s += done[t]["Proposed"].wall_time
                tally.timed(problem.name, done[t]["Proposed"].wall_time)
                outputs.append((problem, sc, done[t]))
        if outputs:
            tally.round_rates.append((len(outputs) / solve_s, len(outputs) / wall))
        return outputs

    def _reference(self, problem: Problem, sc, row):
        key = (problem.name, row.trial)
        if key not in self._refs:
            real = self.rp.sample_realization(dataclasses.replace(sc.rician, m=row.m), row.seed)
            pooled = sum(P_SPLIT) if problem.split else P_TOTAL
            self._refs[key] = (reference.brute_force_total(real, pooled, problem.extra),
                               direct_rate(real, problem), dual_bound(real, problem))
        return self._refs[key]

    def check(self, rounds: list, tally: Tally) -> None:
        for r, outputs in enumerate(rounds):
            for problem, sc, by_scheme in outputs:
                row = by_scheme["Proposed"]
                brute, direct, bound = self._reference(problem, sc, row)
                rates = {s: x.rate for s, x in by_scheme.items()}
                ref_extra = rates["Oracle"] if problem.split and problem.extra else None
                bad = checks.check_trial(rates, split=problem.split, brute=brute,
                                         reference_extra=ref_extra,
                                         direct_rate=direct, upper_bound=bound)
                tally.failures += [f"{problem.name} trial {row.trial} round {r}: {b}"
                                   for b in bad]
                if r == 0:
                    tally.rates.append(row.rate)
                    tally.cert_ratios.append(row.rate / row.dual_value)
                    tally.oracle_ratios.append(row.rate / rates["Oracle"])


WORKLOADS = {
    "sweep-total": lambda rp, seed: Sweep(rp, seed, (TOTAL, EXTRA_TOTAL), (16, 32, 64)),
    "sweep-individual": lambda rp, seed: Sweep(rp, seed, (INDIVIDUAL, EXTRA_INDIVIDUAL),
                                               (8, 16, 32)),
    "montecarlo-oracle": lambda rp, seed: MonteCarlo(rp, seed, trials=6),
}
