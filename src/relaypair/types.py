"""Core value types shared by the solvers, oracles and the experiment harness.

All vectors are numpy float arrays of length ``m`` indexed by the first-slot
subcarrier ``k`` (0-based internally; the instance-file interface is 1-based).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError


class PairMode(enum.IntEnum):
    DIRECT = 0
    RELAY = 1
    INTERMEDIATE = 2


class WeightRule(enum.Enum):
    ALL_ONE = "all_one"
    LINEAR_RAMP = "linear_ramp"


def _as_vector(x, m, name):
    v = np.asarray(x, dtype=float)
    if v.shape != (m,):
        raise ValidationError(f"{name} must have shape ({m},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(v < 0):
        raise ValidationError(f"{name} contains negative entries")
    return np.where(v < np.finfo(float).tiny, 0.0, v)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-subcarrier normalized gains of the SD/SR/RD links plus rate weights;
    subnormal entries, whose reciprocals overflow, are held as 0."""

    m: int
    a_sd: np.ndarray
    a_sr: np.ndarray
    a_rd: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("m must be >= 1")
        for name in ("a_sd", "a_sr", "a_rd", "w"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), self.m, name))


@dataclass(frozen=True)
class RicianConfig:
    """Rician fading statistics for sampling i.i.d. channel realizations.

    ``mean_sq_*`` are the mean square channel gains E[|h|^2] per link; the
    sampled normalized gain is |h|^2 / noise_var.
    """

    k_factor: float
    mean_sq_sr: float
    mean_sq_sd: float
    mean_sq_rd: float
    noise_var: float
    m: int
    weight_rule: WeightRule = WeightRule.ALL_ONE

    def __post_init__(self):
        if self.k_factor < 0:
            raise ConfigError("k_factor must be >= 0")
        if min(self.mean_sq_sr, self.mean_sq_sd, self.mean_sq_rd) <= 0:
            raise ConfigError("mean square gains must be > 0")
        if self.noise_var <= 0:
            raise ConfigError("noise_var must be > 0")
        if self.m < 1:
            raise ConfigError("m must be >= 1")

    def weights(self) -> np.ndarray:
        if self.weight_rule is WeightRule.ALL_ONE or self.m == 1:
            return np.ones(self.m)
        k = np.arange(self.m, dtype=float)
        return 1.0 + k / (self.m - 1)


@dataclass(frozen=True)
class IndividualBudgets:
    p_source: float
    p_relay: float

    def __post_init__(self):
        if self.p_source < 0 or self.p_relay < 0:
            raise ConfigError("power budgets must be >= 0")


def check_permutation(perm: np.ndarray, m: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (m,) or not np.array_equal(np.sort(perm), np.arange(m)):
        raise ValidationError("pairing is not a permutation of 0..m-1")
    return perm


@dataclass
class Allocation:
    """A primal solution: pairing, per-pair modes and per-pair powers.

    ``p_s[k]`` is first-slot source power on subcarrier k, ``p_r[k]`` the
    second-slot relay power on subcarrier ``pairing[k]``, and ``q_s[k]`` the
    extra second-slot source power on subcarrier ``pairing[k]``.
    """

    pairing: np.ndarray
    modes: np.ndarray
    p_s: np.ndarray
    p_r: np.ndarray
    q_s: np.ndarray

    @classmethod
    def zeros(cls, m: int) -> "Allocation":
        return cls(
            pairing=np.arange(m),
            modes=np.full(m, int(PairMode.DIRECT), dtype=np.int8),
            p_s=np.zeros(m),
            p_r=np.zeros(m),
            q_s=np.zeros(m),
        )

    def total_power(self) -> float:
        return float(self.p_s.sum() + self.p_r.sum() + self.q_s.sum())


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limit of the dual drivers of ``relaypair.dual``.

    The shared-budget solvers run the assignment-dual search
    (``dual.search``) and the split-budget solvers the cutting planes
    (``dual.cuts``).  ``max_iter_hard`` caps the assignment evaluations of
    both: the search's steps and the cuts.  Neither driver, nor any
    baseline, draws a random number.  The stopping thresholds are
    constants of ``relaypair.dual``."""

    max_iter_hard: int = 30000

    def __post_init__(self):
        if self.max_iter_hard < 1:
            raise ConfigError("max_iter_hard must be >= 1")


@dataclass
class SolveReport:
    pairing: np.ndarray
    allocation: Allocation
    primal_rate: float
    dual_value: float
    iterations: int
    converged: bool = True
    trace: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return self.dual_value - self.primal_rate
