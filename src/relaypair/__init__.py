"""Joint subcarrier pairing and power allocation for two-hop
decode-and-forward relay OFDM, via dual decomposition."""

__version__ = "0.1.0"

from .baselines import BaselineKind, baseline_pairing, evaluate_baseline
from .channel import (equivalent_gain, power_split, read_instance,
                      relay_beneficial_total, sample_realization, write_instance)
from .errors import (ConfigError, DomainError, InfeasibleBudgetError,
                     RelayPairError, SizeLimitError, ValidationError)
from .experiments import (ResultRow, Scenario, concavity_probe,
                          duality_gap_stats, parse_scenario_file, run_scenario,
                          run_trial, trial_seed, write_results)
from .oracle import (exhaustive_extra_total, exhaustive_individual,
                     exhaustive_total, reference_extra_individual)
from .pairing import scp_pairing
from .rates import nats_to_bits, pair_rate, pair_rate_relay_raw, weighted_sum_rate
from .refine import zero_crossing_refine
from .solver_extra import solve_extra_individual, solve_extra_total
from .solver_individual import solve_individual
from .solver_total import solve_total
from .types import (Allocation, ChannelRealization, IndividualBudgets,
                    PairMode, RicianConfig, SolveReport, SolverConfig,
                    WeightRule)
from .validate import assert_feasible, validate_allocation
from .waterfill import WaterfillResult, kkt_residual, waterfill

__all__ = [name for name in dir() if not name.startswith("_")]
