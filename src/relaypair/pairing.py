"""The sorted channel pairing.

``scp_pairing`` is the rank-matched pairing that the solvers try as a
candidate and the baselines evaluate.
"""

from __future__ import annotations

import numpy as np


def scp_pairing(real, weighted: bool = True) -> np.ndarray:
    """Pair equal ranks of w_k * a_sr_k (a_sr_k if not ``weighted``) and
    a_rd_m, both descending."""
    key_first = real.w * real.a_sr if weighted else real.a_sr
    # argsort of the negated key is descending with smallest-index ties
    first = np.argsort(-key_first, kind="stable")
    second = np.argsort(-real.a_rd, kind="stable")
    perm = np.empty(real.m, dtype=np.int64)
    perm[first] = second
    return perm
