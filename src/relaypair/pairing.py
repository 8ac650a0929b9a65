"""Pairing repair, and the sorted channel pairing.

The dual decomposition lets every first-slot subcarrier pick its best
second-slot partner independently, which in general breaks the one-to-one
matching.  ``amend_pairing`` repairs such an assignment into a permutation:
for each over-subscribed column keep the highest-scoring row and push the
rest to the free column whose dual price is closest.  ``scp_pairing`` is
the rank-matched pairing that the solvers try as a candidate and the
baselines evaluate.
"""

from __future__ import annotations

import numpy as np


def amend_pairing(scores: np.ndarray, assignment: np.ndarray,
                  alpha: np.ndarray) -> np.ndarray:
    m = scores.shape[0]
    sel = np.asarray(assignment, dtype=np.int64).copy()
    counts = np.bincount(sel, minlength=m)
    if np.all(counts == 1):
        return sel
    empty = [j for j in range(m) if counts[j] == 0]
    for j in range(m):
        if counts[j] <= 1:
            continue
        rows = [k for k in range(m) if sel[k] == j]
        keep = rows[int(np.argmax(scores[rows, j]))]
        movers = [k for k in rows if k != keep]
        while movers:
            dist = np.abs(alpha[j] - alpha[empty])
            target = empty.pop(int(np.argmin(dist)))
            r = movers.pop(int(np.argmax(scores[movers, target])))
            sel[r] = target
        counts[j] = 1
    return sel


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
