import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaypair.pairing import amend_pairing
from relaypair.types import check_permutation


def test_amend_already_permutation():
    scores = np.array([[2.0, 1.0], [1.0, 2.0]])
    sel = np.array([0, 1])
    out = amend_pairing(scores, sel, np.zeros(2))
    assert np.array_equal(out, sel)


def test_amend_two_row_collision():
    # both rows want column 0; the higher-score row keeps it
    scores = np.array([[5.0, 1.0], [4.0, 3.0]])
    sel = np.array([0, 0])
    out = amend_pairing(scores, sel, np.array([0.0, 0.1]))
    assert list(out) == [0, 1]


def test_amend_three_row_collision():
    # all rows pick column 1; keeper is the max-score row, movers go to the
    # empty column whose pairing price is closest to the collided one
    scores = np.array([[1.0, 9.0, 2.0],
                       [3.0, 7.0, 6.0],
                       [2.0, 8.0, 4.0]])
    sel = np.array([1, 1, 1])
    alpha = np.array([0.5, 0.0, 0.45])
    out = amend_pairing(scores, sel, alpha)
    assert list(out) == [1, 2, 0]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_amend_always_permutation(m, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(m, m))
    alpha = rng.uniform(0, 2, m)
    sel = scores.argmax(axis=1)
    out = amend_pairing(scores, sel, alpha)
    check_permutation(out, m)
    # rows that had no collision keep their greedy column
    counts = np.bincount(sel, minlength=m)
    for k in range(m):
        if counts[sel[k]] == 1:
            assert out[k] == sel[k]
