import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relaypair.refine as refine
from relaypair import (IndividualBudgets, assert_feasible, validate_allocation,
                       weighted_sum_rate, zero_crossing_refine)
from relaypair.solver_extra import extra_individual_allocate
from relaypair.types import PairMode

from conftest import manual_real, random_real


def _ref_crossing(f, lo, hi, grow=0, widths=None):
    """The root finder ``refine.crossing`` used before Brent's method: a
    fixed 80-step bisection after the same bracket growth (including its old
    habit of never testing the last doubled end).  Appends the final
    bracket's width relative to the returned point to ``widths``."""
    for _ in range(grow):
        if f(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        if grow:
            return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    if widths is not None:
        widths.append((hi - lo) / (0.5 * (lo + hi)))
    return 0.5 * (lo + hi)


def _check(real, p_src, p_rly, perm=None):
    if perm is None:
        perm = np.arange(real.m)
    alloc, diag = zero_crossing_refine(real, perm, p_src, p_rly)
    assert_feasible(real, alloc, budgets=IndividualBudgets(p_src, p_rly))
    return alloc, diag


def test_single_pair_intermediate():
    # relay decodes more than the destination can combine, so the boundary
    # mode absorbs both budgets whole: rate = 0.5 log(1 + 1*4 + 3*1)
    real = manual_real([1.0], [3.0], [3.0])
    alloc, diag = _check(real, 4.0, 1.0)
    assert diag["case"] == "intermediate"
    assert alloc.modes[0] == PairMode.INTERMEDIATE
    assert alloc.p_s[0] == pytest.approx(4.0, abs=1e-6)
    assert alloc.p_r[0] == pytest.approx(1.0, abs=1e-6)
    rate = weighted_sum_rate(real, alloc, extra_allowed=False)
    assert rate == pytest.approx(0.5 * np.log(8.0), abs=1e-6)


def test_all_direct_when_relay_useless():
    real = manual_real([2.0, 1.0], [1.0, 0.5], [3.0, 3.0])
    alloc, diag = _check(real, 3.0, 1.0)
    assert diag["case"] == "all_direct"
    assert np.all(alloc.modes == PairMode.DIRECT)
    assert np.all(alloc.p_r == 0)
    assert alloc.p_s.sum() == pytest.approx(3.0, abs=1e-8)


def test_relay_slack_with_large_relay_budget():
    real = manual_real([1.0, 1.0], [3.0, 3.0], [3.0, 3.0])
    alloc, diag = _check(real, 2.0, 100.0)
    assert diag["case"] == "relay_slack"
    assert alloc.p_r.sum() < 100.0


def test_source_slack_when_direct_links_dead():
    # a_sd = 0 pairs are relay-only; a tiny source budget cannot bind
    real = manual_real([0.0, 0.0], [2.0, 3.0], [2.0, 3.0])
    alloc, diag = _check(real, 50.0, 0.5)
    assert diag["case"] == "source_slack"
    assert alloc.p_r.sum() == pytest.approx(0.5, abs=1e-8)
    assert alloc.p_s.sum() < 50.0


def test_zero_relay_budget_forces_direct():
    real = manual_real([1.0, 0.5], [3.0, 2.0], [3.0, 2.0])
    alloc, diag = _check(real, 4.0, 0.0)
    assert np.all(alloc.p_r == 0)
    assert alloc.p_s.sum() == pytest.approx(4.0, abs=1e-8)


def test_relay_pairs_equalize_information():
    for seed in range(10):
        real = random_real(6, seed=seed)
        alloc, _ = _check(real, 4.0, 1.0)
        for k in range(6):
            if alloc.modes[k] == PairMode.RELAY and alloc.p_s[k] > 1e-12:
                decode = real.a_sr[k] * alloc.p_s[k]
                combine = (real.a_sd[k] * alloc.p_s[k]
                           + real.a_rd[alloc.pairing[k]] * alloc.p_r[k])
                assert decode == pytest.approx(combine, rel=1e-6)


def test_beats_fixed_power_splits():
    # the refinement should never lose to naive static budget splits
    rng = np.random.default_rng(5)
    for seed in range(10):
        real = random_real(4, seed=100 + seed)
        perm = rng.permutation(4)
        alloc, _ = _check(real, 4.0, 1.0, perm)
        best = weighted_sum_rate(real, alloc, extra_allowed=False)
        for _ in range(20):
            shares_s = rng.dirichlet(np.ones(4)) * 4.0
            other = manual_alloc_rate(real, perm, shares_s)
            assert other <= best + 1e-6


def manual_alloc_rate(real, perm, shares_s):
    # direct-only allocation spending the source budget, relay silent
    from relaypair import Allocation
    alloc = Allocation(pairing=np.asarray(perm, np.int64),
                       modes=np.zeros(real.m, np.int8),
                       p_s=shares_s, p_r=np.zeros(real.m),
                       q_s=np.zeros(real.m))
    return weighted_sum_rate(real, alloc, extra_allowed=False)


def test_crossing_tests_last_doubled_end():
    # two doublings of [0, 1] end at [2, 4], which holds the root 3
    assert refine.crossing(lambda r: 3.0 - r, 0.0, 1.0, grow=2) == pytest.approx(3.0, rel=1e-15)
    assert refine.crossing(lambda r: 3.0 - r, 0.0, 1.0, grow=1) is None


def test_step_like_relay_use_converges():
    # gains spread over twelve decades make the relay use fall almost like a
    # step at the crossing; Brent then mostly bisects, past brentq's default
    # of 100 iterations
    real = manual_real(
        [0.0, 0.0, 0.0, 4.118233490882953e-06],
        [1.540763568365419e-04, 5.119005299911984e-08, 2.1001173957582394e+05,
         5.43959823557782],
        [1.4067078922410872e-07, 1.0593032157992052e-10, 692.4070866664324,
         1.0953086735940026e+08],
        w=[1.4115338355756997, 0.6912667026426652, 1.6054224693163397,
           1.0865383676759195])
    p_rly = 0.05490997359981995
    alloc, diag = _check(real, 0.12223970670671509, p_rly, perm=np.array([1, 2, 0, 3]))
    assert diag["case"] == "interior"
    assert alloc.p_r.sum() == pytest.approx(p_rly, rel=1e-6)


_gain = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def _refine_inputs(draw):
    m = draw(st.integers(1, 16))
    vec = st.lists(_gain, min_size=m, max_size=m)
    a_sd = np.array(draw(vec))
    # rows with a dead direct link are relay-only: they reach interior_tail
    # and source_slack
    a_sd[np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = 0.0
    real = manual_real(a_sd, draw(vec), draw(vec),
                       w=draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m)))
    perm = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    p_src = 10.0 ** draw(st.floats(-2.0, 2.0))
    p_rly = 10.0 ** draw(st.floats(-2.0, 2.0))
    return real, perm, p_src, p_rly


# two pairs share the mode boundary a_rd/a_sd = 1; freeing only one of them
# gave rate 0.718 and source power over budget
_TIED = (manual_real([1.0, 1.0, 1.0, 100.0, 1.0], [1.0, 1.0, 1.0, 1000.0, 10.0],
                     [1.0, 1.0, 1.0, 1.0, 100.0], w=[1.0, 1.0, 1.0, 1.0, 2.0]),
         np.array([0, 1, 2, 4, 3]), 1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_refine_inputs())
@example(_TIED)
def test_brent_matches_bisection(inputs):
    real, perm, p_src, p_rly = inputs
    alloc, diag = zero_crossing_refine(real, perm, p_src, p_rly)
    assert_feasible(real, alloc, budgets=IndividualBudgets(p_src, p_rly))
    widths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "crossing", functools.partial(_ref_crossing, widths=widths))
        ref_alloc, ref_diag = zero_crossing_refine(real, perm, p_src, p_rly)
    assert diag["case"] == ref_diag["case"]
    if max(widths, default=0.0) <= 1e-14:
        assert diag["ratio"] == pytest.approx(ref_diag["ratio"], rel=1e-12)
        rate = weighted_sum_rate(real, alloc, extra_allowed=False)
        ref_rate = weighted_sum_rate(real, ref_alloc, extra_allowed=False)
        assert rate == pytest.approx(ref_rate, rel=1e-12)
    else:
        # 80 halvings of a wide bracket (say [0, 1e9] around a root near
        # 1e-6) leave the bisection short of float resolution; the crossing
        # then meets the relay budget at least as closely as the bisection
        assert diag["case"] in ("interior", "interior_tail")
        miss = abs(alloc.p_r.sum() - p_rly)
        assert miss <= abs(ref_alloc.p_r.sum() - p_rly) + 1e-12 * p_rly


def test_interior_refine_needs_few_nu_solves(monkeypatch):
    # the bisection spent 80 nu_solve calls on the crossing alone
    calls = []
    nu_solve = refine.nu_solve

    def counting(*args):
        calls.append(1)
        return nu_solve(*args)

    monkeypatch.setattr(refine, "nu_solve", counting)
    _, diag = zero_crossing_refine(random_real(32, seed=0), np.arange(32), 4.0, 1.0)
    assert diag["case"] == "interior"
    assert len(calls) <= 25


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tied_boundaries_share_the_intermediate_mode(m):
    # M identical pairs all sit on the boundary a_rd/a_sd = 3: each takes
    # 4/M source and 1/M relay power, combining 1 + 4/M + 3/M
    real = manual_real([1.0] * m, [3.0] * m, [3.0] * m)
    alloc, diag = _check(real, 4.0, 1.0)
    assert diag["case"] == "intermediate"
    assert np.all(alloc.modes == PairMode.INTERMEDIATE)
    rate = weighted_sum_rate(real, alloc, extra_allowed=False)
    assert rate == pytest.approx(0.5 * m * np.log1p(7.0 / m), rel=1e-12)


def test_tied_boundaries_continuous():
    # moving one of two tied boundaries by 1e-9 either way changes the rate
    # by about as much
    real, perm, p_src, p_rly = _TIED
    alloc, _ = _check(real, p_src, p_rly, perm)
    rate = weighted_sum_rate(real, alloc, extra_allowed=False)
    for shift in (-1e-9, 1e-9):
        moved = manual_real(real.a_sd, real.a_sr, real.a_rd + np.eye(5)[4] * shift, w=real.w)
        alloc, _ = _check(moved, p_src, p_rly, perm)
        assert weighted_sum_rate(moved, alloc, extra_allowed=False) == pytest.approx(rate, abs=1e-8)


_extreme_gain = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)
_budget = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


@st.composite
def _extreme_inputs(draw):
    m = draw(st.integers(1, 16))
    vec = st.lists(_extreme_gain, min_size=m, max_size=m)
    a_sd = np.array(draw(vec))
    # 30% of the rows have no direct link
    a_sd[np.array(draw(st.lists(st.integers(0, 9).map(lambda d: d < 3),
                                min_size=m, max_size=m)))] = 0.0
    real = manual_real(a_sd, draw(vec), draw(vec),
                       w=draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m)))
    perm = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    return real, perm, IndividualBudgets(draw(_budget), draw(_budget)), draw(st.data())


@settings(max_examples=300, deadline=None)
@given(_extreme_inputs())
def test_refine_feasible_at_extreme_gains(inputs):
    real, perm, budgets, _ = inputs
    alloc, _ = zero_crossing_refine(real, perm, budgets.p_source, budgets.p_relay)
    assert validate_allocation(real, alloc, budgets=budgets) == []


@settings(max_examples=300, deadline=None)
@given(_extreme_inputs())
def test_extra_allocation_feasible_at_extreme_gains(inputs):
    real, perm, budgets, data = inputs
    use = np.array(data.draw(st.lists(st.booleans(), min_size=real.m, max_size=real.m)))
    use &= real.a_sr > real.a_sd
    alloc, _, _, _ = extra_individual_allocate(real, perm, use, budgets)
    assert validate_allocation(real, alloc, budgets=budgets, extra_allowed=True) == []
