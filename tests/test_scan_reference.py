"""Differential test: scan tables against the definitions spelled out in Python.

The reference below orders columns with Python sets and ``sorted`` calls
keyed on ``(observed, index)``, and adds with plain Python loops, left to
right, in the order the engine adds.  So every bound and path value must
agree exactly, not just within rounding: a change in summation order or in
tie-breaking shows up as a failure.  Values come from a small tie-heavy pool
that includes both signed zeros.  Numpy switches to pairwise summation from
eight contiguous summands on, so the long-sum cases (up to 24 columns, high
overlaps, two or more rows) are the ones that catch a reduction in the
wrong order.  A one-row matrix is contiguous in any layout, and the engine
sums it as numpy sums any contiguous row; the reference does the same.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumtdp import (
    SubspaceConstraint,
    SumTestProblem,
    Workspace,
    pick_pivot,
)
from sumtdp.shortcut import QueryContext
from tests.test_shortcut import assert_walk
from tests.util import POOL


def running_sum(values):
    """``values`` added left to right."""
    total = 0.0
    for x in values:
        total += x
    return total


def numpy_row_sum(values):
    """``values`` summed as numpy sums one contiguous row (pairwise)."""
    return float(np.sum(values))


def prefix_sums(values):
    """0.0, then the running sums of ``values``."""
    return [0.0, *accumulate(values)]


class ReferenceScan:
    """One subspace's tables, written the plain way."""

    def __init__(self, prob, subset, overlap, constraint):
        m, obs, cen = prob.n_hyps, prob.observed, prob.centered
        self.rank = prob.crit_rank
        sset = set(subset)
        self.forced = sorted(constraint.forced)
        self.free = [i for i in range(m) if i not in constraint.forced | constraint.excluded]
        self.s_free = [i for i in self.free if i in sset]
        o_free = [i for i in self.free if i not in sset]
        self.needed = max(overlap - len(constraint.forced & sset), 0)
        self.infeasible = self.needed > len(self.s_free)
        if self.infeasible:
            return
        self.size_min = len(self.forced) + self.needed
        self.size_max = len(self.forced) + len(self.free)

        # Bound: per row, the forced columns, the needed smallest subset
        # columns, then the smallest of whatever is left.
        row_sum = running_sum if len(cen) > 1 else numpy_row_sum
        self.bound_base, self.bound_prefix, rems = [], [], []
        for row in cen.tolist():
            in_s = sorted(row[i] for i in self.s_free)
            rem = sorted(in_s[self.needed:] + [row[i] for i in o_free])
            offset = row_sum([row[i] for i in self.forced]) if self.forced else 0.0
            picked = row_sum(in_s[: self.needed]) if self.needed else 0.0
            self.bound_base.append(offset + picked)
            self.bound_prefix.append(prefix_sums(rem))
            rems.append(rem)
        n_rem = len(rems[0])
        nonpos = [j for j in range(n_rem) if all(rem[j] <= 0.0 for rem in rems)]
        negsome = [j for j in range(n_rem) if any(rem[j] < 0.0 for rem in rems)]
        self.drop_end = self.size_min + (nonpos[-1] + 1 if nonpos else 0)
        self.rise_start = self.size_min + (negsome[-1] + 1 if negsome else 0)

        # Greedy path: the needed subset columns of smallest observed
        # statistic, then every other free column by observed statistic.
        self.reserved = sorted(self.s_free, key=lambda i: (obs[i], i))[: self.needed]
        self.rest = sorted(
            (i for i in self.free if i not in self.reserved), key=lambda i: (obs[i], i)
        )
        self.path_base, self.path_prefix = [], []
        for row in cen.tolist():
            base = 0.0
            if self.forced:
                base += row_sum([row[i] for i in self.forced])
            if self.reserved:
                base += row_sum([row[i] for i in self.reserved])
            self.path_base.append(base)
            self.path_prefix.append(prefix_sums([row[i] for i in self.rest]))

    def _rank_stat(self, base, prefix, v):
        column = [b + p[v - self.size_min] for b, p in zip(base, prefix)]
        return sorted(column)[self.rank - 1]

    def bound_value(self, v):
        return self._rank_stat(self.bound_base, self.bound_prefix, v)

    def path_value(self, v):
        return self._rank_stat(self.path_base, self.path_prefix, v)

    def path_set(self, v):
        return tuple(sorted(self.forced + self.reserved + self.rest[: v - self.size_min]))

    def singleton_at(self, v):
        """Whether exactly one candidate set has size ``v``."""
        return v == self.size_max or (v == self.size_min and self.needed == len(self.s_free))

    def singleton_set(self, v):
        cols = self.free if v == self.size_max else self.s_free
        return tuple(sorted(self.forced + cols))


def draw_case(draw, m, b, subsets, overlaps, roles):
    value = st.sampled_from(POOL)
    row = st.lists(value, min_size=m, max_size=m)
    centered = np.array(draw(st.lists(row, min_size=b, max_size=b)))
    observed = np.array(draw(row))
    prob = SumTestProblem(centered, observed, draw(st.integers(1, b)))
    subset = tuple(sorted(draw(subsets)))
    overlap = draw(overlaps(len(subset)))
    role = draw(st.lists(st.sampled_from(roles), min_size=m, max_size=m))
    constraint = SubspaceConstraint(
        {i for i, r in enumerate(role) if r == "f"},
        {i for i, r in enumerate(role) if r == "x"},
    )
    return prob, subset, overlap, constraint, draw(st.integers(0, m))


@st.composite
def scan_cases(draw):
    m, b = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    subsets = st.sets(st.integers(0, m - 1), min_size=1)
    return draw_case(draw, m, b, subsets, lambda s: st.integers(1, s), "fx..")


@st.composite
def long_sum_cases(draw):
    # Overlaps near |S| and, in some draws, mostly forced columns, so the
    # needed picks, the forced columns and the prefixes all run to eight
    # summands and beyond.
    m, b = draw(st.integers(9, 24)), draw(st.integers(2, 6))
    subsets = st.just(range(m)) | st.sets(st.integers(0, m - 1), min_size=1)
    roles = draw(st.sampled_from(("fx" + "." * 10, "fff.", "ffx..")))
    return draw_case(draw, m, b, subsets, high_overlaps, roles)


def high_overlaps(s):
    return st.integers(max(1, s - 8), s) | st.integers(1, s)


def check_against_reference(prob, subset, overlap, constraint, start):
    """Compare every size read in ascending order, then in the scan's order.

    The prefix tables grow as far as the widest size read, so a second
    workspace reads sizes as a scan does: from a drawn size ``start``
    steps above the smallest, down to the smallest, then up.
    """
    ref = ReferenceScan(prob, subset, overlap, constraint)
    ws = Workspace(prob, subset, overlap, constraint)
    assert ws.infeasible == ref.infeasible
    if ref.infeasible:
        return
    assert (ws.size_min, ws.size_max) == (ref.size_min, ref.size_max)
    assert (ws.drop_end, ws.rise_start) == (ref.drop_end, ref.rise_start)
    for v in range(ref.size_min, ref.size_max + 1):
        assert ws.bound_value(v) == ref.bound_value(v)
        assert ws.path_value(v) == ref.path_value(v)
        assert ws.path_set(v) == ref.path_set(v)
        if ref.singleton_at(v):
            # The scan has no device for a size with one candidate: the
            # greedy path must reach that candidate.
            assert ws.path_set(v) == ref.singleton_set(v)

    ws = Workspace(prob, subset, overlap, constraint)
    first = min(ref.size_min + start, ref.size_max)
    for v in [*range(first, ref.size_min - 1, -1), *range(first + 1, ref.size_max + 1)]:
        assert ws.bound_value(v) == ref.bound_value(v)
        assert ws.path_value(v) == ref.path_value(v)

    # The pivot is the last column the greedy path adds.
    ctx = QueryContext(prob, subset)
    if ref.size_max > ref.size_min:
        added = set(ref.path_set(ref.size_max)) - set(ref.path_set(ref.size_max - 1))
        assert {pick_pivot(prob, ctx, overlap, constraint)} == added
    else:
        with pytest.raises(RuntimeError, match="no free column"):
            pick_pivot(prob, ctx, overlap, constraint)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(scan_cases())
def test_scan_tables_match_reference(case):
    check_against_reference(*case)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(long_sum_cases())
def test_long_sums_match_reference(case):
    check_against_reference(*case)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(scan_cases())
def test_scan_reads_each_size_once(case):
    prob, subset, overlap, constraint, start = case
    assert_walk(prob, subset, overlap, constraint)
    assert_walk(prob, subset, overlap, constraint, window=(start, start + 2))
