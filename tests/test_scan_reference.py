"""Differential test: scan tables against the definitions spelled out in Python.

The reference below orders columns with Python sets and ``sorted`` calls
keyed on ``(observed, index)``, and does its arithmetic with the same numpy
reductions in the same order as the engine.  So every bound and path value
must agree exactly, not just within rounding: a change in summation order
or in tie-breaking shows up as a failure.  Values come from a small
tie-heavy pool that includes both signed zeros.
"""

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

POOL = (0.0, -0.0, 0.1, 0.2, 0.3, -0.3, 0.7, 1.1, 1 / 3, 2.2 / 3, -1.0, 2.0)


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
        rows = []
        for r in range(cen.shape[0]):
            in_s = sorted(cen[r, self.s_free])
            rows.append(in_s + [cen[r, i] for i in o_free])
        rows = np.array(rows).reshape(cen.shape[0], -1)
        selected = rows[:, : self.needed]
        rem = np.array([sorted(row) for row in rows[:, self.needed:]]).reshape(len(rows), -1)
        offset = cen[:, self.forced].sum(axis=1) if self.forced else 0.0
        picked = selected.sum(axis=1) if self.needed else 0.0
        self.bound_base = offset + picked
        self.bound_prefix = np.hstack([np.zeros((len(rows), 1)), np.cumsum(rem, axis=1)])
        nonpos = [j for j in range(rem.shape[1]) if (rem[:, j] <= 0.0).all()]
        negsome = [j for j in range(rem.shape[1]) if (rem[:, j] < 0.0).any()]
        self.drop_end = self.size_min + (nonpos[-1] + 1 if nonpos else 0)
        self.rise_start = self.size_min + (negsome[-1] + 1 if negsome else 0)

        # Greedy path: the needed subset columns of smallest observed
        # statistic, then every other free column by observed statistic.
        self.reserved = sorted(self.s_free, key=lambda i: (obs[i], i))[: self.needed]
        self.rest = sorted(
            (i for i in self.free if i not in self.reserved), key=lambda i: (obs[i], i)
        )
        self.path_base = np.zeros(cen.shape[0])
        if self.forced:
            self.path_base += cen[:, self.forced].sum(axis=1)
        if self.reserved:
            self.path_base += cen[:, self.reserved].sum(axis=1)
        self.path_prefix = np.hstack(
            [np.zeros((len(rows), 1)), np.cumsum(cen[:, self.rest], axis=1)]
        )

    def _rank_stat(self, column):
        return sorted(column.tolist())[self.rank - 1]

    def bound_value(self, v):
        return self._rank_stat(self.bound_base + self.bound_prefix[:, v - self.size_min])

    def path_value(self, v):
        return self._rank_stat(self.path_base + self.path_prefix[:, v - self.size_min])

    def path_set(self, v):
        return tuple(sorted(self.forced + self.reserved + self.rest[: v - self.size_min]))

    def singleton_at(self, v):
        return v == self.size_max or (v == self.size_min and self.needed == len(self.s_free))

    def singleton_set(self, v):
        cols = self.free if v == self.size_max else self.s_free
        return tuple(sorted(self.forced + cols))


@st.composite
def scan_cases(draw):
    m = draw(st.integers(1, 8))
    b = draw(st.integers(1, 10))
    value = st.sampled_from(POOL)
    row = st.lists(value, min_size=m, max_size=m)
    centered = np.array(draw(st.lists(row, min_size=b, max_size=b)))
    observed = np.array(draw(row))
    prob = SumTestProblem(centered, observed, draw(st.integers(1, b)))
    subset = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
    overlap = draw(st.integers(1, len(subset)))
    roles = draw(st.lists(st.sampled_from("fx.."), min_size=m, max_size=m))
    constraint = SubspaceConstraint(
        {i for i, r in enumerate(roles) if r == "f"},
        {i for i, r in enumerate(roles) if r == "x"},
    )
    return prob, subset, overlap, constraint


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(scan_cases())
def test_scan_tables_match_reference(case):
    prob, subset, overlap, constraint = case
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
        assert ws.singleton_at(v) == ref.singleton_at(v)
        if ref.singleton_at(v):
            assert ws.singleton_set(v) == ref.singleton_set(v)

    # The pivot is the last column the greedy path adds.
    ctx = QueryContext(prob, subset)
    if ref.size_max > ref.size_min:
        added = set(ref.path_set(ref.size_max)) - set(ref.path_set(ref.size_max - 1))
        assert {pick_pivot(prob, ctx, overlap, constraint)} == added
    else:
        with pytest.raises(RuntimeError, match="no free column"):
            pick_pivot(prob, ctx, overlap, constraint)
