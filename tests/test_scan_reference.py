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

from sumtdp import SumTestProblem, Verdict
from sumtdp.problem import _STRIDE
from sumtdp.shortcut import QueryContext, Workspace, single_step
from tests.test_shortcut import assert_walk
from tests.util import POOL, reachable, subspace


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
    """One subspace's tables, written the plain way.

    ``state`` is the engine's (None for the root); the reference reads its
    marks into lists of forced and free columns and orders them itself.
    """

    def __init__(self, prob, subset, overlap, state):
        m, obs, cen = prob.n_hyps, prob.observed, prob.centered
        self.rank = prob.crit_rank
        sset = set(subset)
        marks = [0] * m if state is None else state.tolist()
        self.forced = [i for i in range(m) if marks[i] > 0]
        self.free = [i for i in range(m) if marks[i] == 0]
        self.s_free = [i for i in self.free if i in sset]
        o_free = [i for i in self.free if i not in sset]
        self.needed = max(overlap - len(sset.intersection(self.forced)), 0)
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
    state = subspace(m, [i for i, r in enumerate(role) if r == "f"],
                     [i for i, r in enumerate(role) if r == "x"])
    return prob, subset, overlap, reachable(prob, subset, overlap, state), draw(st.integers(0, m))


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


def check_against_reference(prob, subset, overlap, state, start):
    """Compare every size read in ascending order, then in the scan's order.

    The prefix tables grow as far as the widest size read, so a second
    workspace reads sizes as a scan does: from a drawn size ``start``
    steps above the smallest, down to the smallest, then up.
    """
    ref = ReferenceScan(prob, subset, overlap, state)
    ws = Workspace(QueryContext(prob, subset), overlap, state)
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

    ws = Workspace(QueryContext(prob, subset), overlap, state)
    first = min(ref.size_min + start, ref.size_max)
    for v in [*range(first, ref.size_min - 1, -1), *range(first + 1, ref.size_max + 1)]:
        assert ws.bound_value(v) == ref.bound_value(v)
        assert ws.path_value(v) == ref.path_value(v)

    # An undecided scan's pivot is the last column the greedy path adds; a
    # subspace with one size is never undecided.
    ev = single_step(QueryContext(prob, subset), overlap, state)
    if ev.verdict is Verdict.UNDECIDED:
        added = set(ref.path_set(ref.size_max)) - set(ref.path_set(ref.size_max - 1))
        assert {ev.pivot} == added
    else:
        assert ev.pivot is None


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
    prob, subset, overlap, state, start = case
    assert_walk(prob, subset, overlap, state)
    assert_walk(prob, subset, overlap, state, window=(start, start + 2))


def bound_first_scan(prob, subset, overlap, state, window):
    """The scan that reads the bound first at every size, on the reference tables.

    Returns (verdict, window, witness, pivot).  It reads the path only at
    sizes the bound leaves in doubt, finds ``drop_end`` and ``rise_start``
    from their definitions, and names as pivot the last column of the path.
    """
    ref = ReferenceScan(prob, subset, overlap, state)
    v1, v2 = window if window is not None else (ref.size_min, ref.size_max)
    v1, v2 = max(v1, ref.size_min), min(v2, ref.size_max)
    undecided = []

    def survivor(v):
        undecided.append(v)
        if ref.path_value(v) <= 0.0:
            return Verdict.SURVIVOR_FOUND, None, ref.path_set(v), None
        return None

    down_start = min(ref.drop_end, v2)
    up_start = max(down_start + 1, v1)
    for v in range(down_start, v1 - 1, -1):
        if ref.bound_value(v) > 0.0:
            if v >= ref.rise_start:
                up_start = v2 + 1
            break
        if found := survivor(v):
            return found
    for v in range(up_start, v2 + 1):
        if ref.bound_value(v) > 0.0:
            if v >= ref.rise_start:
                break
            continue
        if found := survivor(v):
            return found
    if not undecided:
        return Verdict.ALL_REJECTED, None, None, None
    return Verdict.UNDECIDED, (min(undecided), max(undecided)), None, ref.rest[-1]


def test_scan_order_matches_bound_first_reference():
    """A scan that reads the path first while its remainder is unbuilt decides
    as the bound-first scan does: same verdict, window, witness and pivot.

    Root scans (nothing forced or excluded) take their shape indices from
    counts, clamped where the overlap needs more subset columns than some
    row has values at most 0; the counters make sure such scans, windows,
    constrained scans, survivors and undecided scans all occur.
    """
    rng = np.random.default_rng(23)
    seen = dict(root=0, clamped=0, constrained=0, window=0, survivor=0, undecided=0)
    for _ in range(1500):
        m, b = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        rank = int(rng.integers(1, b + 1))
        prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m), rank)
        subset = tuple(sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False).tolist()))
        overlap = int(rng.integers(1, len(subset) + 1))
        state = None
        if rng.random() < 0.5:
            role = rng.choice(list("fx.."), m)
            state = subspace(m, np.flatnonzero(role == "f"), np.flatnonzero(role == "x"))
            reachable(prob, subset, overlap, state)
        window = None
        if rng.random() < 0.3:
            lo = int(rng.integers(0, m + 1))
            window = (lo, lo + int(rng.integers(0, 4)))

        ev = single_step(QueryContext(prob, subset), overlap, state, window)
        want = bound_first_scan(prob, subset, overlap, state, window)
        assert (ev.verdict, ev.window, ev.witness, ev.pivot) == want

        root = state is None
        c_in = (prob.centered[:, list(subset)] <= 0.0).sum(axis=1)
        seen["root"] += root
        seen["clamped"] += root and bool((c_in < overlap).any() and (c_in > 0).any())
        seen["constrained"] += not root
        seen["window"] += window is not None
        seen["survivor"] += want[0] is Verdict.SURVIVOR_FOUND
        seen["undecided"] += want[0] is Verdict.UNDECIDED
    assert min(seen.values()) > 50, seen


@st.composite
def checkpoint_cases(draw):
    """A scan whose path reads can start from the problem's checkpoints.

    A checkpoint route needs a path column at least one stride into the
    observed order, so the problems are wider than the reference cases:
    tie-heavy pool values at 64, 130 or 200 columns, scanned at the root,
    in a constrained subspace, or on a ``restricted`` problem with a merged column.
    The sizes are read as a drawn walk: down in steps that cross stride
    boundaries, then up, then at random.
    """
    m, b = draw(st.sampled_from((64, 130, 200))), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = int(rng.integers(1, b + 1))
    prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m), rank)
    kind = draw(st.sampled_from(("root", "constrained", "restricted")))
    state = None
    if kind == "restricted":
        cols = rng.permutation(m)
        kept, merged = np.sort(cols[: m - m // 4]), cols[m - m // 4:]
        prob = prob.restricted(kept.tolist(), merged.tolist())
    elif kind == "constrained":
        role = rng.choice(list("fx" + "." * draw(st.integers(2, 30))), m)
        state = subspace(m, np.flatnonzero(role == "f"), np.flatnonzero(role == "x"))
    size = draw(st.integers(1, prob.n_hyps))
    subset = tuple(sorted(rng.choice(prob.n_hyps, size, replace=False).tolist()))
    overlap = draw(st.integers(1, len(subset)))
    if state is not None:
        reachable(prob, subset, overlap, state)
    step, start = draw(st.integers(1, 80)), draw(st.floats(0.0, 1.0))
    jumps = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    return kind, prob, subset, overlap, state, step, start, jumps


def test_checkpoint_route_matches_direct_sums():
    """Path sums read through the checkpoints equal a direct sum, bit for bit.

    Every sum of distinct grid columns is exact, so the route a read takes
    (carried on from the last read, or started from a checkpoint) must not
    show in the result.  Counting checkpoint reads shows the route is taken.
    """
    table = SumTestProblem.__dict__["checkpoints"]
    routed = {"root": [], "constrained": [], "restricted": []}
    reads = []

    def counting(prob):
        reads[-1] += 1
        return table.func(prob)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(checkpoint_cases())
    def check(case):
        kind, prob, subset, overlap, state, step, start, jumps = case
        cen = prob.centered
        checkpoints = table.func(prob)
        for j, row in enumerate(checkpoints):
            assert row.tobytes() == cen[:, prob.order[: j * _STRIDE]].sum(axis=1).tobytes()
        ws = Workspace(QueryContext(prob, subset), overlap, state)
        lo, hi = ws.size_min, ws.size_max
        first = lo + round(start * (hi - lo))
        walk = [*range(first, lo - 1, -step), *range(first + step, hi + 1, step)]
        reads.append(0)
        for v in walk + [lo + round(f * (hi - lo)) for f in jumps]:
            want = cen[:, list(ws.path_set(v))].sum(axis=1)
            assert ws.path_sums(v).tobytes() == want.tobytes(), v
        routed[kind].append(reads[-1] > 0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SumTestProblem, "checkpoints", property(counting))
        check()
    assert all(sum(fired) > len(fired) // 4 for fired in routed.values()), routed
