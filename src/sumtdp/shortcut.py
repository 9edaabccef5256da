"""Single-step verdict on rejection of all candidate sets at one overlap level.

For a query subset S and an overlap level z, the candidates are the
hypothesis sets sharing at least z members with S, optionally restricted to
a subspace that forces some columns in and excludes others.  A single step
asks whether the centered sum test rejects every candidate.  Scanning
candidate sizes v one at a time, it decides by two prefix-sum devices:

* a lower bound on all candidate quantiles at size v, from each row's z
  smallest centered values inside S plus its v - z smallest of the rest
  (per row, so usually unattainable but never above any candidate's
  quantile); a positive bound certifies the size;
* a greedy path of concrete candidates in observed-statistic order (one
  global ordering, not per row), whose quantile at size v is exact; a
  non-positive path value exhibits a survivor and settles the question.
  Every reported survivor is a path candidate, and where a size holds a
  single candidate the path reaches it.

The bound is nonincreasing in v up to ``drop_end`` and nondecreasing from
``rise_start`` on, so the scan walks down from ``drop_end``, then up from
above it, stops once the bound turns positive on a monotone stretch, and
reads each size at most once; sizes left in doubt form the returned
window.  Each row of the remainder is sorted, so "every row is at most 0"
and "some row is below 0" each hold on a leading run of columns.  A root
scan (nothing forced or excluded) finds both run lengths from per-row
counts of values at most 0 and below 0, sorts nothing before its first
bound read, and reads the path first at its first size, so a survivor
there costs no sort; a constrained scan bisects them inside its window.

One :class:`QueryContext` per query holds the validated subset, its mask,
its columns in the problem's observed order (ties by index) and the
subset's counts.  Every scan takes it as its only query argument.  A
subspace is one ``int8`` state per column (0 free, +1 forced, -1 excluded;
None: the root, all free), which the scan's :class:`Workspace` reads as
masks.  The greedy path spends the subset's first ``needed`` columns in
observed order, which no branch marks (see :mod:`.branchbound`), on the
overlap; an undecided scan names the path's last column as the pivot to
split on, so no other code repeats that rule.  Its :class:`Evaluation`
carries its path values, order and forced sum on to the children (see
:func:`single_step`): an exclude child reads no path, and computes no sum.

On the problem's grid (see :mod:`.problem`) every sum below is exact in any
order, so each running sum moves by the columns between the sizes read, or
a greedy-path read starts from the problem's ``checkpoints`` (every
``_STRIDE``-th prefix of the observed order) when that moves fewer.  A
gather of centered columns is one contiguous k x B copy of the problem's
hypothesis-major matrix; only the sorted buffers below are row-major.  A
context whose subset holds at most half the columns gathers them once, in
observed order, as its ``subset_block``; the overlap picks' sums, the lift
and a root path's restart slice it.  A post-hoc query's first read then
gathers at most ``_STRIDE - 1`` columns, and the picks its path skips come
off as a slice of the block, not as a second gather.  A larger subset's lift
is the row totals less the columns outside W ∪ S.

The context keeps one slot: the last scan's free subset columns, sorted
within each row as the leading columns of a writable row-major buffer, with
running sums of the overlap picks.  A branch's children differ from their
parent by at most the pivot, so a child scan reuses the block or trims it
in place, moving each row's entries after the pivot's value left by one and
patching each row's sum in O(1).  The pivot has the greatest observed
statistic, so its values mostly sort late and a trim moves few entries.
A level's root asks again for the columns its branches trimmed: they come
back into the buffer's spare columns, and a stable sort merges them in place.

Matrices are never mutated; besides the running sums, the slot is the only
state that changes, and a context serves one scan at a time (a trim
rewrites the buffer that the last scan's block views).  A slot that does
not hold what its mask says, an overlap outside 1..|S| or a state that
forces or excludes an overlap pick is an engine fault:
:class:`RuntimeError`, never :class:`ValueError`, which means bad input.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .problem import _STRIDE, SumTestProblem, _columns, _rank_stat, _row_sums
from .statmatrix import validate_subset

__all__ = [
    "Verdict",
    "Evaluation",
    "QueryContext",
    "Workspace",
    "single_step",
]


class Verdict(Enum):
    """Outcome of an overlap-level evaluation."""

    ALL_REJECTED = "all-rejected"
    SURVIVOR_FOUND = "survivor-found"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Evaluation:
    """Verdict plus its evidence.

    ``window`` is the inclusive range of candidate sizes still in doubt
    (UNDECIDED only).  ``witness`` is a surviving candidate set
    (SURVIVOR_FOUND only), recorded for audit: always a greedy-path
    candidate.  ``pivot`` is the column to split an undecided subspace on
    (UNDECIDED from a scan only): the last column of the scan's greedy
    path, never an overlap pick, and None when every free column is one.
    Not compared: ``sums``, the witness's exact row sums; ``iterations``,
    the budgeted scans a branch-and-bound run spent (0 for a single scan);
    and an undecided scan's carry to its children (see :func:`single_step`):
    ``paths``, its path values by size, ``order``, its path after the
    overlap picks (pivot last), and ``forced_sum``, its forced columns' sums.
    """

    verdict: Verdict
    window: tuple = None
    witness: tuple = None
    pivot: int = None
    sums: np.ndarray = field(default=None, compare=False, repr=False)
    iterations: int = field(default=0, compare=False)
    paths: dict = field(default=None, compare=False, repr=False)
    order: np.ndarray = field(default=None, compare=False, repr=False)
    forced_sum: object = field(default=None, compare=False, repr=False)


def _marked(state) -> dict:
    """Trace fields of a subspace (None: the root): its forced and excluded columns."""
    state = np.zeros(0) if state is None else state
    return dict(forced=tuple(np.flatnonzero(state > 0).tolist()),
                excluded=tuple(np.flatnonzero(state < 0).tolist()))


def _cut_values(block: np.ndarray, values: np.ndarray):
    """Cut one entry equal to ``values[r]`` from each sorted row r of ``block``, in place.

    ``block`` is the first n columns of its ``base``, a writable row-major
    buffer.  Also returns the cut positions, searched in all rows in
    lockstep, one flat gather per step (Khuong & Morin 2017): each row's
    last entry not above the value, so of equal entries the one moving
    fewest, and equal to it when the row holds it; a row that does not is an
    engine fault, raised before anything moves.  Each row's entries after
    its cut move left by one, so the first n - 1 columns of the buffer are
    the block a fresh sort of the remaining columns gives.
    """
    n_rows, n = block.shape
    buf = block if block.base is None else block.base
    flat, start = buf.reshape(-1), np.arange(n_rows) * buf.shape[1]
    at, span = start.copy(), n
    while span > 1:  # a row's last entry not above its value, if any, is in at .. at + span - 1
        half, span = span // 2, span - span // 2
        np.add(at, half, out=at, where=flat.take(at + half) <= values)
    if not (flat.take(at) == values).all():
        raise RuntimeError("the query context's sorted block lacks a column it should hold")
    pos, moved = at - start, start + n - 1 - at
    # src: the flat buffer index of every entry after a cut, row by row
    src = np.repeat(at + 1 - (np.cumsum(moved) - moved), moved) + np.arange(moved.sum())
    flat[src - 1] = flat[src]
    return buf[:, :n - 1], pos


def _fill(out: np.ndarray, cen: np.ndarray, cols) -> np.ndarray:
    """Copy centered columns ``cols`` into the first columns of the row-major ``out``,
    ``_STRIDE`` at a time so no k x B block is held beside it; return ``out``."""
    for i in range(0, len(cols), _STRIDE):
        out[:, i:min(i + _STRIDE, len(cols))] = _columns(cen, cols[i:i + _STRIDE]).T
    return out


class _RunningSums:
    """Row sums of the first k columns of a source, each read carried on from the last.

    ``columns(lo, hi)`` returns source columns ``lo`` to ``hi - 1`` as a
    (hi - lo) x B array.  ``sums`` holds the last read, of the first ``k``,
    and the next adds or subtracts the columns in between: a scan reads
    sizes near each other, so it sums few columns (none if ``k`` is held).
    ``restart(k, n)``, if given, returns the first ``k``'s sums computed
    afresh from fewer than ``n`` columns, or None when that takes ``n`` or more.
    """

    def __init__(self, columns, restart=None):
        self.columns, self.restart, self.k, self.sums = columns, restart, 0, 0.0

    def through(self, k: int) -> np.ndarray:
        """The row sums of the first ``k`` source columns."""
        if k == self.k and k:
            return self.sums
        fresh = self.restart(k, abs(k - self.k)) if self.restart else None
        if fresh is not None:
            self.sums = fresh
        elif k >= self.k:
            self.sums = self.sums + _row_sums(self.columns(self.k, k))
        else:
            self.sums = self.sums - _row_sums(self.columns(k, self.k))
        self.k = k
        return self.sums


class QueryContext:
    """Per-query invariants shared by every scan of one subset.

    Attributes
    ----------
    subset : tuple
        The validated subset, sorted.
    in_subset : ndarray of bool
        Mask of the subset's columns.
    subset_order : ndarray of int
        The subset's columns in the problem's ``order``: by observed
        statistic, ties by index.
    counts : tuple of ndarray
        Each row's number of subset values at most 0, and below 0.
    subset_block : ndarray or None
        The subset's |S| x B centered columns in ``subset_order``, read-only,
        gathered once when |S| <= m/2; later reads of subset columns slice it.
        None for a larger subset, so no |S| x B copy is held.
    sorted_block : tuple or None
        ``(mask, block, sums)`` of the last scan, or None before the first:
        the mask of its free subset columns, the B x n block of their
        centered values, each row sorted ascending, and the running sums of
        ``block``'s columns, replaced whole (see :meth:`sorted_rows`);
        ``block`` is a read-only view of a buffer that trims and merges rewrite.
    order_sums : _RunningSums
        The running sums of the centered columns in ``subset_order``.
    """

    def __init__(self, prob: SumTestProblem, subset):
        self.prob = prob
        self.subset = validate_subset(subset, prob.n_hyps)
        self.in_subset = np.zeros(prob.n_hyps, dtype=bool)
        self.in_subset[list(self.subset)] = True
        self.subset_order = order = prob.order[self.in_subset[prob.order]]
        inside = 2 * len(self.subset) <= prob.n_hyps
        cen = prob.centered
        side = _columns(cen, order if inside else np.flatnonzero(~self.in_subset))
        le, lt = np.count_nonzero(side <= 0.0, axis=0), np.count_nonzero(side < 0.0, axis=0)
        self.counts = (le, lt) if inside else (prob.counts[0] - le, prob.counts[1] - lt)
        self.subset_block = block = side if inside else None
        if inside:
            block.setflags(write=False)
        self.sorted_block = None
        # not through self: a cycle would hold the context until a collection
        self.order_sums = _RunningSums(
            (lambda lo, hi: block[lo:hi]) if inside else (lambda lo, hi: _columns(cen, order[lo:hi])))

    def union_sums(self, witness, sums) -> np.ndarray:
        """Row sums of ``witness`` ∪ S: its row ``sums`` plus S \\ W from the
        :attr:`subset_block`, else the row totals less the columns outside W ∪ S."""
        out, block = np.ones(self.prob.n_hyps, dtype=bool), self.subset_block
        out[list(witness)] = False
        if block is None:
            outside = _columns(self.prob.centered, np.flatnonzero(out & ~self.in_subset))
            return self.prob.row_totals - _row_sums(outside)
        return sums + _row_sums(block[out[self.subset_order]])  # S \ W, in the block's order

    def sorted_rows(self, mask: np.ndarray, needed: int):
        """Row-sorted, read-only block of the centered columns in ``mask``,
        and the row sums of its first ``needed`` columns.

        Reuses :attr:`sorted_block` when its mask equals ``mask``, trims
        one value per row in place when ``mask`` lacks exactly one of its
        columns, merges the columns coming back in place when ``mask`` holds
        all of them and the buffer has room, and sorts into a new buffer
        otherwise; the result takes the slot.  A trim keeps the running sums
        of the first k columns (a row cut before column k gains the value
        sliding into column k - 1, less the cut one); a merge restarts them.
        """
        slot = self.sorted_block
        block, sums = None, _RunningSums(None)
        if slot is not None:
            held, kept, carried = slot
            gone = np.flatnonzero(held != mask)
            if not gone.size:
                block, sums = kept, carried
            elif gone.size == 1 and held[gone[0]]:
                cut = _columns(self.prob.centered, gone[0])
                block, pos = _cut_values(kept, cut)
                k0 = carried.k
                if k0 <= block.shape[1]:
                    sums, head = carried, carried.sums
                    if k0:
                        sums.sums = np.where(pos < k0, head + block[:, k0 - 1] - cut, head)
            elif not held[gone].any() and kept.base.shape[1] >= kept.shape[1] + gone.size:
                block = kept.base[:, :kept.shape[1] + gone.size]
                _fill(block[:, kept.shape[1]:], self.prob.centered, gone)
                block.sort(axis=1, kind="stable")  # a merge; no -0.0, so a fresh sort's values
        if block is None:
            # let the last buffer go before the new one is made: one is held at a time
            self.sorted_block = slot = kept = carried = None
            cols = np.flatnonzero(mask)
            block = _fill(np.empty((self.prob.n_transforms, cols.size)), self.prob.centered, cols)
            block.sort(axis=1)
            block = block.view()  # of the buffer, which later trims rewrite
        block.setflags(write=False)
        sums.columns = lambda lo, hi: block[:, lo:hi].T
        mask = mask.copy()
        mask.setflags(write=False)
        self.sorted_block = (mask, block, sums)
        return block, sums.through(needed)


class Workspace:
    """Running sums for one (query, overlap, subspace) scan.

    ``state`` holds one ``int8`` per column: 0 free, +1 forced, -1
    excluded; None is the root subspace, with every column free.  The
    bound's remainder (each row's free columns left after the overlap
    picks, sorted) is built whole: at once in a constrained scan, at the
    first bound read in a root scan.  The greedy path's order of columns is
    built at its first read.  Sizes may be read in any order.

    Attributes
    ----------
    size_min, size_max : int
        Inclusive range of candidate set sizes in this subspace.
    window : (int, int)
        The part of ``window`` (default: all) in that range, ends included.
    drop_end, rise_start : int
        The bound is nonincreasing on sizes up to ``drop_end`` and
        nondecreasing from ``rise_start`` on: ``size_min`` plus the least
        number, over rows, of remainder values at most 0, and plus the
        greatest number below 0.  A root scan counts them from ``counts``;
        a constrained scan bisects its sorted remainder, clamped to what a
        scan of the window (v1, v2) compares: [v1 - 1, v2] and [v1, v2 + 1].
    """

    def __init__(self, ctx: QueryContext, overlap: int, state=None, window=None, parent=None):
        if not 1 <= overlap <= len(ctx.subset):
            raise RuntimeError(f"overlap must lie in 1..{len(ctx.subset)}, got {overlap}")
        root = state is None
        state = np.zeros(ctx.prob.n_hyps, dtype=np.int8) if root else state
        forced, free = state > 0, state == 0
        needed = max(overlap - int(np.count_nonzero(forced & ctx.in_subset)), 0)
        # The overlap picks the greedy path starts with: the subset columns
        # of smallest observed statistic, which no branch marks.
        reserved = ctx.subset_order[:needed]
        if not free[reserved].all():
            raise RuntimeError("the subspace forces or excludes one of its overlap picks")
        self.prob, self._ctx, self._root = ctx.prob, ctx, root
        self._forced, self._free, self._needed, self._reserved = forced, free, needed, reserved

        forced_cols = np.flatnonzero(forced)
        self.size_min = forced_cols.size + needed
        self.size_max = forced_cols.size + int(np.count_nonzero(free))
        lo, hi = window if window is not None else (self.size_min, self.size_max)
        self.window = (max(int(lo), self.size_min), min(int(hi), self.size_max))
        base, fresh = 0.0, forced_cols
        if parent is not None:  # its sum, plus the pivot if forced: exact on the grid
            base, fresh = parent.forced_sum, forced_cols[forced_cols == parent.pivot]
        self._forced_sum = base + _row_sums(_columns(ctx.prob.centered, fresh)) if fresh.size else base
        self._rem_prefix = self._path_tables = None
        if not root:
            rem = self._remainder()
            v1, v2 = (v - self.size_min for v in self.window)
            above, nonneg = (lambda j: (rem[:, j] > 0.0).any()), (lambda j: (rem[:, j] >= 0.0).all())
            nonpos_run = bisect_left(range(v2), True, max(v1 - 1, 0), key=above)
            negsome_run = bisect_left(range(min(v2 + 1, rem.shape[1])), True, v1, key=nonneg)
        else:
            # A row's remainder: its S values less the `needed` smallest, and the rest.
            (le_in, lt_in), (le, lt) = ctx.counts, ctx.prob.counts
            nonpos_run = int((np.maximum(le_in - needed, 0) + le - le_in).min())
            negsome_run = int((np.maximum(lt_in - needed, 0) + lt - lt_in).max())
        self.drop_end = self.size_min + nonpos_run
        self.rise_start = self.size_min + negsome_run

    def _remainder(self) -> np.ndarray:
        """Sort the bound's remainder, set up its running sums and return it."""
        ctx, cen, needed = self._ctx, self.prob.centered, self._needed
        in_s, picked = ctx.sorted_rows(self._free & ctx.in_subset, needed)
        o_free = np.flatnonzero(self._free & ~ctx.in_subset)
        if o_free.size:
            rem = np.empty((in_s.shape[0], in_s.shape[1] - needed + o_free.size))
            rem[:, o_free.size:] = in_s[:, needed:]
            _fill(rem, cen, o_free).sort(axis=1)
        else:
            rem = in_s[:, needed:]
        self._base = self._forced_sum + picked
        self._rem_prefix = _RunningSums(lambda lo, hi: rem[:, lo:hi].T)
        return rem

    def bound_value(self, v: int) -> float:
        """Lower bound on every candidate quantile at size ``v``."""
        if self._rem_prefix is None:
            self._remainder()
        col = self._base + self._rem_prefix.through(v - self.size_min)
        return _rank_stat(col, self.prob.crit_rank)

    def _paths(self):
        if self._path_tables is None:
            prob, ctx, reserved = self.prob, self._ctx, self._reserved
            cen = prob.centered
            rest_mask = self._free.copy()
            rest_mask[reserved] = False
            on_path = rest_mask[prob.order]
            rest_at = np.flatnonzero(on_path)  # each rest column's place in the order
            rest = prob.order[rest_at]
            picked = ctx.order_sums.through(reserved.size)
            block = ctx.subset_block if self._root else None

            def restart(k, budget):
                # order[:p] holds rest[:k] and p - k columns off the path:
                # reserved, forced or excluded
                p = int(rest_at[k - 1]) + 1 if k else 0
                q = p // _STRIDE
                if p - q * _STRIDE + p - k >= budget:
                    return None
                sums = prob.checkpoints[q] + _row_sums(_columns(cen, prob.order[q * _STRIDE: p]))
                if block is None:
                    return sums - _row_sums(_columns(cen, prob.order[:p][~on_path[:p]]))
                return sums - _row_sums(block[:p - k])  # a root path skips only picks

            prefix = _RunningSums(lambda lo, hi: _columns(cen, rest[lo:hi]), restart)
            self._path_tables = (rest, self._forced_sum + picked, prefix)
        return self._path_tables

    def path_sums(self, v: int) -> np.ndarray:
        """Exact row sums of the size-``v`` greedy path candidate."""
        _, base, prefix = self._paths()
        return base + prefix.through(v - self.size_min)

    def path_value(self, v: int) -> float:
        """Exact quantile of the size-``v`` greedy path candidate."""
        return _rank_stat(self.path_sums(v), self.prob.crit_rank)

    def path_set(self, v: int) -> tuple:
        """The size-``v`` greedy path candidate itself."""
        rest, _, _ = self._paths()
        members = self._forced.copy()
        members[self._reserved] = True
        members[rest[: v - self.size_min]] = True
        return tuple(np.flatnonzero(members).tolist())


def single_step(
    ctx: QueryContext,
    overlap: int,
    state=None,
    window=None,
    trace: list = None,
    parent: Evaluation = None,
) -> Evaluation:
    """One scan over candidate sizes at a given overlap level.

    The greedy path is read at every size the bound leaves in doubt, and
    before the bound at a size read while the remainder is unbuilt (a root
    scan's first size); the bound is never above the path, so the verdict
    is the same either way.  An UNDECIDED result names its pivot.

    Parameters
    ----------
    state : ndarray of int8, optional
        The subspace, as :class:`Workspace` reads it; None is the root.
    window : (int, int), optional
        Inclusive range of candidate sizes still pending; defaults to the
        subspace's full size range.  Sizes outside the subspace's range are
        ignored, and an empty effective range is vacuously ALL_REJECTED.
    trace : list, optional
        Gets one dict per bound or path read: ``kind``, ``overlap``,
        ``forced``, ``excluded``, ``size`` and ``value``.
    parent : Evaluation, optional
        The undecided scan, in ``window``, that ``state`` splits by its mark
        on the pivot.  A child excluding it reads no path: it takes the
        values from ``parent.paths``, and one missing is an engine fault.
    """
    ws = Workspace(ctx, overlap, state, window, parent)
    v1, v2 = ws.window
    if v1 > v2:
        return Evaluation(Verdict.ALL_REJECTED)

    if trace is not None:
        where = dict(overlap=overlap, **_marked(state))
    undecided, paths = [], {}
    carried = parent.paths if parent is not None and state[parent.pivot] < 0 else None

    def certified(v: int) -> bool:
        value = ws.bound_value(v)
        if trace is not None:
            trace.append(dict(kind="bound", **where, size=v, value=value))
        return value > 0.0

    def survivor(v: int):
        """Size ``v``'s path candidate if that survives."""
        if carried is None:
            value = ws.path_value(v)
        elif (value := carried.get(v)) is None:
            raise RuntimeError(f"the parent scan carries no path value at size {v}")
        paths[v] = value
        if trace is not None:
            trace.append(dict(kind="path", **where, size=v, value=value))
        if value > 0.0:
            return None
        return Evaluation(Verdict.SURVIVOR_FOUND, witness=ws.path_set(v), sums=ws.path_sums(v))

    def read(v: int):
        """Whether the bound certifies size ``v``, and the survivor found there."""
        early = ws._rem_prefix is None  # the path first: it needs no sort
        if early and (found := survivor(v)):
            return False, found
        if certified(v):
            return True, None
        undecided.append(v)
        return False, None if early else survivor(v)

    down_start = min(ws.drop_end, v2)
    up_start = max(down_start + 1, v1)
    for v in range(down_start, v1 - 1, -1):
        done, found = read(v)
        if found is not None:
            return found
        if done:
            # Smaller sizes are positive too, and from rise_start on larger ones.
            if v >= ws.rise_start:
                up_start = v2 + 1
            break
    for v in range(up_start, v2 + 1):
        done, found = read(v)
        if found is not None:
            return found
        if done and v >= ws.rise_start:
            break  # later sizes are positive too

    if not undecided:
        return Evaluation(Verdict.ALL_REJECTED)
    order = ws._paths()[0] if carried is None else parent.order[:-1]
    return Evaluation(
        Verdict.UNDECIDED, window=(min(undecided), max(undecided)),
        pivot=int(order[-1]) if order.size else None,
        paths=paths, order=order, forced_sum=ws._forced_sum,
    )
