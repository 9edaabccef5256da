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
there costs no sort; a constrained scan bisects its sorted remainder.

One :class:`QueryContext` per query holds the validated subset, its mask,
the problem's stable argsort of the observed row (ties in index order) and
the subset's counts.  Every scan takes it as its only query argument.  A
subspace is one ``int8`` state per column (0 free, +1 forced, -1 excluded;
None: the root, all free), which the scan's :class:`Workspace` reads as
masks.  The greedy path spends the subset's first ``needed`` columns in
observed order, which no branch marks (see :mod:`.branchbound`), on the
overlap; an undecided scan names the path's last column as the pivot to
split on, so no other code repeats that rule.

Centered values lie on a power-of-two grid (see :class:`SumTestProblem`),
so every sum below is exact in any order, and each running sum moves by the
columns between the sizes read.  A greedy-path read starts instead from
the problem's :attr:`~SumTestProblem.checkpoints`, the row sums of every
``_STRIDE``-th prefix of the observed order, when that moves fewer columns:
a post-hoc query's first read then adds at most ``_STRIDE - 1`` columns and
takes off the columns the path skips, not the whole prefix.

The context keeps one slot: the last scan's free subset columns, sorted
within each row as the leading columns of a writable row-major buffer, with
running sums of the overlap picks.  A branch's children differ from their
parent by at most the pivot, so a child scan reuses the block or trims it
in place, moving each row's entries after the pivot's value left by one and
patching each row's sum in O(1).  The pivot has the greatest observed
statistic, so its values mostly sort late and a trim moves few entries.

Matrices are never mutated; besides the running sums, the slot is the only
state that changes, and a context serves one scan at a time (a trim
rewrites the buffer that the last scan's block views).  A slot that does
not hold what its mask says, an overlap outside 1..|S| or a state that
forces or excludes an overlap pick is an engine fault:
:class:`RuntimeError`, never :class:`ValueError`, which means bad input.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum

import numpy as np

from .statmatrix import (
    StatisticMatrix,
    TestConfig,
    validate_subset,
)

__all__ = [
    "Verdict",
    "Evaluation",
    "SumTestProblem",
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
    ``sums``, the witness's exact row sums, is not compared.
    """

    verdict: Verdict
    window: tuple = None
    witness: tuple = None
    pivot: int = None
    sums: np.ndarray = field(default=None, compare=False, repr=False)


# Columns of the observed order between two checkpoints.  On post-hoc
# queries of 2000 columns, first path reads took 5-34 % longer at 128 than
# at 64; at 32 whole queries ran 0-6 % faster, inside their run-to-run
# spread, for twice the table.
_STRIDE = 64


def _grid_step(n: int, bound: float) -> float:
    """The least power of two s with s * (2**53 - 4 n) >= 2 n bound, and s >= 2**-1074.

    Any n integer multiples of s, each at most 2 bound + 2 s in magnitude,
    sum to less than 2**53 s, so floats add them exactly in any order.
    """
    num, den = bound.as_integer_ratio()  # integers: 2 n bound may overflow a float
    num, den = 2 * n * num, den * (2**53 - 4 * n)
    e = num.bit_length() - den.bit_length()  # 2**(e - 1) < num / den < 2**(e + 1)
    if num << max(-e, 0) > den << max(e, 0):
        e += 1
    return math.ldexp(1.0, max(e, -1074))


def _steps(x: np.ndarray, step: float, up: bool) -> np.ndarray:
    """``x / step`` rounded up, or down, to integers, as a new row-major array."""
    q = np.divide(x, step, out=np.empty(x.shape))  # exact, or an underflow in (-1, 1)
    (np.ceil if up else np.floor)(q, out=q)
    q[(q == 0) & ((x > 0) if up else (x < 0))] = 1.0 if up else -1.0  # underflowed to 0
    return q


# Entries per block of rows when summing absolute values (see _sums_finite).
_BLOCK = 1 << 16


def _sums_finite(cen: np.ndarray) -> bool:
    """Whether every row of ``cen`` has a finite absolute sum, so no sum of its entries overflows.

    m times the largest |entry| decides most matrices; the rest are summed
    ``_BLOCK`` entries at a time, so no B x m temporary is made.
    """
    top = float(max(cen.max(initial=0.0), -cen.min(initial=0.0)))
    if math.isfinite(cen.shape[1] * top):
        return True
    rows = max(_BLOCK // max(cen.shape[1], 1), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return all(np.isfinite(np.abs(cen[i:i + rows]).sum(axis=1)).all()
                   for i in range(0, cen.shape[0], rows))


def _ground_classes(values: np.ndarray, ground) -> tuple:
    """Read-only masks of the columns :mod:`.reduction` drops and merges at ``ground``:
    transformed rows all at it, and the others' observed entries at it."""
    ground = float(ground)
    if values.min() < ground:
        raise ValueError(f"matrix entries fall below the ground value {ground}; "
                         "reduction applies to floor-truncated matrices only")
    inert = (values[1:] == ground).all(axis=0)
    low = ~inert & (values[0] == ground)
    inert.setflags(write=False)
    low.setflags(write=False)
    return inert, low


def _reduce(classes: tuple, subset: tuple) -> tuple:
    """The validated ``subset`` re-indexed, and the columns kept, removed and collapsed
    by ``classes`` outside it; a lone collapsible column is kept in place."""
    outside = np.ones(classes[0].size, dtype=bool)
    outside[list(subset)] = False
    removed, merged = (np.flatnonzero(outside & mask) for mask in classes)
    merged = merged if merged.size >= 2 else merged[:0]
    keep = np.ones(outside.size, dtype=bool)
    keep[removed] = keep[merged] = False
    inner, kept = np.cumsum(keep)[list(subset)] - 1, np.flatnonzero(keep)
    return tuple(inner.tolist()), *(tuple(c.tolist()) for c in (kept, removed, merged))


@dataclass(frozen=True, eq=False)
class SumTestProblem:
    """Centered matrix, observed statistics and critical rank, bundled.

    The observed row of the original statistic matrix is kept because the
    greedy path and the branching pivot order columns by observed statistic,
    which the centered matrix alone cannot recover.  The centered matrix is
    stored row-major, every value an integer multiple of one power-of-two
    step (see :meth:`from_matrix`) and every zero as 0.0, so each sum of
    distinct columns of a row is exact in any order.  A centered matrix
    given directly is rounded down onto the grid of its largest entry.
    No row's absolute sum may overflow, so no sum of its entries does.
    :attr:`ground_classes`, set only by :meth:`from_matrix` given a ground,
    are the column masks :func:`~.inference.discoveries` reduces by.
    """

    centered: np.ndarray
    observed: np.ndarray
    crit_rank: int

    def __post_init__(self):
        cen = np.asarray(self.centered, dtype=float)
        if cen.ndim != 2 or not np.isfinite(cen).all():
            raise ValueError("centered must be a finite (B, m) matrix")
        step = _grid_step(cen.shape[1], float(max(cen.max(initial=0.0), -cen.min(initial=0.0))))
        self._keep(_steps(cen, step, up=False) * step + 0.0, self.observed, self.crit_rank)

    def _keep(self, cen: np.ndarray, observed, crit_rank: int, classes=None) -> "SumTestProblem":
        """Check the grid matrix ``cen`` against the next two fields; store all four."""
        obs = np.array(observed, dtype=float)
        if obs.shape != (cen.shape[1],) or not np.isfinite(obs).all():
            raise ValueError("observed must be a finite (m,) vector")
        if not _sums_finite(cen):
            raise ValueError("centered values x0 - xr overflow; rescale the statistics")
        if not 1 <= crit_rank <= cen.shape[0]:
            raise ValueError(f"crit_rank {crit_rank} out of range for {cen.shape[0]} rows")
        cen.setflags(write=False)
        obs.setflags(write=False)
        for name, value in (("centered", cen), ("observed", obs), ("crit_rank", crit_rank),
                            ("ground_classes", classes)):
            object.__setattr__(self, name, value)
        return self

    @cached_property
    def order(self) -> np.ndarray:
        """All columns by observed statistic, ties by index; read-only."""
        order = np.argsort(self.observed, kind="stable")
        order.setflags(write=False)
        return order

    @cached_property
    def checkpoints(self) -> np.ndarray:
        """Row j: the row sums of the first ``j * _STRIDE`` columns of ``order``; read-only.

        Built ``_STRIDE`` columns at a time, so it needs no B x m temporary;
        it holds B (m // _STRIDE + 1) values.
        """
        cen, order = self.centered, self.order
        table = np.zeros((self.n_hyps // _STRIDE + 1, self.n_transforms))
        for j in range(1, table.shape[0]):
            cols = order[(j - 1) * _STRIDE: j * _STRIDE]
            np.add(table[j - 1], _row_sums(np.take(cen, cols, axis=1)), out=table[j])
        table.setflags(write=False)
        return table

    @cached_property
    def row_totals(self) -> np.ndarray:
        """Each row's sum of all centered columns, exact on the grid; read-only."""
        totals = _row_sums(self.centered)
        totals.setflags(write=False)
        return totals

    @cached_property
    def counts(self) -> tuple:
        """Each row's number of centered values at most 0, and below 0."""
        cen = self.centered
        return np.count_nonzero(cen <= 0.0, axis=1), np.count_nonzero(cen < 0.0, axis=1)

    @property
    def n_transforms(self) -> int:
        return self.centered.shape[0]

    @property
    def n_hyps(self) -> int:
        return self.centered.shape[1]

    @classmethod
    def from_matrix(cls, stats: StatisticMatrix, cfg: TestConfig, ground=None) -> "SumTestProblem":
        """Subtract every row of ``stats`` from its observed row, on the grid.

        Each observed entry x0 is rounded down and each transformed entry xr
        up, so each stored x0 - xr is at most its real value, within two
        steps of it, and 0 in row 0.  Dominant columns, whose every
        |x0 - xr| of rows 1 on exceeds 4 L (L: the other columns' largest
        |x0 - xr| summed) with one sign per row, hold +T or -T there, T the
        power of two in (2 L, 4 L], and the step comes from T and the other
        columns.  The caps turn no row sum's sign and +T is at most the real
        value, so a set this problem rejects, the exact test rejects, and one
        huge column (a p-value of 1e-20 under ``vw:-1``) rounds no other away.
        With ``ground``, the floor a truncation left, no entry may lie below it.
        """
        if cfg.n_transforms != stats.n_transforms:
            raise ValueError("config and matrix disagree on the number of rows")
        classes = None if ground is None else _ground_classes(stats.values, ground)
        values, x0, dominant = stats.values, stats.values[0], []
        top = values[1:].max(axis=0, initial=-np.inf)
        bottom = values[1:].min(axis=0, initial=np.inf)
        with np.errstate(over="ignore", invalid="ignore"):  # dominant entries may overflow
            lo, hi = x0 - top, x0 - bottom  # each column's least and largest x0 - xr
            # the largest |x0 - xr|, and a bound at or above the least
            size, gap = np.maximum(hi, -lo), np.maximum(np.maximum(lo, -hi), np.minimum(hi, -lo))
            order = np.argsort(size, kind="stable")
            light = np.cumsum(size[order])  # light[i]: the i + 1 smallest sizes summed
            tail = np.minimum.accumulate(gap[order][::-1])[::-1]  # least gap from i on
            raw = np.maximum(np.abs(x0), np.maximum(top, -bottom))
            step = _grid_step(x0.size, float(raw.max()))
            for i in np.flatnonzero((tail[1:] > 4 * light[:-1]) & (light[:-1] > 0)):
                cut = x0[order[i + 1:]] - values[1:, order[i + 1:]]
                cap = math.ldexp(1.0, math.frexp(2 * light[i])[1])
                fine = _grid_step(x0.size, max(float(raw[order[: i + 1]].max()), cap))
                # every |x0 - xr| above 4 L, each with the sign of its row's first
                if fine <= cap and (cut * np.sign(cut[:, :1]) > 4 * light[i]).all():
                    step, dominant = fine, order[i + 1:]
                    break
            cen = _steps(values, step, up=True)  # the one B x m buffer
            np.subtract(_steps(x0, step, up=False) + 0.0, cen, out=cen)
            cen *= step
        if len(dominant):
            cen[1:, dominant] = np.copysign(cap, cut)
        cen[0] = 0.0
        # already on the grid, so not through __post_init__, which would copy it
        return object.__new__(cls)._keep(cen, stats.observed, cfg.crit_rank, classes)

    def restricted(self, kept, merged) -> "SumTestProblem":
        """This problem on columns ``kept``, then one exact grid sum of ``merged`` if any.

        ``merged`` lists distinct columns.  The merged column's observed
        statistic sums its members', clipped to the finite range.  Each sum
        of the new columns is one of this problem's, so each verdict is too.
        When ``merged`` holds more than half the columns, its sum is taken
        as :attr:`row_totals` minus the sum of the other columns, which
        gathers fewer of them.  The bits are the same: both terms sum
        distinct columns, so they are exact, and their difference, the
        merged sum, is exact on the grid too, so the subtraction rounds
        nothing.
        """
        kept, merged = list(kept), list(merged)
        with np.errstate(over="ignore"):
            total = [np.nan_to_num(self.observed[merged].sum())] if merged else []
        obs = [self.observed[kept], *total]
        if 2 * len(merged) > self.n_hyps:
            others = np.ones(self.n_hyps, dtype=bool)
            others[merged] = False
            others = np.take(self.centered, np.flatnonzero(others), axis=1)
            merged = [self.row_totals - _row_sums(others)]
        elif merged:
            merged = [self.centered[:, merged].sum(axis=1)]
        cen = np.column_stack([np.take(self.centered, kept, axis=1), *merged])  # row-major
        return object.__new__(SumTestProblem)._keep(cen, np.hstack(obs), self.crit_rank)


def _marked(state) -> dict:
    """Trace fields of a subspace (None: the root): its forced and excluded columns."""
    state = np.zeros(0) if state is None else state
    return dict(forced=tuple(np.flatnonzero(state > 0).tolist()),
                excluded=tuple(np.flatnonzero(state < 0).tolist()))


def _rank_stat(column: np.ndarray, rank: int) -> float:
    return float(np.partition(column, rank - 1)[rank - 1])


def _row_sums(cols: np.ndarray) -> np.ndarray:
    """Row sums of a block of centered columns."""
    return cols.sum(axis=1)


def _cut_values(block: np.ndarray, values: np.ndarray):
    """Cut one entry equal to ``values[r]`` from each sorted row r of ``block``, in place.

    ``block`` is the first n columns of its ``base``, a writable row-major
    buffer.  Also returns the cut positions, bisected in all rows at once:
    the first entry not below the value, which equals it when the row holds
    it; a row that does not is an engine fault, raised before anything
    moves.  Each row's entries after its cut move left by one, so the first
    n - 1 columns of the buffer are the block a fresh sort of the remaining
    columns gives.
    """
    n_rows, n = block.shape
    rows = np.arange(n_rows)
    pos = np.zeros(n_rows, dtype=np.intp)
    for shift in range(n.bit_length() - 1, -1, -1):
        probe = np.minimum(pos + (1 << shift), n)
        pos = np.where(block[rows, probe - 1] < values, probe, pos)
    if not (block[rows, np.minimum(pos, n - 1)] == values).all():
        raise RuntimeError("the query context's sorted block lacks a column it should hold")
    buf, moved = block.base, n - 1 - pos
    # src: the flat buffer index of every entry after a cut, row by row
    start = rows * buf.shape[1] + pos + 1 - (np.cumsum(moved) - moved)
    flat, src = buf.reshape(-1), np.repeat(start, moved) + np.arange(moved.sum())
    flat[src - 1] = flat[src]
    return buf[:, :n - 1], pos


class _RunningSums:
    """Row sums of the first k columns of a source, each read carried on from the last.

    ``columns(lo, hi)`` returns source columns ``lo`` to ``hi - 1`` as a
    B x (hi - lo) array.  ``sums`` holds the last read, of the first ``k``,
    and the next adds or subtracts the columns in between: a scan reads
    sizes near each other, so it sums few columns.  ``restart(k, n)``, if
    given, returns the first ``k``'s sums computed afresh from fewer than
    ``n`` columns, or None when that takes ``n`` or more.
    """

    def __init__(self, columns, restart=None):
        self.columns, self.restart, self.k, self.sums = columns, restart, 0, 0.0

    def through(self, k: int) -> np.ndarray:
        """The row sums of the first ``k`` source columns."""
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
    order : ndarray of int
        The problem's ``order``, all columns by observed statistic, ties by
        index: the order of ``sorted(range(m), key=lambda i: (observed[i], i))``.
    subset_order : ndarray of int
        The subset's columns in that order.
    counts : tuple of ndarray
        Each row's number of subset values at most 0, and below 0.
    sorted_block : tuple or None
        ``(mask, block, sums)`` of the last scan, or None before the first:
        the mask of its free subset columns, the B x n block of their
        centered values, each row sorted ascending, and the running sums of
        ``block``'s columns, replaced whole (see :meth:`sorted_rows`);
        ``block`` is a read-only view of a buffer that trims rewrite in place.
    order_sums : _RunningSums
        The running sums of the centered columns in ``subset_order``.
    """

    def __init__(self, prob: SumTestProblem, subset):
        self.prob = prob
        self.subset = validate_subset(subset, prob.n_hyps)
        self.in_subset = np.zeros(prob.n_hyps, dtype=bool)
        self.in_subset[list(self.subset)] = True
        self.order = prob.order
        self.subset_order = order = self.order[self.in_subset[self.order]]
        inside = 2 * len(self.subset) <= prob.n_hyps
        side = self.subset if inside else np.flatnonzero(~self.in_subset)
        side = np.take(prob.centered, side, axis=1)
        le, lt = np.count_nonzero(side <= 0.0, axis=1), np.count_nonzero(side < 0.0, axis=1)
        self.counts = (le, lt) if inside else (prob.counts[0] - le, prob.counts[1] - lt)
        self.sorted_block = None
        # not through self: a cycle would hold the context until a collection
        self.order_sums = _RunningSums(lambda lo, hi: np.take(prob.centered, order[lo:hi], axis=1))

    def sorted_rows(self, mask: np.ndarray, needed: int):
        """Row-sorted, read-only block of the centered columns in ``mask``,
        and the row sums of its first ``needed`` columns.

        Reuses :attr:`sorted_block` when its mask equals ``mask``, trims
        one value per row in place when ``mask`` lacks exactly one of its
        columns, and sorts into a new buffer otherwise; the result takes
        the slot.  A trim keeps the running sums of the first k columns: a
        row cut before column k gains the value that slides into column
        k - 1 and loses the cut one.
        """
        slot = self.sorted_block
        block, sums = None, _RunningSums(None)
        if slot is not None:
            held, kept, carried = slot
            gone = np.flatnonzero(held != mask)
            if not gone.size:
                block, sums = kept, carried
            elif gone.size == 1 and held[gone[0]]:
                cut = self.prob.centered[:, gone[0]]
                block, pos = _cut_values(kept, cut)
                k0 = carried.k
                if k0 <= block.shape[1]:
                    sums, head = carried, carried.sums
                    if k0:
                        sums.sums = np.where(pos < k0, head + block[:, k0 - 1] - cut, head)
        if block is None:
            # let the last buffer go before the new one is made: one is held at a time
            self.sorted_block = slot = kept = carried = None
            block = np.take(self.prob.centered, np.flatnonzero(mask), axis=1)
            block.sort(axis=1)
            block = block.view()  # of the buffer, which later trims rewrite
        block.setflags(write=False)
        sums.columns = lambda lo, hi: block[:, lo:hi]
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
    drop_end, rise_start : int
        The bound is nonincreasing on sizes up to ``drop_end`` and
        nondecreasing from ``rise_start`` on: ``size_min`` plus the least
        number, over rows, of remainder values at most 0, and plus the
        greatest number below 0.  A root scan counts them from ``counts``;
        a constrained scan bisects its sorted remainder.
    """

    def __init__(self, ctx: QueryContext, overlap: int, state=None):
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
        self.prob, self._ctx = ctx.prob, ctx
        self._forced, self._free, self._needed, self._reserved = forced, free, needed, reserved

        forced_cols = np.flatnonzero(forced)
        self.size_min = forced_cols.size + needed
        self.size_max = forced_cols.size + int(np.count_nonzero(free))
        self._forced_sum = _row_sums(ctx.prob.centered[:, forced_cols])
        self._rem_prefix = self._path_tables = None
        if not root:
            rem = self._remainder()
            cols = range(rem.shape[1])
            nonpos_run = bisect_left(cols, True, key=lambda j: (rem[:, j] > 0.0).any())
            negsome_run = bisect_left(cols, True, key=lambda j: (rem[:, j] >= 0.0).all())
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
            rem = np.concatenate([in_s[:, needed:], np.take(cen, o_free, axis=1)], axis=1)
            rem.sort(axis=1)
        else:
            rem = in_s[:, needed:]
        self._base = self._forced_sum + picked
        self._rem_prefix = _RunningSums(lambda lo, hi: rem[:, lo:hi])
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
            on_path = rest_mask[ctx.order]
            rest_at = np.flatnonzero(on_path)  # each rest column's place in the order
            rest = ctx.order[rest_at]
            picked = ctx.order_sums.through(reserved.size)

            def restart(k, budget):
                # order[:p] holds rest[:k] and p - k columns off the path:
                # reserved, forced or excluded
                p = int(rest_at[k - 1]) + 1 if k else 0
                q = p // _STRIDE
                if p - q * _STRIDE + p - k >= budget:
                    return None
                added = np.take(cen, ctx.order[q * _STRIDE: p], axis=1)
                taken = np.take(cen, ctx.order[:p][~on_path[:p]], axis=1)
                return prob.checkpoints[q] + _row_sums(added) - _row_sums(taken)

            prefix = _RunningSums(lambda lo, hi: np.take(cen, rest[lo:hi], axis=1), restart)
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
    """
    ws = Workspace(ctx, overlap, state)
    v1, v2 = window if window is not None else (ws.size_min, ws.size_max)
    v1 = max(int(v1), ws.size_min)
    v2 = min(int(v2), ws.size_max)
    if v1 > v2:
        return Evaluation(Verdict.ALL_REJECTED)

    if trace is not None:
        where = dict(overlap=overlap, **_marked(state))
    undecided = []

    def certified(v: int) -> bool:
        value = ws.bound_value(v)
        if trace is not None:
            trace.append(dict(kind="bound", **where, size=v, value=value))
        return value > 0.0

    def survivor(v: int):
        """Size ``v``'s path candidate if that survives."""
        value = ws.path_value(v)
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
    rest, _, _ = ws._paths()
    return Evaluation(
        Verdict.UNDECIDED, window=(min(undecided), max(undecided)),
        pivot=int(rest[-1]) if rest.size else None,
    )
