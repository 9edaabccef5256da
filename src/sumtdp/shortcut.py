"""Single-step verdict on rejection of all candidate sets at one overlap level.

For a query subset S and an overlap level z, the candidates are the
hypothesis sets sharing at least z members with S, optionally restricted to a
subspace that forces some columns in and excludes others.  The question a
single step answers is whether every candidate is rejected by the centered
sum test.  Scanning candidate sizes one at a time, it uses two prefix-sum
devices per size v, and no other:

* a lower bound on all candidate quantiles at size v, built from each row's
  z smallest centered values inside S plus the v - z smallest of the rest
  (computed per row, so the bound is usually unattainable but never exceeds
  any candidate's quantile); a positive bound certifies the size;
* a greedy path of concrete candidates, built in observed-statistic order
  (one global ordering, not per row), whose quantile at size v is exact; a
  non-positive path value exhibits a surviving candidate and settles the
  whole question negatively.  Every reported survivor is a path candidate:
  where a size holds a single candidate, the path reaches it.

Two shape indices confine the scan: the bound is nonincreasing in v up to
``drop_end`` and nondecreasing from ``rise_start`` on (in floats too: adding
an entry <= 0, or >= 0, never raises, or lowers, a rounded running sum).  So
the scan walks down from ``drop_end``, then up from above it, stopping once
the bound turns positive on a monotone stretch, and reads each size at most
once.  Sizes that remain in doubt form the returned window.  Both indices
come from a binary search over columns: each row of the remainder is sorted,
so "every row is at most 0" and "some row is below 0" each hold on a leading
run of columns.

Everything a scan needs about the query subset itself lives in one
:class:`QueryContext`, built once per query: the validated subset, its
boolean mask over the columns, one stable argsort of the observed row (ties
in index order) and the reserved-column rule, which picks the subset columns
the greedy path spends on the overlap requirement.  A subspace constraint is
turned into boolean masks of forced and free columns, and the workspace, the
greedy path and the branching pivot all read those masks and that one
ordering.  Every scan and pivot takes the context as its only query
argument; :func:`~.inference.discoveries` builds it from column indices.

Scan tables are row-major, so every row sort and prefix sum runs over
contiguous memory.  A scan reads a few sizes near ``drop_end``, so the
prefix tables of the bound and of the greedy path are built only as far as
the widest size read so far, at least doubling when they grow; each
extension carries the last running sum on, so every entry equals that of
one ``cumsum`` over all columns bit for bit.  Row sums add left to right
too (see :func:`_row_sums`), so a sum carried over and extended has the
bits of a fresh one.  Centered values hold no negative zero, so equal
entries are equal bit for bit and sorting or trimming a block cannot change
a sum.  The context keeps one slot: the last scan's free subset columns,
sorted within each row as the leading columns of a writable row-major
buffer, with the row sums of their first ``k0``.  A branch's two children
share their free subset columns, which differ from their parent's by at
most the pivot, so a child scan reuses the block or trims it in place,
moving each row's entries after the pivot's value left by one, and re-sums
only rows that lose a value among their first ``k0``.  The pivot has the
greatest observed statistic, so its centered values mostly sort near the
end of each row and a trim moves few entries.  The greedy path's reserved
columns are summed alike.

Matrices are never mutated.  Besides each workspace's own growing tables,
the slot and the path's carried sums are the only state that changes, and
a context serves one scan at a time: a trim rewrites the buffer that the
last scan's read-only block views.  A slot that does not hold what its
mask says, a column both forced and excluded, an overlap outside 1..|S| or
a constraint column out of range is an engine fault:
:class:`RuntimeError`, never :class:`ValueError`, which means bad input.
"""

from bisect import bisect_left
from dataclasses import dataclass
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
    "SubspaceConstraint",
    "FREE",
    "SumTestProblem",
    "QueryContext",
    "Workspace",
    "single_step",
    "TraceLog",
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
    candidate.
    """

    verdict: Verdict
    window: tuple = None
    witness: tuple = None


@dataclass(frozen=True)
class SubspaceConstraint:
    """Columns forced into, and excluded from, every candidate set."""

    forced: frozenset = frozenset()
    excluded: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "forced", frozenset(int(i) for i in self.forced))
        object.__setattr__(self, "excluded", frozenset(int(i) for i in self.excluded))
        if self.forced & self.excluded:
            raise RuntimeError(
                f"columns {sorted(self.forced & self.excluded)} both forced and excluded"
            )

    def force(self, j: int) -> "SubspaceConstraint":
        return SubspaceConstraint(self.forced | {j}, self.excluded)

    def exclude(self, j: int) -> "SubspaceConstraint":
        return SubspaceConstraint(self.forced, self.excluded | {j})


FREE = SubspaceConstraint()


@dataclass(frozen=True, eq=False)
class SumTestProblem:
    """Centered matrix, observed statistics and critical rank, bundled.

    The observed row of the original statistic matrix is kept because the
    greedy path and the branching pivot order columns by observed statistic,
    which the centered matrix alone cannot recover.

    The centered matrix is stored row-major, with every negative zero
    turned into 0.0, whatever the layout of its input.
    numpy's vectorized sorts may swap or even merge the signs of tied zeros,
    so only then do sums over sorted rows (and the sign of a zero bound)
    not depend on the sort.
    """

    centered: np.ndarray
    observed: np.ndarray
    crit_rank: int

    def __post_init__(self):
        cen = np.asarray(self.centered, dtype=float)
        obs = np.asarray(self.observed, dtype=float)
        if cen.ndim != 2 or obs.shape != (cen.shape[1],):
            raise ValueError("centered must be (B, m) and observed (m,)")
        if not (np.isfinite(cen).all() and np.isfinite(obs).all()):
            raise ValueError("non-finite entries in problem data")
        if not 1 <= self.crit_rank <= cen.shape[0]:
            raise ValueError(
                f"crit_rank {self.crit_rank} out of range for {cen.shape[0]} rows"
            )
        cen = np.add(cen, 0.0, order="C")  # a row-major copy, with -0.0 stored as 0.0
        cen.setflags(write=False)
        obs = obs.copy()
        obs.setflags(write=False)
        object.__setattr__(self, "centered", cen)
        object.__setattr__(self, "observed", obs)

    @property
    def n_transforms(self) -> int:
        return self.centered.shape[0]

    @property
    def n_hyps(self) -> int:
        return self.centered.shape[1]

    @classmethod
    def from_matrix(cls, stats: StatisticMatrix, cfg: TestConfig) -> "SumTestProblem":
        """Subtract every row of ``stats`` from its observed row."""
        if cfg.n_transforms != stats.n_transforms:
            raise ValueError("config and matrix disagree on the number of rows")
        return cls(stats.values[0] - stats.values, stats.observed, cfg.crit_rank)


class TraceLog:
    """Accumulates per-size bound/path values and node verdicts for audit."""

    def __init__(self):
        self.rows = []

    def add(self, **row):
        self.rows.append(row)


def _rank_stat(column: np.ndarray, rank: int) -> float:
    return float(np.partition(column, rank - 1)[rank - 1])


def _row_sums(cols: np.ndarray, head: np.ndarray = None) -> np.ndarray:
    """Row sums of ``[head | cols]`` (``head`` zeros by default), left to right.

    numpy sums a contiguous row pairwise from eight entries on.  Over a
    column-major buffer with a spare zero row it adds one column at a time
    into all rows, left to right whatever the row count.  A leading 0.0
    changes no sum, because centered values hold no -0.0.
    """
    buf = np.zeros((cols.shape[0] + 1, cols.shape[1] + 1), order="F")
    if head is not None:
        buf[:-1, 0] = head
    buf[:-1, 1:] = cols
    return buf.sum(axis=1)[:-1]


def _cut_values(block: np.ndarray, values: np.ndarray):
    """Cut one entry equal to ``values[r]`` from each sorted row r of ``block``, in place.

    ``block`` is the first n columns of its ``base``, a writable row-major
    buffer.  Also returns the cut positions, bisected in all rows at once:
    the first entry not below the value, which equals it when the row holds
    it; a row that does not is an engine fault, raised before anything
    moves.  Each row's entries after its cut move left by one, so the first
    n - 1 columns of the buffer are the block a fresh sort of the remaining
    columns gives: equal centered values are equal bit for bit.
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
    """Row prefix sums of a B x n source, computed only as far as they are read.

    ``columns(lo, hi)`` returns source columns ``lo`` to ``hi - 1`` as a
    B x (hi - lo) array.  Column k of the table is the sum of the first k
    source columns, 0 at k = 0.  An extension runs ``cumsum`` from the last
    running sum, adding left to right as one ``cumsum`` over the whole
    source does, so every entry equals that full table's bit for bit.  The
    table at least doubles at each extension, so a scan reading sizes in
    any order fills it in O(log n) extensions.  It is allocated only as
    wide as it is filled: a scan often reads a single size, and allocating
    the full width made scans slower through page faults on fresh memory.
    """

    def __init__(self, shape, columns):
        n_rows, self._n = shape
        self._table = np.zeros((n_rows, 1))
        self._columns = columns

    def through(self, k: int) -> np.ndarray:
        """Column ``k`` of the table: the row sums of the first ``k`` source columns."""
        width = self._table.shape[1]
        if k >= width:
            grown = min(max(k + 1, 2 * width), self._n + 1)
            table = np.empty((self._table.shape[0], grown))
            table[:, :width] = self._table
            seg = table[:, width - 1:]
            seg[:, 1:] = self._columns(width - 1, grown - 1)
            np.cumsum(seg, axis=1, out=seg)
            self._table = table
        return self._table[:, k]


class QueryContext:
    """Per-query invariants shared by every scan and pivot of one subset.

    Attributes
    ----------
    subset : tuple
        The validated subset, sorted.
    in_subset : ndarray of bool
        Mask of the subset's columns.
    order : ndarray of int
        All columns by observed statistic, ties by index: the order of
        ``sorted(range(m), key=lambda i: (observed[i], i))``.
    subset_order : ndarray of int
        The subset's columns in that order.
    sorted_block : tuple or None
        ``(mask, block, k0, head)`` of the last scan, or None before the
        first: the mask of its free subset columns, the B x n block of their
        centered values, each row sorted ascending, and the row sums ``head``
        of ``block[:, :k0]`` (or None), replaced whole (see :meth:`sorted_rows`);
        ``block`` is a read-only view of a buffer that trims rewrite in place.
    order_sums : tuple
        ``(k0, head)``, the row sums of the centered ``subset_order[:k0]``.
    """

    SLACK = 16  # carried row sums stop this many columns short of a read

    def __init__(self, prob: SumTestProblem, subset):
        self.prob = prob
        self.subset = validate_subset(subset, prob.n_hyps)
        self.in_subset = np.zeros(prob.n_hyps, dtype=bool)
        self.in_subset[list(self.subset)] = True
        self.order = np.argsort(prob.observed, kind="stable")
        self.subset_order = self.order[self.in_subset[self.order]]
        self.sorted_block = None
        self.order_sums = (0, None)

    def carried_sums(self, carried, columns, k: int):
        """``_row_sums(columns(0, k))`` from ``head``, the sums of ``columns(0, k0)``
        (afresh if ``k < k0``), and the ``(k0, head)`` to carry on: at most ``SLACK``
        columns short of ``k``, so a force child's narrower read extends it too."""
        k0, head = carried
        if head is None or k < k0:
            k0, head = 0, None
        if k > k0 + self.SLACK:
            k0, head = k - self.SLACK, _row_sums(columns(k0, k - self.SLACK), head)
        return _row_sums(columns(k0, k), head), (k0, head)

    def sorted_rows(self, mask: np.ndarray, needed: int):
        """Row-sorted, read-only block of the centered columns in ``mask``,
        and ``_row_sums`` of its first ``needed`` columns.

        Reuses :attr:`sorted_block` when its mask equals ``mask``, trims
        one value per row in place when ``mask`` lacks exactly one of its
        columns (keeping the carried sums of rows cut at or past ``k0``),
        and sorts into a new buffer otherwise; the result takes the slot.
        """
        slot = self.sorted_block
        block, carried = None, (0, None)
        if slot is not None:
            held, kept, k0, head = slot
            gone = np.flatnonzero(held != mask)
            if not gone.size:
                block, carried = kept, (k0, head)
            elif gone.size == 1 and held[gone[0]]:
                block, pos = _cut_values(kept, self.prob.centered[:, gone[0]])
                if head is not None and k0 <= block.shape[1]:
                    redo, head = pos < k0, head.copy()
                    head[redo] = _row_sums(block[redo, :k0])
                    carried = (k0, head)
        if block is None:
            block = np.take(self.prob.centered, np.flatnonzero(mask), axis=1)
            block.sort(axis=1)
            block = block.view()  # of the buffer, which later trims rewrite
        block.setflags(write=False)
        sums, carried = self.carried_sums(carried, lambda lo, hi: block[:, lo:hi], needed)
        mask = mask.copy()
        mask.setflags(write=False)
        self.sorted_block = (mask, block, *carried)
        return block, sums

    def subspace(self, overlap: int, constraint=FREE):
        """Masks and reserved columns of one constrained subspace.

        Returns ``(forced, free, needed, reserved)``: boolean masks of the
        forced and of the unconstrained columns, the number of overlap picks
        the forced columns leave to be made, and the reserved columns.  Those
        are the free subset columns with the smallest observed statistics,
        as many as are needed, in observed order.  The greedy path starts
        with them and the pivot never splits on them; the path-inheritance
        lemma rests on both reading this one rule.
        """
        m = self.prob.n_hyps
        for i in constraint.forced | constraint.excluded:
            if not 0 <= i < m:
                raise RuntimeError(f"constraint column {i} out of range")
        forced = np.zeros(m, dtype=bool)
        forced[list(constraint.forced)] = True
        free = ~forced
        free[list(constraint.excluded)] = False
        needed = max(overlap - int(np.count_nonzero(forced & self.in_subset)), 0)
        reserved = self.subset_order[free[self.subset_order]][:needed]
        return forced, free, needed, reserved


class Workspace:
    """Prefix-sum tables for one (query, overlap, constraint) scan.

    The bound's remainder (each row's free columns left after the overlap
    picks, sorted) is built whole; its prefix sums, and the greedy path's
    columns and prefix sums, only as far as the widest size read.  Sizes
    may be read in any order.

    Attributes
    ----------
    infeasible : bool
        True when no candidate set satisfies the constraint, in which case no
        other attribute is meaningful.
    size_min, size_max : int
        Inclusive range of candidate set sizes in this subspace.
    drop_end, rise_start : int
        The bound is nonincreasing on sizes up to ``drop_end`` and
        nondecreasing from ``rise_start`` on.  Both are found by binary
        search, which rests on the remainder's rows being sorted.
    """

    def __init__(self, ctx: QueryContext, overlap: int, constraint=FREE):
        if not 1 <= overlap <= len(ctx.subset):
            raise RuntimeError(f"overlap must lie in 1..{len(ctx.subset)}, got {overlap}")
        forced, free, needed, reserved = ctx.subspace(overlap, constraint)
        self.prob = ctx.prob
        self._ctx = ctx
        self._forced = forced
        self._free = free
        self._reserved = reserved
        s_free = free & ctx.in_subset
        self.infeasible = needed > int(np.count_nonzero(s_free))
        if self.infeasible:
            return

        forced_cols = np.flatnonzero(forced)
        self.size_min = forced_cols.size + needed
        self.size_max = forced_cols.size + int(np.count_nonzero(free))

        cen = ctx.prob.centered
        # Shared by the bound and the path.  No row sum is -0.0, so adding
        # the zero sum of no columns leaves every other sum's bits as they are.
        self._forced_sum = _row_sums(cen[:, forced_cols])
        in_s, picked = ctx.sorted_rows(s_free, needed)
        o_free = np.flatnonzero(free & ~ctx.in_subset)
        if o_free.size:
            rem = np.concatenate([in_s[:, needed:], np.take(cen, o_free, axis=1)], axis=1)
            rem.sort(axis=1)
        else:
            rem = in_s[:, needed:]
        self._base = self._forced_sum + picked
        self._rem_prefix = _RunningSums(rem.shape, lambda lo, hi: rem[:, lo:hi])
        # Every row is sorted, so "all rows <= 0" and "some row < 0" each hold
        # on a leading run of columns; a binary search finds where each ends.
        cols = range(rem.shape[1])
        nonpos_run = bisect_left(cols, True, key=lambda j: (rem[:, j] > 0.0).any())
        negsome_run = bisect_left(cols, True, key=lambda j: (rem[:, j] >= 0.0).all())
        self.drop_end = self.size_min + nonpos_run
        self.rise_start = self.size_min + negsome_run

        self._path_tables = None

    def bound_value(self, v: int) -> float:
        """Lower bound on every candidate quantile at size ``v``."""
        col = self._base + self._rem_prefix.through(v - self.size_min)
        return _rank_stat(col, self.prob.crit_rank)

    def _paths(self):
        if self._path_tables is None:
            cen = self.prob.centered
            ctx, reserved = self._ctx, self._reserved
            rest_mask = self._free.copy()
            rest_mask[reserved] = False
            rest = ctx.order[rest_mask[ctx.order]]
            if np.array_equal(reserved, ctx.subset_order[: reserved.size]):  # as on the spine
                picked, ctx.order_sums = ctx.carried_sums(ctx.order_sums, lambda lo, hi: np.take(
                    cen, ctx.subset_order[lo:hi], axis=1), reserved.size)
            else:
                picked = _row_sums(np.take(cen, reserved, axis=1))
            prefix = _RunningSums(
                (self.prob.n_transforms, rest.size),
                lambda lo, hi: np.take(cen, rest[lo:hi], axis=1),
            )
            self._path_tables = (rest, self._forced_sum + picked, prefix)
        return self._path_tables

    def path_value(self, v: int) -> float:
        """Exact quantile of the size-``v`` greedy path candidate."""
        _, base, prefix = self._paths()
        return _rank_stat(base + prefix.through(v - self.size_min), self.prob.crit_rank)

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
    constraint=FREE,
    window=None,
    want_path: bool = True,
    trace: TraceLog = None,
) -> Evaluation:
    """One scan over candidate sizes at a given overlap level.

    Parameters
    ----------
    window : (int, int), optional
        Inclusive range of candidate sizes still pending; defaults to the
        subspace's full size range.  Sizes outside the subspace's range are
        ignored, and an empty effective range is vacuously ALL_REJECTED.
    want_path : bool
        Compute greedy-path quantiles at undecided sizes.  Callers switch
        this off when the subspace inherits its parent's already-checked
        path (the exclude-child of a branch).  Without the path a scan
        never reports a survivor: it is ALL_REJECTED or UNDECIDED.
    """
    ws = Workspace(ctx, overlap, constraint)
    if ws.infeasible:
        return Evaluation(Verdict.ALL_REJECTED)
    v1, v2 = window if window is not None else (ws.size_min, ws.size_max)
    v1 = max(int(v1), ws.size_min)
    v2 = min(int(v2), ws.size_max)
    if v1 > v2:
        return Evaluation(Verdict.ALL_REJECTED)

    if trace is not None:
        where = dict(overlap=overlap, forced=tuple(sorted(constraint.forced)),
                     excluded=tuple(sorted(constraint.excluded)))
    undecided = []

    def certified(v: int) -> bool:
        value = ws.bound_value(v)
        if trace is not None:
            trace.add(kind="bound", **where, size=v, value=value)
        return value > 0.0

    def survivor(v: int):
        """Note size ``v`` as in doubt; its path candidate if that survives."""
        undecided.append(v)
        if not want_path:
            return None
        value = ws.path_value(v)
        if trace is not None:
            trace.add(kind="path", **where, size=v, value=value)
        if value > 0.0:
            return None
        return Evaluation(Verdict.SURVIVOR_FOUND, witness=ws.path_set(v))

    down_start = min(ws.drop_end, v2)
    up_start = max(down_start + 1, v1)
    for v in range(down_start, v1 - 1, -1):
        if certified(v):
            # Smaller sizes are positive too, and from rise_start on larger ones.
            if v >= ws.rise_start:
                up_start = v2 + 1
            break
        found = survivor(v)
        if found is not None:
            return found
    for v in range(up_start, v2 + 1):
        if certified(v):
            if v >= ws.rise_start:
                break  # later sizes are positive too
            continue
        found = survivor(v)
        if found is not None:
            return found

    if not undecided:
        return Evaluation(Verdict.ALL_REJECTED)
    return Evaluation(Verdict.UNDECIDED, window=(min(undecided), max(undecided)))
