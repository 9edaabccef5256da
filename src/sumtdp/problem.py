"""The centered sum-test problem: its grid, the local test and the reduction rule.

A :class:`SumTestProblem` holds a statistic matrix centered on its observed
row 0 and the critical rank a :class:`~.statmatrix.TestConfig` fixes; a set
of columns is rejected when the ``crit_rank``-th smallest of its centered
row sums is strictly positive (:func:`reject`).  The scan (:mod:`.shortcut`)
and the exhaustive reference (:mod:`.oracle`) read it; it imports neither.

Column reduction.  After a floor truncation no entry lies below the ground,
and two reductions of the columns outside a query subset change no overlap
verdict or discovery count for it:

* a column whose transformed rows all sit at the ground is dropped: adding
  it to a candidate shifts every centered sum by the same nonnegative
  amount, so it never turns a rejected candidate into a survivor;
* columns whose observed entry sits at the ground only lower centered sums,
  and a candidate using several of them is dominated by one using their
  sum, so they merge into one column holding the row-wise sum.

Subset columns stay as they are, since overlap counting needs them; the
merged column goes last, and a lone mergeable one stays in place.  Both
:meth:`SumTestProblem.reduced` and :func:`reduce_columns` need a finite ground.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .statmatrix import StatisticMatrix, TestConfig, _handed_over, validate_subset

__all__ = ["SumTestProblem", "subset_quantile", "reject", "ReductionResult", "reduce_columns"]


# Columns of the observed order between two checkpoints; a post-hoc query's
# first path read gathers at most _STRIDE - 1 of them.  Against 64 on the
# engine-sets benchmark (8 s runs, 2-core host), requests per second went
# 2192 -> 2201 at 32 (10 alternating pairs, 5 wins) and 2243 -> 2257 at 128
# (6 rounds, 2 wins): no stride is faster beyond run-to-run spread, and 32
# doubles the table.
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
    """``x / step`` rounded up, or down, to integers, as a new hypothesis-major array."""
    q = np.divide(x.T, step, out=np.empty(x.shape[::-1])).T  # exact, or an underflow in (-1, 1)
    (np.ceil if up else np.floor)(q, out=q)
    if step > 1.0:  # else no x / step underflows to 0
        q[(q == 0) & ((x > 0) if up else (x < 0))] = 1.0 if up else -1.0
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


def _rank_stat(column: np.ndarray, rank: int) -> float:
    """The ``rank``-th smallest entry: the quantile every verdict reads."""
    return float(np.partition(column, rank - 1)[rank - 1])


def _columns(cen: np.ndarray, cols) -> np.ndarray:
    """Columns ``cols`` of a hypothesis-major ``cen`` as one contiguous k x B copy."""
    return np.take(cen.T, cols, axis=0)


def _row_sums(cols: np.ndarray) -> np.ndarray:
    """Row sums of a k x B block of centered columns (see :func:`_columns`): one B vector."""
    return cols.sum(axis=0)


def _ground_classes(values: np.ndarray, ground) -> tuple:
    """Read-only masks of the columns the reduction drops and merges at ``ground``."""
    ground = float(ground)
    if not math.isfinite(ground):
        raise ValueError(f"ground must be finite, got {ground}")
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
    read as (B, m) but stored hypothesis-major, as the engine reads it by
    columns (see :func:`_columns`), every value an integer multiple of one
    power-of-two step (see :meth:`from_matrix`) and every zero as 0.0, so each
    sum of distinct columns of a row is exact in any order.  A centered matrix
    given directly is rounded down onto the grid of its largest entry.  No
    row's absolute sum may overflow, so no sum of its entries does.
    :attr:`ground_classes`, set only by :meth:`from_matrix` given a ground,
    are the column masks the reduction drops and merges (see :meth:`reduced`).
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

        Built ``_STRIDE`` columns at a time, so with no B x m temporary.
        """
        cen, order = self.centered, self.order
        table = np.zeros((self.n_hyps // _STRIDE + 1, self.n_transforms))
        for j in range(1, table.shape[0]):
            cols = order[(j - 1) * _STRIDE: j * _STRIDE]
            np.add(table[j - 1], _row_sums(_columns(cen, cols)), out=table[j])
        table.setflags(write=False)
        return table

    @cached_property
    def row_totals(self) -> np.ndarray:
        """Each row's sum of all centered columns, exact on the grid; read-only."""
        totals = _row_sums(self.centered.T)
        totals.setflags(write=False)
        return totals

    @cached_property
    def counts(self) -> tuple:
        """Each row's number of centered values at most 0, and below 0."""
        cen = self.centered.T
        return np.count_nonzero(cen <= 0.0, axis=0), np.count_nonzero(cen < 0.0, axis=0)

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
            cen = _steps(values, step, up=True)  # the one B x m buffer, hypothesis-major
            np.subtract(_steps(x0, step, up=False) + 0.0, cen, out=cen)
            cen *= step
        if len(dominant):
            cen[1:, dominant] = np.copysign(cap, cut)
        cen[0] = 0.0
        # already on the grid, so not through __post_init__, which would copy it
        return object.__new__(cls)._keep(cen, stats.observed, cfg.crit_rank, classes)

    def restricted(self, kept, merged) -> "SumTestProblem":
        """This problem on columns ``kept``, then one exact grid sum of the distinct ``merged``.

        The merged column's observed statistic sums its members', clipped to
        the finite range.  Each sum of the new columns is one of this
        problem's, so each verdict is too.  When ``merged`` holds more than
        half the columns, its sum is :attr:`row_totals` less the other
        columns' sum, which gathers fewer; all three sums are exact on the
        grid, so the bits are the same.
        """
        kept, merged = list(kept), list(merged)
        with np.errstate(over="ignore"):
            total = [np.nan_to_num(self.observed[merged].sum())] if merged else []
        obs = [self.observed[kept], *total]
        cen = self.centered
        if 2 * len(merged) > self.n_hyps:
            others = np.ones(self.n_hyps, dtype=bool)
            others[merged] = False
            merged = [self.row_totals - _row_sums(_columns(cen, np.flatnonzero(others)))]
        elif merged:
            merged = [_row_sums(_columns(cen, merged))]
        cen = np.vstack([_columns(cen, kept), *merged]).T  # hypothesis-major
        return object.__new__(SumTestProblem)._keep(cen, np.hstack(obs), self.crit_rank)

    def reduced(self, subset: tuple) -> tuple:
        """This problem reduced for the validated ``subset`` by :attr:`ground_classes`.

        Returns the reduced problem (this one when no column goes), the subset's
        indices in it, the original columns behind each of its columns, and
        the counts ``m_reduced``, ``removed`` and ``collapsed``.
        """
        inner, kept, removed, collapsed = _reduce(self.ground_classes, subset)
        reduced = self if len(kept) == self.n_hyps else self.restricted(kept, collapsed)
        origin = [(j,) for j in kept] + ([collapsed] if collapsed else [])
        counts = {"m_reduced": reduced.n_hyps, "removed": len(removed), "collapsed": len(collapsed)}
        return reduced, inner, origin, counts


def subset_quantile(prob: SumTestProblem, subset) -> float:
    """``crit_rank``-th smallest centered sum over the given columns."""
    sums = _row_sums(_columns(prob.centered, list(validate_subset(subset, prob.n_hyps))))
    return _rank_stat(sums, prob.crit_rank)


def reject(prob: SumTestProblem, subset) -> bool:
    """True when the subset's critical centered sum is strictly positive."""
    return subset_quantile(prob, subset) > 0.0


@dataclass(frozen=True)
class ReductionResult:
    """Reduced matrix, the subset re-indexed into it, and an audit of moves.

    ``kept`` lists original column indices in their new order; the merged
    column, present iff ``collapsed`` has two or more entries, is last.  Its
    name joins its members' with ``+``, in parentheses until no kept column
    holds it.
    """

    stats: StatisticMatrix
    subset: tuple
    kept: tuple
    removed: tuple
    collapsed: tuple


def reduce_columns(stats: StatisticMatrix, subset, ground: float = 0.0) -> ReductionResult:
    """Drop and merge the columns outside ``subset`` that the reduction rule lets go.

    Every entry must be at least a finite ``ground``, as floor truncation leaves it.
    """
    classes = _ground_classes(stats.values, ground)
    subset, kept, removed, collapsed = _reduce(classes, validate_subset(subset, stats.n_hyps))
    values, names = stats.values, stats.names
    cols = [values[:, list(kept)]]
    new_names = None if names is None else [names[j] for j in kept]
    if collapsed:
        cols.append(values[:, list(collapsed)].sum(axis=1, keepdims=True))
        if new_names is not None:
            merged = "+".join(names[j] for j in collapsed)
            while merged in new_names:  # a kept column already holds the name
                merged = f"({merged})"
            new_names.append(merged)
    reduced = np.concatenate(cols, axis=1)
    return ReductionResult(StatisticMatrix(_handed_over(reduced), names=new_names),
                           subset, kept, removed, collapsed)
