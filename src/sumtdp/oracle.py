"""Exhaustive closed-testing reference, tractable up to a dozen hypotheses.

Builds the rejection status of all 2^m hypothesis sets of one
:class:`~.problem.SumTestProblem` by columns (the sets whose highest member
is column b are the sets below 2^b, each plus column b, so one vector add
per column fills their row sums), then answers overlap queries from one
count of every set's overlap with the queried subset.  Build one table per
problem and query it as often as needed.  Used as the ground truth that the
shortcut engine is checked against: the two share the problem, not the
search.  The enumeration reads only the problem's centered values and
critical rank, and this module imports no search code.
"""

import numpy as np

from .problem import SumTestProblem
from .statmatrix import validate_subset

__all__ = ["RejectionTable"]

_MAX_HYPS = 12
_MAX_TRANSFORMS = 64


def _popcount(masks: np.ndarray) -> np.ndarray:
    try:
        return np.bitwise_count(masks)
    except AttributeError:  # numpy < 2.0
        out = np.zeros_like(masks)
        work = masks.copy()
        while work.any():
            out += work & 1
            work >>= 1
        return out


class RejectionTable:
    """Rejection status of every hypothesis set of one problem."""

    def __init__(self, prob: SumTestProblem):
        m = prob.n_hyps
        if m > _MAX_HYPS:
            raise ValueError(f"exhaustive table supports at most {_MAX_HYPS} columns, got {m}")
        if prob.n_transforms > _MAX_TRANSFORMS:
            raise ValueError(
                f"exhaustive table supports at most {_MAX_TRANSFORMS} rows, "
                f"got {prob.n_transforms}"
            )
        self.n_hyps = m
        values = prob.centered.T  # one row per column, contiguous
        # Row sums on the problem's grid are exact, so the order of adds is free.
        sums = np.zeros((1 << m, prob.n_transforms))
        for b in range(m):
            np.add(sums[:1 << b], values[b], out=sums[1 << b:2 << b])
        rank = prob.crit_rank
        self.quantiles = np.partition(sums, rank - 1, axis=1)[:, rank - 1]
        # The empty set is never rejected; its all-zero sums give quantile 0.
        self.rejected = self.quantiles > 0.0
        self._masks = np.arange(1 << m, dtype=np.uint32)
        self._sizes = _popcount(self._masks)

    def _overlaps(self, subset) -> np.ndarray:
        """Every set's overlap with ``subset``, indexed by the set's bit mask."""
        smask = sum(1 << i for i in validate_subset(subset, self.n_hyps))
        return _popcount(self._masks & np.uint32(smask))

    def max_nonrejected_overlap(self, subset) -> int:
        """Largest overlap with ``subset`` among surviving sets (0 via the empty set)."""
        return int(self._overlaps(subset)[~self.rejected].max())

    def all_overlapping_rejected(self, subset, min_overlap: int) -> bool:
        """Whether every set sharing at least ``min_overlap`` members with
        ``subset`` is rejected: whether no surviving set overlaps it that
        much.  The empty set makes this False for ``min_overlap <= 0``."""
        return bool(self.max_nonrejected_overlap(subset) < min_overlap)

    def min_quantile(self, subset, min_overlap: int, size: int) -> float:
        """Smallest subset quantile among sets of ``size`` members overlapping
        ``subset`` by at least ``min_overlap``; NaN when no such set exists."""
        pick = (self._overlaps(subset) >= min_overlap) & (self._sizes == size)
        if not pick.any():
            return float("nan")
        return float(self.quantiles[pick].min())
