"""Exhaustive closed-testing reference, tractable up to a dozen hypotheses.

Builds the rejection status of all 2^m hypothesis sets of one
:class:`~.problem.SumTestProblem` with incremental row sums (each set's
sums extend the sums of the set without its lowest member), then answers
overlap queries by scanning the surviving (non-rejected) masks.  Build one
table per problem and query it as often as needed.  Used as the ground truth
that the shortcut engine is checked against: the two share the problem, not
the search.  The enumeration reads only the problem's centered values and
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
        n_sets = 1 << m
        values = prob.centered.T  # one row per column, contiguous
        sums = np.zeros((n_sets, prob.n_transforms))
        for mask in range(1, n_sets):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
        rank = prob.crit_rank
        quantiles = np.partition(sums, rank - 1, axis=1)[:, rank - 1]
        self.quantiles = quantiles
        # The empty set is never rejected; its all-zero sums give quantile 0.
        self.rejected = quantiles > 0.0
        self._masks = np.arange(n_sets, dtype=np.uint32)

    def _subset_mask(self, subset) -> int:
        cols = validate_subset(subset, self.n_hyps)
        mask = 0
        for i in cols:
            mask |= 1 << i
        return mask

    def max_nonrejected_overlap(self, subset) -> int:
        """Largest overlap with ``subset`` among surviving sets (0 via the empty set)."""
        smask = self._subset_mask(subset)
        surviving = self._masks[~self.rejected]
        return int(_popcount(surviving & np.uint32(smask)).max())

    def all_overlapping_rejected(self, subset, min_overlap: int) -> bool:
        """Whether every set sharing at least ``min_overlap`` members with
        ``subset`` is rejected.  The empty set makes this False for
        ``min_overlap <= 0``."""
        smask = self._subset_mask(subset)
        size = int(_popcount(np.uint32(smask)))
        if min_overlap <= 0:
            return False
        if min_overlap > size:
            return True
        overlap = _popcount(self._masks & np.uint32(smask))
        candidates = overlap >= min_overlap
        return bool(np.all(self.rejected[candidates]))

    def min_quantile(self, subset, min_overlap: int, size: int) -> float:
        """Smallest subset quantile among sets of ``size`` members overlapping
        ``subset`` by at least ``min_overlap``; NaN when no such set exists."""
        smask = self._subset_mask(subset)
        overlap = _popcount(self._masks & np.uint32(smask))
        pick = (overlap >= min_overlap) & (_popcount(self._masks) == size)
        if not pick.any():
            return float("nan")
        return float(self.quantiles[pick].min())
