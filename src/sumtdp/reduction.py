"""Column reduction for floor-truncated statistic matrices.

After truncation every entry is at least the ground value, and many columns
outside the query subset become inert.  Two reductions shrink the matrix
without changing any overlap verdict or discovery count for the subset:

* a column whose transformed rows all sit at the ground can be dropped:
  adding it to a candidate set shifts every centered sum by the same
  nonnegative amount, so it never turns a rejected candidate into a survivor
  and never needs to be part of one;
* columns whose observed entry sits at the ground only ever lower centered
  sums, and only their total matters: any candidate using several of them is
  dominated by one using their sum, so they merge into a single synthetic
  column holding the row-wise sum.

Columns inside the query subset are always kept as they are, since overlap
counting needs them individually.  The synthetic column, when created, goes
last; a lone mergeable column is left untouched in place.
"""

from dataclasses import dataclass

import numpy as np

from .shortcut import _ground_classes, _reduce
from .statmatrix import StatisticMatrix, _handed_over, validate_subset

__all__ = ["ReductionResult", "reduce_columns"]


@dataclass(frozen=True)
class ReductionResult:
    """Reduced matrix, the subset re-indexed into it, and an audit of moves.

    ``kept`` lists original column indices in their new order, excluding the
    synthetic column (present iff ``collapsed`` has at least two entries, and
    then sitting at the last new index).  The synthetic column is named by
    joining its members' names with ``+``, wrapped in parentheses until no
    kept column holds the name.
    """

    stats: StatisticMatrix
    subset: tuple
    kept: tuple
    removed: tuple
    collapsed: tuple


def reduce_columns(stats: StatisticMatrix, subset, ground: float = 0.0) -> ReductionResult:
    """Drop and merge inert columns outside ``subset``.

    Requires every entry to be at least ``ground`` (which floor truncation
    guarantees); raises ValueError otherwise, since the dominance arguments
    above rest on it.
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
    new_names = None if new_names is None else tuple(new_names)
    return ReductionResult(StatisticMatrix(_handed_over(reduced), names=new_names),
                           subset, kept, removed, collapsed)
