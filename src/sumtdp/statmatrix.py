"""Permutation statistic matrices, the test's configuration and CSV I/O.

A statistic matrix holds one row per data transformation and one column per
hypothesis; row 0 is always the observed (identity) row.  A
:class:`TestConfig` fixes the level and critical rank of the centered sum
test, which one :class:`~sumtdp.problem.SumTestProblem` per matrix carries.

Matrices are immutable once constructed, so they can be shared freely
across threads.  A read-only float64 ``numpy.ndarray`` that owns its memory
is wrapped as it is: whoever made it read-only gives up writing to it, and
every library function that builds a matrix hands over its fresh output that
way, so no B x m result is held twice.  Any other input (a writable array, a
view of another array's memory, another dtype, a list) is copied into a new
read-only array, so later writes to the input never reach the matrix.
"""

import csv
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StatisticMatrix",
    "TestConfig",
    "read_statistic_csv",
    "read_data_csv",
    "write_statistic_csv",
    "validate_subset",
]


def _freeze(values) -> np.ndarray:
    """``values`` itself if a read-only float64 ndarray owning its memory, else a read-only copy."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _handed_over(values: np.ndarray) -> np.ndarray:
    """A fresh array that nothing else holds, marked read-only so a matrix adopts it."""
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class StatisticMatrix:
    """Matrix of summable statistics, one row per transformation.

    Parameters
    ----------
    values : array_like of shape (n_transforms, n_hyps)
        Row 0 is the observed (identity transformation) row.  All entries
        must be finite.
    names : tuple of str, optional
        Column labels.  Defaults to ``H1 .. Hm`` when omitted.
    """

    values: np.ndarray
    names: tuple = None

    def __post_init__(self):
        arr = _freeze(self.values)
        if arr.ndim != 2:
            raise ValueError(f"statistic matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"statistic matrix must be non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            r, c = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite entry at row {r}, column {c}")
        object.__setattr__(self, "values", arr)
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != arr.shape[1]:
                raise ValueError(
                    f"{len(names)} column names for {arr.shape[1]} columns"
                )
            if len(set(names)) != len(names):
                raise ValueError("column names must be unique")
            object.__setattr__(self, "names", names)

    @property
    def n_transforms(self) -> int:
        return self.values.shape[0]

    @property
    def n_hyps(self) -> int:
        return self.values.shape[1]

    @property
    def observed(self) -> np.ndarray:
        return self.values[0]

    def column_names(self) -> tuple:
        if self.names is not None:
            return self.names
        return tuple(f"H{j + 1}" for j in range(self.n_hyps))


@dataclass(frozen=True)
class TestConfig:
    """Level and critical rank of the centered sum test.

    ``crit_rank`` is the 1-based rank of the centered-sum order statistic
    that must be strictly positive for rejection, ``ceil(alpha * B)`` for
    ``B`` transformations.
    """

    alpha: float
    n_transforms: int
    crit_rank: int = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not _is_count(self.n_transforms, 1):
            raise ValueError(f"n_transforms must be an integer of at least 1, got {self.n_transforms!r}")
        rank = math.ceil(self.alpha * self.n_transforms)
        if rank <= 1:
            # The smallest centered sum includes the identity row's 0, so a
            # rank-1 test can never reject anything.
            warnings.warn(
                f"alpha={self.alpha} with {self.n_transforms} transformations "
                "yields a test with zero power; use more transformations",
                UserWarning,
                stacklevel=3,  # past the generated __init__, to its caller
            )
            rank = 1
        object.__setattr__(self, "crit_rank", rank)


def column_index(i) -> int:
    """``i`` as a column index.

    Integers (numpy's included) and integral floats are indices; booleans,
    fractional or non-finite numbers and anything else are a
    :class:`ValueError`, never truncated to some other column.
    """
    if type(i) is int:  # the common case, ahead of the slower ABC checks
        return i
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, numbers.Real):
        raise ValueError(f"column index {i!r} is not a number")
    if isinstance(i, numbers.Integral):
        return int(i)
    if not float(i).is_integer():
        raise ValueError(f"column index {i!r} is not an integer")
    return int(i)


def _is_count(value, least=0) -> bool:
    """Whether ``value`` is an integer (numpy's included, booleans not) of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def validate_subset(subset, n_hyps) -> tuple:
    """Return ``subset`` as a sorted tuple of distinct in-range column indices.

    A tuple of ints that already is one comes back itself, to be shared.
    """
    cols = tuple(map(column_index, subset))
    if not cols:
        raise ValueError("hypothesis subset must be non-empty")
    if len(set(cols)) != len(cols):
        raise ValueError(f"duplicate column indices in subset {cols}")
    if min(cols) < 0 or max(cols) >= n_hyps:
        i = next(i for i in cols if not 0 <= i < n_hyps)  # the first, in input order
        raise ValueError(f"column index {i} out of range for {n_hyps} columns")
    cols = tuple(sorted(cols))
    if type(subset) is tuple and cols == subset and all(type(i) is int for i in subset):
        return subset
    return cols


def _read_table(path):
    rows = []
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = tuple(h.strip() for h in header)
        width = len(names)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return names, np.array(rows)


def read_statistic_csv(path) -> StatisticMatrix:
    """Read a statistic matrix from CSV.

    The header row carries hypothesis names; the first data row is the
    observed row and every further row is one transformation.
    """
    names, values = _read_table(path)
    return StatisticMatrix(_handed_over(values), names=names)


def read_data_csv(path):
    """Read a raw data table (observations x variables) from CSV.

    Returns ``(names, values)`` with the header names and a float array;
    transformation schemes turn such tables into statistic matrices.
    """
    return _read_table(path)


def write_statistic_csv(stats: StatisticMatrix, path) -> None:
    """Write a statistic matrix as CSV (header row, observed row first)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(stats.column_names())
        for row in stats.values:
            writer.writerow([repr(float(x)) for x in row])
