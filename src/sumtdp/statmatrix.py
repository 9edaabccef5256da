"""Permutation statistic matrices and the centered sum test.

A statistic matrix holds one row per data transformation and one column per
hypothesis; row 0 is always the observed (identity) row.  Centering subtracts
every row from the observed row, so the identity row becomes all zeros.  A
subset of hypotheses is rejected when a low order statistic of its centered
row sums is strictly positive.  Everything downstream consumes the centered
form together with a :class:`TestConfig` fixing the critical rank.

Matrices are immutable once constructed (the wrapped arrays are marked
read-only), so they can be shared freely across threads.
"""

import csv
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StatisticMatrix",
    "CenteredMatrix",
    "TestConfig",
    "center",
    "subset_quantile",
    "reject",
    "read_statistic_csv",
    "read_data_csv",
    "write_statistic_csv",
    "validate_subset",
]


def _freeze(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


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


@dataclass(frozen=True, eq=False)
class CenteredMatrix:
    """Observed row minus every transformed row; row 0 is identically zero."""

    values: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.values)
        if arr.ndim != 2:
            raise ValueError(f"centered matrix must be 2-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("centered matrix has non-finite entries")
        if arr.shape[0] >= 1 and np.any(arr[0] != 0.0):
            raise ValueError("row 0 of a centered matrix must be all zeros")
        object.__setattr__(self, "values", arr)

    @property
    def n_transforms(self) -> int:
        return self.values.shape[0]

    @property
    def n_hyps(self) -> int:
        return self.values.shape[1]


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
        if self.n_transforms < 1:
            raise ValueError("need at least the identity transformation")
        rank = math.ceil(self.alpha * self.n_transforms)
        if rank <= 1:
            # The smallest centered sum includes the identity row's 0, so a
            # rank-1 test can never reject anything.
            warnings.warn(
                f"alpha={self.alpha} with {self.n_transforms} transformations "
                "yields a test with zero power; use more transformations",
                UserWarning,
                stacklevel=2,
            )
            rank = 1
        object.__setattr__(self, "crit_rank", rank)


def column_index(i) -> int:
    """``i`` as a column index.

    Integers (numpy's included) and integral floats are indices; booleans,
    fractional or non-finite numbers and anything else are a
    :class:`ValueError`, never truncated to some other column.
    """
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, numbers.Real):
        raise ValueError(f"column index {i!r} is not a number")
    if isinstance(i, numbers.Integral):
        return int(i)
    if not float(i).is_integer():
        raise ValueError(f"column index {i!r} is not an integer")
    return int(i)


def validate_subset(subset, n_hyps) -> tuple:
    """Return ``subset`` as a sorted tuple of distinct in-range column indices."""
    cols = tuple(column_index(i) for i in subset)
    if not cols:
        raise ValueError("hypothesis subset must be non-empty")
    if len(set(cols)) != len(cols):
        raise ValueError(f"duplicate column indices in subset {cols}")
    for i in cols:
        if not 0 <= i < n_hyps:
            raise ValueError(f"column index {i} out of range for {n_hyps} columns")
    return tuple(sorted(cols))


def center(stats: StatisticMatrix) -> CenteredMatrix:
    """Subtract every row from the observed row."""
    return CenteredMatrix(stats.values[0] - stats.values)


def _check_cfg(centered, cfg: TestConfig):
    if cfg.n_transforms != centered.n_transforms:
        raise ValueError(
            f"config expects {cfg.n_transforms} transformations, "
            f"matrix has {centered.n_transforms}"
        )


def subset_quantile(centered: CenteredMatrix, subset, cfg: TestConfig) -> float:
    """``crit_rank``-th smallest centered sum over the given columns."""
    _check_cfg(centered, cfg)
    cols = validate_subset(subset, centered.n_hyps)
    sums = centered.values[:, cols].sum(axis=1)
    return float(np.partition(sums, cfg.crit_rank - 1)[cfg.crit_rank - 1])


def reject(centered: CenteredMatrix, subset, cfg: TestConfig) -> bool:
    """True when the subset's critical centered sum is strictly positive."""
    return subset_quantile(centered, subset, cfg) > 0.0


def _read_table(path):
    rows = []
    with open(path, newline="") as fh:
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
    return StatisticMatrix(values, names=names)


def read_data_csv(path):
    """Read a raw data table (observations x variables) from CSV.

    Returns ``(names, values)`` with the header names and a float array;
    transformation schemes turn such tables into statistic matrices.
    """
    return _read_table(path)


def write_statistic_csv(stats: StatisticMatrix, path) -> None:
    """Write a statistic matrix as CSV (header row, observed row first)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(stats.column_names())
        for row in stats.values:
            writer.writerow([repr(float(x)) for x in row])
