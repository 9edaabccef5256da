"""Transformation schemes that turn raw data into statistic matrices.

The identity transformation always occupies row 0.  The remaining rows are
drawn independently and uniformly from the chosen group, with replacement;
duplicate draws are kept as distinct rows.  Randomness comes from numpy's
seedable default generator, so the draws are fixed by the seed.

Sign-flip t statistics sum over the observations in order, first to last,
for all rows and columns at once: the order in which numpy's axis-0 sums of
a C-ordered array with two or more columns add.  The values therefore do not
depend on the data's memory layout or column count, and row 0 equals, bit
for bit, a flipped row whose signs are all plus.
"""

from dataclasses import dataclass

import numpy as np

from .statmatrix import StatisticMatrix

__all__ = [
    "TransformationScheme",
    "one_sample_t",
    "sign_flip_matrix",
    "row_permutation_matrix",
]

_KINDS = ("sign_flip", "row_permutation")

# Rows times columns per block of t statistics: bounds the temporaries.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TransformationScheme:
    """How many transformations to draw, from which group, and the seed."""

    kind: str
    n_transforms: int
    seed: int = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        if self.n_transforms < 1:
            raise ValueError("n_transforms must be at least 1")


def _check_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"data must be 2-D (observations x variables), got {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if not np.isfinite(arr).all():
        raise ValueError("data contains non-finite entries")
    return arr


def _flipped_t(arr, signs, two_sided) -> np.ndarray:
    """One-sample t statistics of ``signs[r][:, None] * arr`` for each row r.

    ``signs`` holds +-1.0, all plus in row 0 (the observed data).
    """
    n, m = arr.shape
    out = np.empty((len(signs), m))
    rows = max(1, _BLOCK_ELEMENTS // m)
    for lo in range(0, len(out), rows):
        flips, t = signs[lo:lo + rows], out[lo:lo + rows]
        step = np.empty_like(t)
        mean = np.multiply(flips[:, 0, None], arr[0])
        for i in range(1, n):
            mean += np.multiply(flips[:, i, None], arr[i], out=step)
        mean /= n
        sd = np.empty_like(t)
        for i in range(n):
            dev = np.multiply(flips[:, i, None], arr[i], out=step if i else sd)
            dev -= mean
            dev *= dev
            if i:
                sd += dev
        sd /= n - 1
        np.sqrt(sd, out=sd)
        if not sd.all():
            r, c = np.argwhere(sd == 0.0)[0]
            if lo + r == 0:
                raise ValueError(f"column {c} has zero variance")
            raise ValueError(
                f"the sign flip drawn for row {lo + r} makes column {c} constant, "
                "so its t statistic is undefined"
            )
        sd /= np.sqrt(n)
        np.divide(mean, sd, out=t)
        if two_sided:
            np.abs(t, out=t)
    return out


def one_sample_t(data, two_sided: bool = True) -> np.ndarray:
    """Column-wise one-sample t statistics, ``mean / (sd / sqrt(n))``.

    With ``two_sided`` the absolute value is returned so that large always
    means strong evidence against a zero mean.
    """
    arr = _check_data(data)
    return _flipped_t(arr, np.ones((1, arr.shape[0])), two_sided)[0]


def sign_flip_matrix(data, scheme: TransformationScheme, two_sided: bool = True) -> StatisticMatrix:
    """One-sample t statistics under random sign flips of whole observations.

    Each non-identity row flips every observation's sign independently with
    probability one half; the flip is shared across variables, preserving
    their dependence.  ``two_sided`` is as in ``one_sample_t``.
    """
    if scheme.kind != "sign_flip":
        raise ValueError(f"scheme kind is {scheme.kind!r}, expected 'sign_flip'")
    arr = _check_data(data)
    signs = np.ones((scheme.n_transforms, arr.shape[0]))
    rng = np.random.default_rng(scheme.seed)
    signs[1:] = rng.integers(0, 2, size=signs[1:].shape) * 2 - 1
    return StatisticMatrix(_flipped_t(arr, signs, two_sided))


def row_permutation_matrix(data, scheme: TransformationScheme, statistic) -> StatisticMatrix:
    """Statistic matrix under random permutations of the observation rows.

    Useful for statistics that depend on row order or on external labels
    aligned with rows; a row-order-invariant statistic yields a constant
    matrix.
    """
    if scheme.kind != "row_permutation":
        raise ValueError(f"scheme kind is {scheme.kind!r}, expected 'row_permutation'")
    arr = _check_data(data)
    rows = [np.asarray(statistic(arr), dtype=float)]
    m = arr.shape[1]
    if rows[0].shape != (m,):
        raise ValueError(
            f"statistic must map (n, {m}) data to {m} values, got shape {rows[0].shape}"
        )
    rng = np.random.default_rng(scheme.seed)
    for _ in range(scheme.n_transforms - 1):
        rows.append(np.asarray(statistic(arr[rng.permutation(arr.shape[0])]), dtype=float))
    return StatisticMatrix(np.vstack(rows))
