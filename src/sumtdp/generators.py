"""Transformation schemes that turn raw data into statistic matrices.

The identity transformation always occupies row 0.  The remaining rows are
drawn independently and uniformly from the chosen group, with replacement;
duplicate draws are kept as distinct rows.  Randomness comes from numpy's
seedable default generator, so matrices are reproducible across platforms
for a fixed seed.
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


def one_sample_t(data, two_sided: bool = True) -> np.ndarray:
    """Column-wise one-sample t statistics, ``mean / (sd / sqrt(n))``.

    With ``two_sided`` the absolute value is returned so that large always
    means strong evidence against a zero mean.
    """
    arr = _check_data(data)
    n = arr.shape[0]
    sd = arr.std(axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ValueError(f"column {zero[0]} has zero variance")
    t = arr.mean(axis=0) / (sd / np.sqrt(n))
    return np.abs(t) if two_sided else t


def _build(data, scheme, statistic, transform_rows):
    arr = _check_data(data)
    rows = [np.asarray(statistic(arr), dtype=float)]
    m = arr.shape[1]
    if rows[0].shape != (m,):
        raise ValueError(
            f"statistic must map (n, {m}) data to {m} values, got shape {rows[0].shape}"
        )
    rng = np.random.default_rng(scheme.seed)
    for _ in range(scheme.n_transforms - 1):
        rows.append(np.asarray(statistic(transform_rows(arr, rng)), dtype=float))
    return StatisticMatrix(np.vstack(rows))


def sign_flip_matrix(data, scheme: TransformationScheme, statistic=one_sample_t) -> StatisticMatrix:
    """Statistic matrix under random sign flips of whole observations.

    Each non-identity row flips every observation's sign independently with
    probability one half; the flip is shared across variables, preserving
    their dependence.
    """
    if scheme.kind != "sign_flip":
        raise ValueError(f"scheme kind is {scheme.kind!r}, expected 'sign_flip'")

    def flip(arr, rng):
        signs = rng.integers(0, 2, size=arr.shape[0]) * 2 - 1
        return signs[:, None] * arr

    return _build(data, scheme, statistic, flip)


def row_permutation_matrix(data, scheme: TransformationScheme, statistic) -> StatisticMatrix:
    """Statistic matrix under random permutations of the observation rows.

    Useful for statistics that depend on row order or on external labels
    aligned with rows; a row-order-invariant statistic yields a constant
    matrix.
    """
    if scheme.kind != "row_permutation":
        raise ValueError(f"scheme kind is {scheme.kind!r}, expected 'row_permutation'")

    def permute(arr, rng):
        return arr[rng.permutation(arr.shape[0])]

    return _build(data, scheme, statistic, permute)
