"""t statistics under sign flips of whole observations, the one transformation group.

The identity flip always occupies row 0.  The remaining rows are drawn
independently and uniformly from the group, with replacement; duplicate
draws are kept as distinct rows.  Randomness comes from numpy's seedable
default generator, so the draws are fixed by the seed.  A matrix of any
other statistic enters as a CSV (see :func:`~.statmatrix.write_statistic_csv`).

Sign-flip t statistics gather each block of flipped rows from a table of
the observations and their exact negations into one C-ordered observations
x rows x columns slab, whose axis-0 sums (mean, squared deviations) numpy
adds first to last.  It would add a lone entry per observation (one column,
one row) pairwise, so that is accumulated instead.  The values thus do not
depend on memory layout, column count or block size, and row 0 equals a
flipped row of all plus signs, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .statmatrix import StatisticMatrix

__all__ = ["TransformationScheme", "sign_flip_matrix"]

# Observations times rows times columns per block of signed data.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class TransformationScheme:
    """How many sign flips to draw, and the seed; ``kind`` must be ``"sign_flip"``."""

    kind: str
    n_transforms: int
    seed: int = None

    def __post_init__(self):
        if self.kind != "sign_flip":
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


def _sum_in_order(slab) -> np.ndarray:
    # numpy adds a lone contiguous entry per observation pairwise: accumulate it
    return np.add.accumulate(slab)[-1] if slab[0].size == 1 else slab.sum(axis=0)


def _flipped_t(arr, signs, two_sided) -> np.ndarray:
    """One-sample t statistics of ``signs[r][:, None] * arr`` for each row r.

    ``signs`` holds +-1.0, all plus in row 0 (the observed data).
    """
    n, m = arr.shape
    table = np.stack([-arr, arr], axis=1).reshape(2 * n, m)
    pick = (signs.T > 0) + 2 * np.arange(n)[:, None]
    out = np.empty((len(signs), m))
    rows = max(1, _BLOCK_ELEMENTS // (n * m))
    for lo in range(0, len(out), rows):
        slab = np.take(table, pick[:, lo:lo + rows], axis=0)
        mean = _sum_in_order(slab) / n
        slab -= mean
        slab *= slab
        sd = np.sqrt(_sum_in_order(slab) / (n - 1))
        if not sd.all():
            r, c = np.argwhere(sd == 0.0)[0]
            if lo + r == 0:
                raise ValueError(f"column {c} has zero variance")
            raise ValueError(
                f"the sign flip drawn for row {lo + r} makes column {c} constant, "
                "so its t statistic is undefined"
            )
        sd /= np.sqrt(n)
        t = np.divide(mean, sd, out=out[lo:lo + rows])
        if two_sided:
            np.abs(t, out=t)
    return out


def sign_flip_matrix(data, scheme: TransformationScheme, two_sided: bool = True) -> StatisticMatrix:
    """One-sample t statistics under random sign flips of whole observations.

    Each non-identity row flips every observation's sign independently with
    probability one half; the flip is shared across variables, preserving
    their dependence.  Row 0 holds the observed ``mean / (sd / sqrt(n))`` of
    each column; with ``two_sided`` every entry is an absolute value, so
    large always means strong evidence against a zero mean.
    """
    arr = _check_data(data)
    signs = np.ones((scheme.n_transforms, arr.shape[0]))
    rng = np.random.default_rng(scheme.seed)
    signs[1:] = rng.integers(0, 2, size=signs[1:].shape) * 2 - 1
    return StatisticMatrix(_flipped_t(arr, signs, two_sided))
