"""t statistics under sign flips of whole observations, the one transformation group.

The identity flip always occupies row 0.  The remaining rows are drawn
independently and uniformly from the group, with replacement; duplicate
draws are kept as distinct rows.  Randomness comes from numpy's seedable
default generator, so the draws are fixed by the seed.  A matrix of any
other statistic enters as a CSV (see :func:`~.statmatrix.write_statistic_csv`).

Sign-flip t statistics are those of the data on a grid: each column is
scaled by a power of two 2^e at least its largest |x| and rounded once to
integers q_i of at most 2^52 / n.  Rounding is odd, so it commutes with
every flip, and each S = sum_i s_i q_i is an integer below 2^53 that one
matrix product gives exactly in any order, BLAS or thread count.  Then
t = S sqrt(n - 1) / sqrt(n sum_i q_i^2 - S^2), and a flip makes a column
constant exactly when all |q_i| are equal and |S| = n |q_0|.  The values
under -s negate those under s, and row 0 equals any all-plus flip, bit for
bit, whatever the memory layout or column count.
"""

from dataclasses import dataclass

import numpy as np

from .statmatrix import StatisticMatrix, _handed_over, _is_count

__all__ = ["TransformationScheme", "sign_flip_matrix"]

_BLOCK_ELEMENTS = 1 << 16  # rows times columns per block of the elementwise tail
# With N = n sum q^2 and D = N - S^2 (an integer, 0 only if constant), float
# sums of squares in any order are off by at most n u N (u = 2^-53), and the
# float D by (n + 3) u N.  Where it is at least N / 2, t is within (n + 8) u
# of its exact value on the grid; below, D is taken in integers (t within 5 u).
_BAND = 0.5


@dataclass(frozen=True)
class TransformationScheme:
    """How many sign flips to draw, and the seed; ``kind`` must be ``"sign_flip"``."""

    kind: str
    n_transforms: int
    seed: int = None

    def __post_init__(self):
        if self.kind != "sign_flip":
            raise ValueError(f"unknown transformation kind {self.kind!r}")
        if not _is_count(self.n_transforms, 1):
            raise ValueError(f"n_transforms must be an integer of at least 1, got {self.n_transforms!r}")


def _grid(arr) -> np.ndarray:
    """Column j as row j, times 2^(52 - ceil(log2 n) - e_j) and rounded: |q| <= 2^52 / n."""
    e = np.frexp(np.abs(arr).max(axis=0))[1]
    q = np.ldexp(arr.T, 52 - (len(arr) - 1).bit_length() - e[:, None], order="C")
    return np.round(q, out=q)


def _flipped_t(arr, signs, two_sided) -> np.ndarray:
    """t statistics of ``signs[r][:, None] * arr`` on the grid for each row r, +-1.0 signs."""
    n, m = arr.shape
    q = _grid(arr)  # row j holds column j: one summation order for any m
    out = np.matmul(signs, q.T, out=np.empty((len(signs), m)))
    mag = np.abs(q)
    flat = np.flatnonzero((mag == mag[:, :1]).all(axis=1))
    hit = np.abs(out[:, flat]) == n * mag[flat, 0]
    if hit.any():
        r, c = np.argwhere(hit)[0]
        raise ValueError(f"column {flat[c]} has zero variance" if r == 0 else (
            f"the sign flip drawn for row {r} makes column {flat[c]} constant, "
            "so its t statistic is undefined"))
    nq = n * np.square(mag, out=mag).sum(axis=1)
    band, root, exact = _BAND * nq, np.sqrt(n - 1), {}
    rows = max(1, _BLOCK_ELEMENTS // m)
    for lo in range(0, len(out), rows):
        sums = out[lo:lo + rows]  # S, turned into t in place
        d = np.subtract(nq, sums * sums)
        for i in np.flatnonzero(d < band).tolist():
            r, c = divmod(i, m)
            if c not in exact:
                exact[c] = n * sum(int(v) ** 2 for v in q[c].tolist())
            d[r, c] = float(exact[c] - int(sums[r, c]) ** 2)
        np.divide(sums * root, np.sqrt(d, out=d), out=sums)
    return np.abs(out, out=out) if two_sided else out


def sign_flip_matrix(data, scheme: TransformationScheme, two_sided: bool = True) -> StatisticMatrix:
    """One-sample t statistics under random sign flips of whole observations.

    Each non-identity row flips every observation's sign independently with
    probability one half; the flip is shared across variables, preserving
    their dependence.  Row 0 holds the observed ``mean / (sd / sqrt(n))`` of
    each column; with ``two_sided`` every entry is an absolute value, so
    large always means strong evidence against a zero mean.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"data must be 2-D (observations x variables), got {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if arr.shape[1] < 1:
        raise ValueError(f"data must hold at least 1 variable, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("data contains non-finite entries")
    signs = np.ones((scheme.n_transforms, arr.shape[0]))
    rng = np.random.default_rng(scheme.seed)
    signs[1:] = rng.integers(0, 2, size=signs[1:].shape) * 2 - 1
    return StatisticMatrix(_handed_over(_flipped_t(arr, signs, two_sided)))
