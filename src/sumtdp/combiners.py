"""Transforms from p-values onto a summable evidence scale, with truncation.

Every p-value transform here is strictly decreasing in p, so a large
transformed value always means strong evidence.  Transforms with a
singularity at p = 1 (Pearson, Liptak, Cauchy) clamp their argument at
``1 - 2**-52`` so that a single p-value of exactly 1 cannot produce an
infinite matrix entry.

Truncation maps every entry below a threshold to a common ground value,
leaving the rest untouched.  On the evidence scale this keeps the strongest
signals; composing a combiner with an evidence-scale truncation rule is the
same as truncating the p-values first (large p to a ground p) and then
transforming.  ``evidence_from_t`` takes t statistics through p-values, a
combiner and truncation to evidence with the same column names, converting
only the entries truncation keeps.
"""

from dataclasses import dataclass

import numpy as np

from .statmatrix import StatisticMatrix, _handed_over, _is_count

__all__ = [
    "Combiner",
    "TruncationRule",
    "apply_combiner",
    "truncate",
    "threshold_from_rank",
    "evidence_from_t",
    "COMBINER_KINDS",
]

_P_HIGH = 1.0 - 2.0 ** -52

COMBINER_KINDS = (
    "fisher",
    "pearson",
    "liptak",
    "edgington",
    "cauchy",
    "generalized_mean",
)


def _check_pvalues(p: np.ndarray):
    if np.any(p <= 0.0) or np.any(p > 1.0):
        bad = p[(p <= 0.0) | (p > 1.0)].flat[0]
        raise ValueError(f"p-values must lie in (0, 1], got {bad}")


@dataclass(frozen=True)
class Combiner:
    """Elementwise evidence transform.

    Parameters
    ----------
    kind : str
        One of ``COMBINER_KINDS``.
    power : float, optional
        Exponent for the ``generalized_mean`` family.  ``power == 0`` falls
        back to the Fisher transform; for other kinds it must be omitted.
    """

    kind: str
    power: float = None

    def __post_init__(self):
        if self.kind not in COMBINER_KINDS:
            raise ValueError(f"unknown combiner kind {self.kind!r}")
        if self.kind == "generalized_mean":
            if self.power is None:
                raise ValueError("generalized_mean requires a power")
            object.__setattr__(self, "power", float(self.power))
            if not np.isfinite(self.power):
                raise ValueError(f"bad combiner power {self.power!r}")
        elif self.power is not None:
            raise ValueError(f"{self.kind} takes no power argument")

    @classmethod
    def parse(cls, token: str) -> "Combiner":
        """Parse a CLI token such as ``fisher`` or ``vw:-1``."""
        if not isinstance(token, str):
            raise ValueError(f"combiner must be a name such as 'fisher', got {token!r}")
        token = token.strip().lower()
        if ":" in token:
            head, _, tail = token.partition(":")
            if head == "vw":
                try:
                    return cls("generalized_mean", float(tail))
                except ValueError:
                    raise ValueError(f"bad combiner power {tail!r}") from None
            raise ValueError(f"unknown combiner {token!r}")
        if token == "vw":
            raise ValueError("'vw' needs a power, e.g. vw:-1")
        return cls(token)

    def transform(self, values) -> np.ndarray:
        """Apply the transform elementwise to an array of p-values."""
        p = np.asarray(values, dtype=float)
        _check_pvalues(p)
        if self.kind == "fisher" or self.power == 0.0:
            return -np.log(p)
        if self.kind == "pearson":
            return np.log1p(-np.minimum(p, _P_HIGH))
        if self.kind == "liptak":
            from scipy.special import ndtri

            # scipy.stats.norm.isf, without importing scipy.stats: 0.0 - x
            # negates exactly and turns the -0.0 at p = 0.5 into 0.0, as it does.
            return 0.0 - ndtri(np.minimum(p, _P_HIGH))
        if self.kind == "edgington":
            return -p
        if self.kind == "cauchy":
            return np.tan((0.5 - np.minimum(p, _P_HIGH)) * np.pi)
        r = self.power
        if r < 0.0:
            return p ** r
        return -(p ** r)


def apply_combiner(stats: StatisticMatrix, combiner: Combiner) -> StatisticMatrix:
    """Transform every entry of a statistic matrix onto the evidence scale."""
    return StatisticMatrix(_handed_over(combiner.transform(stats.values)), names=stats.names)


@dataclass(frozen=True)
class TruncationRule:
    """Evidence-scale truncation: entries below ``threshold`` become ``ground``.

    ``ground`` must not exceed ``threshold``; with that, truncated matrices
    have every entry either equal to ``ground`` or at least ``threshold``.
    """

    threshold: float
    ground: float = 0.0

    def __post_init__(self):
        t, g = float(self.threshold), float(self.ground)
        if not (np.isfinite(t) and np.isfinite(g)):
            raise ValueError("threshold and ground must be finite")
        if g > t:
            raise ValueError(f"ground {g} exceeds threshold {t}")
        object.__setattr__(self, "threshold", t)
        object.__setattr__(self, "ground", g)


def truncate(stats: StatisticMatrix, rule: TruncationRule) -> StatisticMatrix:
    """Replace entries below the rule's threshold with its ground value."""
    values = np.where(stats.values >= rule.threshold, stats.values, rule.ground)
    return StatisticMatrix(_handed_over(values), names=stats.names)


def threshold_from_rank(stats: StatisticMatrix, rank: int) -> float:
    """The ``rank``-th greatest entry of the whole matrix (duplicates counted)."""
    flat = stats.values.ravel()
    if not (_is_count(rank, 1) and rank <= flat.size):
        raise ValueError(f"rank must lie in 1..{flat.size}, got {rank}")
    return float(np.partition(flat, flat.size - rank)[flat.size - rank])


def _floor(stats: StatisticMatrix, threshold, rank, ground) -> StatisticMatrix:
    """``truncate`` to ``ground`` at ``threshold`` or at ``threshold_from_rank``; else ``stats``."""
    cut = threshold if rank is None else threshold_from_rank(stats, rank)
    return stats if cut is None else truncate(stats, TruncationRule(cut, ground))


# Relative step in t below a cut; the scale floor of 1 keeps the step
# meaningful for statistics near zero.
_T_MARGIN = 1e-6

# Grid steps per round of the threshold search.
_GRID_STEPS = 32


def _below(t: float) -> float:
    return t - _T_MARGIN * max(abs(t), 1.0)


def _last_below(evidence, lo: float, hi: float, threshold: float):
    """Greatest probed t in ``[lo, hi]`` whose evidence is below ``threshold``.

    Each round evaluates a grid of the bracket and narrows it to the step
    where the evidence reaches the threshold, until that step is within
    ``_T_MARGIN * max(|t|, 1)`` of its top, so the result lies within that
    margin below the boundary however far ``hi`` lies from it.  None when
    the evidence already reaches the threshold at ``lo``.
    """
    found = None
    while True:
        grid = np.linspace(lo, hi, _GRID_STEPS + 1)
        below = np.flatnonzero(evidence(grid) < threshold)
        if not below.size:
            return found
        i = below[-1]
        found = float(grid[i])
        if i == _GRID_STEPS:
            return found
        lo, hi = grid[i], grid[i + 1]
        if hi - lo <= _T_MARGIN * max(abs(hi), 1.0):
            return found


def evidence_from_t(
    tstats: StatisticMatrix,
    df: int,
    combiner: Combiner,
    two_sided: bool = True,
    threshold: float = None,
    rank: int = None,
    ground: float = 0.0,
) -> StatisticMatrix:
    """Evidence matrix of t statistics: p-values, ``combiner``, truncation.

    The result is, bit for bit and error for error, ``truncate`` with
    ``ground`` of ``apply_combiner`` on the p-values ``2 * t.sf(t, df)`` of
    absolute statistics (``t.sf(t, df)`` of signed ones when not
    ``two_sided``), at ``threshold`` or at ``threshold_from_rank(.., rank)``;
    with neither, the untruncated evidence.  The result takes the column
    names of ``tstats``.

    Only the entries truncation can keep are converted.  Every combiner
    decreases in p, and p decreases in t, so those entries lie above a cut
    in t.  For a rank the cut steps down from the rank-th greatest t; for a
    threshold it steps down from the greatest t that grid evaluations of
    the same transform find below the threshold, within one step of the
    boundary.  Each step is ``1e-6`` relative in t (absolute below 1), which
    assumes that the rounding errors of ``stdtr`` and the combiners move the
    evidence far less than that.  The evidence where the step starts must
    lie below the threshold; where it does not (p rounds to 1 or a clamp
    makes the transform flat there), and without truncation, every entry is
    converted.  Elementwise functions give the same bits on the kept entries
    alone as on the whole matrix.  A p-value that underflows to 0 belongs to
    the greatest t, so it is always converted and raises as before.
    """
    from scipy.special import stdtr

    if threshold is not None and rank is not None:
        raise ValueError("truncate at a threshold or at a rank, not both")
    t = tstats.values

    def evidence(values):
        # scipy.stats.t.sf(t, df) is stdtr(df, -t); scipy.stats is not imported.
        p = stdtr(df, -values)
        if two_sided:
            p *= 2.0
        return combiner.transform(p)

    def convert_all():
        stats = StatisticMatrix(_handed_over(evidence(t)), names=tstats.names)
        return _floor(stats, threshold, rank, ground)

    if threshold is None and rank is None:
        return convert_all()
    lo = float(t.min())
    if two_sided and lo < 0.0:
        return convert_all()  # which reports the p-values above 1
    if rank is None:
        top = _last_below(evidence, lo, float(t.max()), threshold)
    elif _is_count(rank, 1) and rank <= t.size:
        top = _below(float(np.partition(t.ravel(), t.size - rank)[t.size - rank]))
    else:
        top = None  # the full conversion reports the rank
    if top is None or _below(top) <= lo:
        return convert_all()

    keep = t >= _below(top)
    kept = evidence(t[keep])
    if not np.isfinite(kept).all():
        return convert_all()  # which reports the first non-finite entry
    cut = threshold
    if rank is not None:
        cut = float(np.partition(kept, kept.size - rank)[kept.size - rank])
        if not evidence(np.array([top]))[0] < cut:
            return convert_all()  # flat at the cut: entries below may tie it
    rule = TruncationRule(threshold=cut, ground=ground)
    values = np.full(t.shape, rule.ground)
    values[keep] = np.where(kept >= rule.threshold, kept, rule.ground)
    return StatisticMatrix(_handed_over(values), names=tstats.names)
