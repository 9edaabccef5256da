"""Single-step verdict on rejection of all candidate sets at one overlap level.

For a query subset S and an overlap level z, the candidates are the
hypothesis sets sharing at least z members with S, optionally restricted to a
subspace that forces some columns in and excludes others.  The question a
single step answers is whether every candidate is rejected by the centered
sum test.  Scanning candidate sizes one at a time, it uses two prefix-sum
devices per size v:

* a lower bound on all candidate quantiles at size v, built from each row's
  z smallest centered values inside S plus the v - z smallest of the rest
  (computed per row, so the bound is usually unattainable but never exceeds
  any candidate's quantile); a positive bound certifies the size;
* a greedy path of concrete candidates, built in observed-statistic order
  (one global ordering, not per row), whose quantile at size v is exact; a
  non-positive path value exhibits a surviving candidate and settles the
  whole question negatively.

Two shape indices confine the scan: the bound is nonincreasing in v up to
``drop_end`` and nondecreasing from ``rise_start`` on, so the scan walks
downward from ``drop_end`` and then upward, stopping early once the bound
turns positive on a monotone stretch.  Sizes that remain in doubt form the
returned window.

All functions here are pure; matrices are never mutated, so evaluations may
run concurrently over a shared problem.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .statmatrix import (
    StatisticMatrix,
    TestConfig,
    center,
    validate_subset,
)

__all__ = [
    "Verdict",
    "Evaluation",
    "SubspaceConstraint",
    "FREE",
    "SumTestProblem",
    "Workspace",
    "single_step",
    "TraceLog",
]


class Verdict(Enum):
    """Outcome of an overlap-level evaluation."""

    ALL_REJECTED = "all-rejected"
    SURVIVOR_FOUND = "survivor-found"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Evaluation:
    """Verdict plus its evidence.

    ``window`` is the inclusive range of candidate sizes still in doubt
    (UNDECIDED only).  ``witness`` is a surviving candidate set
    (SURVIVOR_FOUND only), recorded for audit.
    """

    verdict: Verdict
    window: tuple = None
    witness: tuple = None


@dataclass(frozen=True)
class SubspaceConstraint:
    """Columns forced into, and excluded from, every candidate set."""

    forced: frozenset = frozenset()
    excluded: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "forced", frozenset(int(i) for i in self.forced))
        object.__setattr__(self, "excluded", frozenset(int(i) for i in self.excluded))
        if self.forced & self.excluded:
            raise ValueError(
                f"columns {sorted(self.forced & self.excluded)} both forced and excluded"
            )

    def force(self, j: int) -> "SubspaceConstraint":
        return SubspaceConstraint(self.forced | {j}, self.excluded)

    def exclude(self, j: int) -> "SubspaceConstraint":
        return SubspaceConstraint(self.forced, self.excluded | {j})


FREE = SubspaceConstraint()


@dataclass(frozen=True, eq=False)
class SumTestProblem:
    """Centered matrix, observed statistics and critical rank, bundled.

    The observed row of the original statistic matrix is kept because the
    greedy path and the branching pivot order columns by observed statistic,
    which the centered matrix alone cannot recover.
    """

    centered: np.ndarray
    observed: np.ndarray
    crit_rank: int

    def __post_init__(self):
        cen = np.asarray(self.centered, dtype=float)
        obs = np.asarray(self.observed, dtype=float)
        if cen.ndim != 2 or obs.shape != (cen.shape[1],):
            raise ValueError("centered must be (B, m) and observed (m,)")
        if not (np.isfinite(cen).all() and np.isfinite(obs).all()):
            raise ValueError("non-finite entries in problem data")
        if not 1 <= self.crit_rank <= cen.shape[0]:
            raise ValueError(
                f"crit_rank {self.crit_rank} out of range for {cen.shape[0]} rows"
            )
        cen = cen.copy()
        cen.setflags(write=False)
        obs = obs.copy()
        obs.setflags(write=False)
        object.__setattr__(self, "centered", cen)
        object.__setattr__(self, "observed", obs)

    @property
    def n_transforms(self) -> int:
        return self.centered.shape[0]

    @property
    def n_hyps(self) -> int:
        return self.centered.shape[1]

    @classmethod
    def from_matrix(cls, stats: StatisticMatrix, cfg: TestConfig) -> "SumTestProblem":
        if cfg.n_transforms != stats.n_transforms:
            raise ValueError("config and matrix disagree on the number of rows")
        return cls(center(stats).values, stats.observed, cfg.crit_rank)


class TraceLog:
    """Accumulates per-size bound/path values and node verdicts for audit."""

    def __init__(self):
        self.rows = []

    def add(self, **row):
        self.rows.append(row)


def _rank_stat(column: np.ndarray, rank: int) -> float:
    return float(np.partition(column, rank - 1)[rank - 1])


class Workspace:
    """Prefix-sum tables for one (problem, subset, overlap, constraint) query.

    Attributes
    ----------
    infeasible : bool
        True when no candidate set satisfies the constraint, in which case no
        other attribute beyond the inputs is meaningful.
    size_min, size_max : int
        Inclusive range of candidate set sizes in this subspace.
    drop_end, rise_start : int
        The bound is nonincreasing on sizes up to ``drop_end`` and
        nondecreasing from ``rise_start`` on.
    """

    def __init__(self, prob: SumTestProblem, subset, overlap: int, constraint=FREE):
        m = prob.n_hyps
        subset = validate_subset(subset, m)
        if not 1 <= overlap <= len(subset):
            raise ValueError(f"overlap must lie in 1..{len(subset)}, got {overlap}")
        for i in constraint.forced | constraint.excluded:
            if not 0 <= i < m:
                raise ValueError(f"constraint column {i} out of range")
        self.prob = prob
        self.subset = subset
        self.overlap = overlap
        self.constraint = constraint

        sset = set(subset)
        forced = sorted(constraint.forced)
        blocked = constraint.forced | constraint.excluded
        free = [i for i in range(m) if i not in blocked]
        self._s_free = [i for i in free if i in sset]
        self._o_free = [i for i in free if i not in sset]
        self._free = free
        self._needed = max(overlap - len(constraint.forced & sset), 0)

        self.infeasible = self._needed > len(self._s_free)
        if self.infeasible:
            return

        self.size_min = len(forced) + self._needed
        self.size_max = len(forced) + len(free)

        cen = prob.centered
        offset = cen[:, forced].sum(axis=1) if forced else 0.0
        if self._needed:
            in_s = np.sort(cen[:, self._s_free], axis=1)
            sel_sum = in_s[:, : self._needed].sum(axis=1)
            leftovers = in_s[:, self._needed :]
        else:
            sel_sum = 0.0
            leftovers = cen[:, self._s_free]
        pool = np.concatenate([leftovers, cen[:, self._o_free]], axis=1)
        rem = np.sort(pool, axis=1)
        self._base = np.asarray(offset + sel_sum, dtype=float)
        if np.ndim(self._base) == 0:
            self._base = np.full(prob.n_transforms, float(self._base))
        n_rem = rem.shape[1]
        prefix = np.empty((prob.n_transforms, n_rem + 1))
        prefix[:, 0] = 0.0
        np.cumsum(rem, axis=1, out=prefix[:, 1:])

        self._rem_prefix = prefix
        nonpos = np.flatnonzero((rem <= 0.0).all(axis=0))
        self.drop_end = self.size_min + (int(nonpos[-1]) + 1 if nonpos.size else 0)
        negsome = np.flatnonzero((rem < 0.0).any(axis=0))
        self.rise_start = self.size_min + (int(negsome[-1]) + 1 if negsome.size else 0)

        self._path_tables = None

    def bound_value(self, v: int) -> float:
        """Lower bound on every candidate quantile at size ``v``."""
        col = self._base + self._rem_prefix[:, v - self.size_min]
        return _rank_stat(col, self.prob.crit_rank)

    def _paths(self):
        if self._path_tables is None:
            obs = self.prob.observed
            cen = self.prob.centered
            by_obs = sorted(self._s_free, key=lambda i: (obs[i], i))
            reserved = by_obs[: self._needed]
            rest = sorted(
                (i for i in self._free if i not in set(reserved)),
                key=lambda i: (obs[i], i),
            )
            base = np.zeros(self.prob.n_transforms)
            forced = sorted(self.constraint.forced)
            if forced:
                base += cen[:, forced].sum(axis=1)
            if reserved:
                base += cen[:, reserved].sum(axis=1)
            n = len(rest)
            prefix = np.empty((self.prob.n_transforms, n + 1))
            prefix[:, 0] = 0.0
            if n:
                np.cumsum(cen[:, rest], axis=1, out=prefix[:, 1:])
            self._path_tables = (tuple(reserved), tuple(rest), base, prefix)
        return self._path_tables

    def path_value(self, v: int) -> float:
        """Exact quantile of the size-``v`` greedy path candidate."""
        reserved, rest, base, prefix = self._paths()
        return _rank_stat(base + prefix[:, v - self.size_min], self.prob.crit_rank)

    def path_set(self, v: int) -> tuple:
        """The size-``v`` greedy path candidate itself."""
        reserved, rest, _, _ = self._paths()
        picks = v - self.size_min
        return tuple(sorted(set(self.constraint.forced) | set(reserved) | set(rest[:picks])))

    def singleton_at(self, v: int) -> bool:
        """Whether exactly one candidate set has size ``v``.

        True at the top size (all free columns taken) and, when the required
        overlap picks exhaust the subset's free columns, at the bottom size.
        There the bound equals the candidate's exact quantile.
        """
        if v == self.size_max:
            return True
        return v == self.size_min and self._needed == len(self._s_free)

    def singleton_set(self, v: int) -> tuple:
        if v == self.size_max:
            return tuple(sorted(set(self.constraint.forced) | set(self._free)))
        return tuple(sorted(set(self.constraint.forced) | set(self._s_free)))


def single_step(
    prob: SumTestProblem,
    subset,
    overlap: int,
    constraint=FREE,
    window=None,
    want_path: bool = True,
    trace: TraceLog = None,
) -> Evaluation:
    """One scan over candidate sizes at a given overlap level.

    Parameters
    ----------
    window : (int, int), optional
        Inclusive range of candidate sizes still pending; defaults to the
        subspace's full size range.  Sizes outside the subspace's range are
        ignored, and an empty effective range is vacuously ALL_REJECTED.
    want_path : bool
        Compute greedy-path quantiles at undecided sizes.  Callers switch
        this off when the subspace inherits its parent's already-checked
        path (the exclude-child of a branch).
    """
    subset = validate_subset(subset, prob.n_hyps)
    s = len(subset)
    if overlap <= 0:
        # The empty set overlaps everything by 0 and is never rejected, so
        # this answers in the unconstrained space; recursive subspace calls
        # always carry an overlap of at least 1.
        return Evaluation(Verdict.SURVIVOR_FOUND, witness=())
    if overlap >= s + 1:
        return Evaluation(Verdict.ALL_REJECTED)

    ws = Workspace(prob, subset, overlap, constraint)
    if ws.infeasible:
        return Evaluation(Verdict.ALL_REJECTED)
    v1, v2 = window if window is not None else (ws.size_min, ws.size_max)
    v1 = max(int(v1), ws.size_min)
    v2 = min(int(v2), ws.size_max)
    if v1 > v2:
        return Evaluation(Verdict.ALL_REJECTED)

    forced_t = tuple(sorted(constraint.forced))
    excluded_t = tuple(sorted(constraint.excluded))
    memo = {}
    undecided = set()

    def bound_at(v: int) -> float:
        if v not in memo:
            memo[v] = ws.bound_value(v)
            if trace is not None:
                trace.add(
                    kind="bound", overlap=overlap, forced=forced_t,
                    excluded=excluded_t, size=v, value=memo[v],
                )
        return memo[v]

    def note_undecided(v: int):
        if v in undecided:
            return None
        undecided.add(v)
        if ws.singleton_at(v):
            # Sole candidate at this size: the bound is its exact quantile.
            return Evaluation(Verdict.SURVIVOR_FOUND, witness=ws.singleton_set(v))
        if want_path:
            u = ws.path_value(v)
            if trace is not None:
                trace.add(
                    kind="path", overlap=overlap, forced=forced_t,
                    excluded=excluded_t, size=v, value=u,
                )
            if u <= 0.0:
                return Evaluation(Verdict.SURVIVOR_FOUND, witness=ws.path_set(v))
        return None

    down_start = min(ws.drop_end, v2)
    for v in range(down_start, v1 - 1, -1):
        if bound_at(v) > 0.0:
            break  # nonincreasing up to drop_end, so smaller sizes are positive too
        found = note_undecided(v)
        if found is not None:
            return found
    up_start = v1 + 1 if down_start >= v1 else v1
    for v in range(up_start, v2 + 1):
        if bound_at(v) > 0.0:
            if v >= ws.rise_start:
                break  # nondecreasing from rise_start, so later sizes are positive too
            continue
        found = note_undecided(v)
        if found is not None:
            return found

    if not undecided:
        return Evaluation(Verdict.ALL_REJECTED)
    return Evaluation(Verdict.UNDECIDED, window=(min(undecided), max(undecided)))
