"""Monte Carlo study harness: correlated data, combiners, error and power tables.

Each replication draws an n x m Gaussian sample whose columns share an
equicorrelation (one common factor per observation), plants signal in the
first ceil(a*m) columns, builds a sign-flip matrix of two-sided t statistics,
converts them to two-sided p-values and a combiner's evidence scale,
optionally floor-truncated on the p scale (only the entries truncation keeps
are converted), builds one sum-test problem and queries discovery bounds
for the active and inactive column sets on it.  The signal size is
calibrated so that a single two-sided one-sample t-test at the study's
level reaches a requested power.

Aggregates of interest: the familywise error rate is the share of
replications reporting any discovery inside the inactive (all-null) set; the
power summary is the mean TDP bound over the active set.  Replications use
independent generator streams keyed by (seed, replication index), so results
do not depend on execution order and a fixed seed reproduces the table
exactly.
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .combiners import Combiner, evidence_from_t
from .generators import TransformationScheme, sign_flip_matrix
from .inference import discoveries
from .problem import SumTestProblem
from .statmatrix import TestConfig, _is_count

__all__ = [
    "SimulationConfig",
    "ReplicationOutcome",
    "StudyResult",
    "effect_size",
    "simulate_data",
    "run_replication",
    "run_study",
    "run_grid",
    "GRID_COLUMNS",
]


@dataclass(frozen=True)
class SimulationConfig:
    """One study cell: data model, test settings and the scan budget.

    ``truncate_p`` and ``ground_p`` are on the p scale; entries with p-value
    above ``truncate_p`` are floored at the combiner's value of ``ground_p``
    (truncation happens after combining, which is the same thing because
    combiners are decreasing).  ``ground_p`` also feeds the column reduction.
    ``power_target`` is the marginal two-sided t-test power that calibrates
    the planted effect size.
    """

    n_obs: int = 50
    n_hyps: int = 100
    active_fraction: float = 0.2
    correlation: float = 0.0
    alpha: float = 0.05
    n_transforms: int = 200
    n_reps: int = 200
    seed: int = 0
    combiner: str = "fisher"
    truncate_p: float = None
    ground_p: float = 0.5
    power_target: float = 0.95
    step_budget: int = 50

    def __post_init__(self):
        least = dict(n_obs=2, n_hyps=1, n_transforms=2, n_reps=1, seed=0, step_budget=0)
        for name, low in least.items():
            value = getattr(self, name)
            if not (_is_count(value, low) or name == "step_budget" and value is None):
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        if not 0.0 <= self.active_fraction <= 1.0:
            raise ValueError("active_fraction must lie in [0, 1]")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must lie in [0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.power_target < 1.0:
            raise ValueError("power_target must lie in (0, 1)")
        if self.truncate_p is not None:
            if not 0.0 < self.truncate_p <= 1.0:
                raise ValueError("truncate_p must lie in (0, 1]")
            if not self.truncate_p <= self.ground_p <= 1.0:
                raise ValueError("ground_p must lie in [truncate_p, 1]")
        Combiner.parse(self.combiner)  # fail here, not mid-study

    @property
    def n_active(self) -> int:
        # ceil(a*m), guarded against float residue (0.02*100 -> 2, not 3)
        return math.ceil(self.active_fraction * self.n_hyps - 1e-9)

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(unknown)}; known keys: "
                + ", ".join(sorted(known))
            )
        return cls(**raw)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _brentq(f, xpre, xcur, no_bracket: str) -> float:
    """Root of ``f`` between two ends by scipy's C ``brentq`` (Brent 1973), step for
    step at xtol 1e-12, rtol 4 eps and 100 iterations.  A NaN value or ends of one
    sign (``no_bracket`` is the message) raise ValueError; no convergence, RuntimeError.
    """
    def value(x):
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError(no_bracket)
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):  # fpre is never 0; at fcur == 0 this returns below
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (1e-12 + 4 * 2.0**-52 * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if good else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


# The largest mean shift effect_size tries: 20 doubled ten times.  At n_obs = 2,
# one degree of freedom, where a shift buys the least power, every power up to
# 1 - 1e-12 lies below it for alpha >= 5e-4, and 0.99 for alpha >= 1e-4; a shift
# of 2e4 noise standard deviations is past any study worth simulating.
_MAX_SHIFT = 20.0 * 2**10


def effect_size(n_obs: int, alpha: float, power: float) -> float:
    """Mean shift giving a two-sided one-sample t-test the requested power.

    Solves the noncentral-t power equation (unit variance; noncentrality
    mean * sqrt(n)) on the ``scipy.special`` functions behind ``t.isf`` and
    ``nct.cdf``, the upper tail as P(T_nc > t) = P(T_-nc < -t).  The root is
    sought on [0, 20], or, where power at 20 falls short, on [h / 2, h] for
    the least h = 20 * 2**k that reaches it, up to ``_MAX_SHIFT``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not alpha < power < 1.0:
        raise ValueError("power must lie strictly between alpha and 1")
    from scipy.special import nctdtr, stdtrit

    df, tcrit = n_obs - 1, -stdtrit(n_obs - 1, alpha / 2.0)

    def attained(mu):
        nc = mu * math.sqrt(n_obs)
        lower = nctdtr(df, nc, -tcrit)  # NaN where it underflows, far in the right tail
        return nctdtr(df, -nc, -tcrit) + (0.0 if math.isnan(lower) else lower) - power

    lo, hi = 0.0, 20.0
    while attained(hi) < 0.0 and hi < _MAX_SHIFT:
        lo, hi = hi, 2.0 * hi
    return _brentq(attained, lo, hi, f"no mean shift up to {_MAX_SHIFT:g} gives power "
                   f"{power} to a t-test of n_obs={n_obs} at alpha={alpha}")


def simulate_data(cfg: SimulationConfig, rep: int, effect: float) -> np.ndarray:
    """One replication's data: equicorrelated noise plus planted signal.

    The common factor construction sqrt(rho)*shared + sqrt(1-rho)*own gives
    every pair of columns correlation rho exactly.
    """
    rng = np.random.default_rng((cfg.seed, rep, 0))
    shared = rng.standard_normal((cfg.n_obs, 1))
    own = rng.standard_normal((cfg.n_obs, cfg.n_hyps))
    data = math.sqrt(cfg.correlation) * shared + math.sqrt(1.0 - cfg.correlation) * own
    if cfg.n_active:
        data[:, : cfg.n_active] += effect
    return data


@dataclass(frozen=True)
class ReplicationOutcome:
    """Discovery results of one replication, keyed by query name."""

    rep: int
    results: dict  # name -> DiscoveryResult (absent names were empty sets)


def _query_columns(cfg: SimulationConfig, name: str):
    if name == "active":
        return tuple(range(cfg.n_active))
    if name == "inactive":
        return tuple(range(cfg.n_active, cfg.n_hyps))
    if name == "all":
        return tuple(range(cfg.n_hyps))
    raise ValueError(f"unknown query name {name!r}; use active, inactive or all")


def run_replication(
    cfg: SimulationConfig,
    rep: int,
    effect: float,
    queries=("active", "inactive"),
) -> ReplicationOutcome:
    data = simulate_data(cfg, rep, effect)
    scheme = TransformationScheme(
        kind="sign_flip", n_transforms=cfg.n_transforms, seed=(cfg.seed, rep, 1)
    )
    tstats = sign_flip_matrix(data, scheme)
    comb = Combiner.parse(cfg.combiner)
    threshold = ground = None
    if cfg.truncate_p is not None:
        threshold = float(comb.transform(np.array([cfg.truncate_p]))[0])
        ground = float(comb.transform(np.array([cfg.ground_p]))[0])
    evidence = evidence_from_t(tstats, cfg.n_obs - 1, comb, threshold=threshold, ground=ground)
    prob = SumTestProblem.from_matrix(evidence, TestConfig(cfg.alpha, cfg.n_transforms), ground)
    results = {}
    for name in queries:
        cols = _query_columns(cfg, name)
        if cols:
            results[name] = discoveries(prob, cols, step_budget=cfg.step_budget)
    return ReplicationOutcome(rep=rep, results=results)


@dataclass(frozen=True)
class StudyResult:
    """All replications of one cell plus timing."""

    config: SimulationConfig
    effect: float
    outcomes: tuple
    wall_time: float

    def tdp_values(self, query: str = "active") -> np.ndarray:
        return np.array(
            [o.results[query].tdp for o in self.outcomes if query in o.results]
        )

    def mean_tdp(self, query: str = "active") -> float:
        values = self.tdp_values(query)
        return float(values.mean()) if values.size else float("nan")

    def family_error_rate(self) -> float:
        """Share of replications reporting any discovery among true nulls."""
        flags = [
            o.results["inactive"].discoveries > 0
            for o in self.outcomes
            if "inactive" in o.results
        ]
        return float(np.mean(flags)) if flags else float("nan")

    def _query_mean(self, attr: str) -> float:
        values = [getattr(r, attr) for o in self.outcomes for r in o.results.values()]
        return float(np.mean(values)) if values else float("nan")

    def converged_frac(self) -> float:
        """Share of the queries, over every replication, whose bound converged."""
        return self._query_mean("converged")

    def mean_evals(self) -> float:
        """Mean single-step scans per query, over every replication."""
        return self._query_mean("evals")

    def mean_wall_time(self) -> float:
        return self.wall_time / len(self.outcomes)


def run_study(
    cfg: SimulationConfig,
    queries=("active", "inactive"),
) -> StudyResult:
    """Run every replication of one cell, in order, and collect the outcomes."""
    effect = (
        effect_size(cfg.n_obs, cfg.alpha, cfg.power_target)
        if cfg.n_active
        else 0.0
    )
    start = time.perf_counter()
    outcomes = [
        run_replication(cfg, rep, effect, queries) for rep in range(cfg.n_reps)
    ]
    wall = time.perf_counter() - start
    return StudyResult(config=cfg, effect=effect, outcomes=tuple(outcomes), wall_time=wall)


# One column per config field, in field order, then the cell's results.
GRID_COLUMNS = tuple(f.name for f in fields(SimulationConfig)) + (
    "mean_tdp_active", "fwer", "mean_wall_time_s", "converged_frac", "mean_evals",
    "error",
)


def run_grid(cells) -> list:
    """Run many cells, one row of aggregates each; bad cells become rows too.

    A cell that raises ``ValueError`` (a configuration or its data cannot be
    run) is recorded with its error message and the grid keeps going, so a
    long sweep is never lost to one bad configuration.  Any other exception
    is a fault in the engine and propagates.  A cell with no value, such as
    an aggregate of no queries or the error of a good cell, holds None.
    """
    rows = []
    for cfg in cells:
        row = dict.fromkeys(GRID_COLUMNS)
        row.update(cfg.to_dict())
        try:
            study = run_study(cfg)
            aggregates = {
                "mean_tdp_active": study.mean_tdp("active"),
                "fwer": study.family_error_rate(),
                "converged_frac": study.converged_frac(),
                "mean_evals": study.mean_evals(),
            }
            row.update({k: None if math.isnan(v) else v for k, v in aggregates.items()})
            row["mean_wall_time_s"] = study.mean_wall_time()
        except ValueError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows
