"""Random problem factory shared by the randomized and acceptance tests."""

import warnings

import numpy as np

from sumtdp import StatisticMatrix, TestConfig

ALPHA_CHOICES = (0.05, 0.2, 0.4)

# Tie-heavy centered values, both signed zeros included, for exact-equality
# tests of the scan tables.
POOL = (0.0, -0.0, 0.1, 0.2, 0.3, -0.3, 0.7, 1.1, 1 / 3, 2.2 / 3, -1.0, 2.0)

# Huge values beside tiny and subnormal ones: divided by the grid step of
# 1e300, the tiny ones underflow.
EXTREMES = (1e300, -1e300, 3.0, 1e-300, -1e-300, 5e-324, -5e-324, 2e-308, 0.0, -0.0)


def grid_cases():
    """Raw matrices, observed row first, that put the centering grid to the test.

    ``near-max`` has its largest entry near 1e308, so ``2 m K`` overflows
    a float, while its centered values stay small enough to sum.
    """
    rng = np.random.default_rng(2102)
    return {
        "pool": rng.choice(POOL, (9, 14)),
        "extremes": rng.choice(EXTREMES, (8, 10)),
        "near-max": rng.uniform(0.9e308, 1.1e308, (6, 8)),
        "one-column": rng.choice(POOL, (7, 1)),
        "one-row": rng.choice(POOL, (1, 9)),
        "zeros": np.zeros((5, 6)),
        "gaussian": rng.standard_normal((12, 20)),
    }


def random_instance(rng, min_hyps=3, max_hyps=12, min_transforms=4,
                    max_transforms=64, alphas=ALPHA_CHOICES):
    """Draw a random statistic matrix plus config.

    Half the draws use small integers so ties between columns and between
    transformation rows are common; the rest are Gaussian.  A random subset
    of columns gets an additive shift in the observed row so instances mix
    rejected and non-rejected intersections.
    """
    m = int(rng.integers(min_hyps, max_hyps + 1))
    b = int(rng.integers(min_transforms, max_transforms + 1))
    alpha = float(rng.choice(alphas))
    if rng.random() < 0.5:
        values = rng.integers(-3, 7, size=(b, m)).astype(float)
    else:
        values = rng.normal(size=(b, m))
    n_sig = int(rng.integers(0, m + 1))
    if n_sig:
        cols = rng.choice(m, size=n_sig, replace=False)
        values[0, cols] += rng.uniform(1.0, 6.0, size=n_sig)
    stats = StatisticMatrix(values)
    with warnings.catch_warnings():
        # small alpha * b cells legitimately have zero power; fine here
        warnings.simplefilter("ignore", UserWarning)
        cfg = TestConfig(alpha=alpha, n_transforms=b)
    return stats, cfg


def random_subset(rng, m, allow_empty=False):
    lo = 0 if allow_empty else 1
    k = int(rng.integers(lo, m + 1))
    if k == 0:
        return ()
    return tuple(sorted(int(j) for j in rng.choice(m, size=k, replace=False)))


def subspace(m, forced=(), excluded=()):
    """The branch loop's state of a subspace of ``m`` columns: 0 free, +1 forced, -1 excluded."""
    state = np.zeros(m, dtype=np.int8)
    state[list(forced)] = 1
    state[list(excluded)] = -1
    return state


def reachable(prob, subset, overlap, state):
    """``state`` with marks taken off until it marks no overlap pick, in place.

    The picks are the first ``needed`` subset columns in observed order,
    and the branch loop never marks one, so only such states reach a scan.
    Freeing a forced subset column raises ``needed``, so this repeats until
    no pick is marked.
    """
    subset = list(subset)
    order = [i for i in np.argsort(prob.observed, kind="stable") if i in subset]
    while True:
        needed = max(overlap - int((state[subset] > 0).sum()), 0)
        marked = [i for i in order[:needed] if state[i]]
        if not marked:
            return state
        state[marked] = 0
