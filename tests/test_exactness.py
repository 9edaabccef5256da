"""Engine and exhaustive table against closed testing in exact arithmetic.

The instances are tie-heavy: every value comes from a small pool of
decimals, so many sets have centered sums that are exactly zero in real
arithmetic and round to either side in floats.  The truth sums the terms
``x0[j] - xr[j]`` of the raw rows as integers: every float is an integer
times a power of two, so scaling all of them to one power-of-two
denominator makes each term, each sum and each sign exact.

Float sums added in different orders can put an exact zero on either side
of the rejection threshold, so both the engine and the table still miss
the truth on a few of these queries (ROADMAP item 1, exact sign decisions).
"""

import warnings

import numpy as np
import pytest

from sumtdp import (
    RejectionTable,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    discoveries,
)

POOL = (0.1, 0.2, 0.3, 0.7, 1.1, -0.3, 2.2 / 3, 1 / 3)
ALPHAS = (0.1, 0.2, 0.4)
N_INSTANCES, N_QUERIES = 400, 20


def fuzz_instances(seed=11):
    """Yield ``(values, alpha, queries)``, raw rows with the observed row first."""
    rng = np.random.default_rng(seed)
    for k in range(N_INSTANCES):
        m = int(rng.integers(3, 10))
        b = int(rng.integers(5, 40))
        alpha = ALPHAS[rng.integers(0, 3)]
        values = rng.choice(POOL, (b, m))
        if k % 2:
            values[0] += rng.choice(POOL, m)
        queries = []
        for _ in range(N_QUERIES):
            size = rng.integers(1, m + 1)
            queries.append(tuple(sorted(rng.choice(m, size, replace=False).tolist())))
        yield values, alpha, queries


def exact_survivors(values, crit_rank):
    """Bit masks of the column sets that closed testing does not reject.

    A set is rejected when the ``crit_rank``-th smallest of its row sums of
    ``x0[j] - xr[j]`` is above 0, decided over Python integers.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in values.tolist()]
    denom = max(d for row in ratios for _, d in row)  # a power of two
    ints = [[n * (denom // d) for n, d in row] for row in ratios]
    terms = [[x0 - xr for x0, xr in zip(ints[0], row)] for row in ints]
    columns = list(zip(*terms))
    m = len(columns)
    sums = [[0] * len(terms)]
    survivors = [0]  # the empty set
    for mask in range(1, 1 << m):
        low = mask & -mask
        col = columns[low.bit_length() - 1]
        row_sums = [a + x for a, x in zip(sums[mask ^ low], col)]
        sums.append(row_sums)
        if sorted(row_sums)[crit_rank - 1] <= 0:
            survivors.append(mask)
    return survivors


def exact_discoveries(survivors, subset):
    smask = sum(1 << i for i in subset)
    return len(subset) - max((mask & smask).bit_count() for mask in survivors)


@pytest.mark.xfail(
    strict=True,
    reason="float sums added in different orders decide some exact zeros "
    "wrongly (ROADMAP item 1, exact sign decisions)",
)
def test_engine_and_table_never_exceed_exact_count():
    above = []
    for k, (values, alpha, queries) in enumerate(fuzz_instances()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # zero-power cells
            cfg = TestConfig(alpha, len(values))
        prob = SumTestProblem.from_matrix(StatisticMatrix(values), cfg)
        table = RejectionTable(prob)
        survivors = exact_survivors(values, cfg.crit_rank)
        for subset in queries:
            truth = exact_discoveries(survivors, subset)
            engine = discoveries(prob, subset).discoveries
            oracle = len(subset) - table.max_nonrejected_overlap(subset)
            if engine > truth or oracle > truth:
                above.append((k, subset, truth, engine, oracle))
    assert not above
