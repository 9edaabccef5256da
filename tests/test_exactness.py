"""Engine and exhaustive table against closed testing in exact arithmetic.

The instances are tie-heavy: every value comes from a small pool of
decimals, so many sets have centered sums that are exactly zero in real
arithmetic and round to either side in floats.  The truth sums the terms
``x0[j] - xr[j]`` of the raw rows as integers: every float is an integer
times a power of two, so scaling all of them to one power-of-two
denominator makes each term, each sum and each sign exact.

The problem stores centered values on a power-of-two grid, rounded toward
not rejecting, and sums them exactly.  So the engine and the table decide
the same sets and never count above the truth.  A tie finer than the grid
step can still round a real zero sum below 0 and keep a set alive, so both
may count below it (30 of these 8000 queries).
"""

import warnings
from functools import cache

import numpy as np

import pytest

from sumtdp import (
    Combiner,
    RejectionTable,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    apply_combiner,
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


@cache
def fuzz_answers():
    """``(instance, subset, truth, engine, table)`` for every fuzz query."""
    rows = []
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
            rows.append((k, subset, truth, engine, oracle))
    return rows


def test_engine_and_table_never_exceed_exact_count():
    rows = fuzz_answers()
    assert len(rows) == N_INSTANCES * N_QUERIES
    assert [r for r in rows if r[3] > r[2] or r[4] > r[2]] == []


def test_engine_equals_table():
    assert [r for r in fuzz_answers() if r[3] != r[4]] == []


def huge_column_case(kind):
    """A 40 x 6 matrix whose column 0 dwarfs the rest, which hold real signal."""
    rng = np.random.default_rng(20)
    if kind == "signed":  # statistics: column 0 at 1e20, below x0 in one row
        values = rng.standard_normal((40, 6))
        values[0, 1:5] += 4.0
        values[:, 0] *= 1e20
        values[0, 0], values[7, 0] = 4e20, 5e20
        return values
    p = rng.uniform(size=(40, 6))
    p[0, 0], p[0, 1:5] = 1e-20, 1e-5
    return apply_combiner(StatisticMatrix(p), Combiner.parse(kind)).values


@pytest.mark.parametrize("kind", ["vw:-1", "cauchy", "signed"])
def test_one_huge_column_keeps_the_others_decided(kind):
    """The huge column must not coarsen the step until the others' sums
    all round to <= 0: engine and table equal the exact count on every set."""
    values = huge_column_case(kind)
    cfg = TestConfig(0.1, len(values))
    prob = SumTestProblem.from_matrix(StatisticMatrix(values), cfg)
    table = RejectionTable(prob)
    survivors = exact_survivors(values, cfg.crit_rank)
    for mask in range(1, 1 << 6):
        subset = [j for j in range(6) if mask >> j & 1]
        truth = exact_discoveries(survivors, subset)
        assert discoveries(prob, subset).discoveries == truth, subset
        assert len(subset) - table.max_nonrejected_overlap(subset) == truth, subset
    assert exact_discoveries(survivors, [1, 2, 3, 4]) == 4


def test_row_sums_that_overflow_are_refused():
    """Entries near the float range: each x0 - xr is finite, but a row's sums
    may overflow.  Such a matrix is refused at build; every other one counts
    no discovery above the exact count and raises no engine fault."""
    rng = np.random.default_rng(1)
    built = refused = 0
    for _ in range(2000):
        m, b = int(rng.integers(3, 7)), int(rng.integers(4, 12))
        values = rng.choice((6e307, -6e307, 0.0, 1.0, 2.0, 3.0, 4.0), (b, m))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # zero-power cells
            cfg = TestConfig(float(rng.choice((0.2, 0.4, 0.5))), b)
        try:
            prob = SumTestProblem.from_matrix(StatisticMatrix(values), cfg)
        except ValueError as exc:
            assert "rescale the statistics" in str(exc)
            refused += 1
            continue
        built += 1
        survivors = exact_survivors(values, cfg.crit_rank)
        for _ in range(3):
            subset = sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False).tolist())
            assert discoveries(prob, subset).discoveries <= exact_discoveries(survivors, subset)
    assert built > 300 and refused > 300
