"""Shared fixtures built around one small, fully hand-checked example.

Six transformation rows (first row observed) over five hypotheses, tested
at alpha = 0.4, so the critical rank is 3 of 6.  Every derived quantity the
tests freeze below was verified by exhaustive enumeration.
"""

import numpy as np
import pytest

from sumtdp import StatisticMatrix, SumTestProblem, TestConfig

TOY_ROWS = [
    [6, 5, 4, 1, 1],
    [1, 2, 1, 0, 4],
    [8, 3, 0, 2, 1],
    [8, 1, 0, 1, 0],
    [0, 6, 1, 1, 2],
    [7, 0, 1, 2, 1],
]

TOY_ALPHA = 0.4


@pytest.fixture
def toy_values():
    return np.array(TOY_ROWS, dtype=float)


@pytest.fixture
def toy_stats(toy_values):
    return StatisticMatrix(toy_values, names=("H1", "H2", "H3", "H4", "H5"))


@pytest.fixture
def toy_cfg():
    return TestConfig(alpha=TOY_ALPHA, n_transforms=len(TOY_ROWS))


@pytest.fixture
def toy_problem(toy_stats, toy_cfg):
    return SumTestProblem.from_matrix(toy_stats, toy_cfg)
