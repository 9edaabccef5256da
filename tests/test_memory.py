"""Peak memory of the paths that build B x m matrices.

A statistic matrix adopts the fresh read-only array its producer hands over
(see :mod:`sumtdp.statmatrix`), and the CLI keeps only the column names and
the problem once the problem is built, so each path holds as few B x m
arrays as its work needs.  Peaks are read with :mod:`tracemalloc`, which
numpy reports every array buffer to, so for fixed inputs they are the same
on every run.  The inputs are those of the ``cli-tdp`` benchmark workload:
50 observations of 2000 variables, 1000 sign flips, 16 MB per matrix; and
for one query, those of the ``engine-deep`` workload.

The problem stores its centered matrix hypothesis-major, and the engine
sorts rows of row-major buffers, so each change of layout is one pass that
copies into the buffer it fills, never a whole transposed copy beside it.
"""

import importlib
import json
import tracemalloc

import numpy as np
import pytest

from sumtdp import StatisticMatrix, SumTestProblem, TestConfig, cli, discoveries
from sumtdp.combiners import Combiner, evidence_from_t
from sumtdp.generators import TransformationScheme, sign_flip_matrix
from sumtdp.shortcut import QueryContext

N_OBS, M, B, RANK = 50, 2000, 1000, 20000
SEED = 2102_11759
SETS = [list(range(1, 201)), list(range(1, 401)), list(range(1, M + 1)), list(range(150, 260))]
MATRIX_BYTES = B * M * 8


@pytest.fixture(scope="module", autouse=True)
def imported():
    """Load the modules these paths import on first call, so only arrays are traced."""
    importlib.import_module("scipy.special")


@pytest.fixture(scope="module")
def data():
    values = np.random.default_rng([SEED, 3]).standard_normal((N_OBS, M))
    values[:, :200] += 0.5
    return values


@pytest.fixture(scope="module")
def tstats(data):
    return sign_flip_matrix(data, TransformationScheme("sign_flip", B, seed=SEED))


@pytest.fixture(scope="module")
def evidence(tstats):
    return evidence_from_t(tstats, N_OBS - 1, Combiner("fisher"), rank=RANK)


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak memory allocated during the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sign_flip_matrix_holds_its_output_once(data):
    scheme = TransformationScheme("sign_flip", B, seed=SEED)
    stats, peak = traced_peak(sign_flip_matrix, data, scheme)
    assert stats.values.nbytes == MATRIX_BYTES
    assert peak < 1.5 * MATRIX_BYTES


def test_evidence_from_t_holds_its_output_once(tstats):
    evidence, peak = traced_peak(evidence_from_t, tstats, N_OBS - 1, Combiner("fisher"), rank=RANK)
    assert evidence.values.nbytes == MATRIX_BYTES
    assert peak < 1.5 * MATRIX_BYTES


def test_problem_build_holds_its_matrix_once(evidence):
    # the transposing pass writes the one centered buffer directly
    prob, peak = traced_peak(SumTestProblem.from_matrix, evidence, TestConfig(0.05, B), ground=0.0)
    assert prob.centered.nbytes == MATRIX_BYTES
    assert peak < 1.5 * MATRIX_BYTES


def test_all_column_sort_adds_one_block(evidence):
    # an all-column query's first sort copies every column into its
    # row-major buffer, _STRIDE at a time, and sorts it in place
    prob = SumTestProblem.from_matrix(evidence, TestConfig(0.05, B), ground=0.0)
    ctx = QueryContext(prob, range(M))
    (block, _), peak = traced_peak(ctx.sorted_rows, np.ones(M, dtype=bool), 1)
    assert block.nbytes == MATRIX_BYTES
    assert peak < 1.1 * MATRIX_BYTES


def test_half_column_query_holds_its_block_beside_the_sort():
    # an engine-deep matrix queried with its m/2 columns of largest
    # observed statistic: the subset block is held next to the sorted
    # buffer and the bound's remainder
    rng = np.random.default_rng([SEED, 0])
    values = rng.standard_normal((200, M))
    values[0, rng.permutation(M)[:100]] += 3.0
    prob = SumTestProblem.from_matrix(StatisticMatrix(values), TestConfig(0.05, 200))
    prob.checkpoints, prob.counts, prob.row_totals  # per problem, not per query
    subset = np.argsort(-prob.observed, kind="stable")[:M // 2]
    res, peak = traced_peak(discoveries, prob, subset, step_budget=2)
    assert res.discoveries == 14
    assert peak < 1.75 * prob.centered.nbytes


def test_cli_tdp_frees_the_matrix_before_querying(data, tmp_path):
    # sign flips, t to p and truncation, then three sets that reduce and
    # one that takes every column, which no reduction shrinks
    data_path, sets_path, out = tmp_path / "data.csv", tmp_path / "sets.json", tmp_path / "out.json"
    header = ",".join(f"v{j + 1}" for j in range(M))
    np.savetxt(data_path, data, delimiter=",", fmt="%.17g", header=header, comments="")
    sets_path.write_text(json.dumps(SETS))
    argv = ["tdp", "--data", str(data_path), "--b", str(B), "--combiner", "fisher",
            "--truncate-rank", str(RANK), "--sets", str(sets_path), "--seed", str(SEED),
            "--out", str(out)]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0 and len(json.loads(out.read_text())) == len(SETS)
    assert peak < 2.5 * MATRIX_BYTES
