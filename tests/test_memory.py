"""Peak memory of the paths that build B x m matrices.

A statistic matrix adopts the fresh read-only array its producer hands over
(see :mod:`sumtdp.statmatrix`), and the CLI keeps only the column names and
the problem once the problem is built, so each path holds as few B x m
arrays as its work needs.  Peaks are read with :mod:`tracemalloc`, which
numpy reports every array buffer to, so for fixed inputs they are the same
on every run.  The inputs are those of the ``cli-tdp`` benchmark workload:
50 observations of 2000 variables, 1000 sign flips, 16 MB per matrix.
"""

import importlib
import json
import tracemalloc

import numpy as np
import pytest

from sumtdp import cli
from sumtdp.combiners import Combiner, evidence_from_t
from sumtdp.generators import TransformationScheme, sign_flip_matrix

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
