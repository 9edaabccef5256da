"""Goldens of the local sum test and the exhaustive reference.

Recorded when ``subset_quantile``, ``reject`` and ``RejectionTable`` still
took a separate centered-matrix type, before the problem object became the
only carrier of the centered test.  Two matrices: the toy example and a
seeded 40 x 8 one with three-decimal entries.  The output of ``sumtdp
test`` (every subset) and ``sumtdp verify`` is pinned by sha256; subset
quantiles are compared with ``==`` and the table's rejection flags byte for
byte.  The seeded quantiles and ``test`` digest were re-recorded when the
problem moved its centered values onto an exact power-of-two grid: 250 of
the 255 quantiles moved, by at most 1.1e-13, and none changed sign.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sumtdp import (
    RejectionTable,
    SumTestProblem,
    TestConfig,
    read_statistic_csv,
    reject,
    subset_quantile,
)
from sumtdp.cli import main
from tests.conftest import TOY_ALPHA, TOY_ROWS

GOLDENS = json.loads((Path(__file__).parent / "data" / "goldens.json").read_text())


def toy_text():
    rows = [",".join(f"H{j + 1}" for j in range(5))]
    rows += [",".join(str(v) for v in row) for row in TOY_ROWS]
    return "\n".join(rows) + "\n"


def seeded_text():
    values = np.round(np.random.default_rng(8040).normal(size=(40, 8)), 3)
    values[0, :3] += 1.5
    rows = [",".join(f"S{j + 1}" for j in range(8))]
    rows += [",".join(f"{v:.3f}" for v in row) for row in values]
    return "\n".join(rows) + "\n"


MATRICES = {"toy": (toy_text, TOY_ALPHA), "seeded": (seeded_text, 0.1)}


@pytest.fixture(params=sorted(MATRICES))
def case(request, tmp_path):
    make, alpha = MATRICES[request.param]
    path = tmp_path / f"{request.param}.csv"
    path.write_text(make())
    stats = read_statistic_csv(path)
    m = stats.n_hyps
    subsets = [tuple(i for i in range(m) if mask >> i & 1) for mask in range(1, 1 << m)]
    prob = SumTestProblem.from_matrix(stats, TestConfig(alpha, stats.n_transforms))
    return request.param, str(path), str(alpha), prob, subsets


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_subset_quantiles(case):
    name, _, _, prob, subsets = case
    want = [float.fromhex(q) for q in GOLDENS[f"{name}-quantiles"]]
    assert [subset_quantile(prob, s) for s in subsets] == want
    assert [reject(prob, s) for s in subsets] == [q > 0.0 for q in want]


def test_rejection_table(case):
    name, _, _, prob, _ = case
    table = RejectionTable(prob)
    assert table.rejected.tobytes().hex() == GOLDENS[f"{name}-rejected"]


def test_test_command_every_subset(case, capsys):
    name, path, alpha, _, subsets = case
    out = run(capsys, "test", "--stats", path, "--alpha", alpha)
    for s in subsets:
        spec = ",".join(str(i + 1) for i in s)
        out += run(capsys, "test", "--stats", path, "--alpha", alpha, "--set", spec)
    assert digest(out) == GOLDENS[f"{name}-test"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_command(case, capsys, fmt):
    name, path, alpha, _, _ = case
    out = run(capsys, "verify", "--stats", path, "--alpha", alpha, "--format", fmt)
    assert digest(out) == GOLDENS[f"{name}-verify-{fmt}"]


def test_negative_zero_quantile_prints_positive(tmp_path, capsys):
    # The observed -0.0 would center to -0.0 in every other row; the
    # problem stores every zero as 0.0, so the quantile prints as 0.0.
    path = tmp_path / "negzero.csv"
    path.write_text("A,B\n-0.0,1\n0.0,0\n0.0,2\n0.0,0\n0.0,1\n")
    payload = json.loads(run(capsys, "test", "--stats", str(path), "--alpha", "0.4", "--set", "1"))
    assert payload == {"size": 1, "quantile": 0.0, "critical_rank": 2, "reject": False}
    assert math.copysign(1.0, payload["quantile"]) == 1.0
