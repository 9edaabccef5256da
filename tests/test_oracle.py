"""Exhaustive rejection table against direct per-set enumeration."""

from itertools import combinations

import numpy as np
import pytest

from sumtdp import (
    RejectionTable,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    reject,
    subset_quantile,
)
from sumtdp.oracle import _popcount
from tests.util import POOL, random_instance, random_subset


class TestToyTable:
    def test_max_overlap(self, toy_problem):
        table = RejectionTable(toy_problem)
        assert table.max_nonrejected_overlap((0, 1)) == 1

    def test_all_overlapping(self, toy_problem):
        table = RejectionTable(toy_problem)
        assert not table.all_overlapping_rejected((0, 1), 1)
        assert table.all_overlapping_rejected((0, 1), 2)

    def test_quantiles_match_direct(self, toy_problem):
        table = RejectionTable(toy_problem)
        m = toy_problem.n_hyps
        for mask in range(1, 1 << m):
            sub = tuple(i for i in range(m) if mask >> i & 1)
            direct = subset_quantile(toy_problem, sub)
            assert table.quantiles[mask] == pytest.approx(direct)
            assert table.rejected[mask] == reject(toy_problem, sub)

    def test_empty_set_never_rejected(self, toy_problem):
        table = RejectionTable(toy_problem)
        assert not table.rejected[0]
        assert table.quantiles[0] == 0.0


class TestAgainstEnumeration:
    def test_overlap_counts(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=7, max_transforms=24)
            prob = SumTestProblem.from_matrix(stats, cfg)
            table = RejectionTable(prob)
            m = stats.n_hyps
            sub = random_subset(rng, m)
            best = 0
            for mask in range(1, 1 << m):
                vset = frozenset(i for i in range(m) if mask >> i & 1)
                if not reject(prob, tuple(sorted(vset))):
                    best = max(best, len(vset & set(sub)))
            assert table.max_nonrejected_overlap(sub) == best

    def test_all_overlapping_consistent_with_max(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=7, max_transforms=24)
            table = RejectionTable(SumTestProblem.from_matrix(stats, cfg))
            m = stats.n_hyps
            sub = random_subset(rng, m)
            smask = sum(1 << i for i in sub)
            for z in range(-1, len(sub) + 2):
                want = all(
                    table.rejected[mask]
                    for mask in range(1 << m)
                    if bin(mask & smask).count("1") >= z
                )
                assert table.all_overlapping_rejected(sub, z) is want

    def test_quantiles_exact_on_tie_heavy_problems(self):
        # from_matrix problems, problems built directly from a pool holding
        # both signed zeros, and restricted problems: every set's quantile
        # has the bits of its direct sum
        rng = np.random.default_rng(23)
        for i in range(60):
            if i % 3 == 0:
                prob = SumTestProblem.from_matrix(*random_instance(rng, max_hyps=10))
            else:
                m, b = int(rng.integers(2, 11)), int(rng.integers(1, 33))
                prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m),
                                      int(rng.integers(1, b + 1)))
                if i % 3 == 2:
                    perm = rng.permutation(m)
                    prob = prob.restricted(perm[:m // 2], perm[m // 2:])
            table = RejectionTable(prob)
            m = prob.n_hyps
            for mask in range(1, 1 << m):
                members = [j for j in range(m) if mask >> j & 1]
                assert table.quantiles[mask] == subset_quantile(prob, members)
                assert table.rejected[mask] == reject(prob, members)

    def test_min_quantile_brute_force(self):
        rng = np.random.default_rng(22)
        stats, cfg = random_instance(rng, max_hyps=6, max_transforms=16)
        prob = SumTestProblem.from_matrix(stats, cfg)
        table = RejectionTable(prob)
        m = stats.n_hyps
        sub = random_subset(rng, m)
        for size in range(1, m + 1):
            for z in range(1, len(sub) + 1):
                vals = [
                    subset_quantile(prob, v)
                    for v in combinations(range(m), size)
                    if len(set(v) & set(sub)) >= z
                ]
                got = table.min_quantile(sub, z, size)
                if not vals:
                    assert np.isnan(got)
                else:
                    assert got == pytest.approx(min(vals))


class TestLimits:
    def test_too_many_columns(self):
        stats = StatisticMatrix(np.zeros((4, 13)))
        cfg = TestConfig(0.4, 4)
        with pytest.raises(ValueError, match="12 columns"):
            RejectionTable(SumTestProblem.from_matrix(stats, cfg))

    def test_too_many_rows(self):
        stats = StatisticMatrix(np.zeros((65, 3)))
        cfg = TestConfig(0.4, 65)
        with pytest.raises(ValueError, match="64 rows"):
            RejectionTable(SumTestProblem.from_matrix(stats, cfg))

    def test_row_count_mismatch(self, toy_stats):
        # the problem, which every table is built from, checks the row count
        with pytest.raises(ValueError, match="disagree"):
            RejectionTable(SumTestProblem.from_matrix(toy_stats, TestConfig(0.4, 7)))


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    # numpy < 2 has no bitwise_count; the shift-and-add loop stands in
    masks = np.random.default_rng(5).integers(0, 2**32, size=500, dtype=np.uint32)
    masks[:2] = 0, 2**32 - 1
    want = np.bitwise_count(masks)
    monkeypatch.delattr(np, "bitwise_count")
    got = _popcount(masks)
    assert got.tolist() == want.tolist()
    assert got[:2].tolist() == [0, 32]
