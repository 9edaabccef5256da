"""Column reduction on floor-truncated matrices."""

import numpy as np
import pytest

from sumtdp import (
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    TruncationRule,
    discoveries,
    discoveries_matrix,
    reduce_columns,
    truncate,
)
from tests.util import random_instance, random_subset

TOY_SUBSET = (0, 1)


@pytest.fixture
def toy_truncated(toy_stats):
    return truncate(toy_stats, TruncationRule(threshold=2.0, ground=0.0))


class TestToyReduction:
    def test_moves(self, toy_truncated):
        red = reduce_columns(toy_truncated, TOY_SUBSET, ground=0.0)
        assert red.removed == (2,)
        assert red.collapsed == (3, 4)
        assert red.kept == (0, 1)
        assert red.subset == (0, 1)

    def test_reduced_matrix(self, toy_truncated):
        red = reduce_columns(toy_truncated, TOY_SUBSET, ground=0.0)
        assert red.stats.n_hyps == 3
        assert np.array_equal(
            red.stats.values[:, 2], [0.0, 4.0, 2.0, 0.0, 2.0, 2.0])
        assert red.stats.column_names() == ("H1", "H2", "H4+H5")

    def test_subset_columns_untouched(self, toy_truncated):
        red = reduce_columns(toy_truncated, TOY_SUBSET, ground=0.0)
        assert np.array_equal(
            red.stats.values[:, :2], toy_truncated.values[:, :2])


class TestStructuralRules:
    def test_removal_requires_all_transformed_at_ground(self):
        vals = np.array([
            [5.0, 3.0, 1.0],
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 1.0],
        ])
        red = reduce_columns(StatisticMatrix(vals), (0,), ground=0.0)
        # column 1: rows 1..n at ground, observed not: removed
        assert red.removed == (1,)
        # column 2 has a transformed row above ground and observed above: kept
        assert red.collapsed == ()
        assert red.kept == (0, 2)

    def test_single_collapsible_left_in_place(self):
        vals = np.array([
            [5.0, 0.0, 3.0],
            [1.0, 2.0, 1.0],
            [2.0, 1.0, 2.0],
        ])
        red = reduce_columns(StatisticMatrix(vals), (0,), ground=0.0)
        assert red.collapsed == ()
        assert red.kept == (0, 1, 2)
        assert np.array_equal(red.stats.values, vals)

    def test_two_collapsibles_merge(self):
        vals = np.array([
            [5.0, 0.0, 0.0],
            [1.0, 2.0, 3.0],
            [2.0, 1.0, 0.0],
        ])
        red = reduce_columns(StatisticMatrix(vals), (0,), ground=0.0)
        assert red.collapsed == (1, 2)
        assert red.kept == (0,)
        assert np.array_equal(red.stats.values[:, 1], [0.0, 5.0, 1.0])

    def test_merged_name_unique(self):
        # a and b merge; the kept column "a+b" already holds their joined name
        vals = np.array([
            [0.0, 0.0, 3.0, 2.0],
            [1.0, 2.0, 1.0, 0.0],
            [2.0, 1.0, 0.0, 1.0],
            [0.0, 3.0, 1.0, 1.0],
            [1.0, 0.0, 2.0, 0.0],
            [3.0, 1.0, 0.0, 1.0],
        ])
        stats = truncate(StatisticMatrix(vals, names=("a", "b", "a+b", "d")),
                         TruncationRule(threshold=0.5, ground=0.0))
        red = reduce_columns(stats, (2,), ground=0.0)
        assert red.collapsed == (0, 1)
        assert red.stats.names == ("a+b", "d", "(a+b)")
        assert red.subset == (0,)

    def test_subset_never_removed_nor_collapsed(self):
        vals = np.array([
            [0.0, 0.0, 5.0],
            [0.0, 1.0, 1.0],
            [0.0, 2.0, 0.0],
        ])
        # column 0 would qualify for removal and column 1 for collapse, but
        # both sit inside the subset
        red = reduce_columns(StatisticMatrix(vals), (0, 1), ground=0.0)
        assert red.removed == ()
        assert red.collapsed == ()
        assert red.kept == (0, 1, 2)

    def test_nonzero_ground(self):
        g = -1.5
        vals = np.array([
            [5.0, g, 2.0],
            [1.0, 0.0, g],
            [2.0, 3.0, g],
        ])
        red = reduce_columns(StatisticMatrix(vals), (0,), ground=g)
        assert red.removed == (2,)
        assert red.collapsed == ()
        assert red.kept == (0, 1)

    def test_entries_below_ground_rejected(self):
        vals = np.array([[1.0, -2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="ground"):
            reduce_columns(StatisticMatrix(vals), (0,), ground=0.0)

    @pytest.mark.parametrize("ground", [np.nan, -np.inf, np.inf])
    def test_non_finite_ground_rejected(self, ground):
        # No entry lies below nan or -inf, so only the ground itself shows
        # that no truncation left it; each entry point refuses it.
        rng = np.random.default_rng(62)
        stats = truncate(StatisticMatrix(rng.normal(size=(20, 6))), TruncationRule(0.5, 0.0))
        cfg = TestConfig(0.25, 20)
        calls = (
            lambda: SumTestProblem.from_matrix(stats, cfg, ground=ground),
            lambda: reduce_columns(stats, (0, 1), ground=ground),
            lambda: discoveries_matrix(stats, cfg, (0, 1), reduction_ground=ground),
        )
        for call in calls:
            with pytest.raises(ValueError, match="ground must be finite"):
                call()

    def test_identity_when_nothing_inert(self):
        rng = np.random.default_rng(60)
        vals = np.abs(rng.normal(size=(6, 5))) + 0.5
        stats = StatisticMatrix(vals)
        red = reduce_columns(stats, (1, 3), ground=0.0)
        assert red.removed == ()
        assert red.collapsed == ()
        assert np.array_equal(red.stats.values, vals)
        assert red.subset == (1, 3)

    def test_full_subset_is_identity(self, toy_truncated):
        full = tuple(range(toy_truncated.n_hyps))
        red = reduce_columns(toy_truncated, full, ground=0.0)
        assert red.removed == ()
        assert red.collapsed == ()
        assert np.array_equal(red.stats.values, toy_truncated.values)

    def test_subset_reindexing(self):
        vals = np.array([
            [3.0, 0.0, 5.0, 0.0, 4.0],
            [1.0, 0.0, 1.0, 2.0, 1.0],
            [0.0, 0.0, 2.0, 1.0, 2.0],
        ])
        red = reduce_columns(StatisticMatrix(vals), (2, 4), ground=0.0)
        assert red.removed == (1,)
        # column 3 is collapsible but alone, so it stays in place
        assert red.kept == (0, 2, 3, 4)
        assert red.subset == (1, 3)


class TestDiscoveryInvariance:
    def test_random_truncated_matrices(self):
        rng = np.random.default_rng(61)
        checked_moves = 0
        for _ in range(20):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=24)
            cut = float(np.quantile(stats.values, 0.75))
            ground = float(stats.values.min())
            trunc = truncate(stats, TruncationRule(threshold=cut, ground=ground))
            sub = random_subset(rng, stats.n_hyps)
            red = reduce_columns(trunc, sub, ground=ground)
            if red.removed or red.collapsed:
                checked_moves += 1
            before = discoveries(
                SumTestProblem.from_matrix(trunc, cfg), sub)
            after = discoveries(
                SumTestProblem.from_matrix(red.stats, cfg), red.subset)
            assert before.discoveries == after.discoveries
            assert before.overlap_cap == after.overlap_cap
        assert checked_moves >= 8

    def test_invariance_holds_for_every_subset_small(self):
        rng = np.random.default_rng(62)
        stats, cfg = random_instance(rng, max_hyps=6, max_transforms=16)
        cut = float(np.quantile(stats.values, 0.8))
        ground = float(stats.values.min())
        trunc = truncate(stats, TruncationRule(threshold=cut, ground=ground))
        m = trunc.n_hyps
        for mask in range(1, 1 << m):
            sub = tuple(i for i in range(m) if mask >> i & 1)
            red = reduce_columns(trunc, sub, ground=ground)
            before = discoveries(SumTestProblem.from_matrix(trunc, cfg), sub)
            after = discoveries(
                SumTestProblem.from_matrix(red.stats, cfg), red.subset)
            assert before.discoveries == after.discoveries


def reference_reduction(stats, subset, ground):
    """The module docstring's two rules applied one column at a time."""
    values, m = stats.values, stats.n_hyps
    removed, collapsible = [], []
    for j in range(m):
        if j in subset:
            continue
        if all(values[r, j] == ground for r in range(1, values.shape[0])):
            removed.append(j)
        elif values[0, j] == ground:
            collapsible.append(j)
    if len(collapsible) < 2:
        collapsible = []  # a lone mergeable column stays in place
    kept = [j for j in range(m) if j not in removed and j not in collapsible]
    matrix = values[:, kept]
    names = None if stats.names is None else [stats.names[j] for j in kept]
    if collapsible:
        merged = values[:, collapsible].sum(axis=1, keepdims=True)
        matrix = np.concatenate([matrix, merged], axis=1)
        if names is not None:
            names.append("+".join(stats.names[j] for j in collapsible))
    return {
        "values": matrix,
        "names": None if names is None else tuple(names),
        "subset": tuple(kept.index(j) for j in subset),
        "kept": tuple(kept),
        "removed": tuple(removed),
        "collapsed": tuple(collapsible),
    }


class TestAgainstPerColumnReference:
    def test_random_tie_heavy_matrices(self):
        rng = np.random.default_rng(63)
        seen = {"named": 0, "unnamed": 0, "lone": 0, "merged": 0, "removed": 0, "full": 0}
        for _ in range(400):
            ground = float(rng.choice([0.0, -1.5, 2.0]))
            m = int(rng.integers(1, 13))
            b = int(rng.integers(2, 9))
            # mostly ground, so whole columns and observed entries tie at it
            values = ground + rng.choice([0.0, 0.0, 0.0, 1.0, 0.1, 2.5], size=(b, m))
            named = rng.random() < 0.5
            names = tuple(f"c{j}" for j in range(m)) if named else None
            stats = StatisticMatrix(values, names=names)
            full = rng.random() < 0.1
            subset = tuple(range(m)) if full else random_subset(rng, m)

            red = reduce_columns(stats, subset, ground=ground)
            ref = reference_reduction(stats, subset, ground)
            assert red.stats.values.shape == ref["values"].shape
            assert red.stats.values.tobytes() == ref["values"].tobytes()
            assert red.stats.names == ref["names"]
            for field in ("subset", "kept", "removed", "collapsed"):
                got = getattr(red, field)
                assert got == ref[field], field
                assert all(type(j) is int for j in got), field

            outside = [j for j in range(m) if j not in subset]
            lone = [j for j in outside if j not in red.removed and values[0, j] == ground]
            seen["named" if named else "unnamed"] += 1
            seen["lone"] += len(lone) == 1
            seen["merged"] += bool(red.collapsed)
            seen["removed"] += bool(red.removed)
            seen["full"] += full
        assert min(seen.values()) >= 10, seen
