"""Single-step scan: bounds, greedy paths, shape indices, verdicts."""

import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumtdp import (
    RejectionTable,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    TruncationRule,
    Verdict,
    discoveries,
    subset_quantile,
    truncate,
)
from sumtdp import problem, shortcut
from sumtdp.branchbound import evaluate_iterative
from sumtdp.problem import _STRIDE, _sums_finite
from sumtdp.shortcut import (
    Evaluation,
    QueryContext,
    Workspace,
    single_step,
)
from tests.util import POOL, grid_cases, random_instance, random_subset, reachable, subspace

TOY_SUBSET = (0, 1)


def _workspace(prob, overlap=1, state=None):
    return Workspace(QueryContext(prob, TOY_SUBSET), overlap, state)


def _scan(prob, overlap, *args, subset=TOY_SUBSET, **kwargs):
    return single_step(QueryContext(prob, subset), overlap, *args, **kwargs)


class TestProblem:
    def test_from_matrix(self, toy_stats, toy_cfg, toy_problem):
        assert toy_problem.crit_rank == 3
        assert toy_problem.n_transforms == 6
        assert toy_problem.n_hyps == 5
        assert np.array_equal(toy_problem.observed, toy_stats.observed)

    def test_row_count_mismatch(self, toy_stats):
        with pytest.raises(ValueError, match="disagree"):
            SumTestProblem.from_matrix(toy_stats, TestConfig(0.4, 7))

    def test_crit_rank_range(self):
        with pytest.raises(ValueError, match="crit_rank"):
            SumTestProblem(np.zeros((4, 2)), np.zeros(2), 5)

    @pytest.mark.parametrize("centered, observed, message", [
        ([[np.inf, 1.0]], [1.0, 1.0], r"^centered must be a finite \(B, m\) matrix$"),
        ([[0.0, 1.0]], [np.nan, 1.0], r"^observed must be a finite \(m,\) vector$"),
    ], ids=["centered", "observed"])
    def test_arrays_must_be_finite(self, centered, observed, message):
        with pytest.raises(ValueError, match=message):
            SumTestProblem(np.array(centered), np.array(observed), 1)

    def test_either_input_layout_stored_hypothesis_major(self):
        # The problem stores every input hypothesis-major, whatever its
        # layout, and the layout cannot change an answer.
        rng = np.random.default_rng(12)
        values = rng.standard_normal((30, 80))
        values[0, :20] += 3.0
        twins = [
            SumTestProblem(layout(values[0] - values), values[0], 2)
            for layout in (np.ascontiguousarray, np.asfortranarray)
        ]
        for prob in twins:
            assert prob.centered.T.flags.c_contiguous
        for subset in (range(80), range(25), range(10, 60, 3)):
            traces = [[], []]
            rows, cols = (
                discoveries(prob, subset, step_budget=8, trace=trace)
                for prob, trace in zip(twins, traces)
            )
            assert [getattr(cols, f.name) for f in fields(cols)] == \
                [getattr(rows, f.name) for f in fields(rows)]
            assert traces[0] == traces[1]

    def test_row_sums_must_not_overflow(self):
        # each entry is finite, but a row's absolute sum is not
        cen = np.array([[0.0, 0.0, 0.0], [1e308, -1e308, 1.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="rescale the statistics"):
            SumTestProblem(cen, np.zeros(3), 1)

    def test_row_sum_check_makes_no_full_size_temporary(self):
        # m times the largest entry overflows, so the rows are summed in blocks
        cen = np.ones((400, 2000))
        cen[:, 0] = 1e308
        tracemalloc.start()
        try:
            assert _sums_finite(cen)
            cen[-1, 1] = 1e308
            assert not _sums_finite(cen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cen.nbytes / 8

    def test_ground_classes(self, toy_stats, toy_cfg, toy_problem):
        trunc = truncate(toy_stats, TruncationRule(threshold=2.0, ground=0.0))
        prob = SumTestProblem.from_matrix(trunc, toy_cfg, ground=0.0)
        inert, low = prob.ground_classes
        assert inert.tolist() == [False, False, True, False, False]
        assert low.tolist() == [False, False, False, True, True]
        assert not (inert.flags.writeable or low.flags.writeable)
        # only from_matrix with a ground sets them
        assert toy_problem.ground_classes is None
        assert prob.restricted((0, 1), (3, 4)).ground_classes is None
        assert SumTestProblem(prob.centered, prob.observed, 3).ground_classes is None
        with pytest.raises(ValueError, match="fall below the ground value 1.0"):
            SumTestProblem.from_matrix(trunc, toy_cfg, ground=1.0)

    @pytest.mark.parametrize("n_merged", [4, 7, 8, 13])
    def test_restricted_merged_column_equals_gathered_sum(self, n_merged):
        # Above half of the 14 columns, the merged column is the row totals
        # less the other columns; on the grid that gives the bits of summing
        # its members, here with ties and a column stored at a cap.
        rng = np.random.default_rng(30 + n_merged)
        values = rng.choice(POOL, (9, 14))
        values[0, 3] = 1e20
        prob = SumTestProblem.from_matrix(StatisticMatrix(values), TestConfig(0.5, 9))
        cap = np.abs(prob.centered[1:, 3])
        assert (cap == cap[0]).all() and math.frexp(cap[0])[0] == 0.5
        for _ in range(20):
            cols = rng.permutation(14).tolist()
            merged, kept = cols[:n_merged], sorted(cols[n_merged:n_merged + 3])
            small = prob.restricted(kept, merged)
            assert small.centered[:, -1].tobytes() == prob.centered[:, merged].sum(axis=1).tobytes()
            assert small.centered[:, :-1].tobytes() == prob.centered[:, kept].tobytes()

    def test_arrays_read_only(self, toy_problem):
        with pytest.raises(ValueError):
            toy_problem.centered[0, 0] = 1.0
        with pytest.raises(ValueError):
            toy_problem.observed[0] = 1.0


class TestWorkspaceToy:
    def test_size_range(self, toy_problem):
        ws = _workspace(toy_problem)
        assert (ws.size_min, ws.size_max) == (1, 5)

    def test_bound_values(self, toy_problem):
        ws = _workspace(toy_problem)
        got = [ws.bound_value(v) for v in range(1, 6)]
        assert got == [-1.0, -2.0, -2.0, 1.0, 6.0]

    def test_shape_indices(self, toy_problem):
        ws = _workspace(toy_problem)
        assert ws.drop_end == 2
        assert ws.rise_start == 2

    def test_path_values(self, toy_problem):
        ws = _workspace(toy_problem)
        got = [ws.path_value(v) for v in range(1, 6)]
        assert got == [2.0, 1.0, 1.0, 4.0, 6.0]

    def test_path_sets(self, toy_problem):
        ws = _workspace(toy_problem)
        got = [ws.path_set(v) for v in range(1, 6)]
        assert got == [(1,), (1, 3), (1, 3, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4)]
        # At overlap 2 the smallest size holds one candidate, the subset.
        assert _workspace(toy_problem, overlap=2).path_set(2) == (0, 1)

    # Only the engine builds workspaces, so a bad overlap or subspace is an
    # engine fault, not bad input.
    def test_overlap_validation(self, toy_problem):
        with pytest.raises(RuntimeError, match="overlap"):
            _workspace(toy_problem, 0)
        with pytest.raises(RuntimeError, match="overlap"):
            _workspace(toy_problem, 3)

    def test_forced_subset_member_lowers_needed(self, toy_problem):
        ws = _workspace(toy_problem, 2, subspace(5, forced=(0,)))
        assert ws.size_min == 2  # one forced + one still needed

    def test_marked_overlap_pick_raises(self, toy_problem):
        # At overlap 2 both subset columns are picks, which no branch marks.
        with pytest.raises(RuntimeError, match="overlap picks"):
            _workspace(toy_problem, 2, subspace(5, excluded=(0,)))
        with pytest.raises(RuntimeError, match="overlap picks"):
            _workspace(toy_problem, 1, subspace(5, excluded=(1,)))


def _tables(ws):
    sizes = range(ws.size_min, ws.size_max + 1)
    return (
        (ws.size_min, ws.size_max, ws.drop_end, ws.rise_start),
        [ws.bound_value(v) for v in sizes],
        [ws.path_value(v) for v in sizes],
    )


def _signs(tables):
    # == cannot tell -0.0 from 0.0; the sign bits can.
    return [np.signbit(values).tolist() for values in tables[1:]]


def assert_spine_matches_fresh(prob, subset, overlaps, state=None, steps=3):
    """Scan a branch order on one shared context; each node as a fresh context does.

    For each overlap in turn, as the bisection visits levels: the root, then
    each level's exclude and force child down the exclude spine, then the
    deferred force children, deepest first.  Each split is on the column the
    node's greedy path adds last, the pivot its scan names when undecided,
    whatever the scan decides, so the walk also passes through nodes a scan
    would settle.  It stops early where no column is left to split on;
    returns the spine's depth at each overlap.  ``state`` starts every
    walk, so it must mark no overlap pick at any of ``overlaps``.
    """
    ctx = QueryContext(prob, subset)
    depths = []
    for overlap in overlaps:
        order, deferred, node = [state], [], state
        for _ in range(steps):
            ws = Workspace(QueryContext(prob, subset), overlap, node)
            if ws.size_max == ws.size_min:
                break
            (pivot,) = set(ws.path_set(ws.size_max)) - set(ws.path_set(ws.size_max - 1))
            excluded = subspace(prob.n_hyps) if node is None else node.copy()
            forced = excluded.copy()
            excluded[pivot], forced[pivot] = -1, 1
            order += [excluded, forced]
            deferred.append(forced)
            node = excluded
        for node in order + deferred[::-1]:
            shared = Workspace(ctx, overlap, node)
            fresh = Workspace(QueryContext(prob, subset), overlap, node)
            got, want = _tables(shared), _tables(fresh)
            assert got == want
            assert _signs(got) == _signs(want)
            assert_carried_sums_exact(ctx)
        depths.append(len(deferred))
    return depths


def assert_sums_exact(sums, cols):
    """``sums`` are the row sums of ``cols`` added in any order: numpy's,
    right to left, and exactly."""
    for got, row in zip(np.broadcast_to(sums, cols.shape[:1]).tolist(), cols.tolist()):
        assert got == float(np.sum(row)) == sum(reversed(row)) == math.fsum(row)


def assert_carried_sums_exact(ctx):
    """Each carried row sum equals a fresh sum of its columns.

    The tables compared above read only a quantile over rows; this reads
    every row.
    """
    _, block, sums = ctx.sorted_block
    path = ctx.order_sums
    assert_sums_exact(sums.sums, block[:, :sums.k])
    assert_sums_exact(path.sums, ctx.prob.centered[:, ctx.subset_order[:path.k]])


def _deep_problem():
    """40 x 300 Gaussian problem whose level 282 exhausts a budget of 30 splits."""
    rng = np.random.default_rng(1)
    values = rng.standard_normal((40, 300))
    values[0, rng.permutation(300)[:60]] += 2.0
    return SumTestProblem(values[0] - values, values[0], 2)


class TestSortedBlockReuse:
    """Scans sharing a context reuse or trim its sorted block, same tables."""

    SUBSET = tuple(range(9))  # columns 9-11 lie outside

    def _problem(self):
        rng = np.random.default_rng(404)
        cen = rng.choice(POOL, size=(15, 12))
        obs = rng.choice(POOL, size=12)
        # Pivots in observed order: 11 (outside S), then 8 and 7 (inside).
        obs[[11, 8, 7]] = (5.0, 4.0, 3.0)
        # Column 8 ties column 3 everywhere, and 0.0 meets -0.0 in some rows.
        cen[:, 8] = cen[:, 3]
        cen[:4, 8], cen[:4, 3] = 0.0, -0.0
        return SumTestProblem(cen, obs, 4)

    def test_branch_order_matches_fresh_contexts(self):
        prob = self._problem()
        for overlap in (1, 3, 5, 9):
            assert assert_spine_matches_fresh(prob, self.SUBSET, [overlap]) == [3]

    def test_siblings_share_and_children_trim(self):
        prob = self._problem()
        ctx = QueryContext(prob, self.SUBSET)
        # A root workspace sorts nothing until its first bound read.
        ws = Workspace(ctx, 3)
        assert ctx.sorted_block is None
        ws.bound_value(ws.size_min)
        root = ctx.sorted_block[1]
        assert root.shape == (15, 9) and not root.flags.writeable
        # Pivot 11 lies outside S: both children keep the root's block.
        Workspace(ctx, 3, subspace(12, excluded=(11,)))
        Workspace(ctx, 3, subspace(12, forced=(11,)))
        assert ctx.sorted_block[1] is root
        # Pivot 8 lies inside S: the exclude child trims one value per row
        # (a tied one) and the force sibling reuses that block.
        Workspace(ctx, 3, subspace(12, excluded=(11, 8)))
        trimmed = ctx.sorted_block[1]
        mask = np.ones(12, dtype=bool)
        mask[[8, 9, 10, 11]] = False
        assert np.array_equal(ctx.sorted_block[0], mask)
        fresh = np.sort(prob.centered[:, :8], axis=1)
        assert np.array_equal(trimmed, fresh)
        assert np.array_equal(np.signbit(trimmed), np.signbit(fresh))
        Workspace(ctx, 3, subspace(12, forced=(8,), excluded=(11,)))
        assert ctx.sorted_block[1] is trimmed

    def test_negative_zeros_stored_as_zero(self):
        # The grid stores a given -0.0 as 0.0.
        prob = self._problem()
        zeros = prob.centered[prob.centered == 0]
        assert zeros.size and not np.signbit(zeros).any()

    def test_inconsistent_slot_is_internal_error(self):
        prob = self._problem()
        ctx = QueryContext(prob, self.SUBSET)
        held = ctx.in_subset.copy()
        block = np.sort(prob.centered[:, :9], axis=1) + 10.0  # no column's values
        sums = shortcut._RunningSums(lambda lo, hi: block[:, lo:hi].T)
        sums.through(3)
        ctx.sorted_block = (held, block, sums)
        smaller = held.copy()
        smaller[8] = False
        with pytest.raises(RuntimeError, match="sorted block"):
            ctx.sorted_rows(smaller, 3)


def _post_hoc_problem():
    """The shape of a many-query post-hoc matrix: 200 rows, 2000 columns,
    100 of them shifted on the observed row."""
    rng = np.random.default_rng(2000)
    values = rng.standard_normal((200, 2000))
    values[0, rng.permutation(2000)[:100]] += 3.0
    return SumTestProblem.from_matrix(StatisticMatrix(values), TestConfig(0.05, 200))


class TestRootScanSortsNothing:
    """A root scan whose greedy path survives at its first size sorts nothing."""

    def test_post_hoc_query_on_a_large_matrix(self, monkeypatch):
        prob = _post_hoc_problem()
        subset = np.random.default_rng(45).choice(2000, 45, replace=False)

        def no_sort(*args):
            raise AssertionError("the root scan built the bound's sorted remainder")

        monkeypatch.setattr(QueryContext, "sorted_rows", no_sort)
        ctx = QueryContext(prob, subset)
        ws = Workspace(ctx, 32)  # the first level the bisection probes
        trace = []
        out = single_step(ctx, 32, trace=trace)
        assert out.verdict is Verdict.SURVIVOR_FOUND
        assert out.witness == ws.path_set(ws.drop_end)
        assert [(r["kind"], r["size"]) for r in trace] == [("path", ws.drop_end)]
        # The witness carries its exact row sums, which the survivor lift extends.
        assert out.sums.tolist() == prob.centered[:, list(out.witness)].sum(axis=1).tolist()
        # The whole query settles on that survivor, lifted to d = 0.
        res = discoveries(prob, subset, step_budget=50)
        assert res.discoveries == 0 and res.evals == 1


def _count_gathers(monkeypatch, gathered):
    """Append the indices of each centered-column gather, in the engine and the problem."""
    real = problem._columns

    def columns(cen, cols):
        gathered.append(np.atleast_1d(cols))
        return real(cen, cols)

    monkeypatch.setattr(problem, "_columns", columns)
    monkeypatch.setattr(shortcut, "_columns", columns)


class TestSubsetBlock:
    """A subset of at most half the columns is gathered once, and every
    read of its columns, from that block or gathered, has the exact bits."""

    def test_post_hoc_query_gathers_each_column_once(self, monkeypatch):
        prob = _post_hoc_problem()
        prob.checkpoints  # built once per problem, for all its queries
        subset = np.random.default_rng(90).choice(2000, 90, replace=False)
        gathered = []
        _count_gathers(monkeypatch, gathered)
        res = discoveries(prob, subset, step_budget=50)
        assert res.evals == 1  # it settles at its root scan
        # the counts gather the subset; the first path read adds at most
        # _STRIDE - 1 columns past its checkpoint; the picks and the lift
        # slice the block
        assert len(subset) <= sum(cols.size for cols in gathered) <= len(subset) + _STRIDE - 1

    def test_large_subset_holds_no_block(self):
        prob = _post_hoc_problem()
        assert QueryContext(prob, range(1000)).subset_block.shape == (1000, 200)
        assert QueryContext(prob, range(1001)).subset_block is None

    def test_every_route_exact(self, monkeypatch):
        # Each route is told apart by the gathers it makes: a restart gathers
        # the columns past its checkpoint, and off the block also the columns
        # it takes off; a lift off the block gathers the columns outside
        # W ∪ S, and on it none.
        gathered, restarts, lifts = [], set(), set()
        _count_gathers(monkeypatch, gathered)

        class Counting(shortcut._RunningSums):
            def __init__(self, columns, restart=None):
                def counted(k, n, _real=restart):
                    before = len(gathered)
                    out = _real(k, n)
                    if out is not None:
                        restarts.add({1: "block", 2: "gathered"}[len(gathered) - before])
                    return out
                super().__init__(columns, restart and counted)

        monkeypatch.setattr(shortcut, "_RunningSums", Counting)
        rng = np.random.default_rng(35)
        for i in range(24):
            if i % 2:
                stats, cfg = random_instance(rng, min_hyps=70, max_hyps=200, max_transforms=16)
                prob = SumTestProblem.from_matrix(stats, cfg)
            else:
                m, b = int(rng.integers(70, 200)), int(rng.integers(2, 16))
                prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m),
                                      int(rng.integers(1, b + 1)))
            m, cen = prob.n_hyps, prob.centered
            prob.checkpoints, prob.row_totals  # built here, so a read's gathers are its own
            for size in (int(rng.integers(1, m // 2 + 1)), int(rng.integers(m // 2 + 1, m + 1))):
                subset = tuple(sorted(rng.choice(m, size, replace=False).tolist()))
                ctx = QueryContext(prob, subset)
                for root in (True, False):
                    z = int(rng.integers(1, size + 1))
                    state = None
                    if not root:
                        role = rng.choice(np.array([1, -1, 0, 0, 0, 0], dtype=np.int8), m)
                        state = reachable(prob, subset, z, role)
                    ws = Workspace(ctx, z, state)
                    for v in rng.permutation(np.arange(ws.size_min, ws.size_max + 1)):
                        sums, members = ws.path_sums(int(v)), ws.path_set(int(v))
                        want = cen[:, list(members)].sum(axis=1)
                        assert sums.tobytes() == want.tobytes()
                        union = sorted(set(members) | set(subset))
                        want = cen[:, union].sum(axis=1)
                        # W's sums plus S \ W, as the block route adds them
                        added = sorted(set(subset) - set(members))
                        assert (sums + cen[:, added].sum(axis=1)).tobytes() == want.tobytes()
                        before = len(gathered)
                        assert ctx.union_sums(members, sums).tobytes() == want.tobytes()
                        lift = gathered[before:]
                        lifts.add({0: "block", 1: "totals"}[len(lift)])
                        if lift:  # the columns outside W ∪ S, and only those
                            assert sorted(lift[0].tolist()) == sorted(set(range(m)) - set(union))
        assert restarts == {"block", "gathered"} and lifts == {"block", "totals"}

    def test_all_column_lift_gathers_nothing(self, monkeypatch):
        prob = _post_hoc_problem()
        prob.row_totals
        ctx = QueryContext(prob, range(prob.n_hyps))
        ws = Workspace(ctx, 1000)
        witness, sums = ws.path_set(1500), ws.path_sums(1500)
        gathered = []
        _count_gathers(monkeypatch, gathered)
        assert ctx.union_sums(witness, sums).tobytes() == prob.row_totals.tobytes()
        assert [cols.size for cols in gathered] == [0]

    def test_root_scan_build_gathers_nothing(self, monkeypatch):
        # a root scan forces no column, so its build sums none
        ctx = QueryContext(_post_hoc_problem(), range(0, 2000, 20))
        gathered = []
        _count_gathers(monkeypatch, gathered)
        Workspace(ctx, 50)
        assert gathered == []


class TestInPlaceTrim:
    """A trim cuts one value per row inside the context's buffer, bit for bit."""

    @staticmethod
    def _assert_fresh(prob, block, sums, mask, needed):
        fresh = np.sort(prob.centered[:, mask], axis=1)
        assert block.tolist() == fresh.tolist()
        assert np.signbit(block).tolist() == np.signbit(fresh).tolist()
        assert_sums_exact(sums, fresh[:, :needed])

    def test_cut_at_first_and_last_column_and_on_a_tie(self):
        # Column 23 is the smallest entry of row 0, whose carried sum is
        # patched since it lies among the first k0, the largest of row 1,
        # and ties column 2 in row 2 (0.0 against -0.0, stored as two 0.0).
        rng = np.random.default_rng(16)
        cen = rng.choice(POOL, size=(4, 24))
        cen[:3, 23] = (-5.0, 5.0, 0.0)
        cen[2, 2] = -0.0
        prob = SumTestProblem(cen, rng.standard_normal(24), 2)
        ctx = QueryContext(prob, range(24))
        mask = np.ones(24, dtype=bool)
        needed = 20
        root, _ = ctx.sorted_rows(mask, needed)
        assert ctx.sorted_block[2].k > 0
        mask[23] = False
        block, sums = ctx.sorted_rows(mask, needed)
        assert np.shares_memory(block, root)
        self._assert_fresh(prob, block, sums, mask, needed)
        assert_carried_sums_exact(ctx)

    def test_three_trims_stay_in_the_root_buffer(self):
        rng = np.random.default_rng(17)
        prob = SumTestProblem(rng.choice(POOL, size=(6, 30)), rng.standard_normal(30), 2)
        ctx = QueryContext(prob, range(30))
        mask = np.ones(30, dtype=bool)
        needed = 12
        root, _ = ctx.sorted_rows(mask, needed)
        for col in (29, 3, 17):
            mask[col] = False
            block, sums = ctx.sorted_rows(mask, needed)
            assert block.shape == (6, mask.sum())
            assert np.shares_memory(block, root)
            self._assert_fresh(prob, block, sums, mask, needed)
            assert_carried_sums_exact(ctx)

    def test_every_block_is_read_only(self):
        rng = np.random.default_rng(18)
        prob = SumTestProblem(rng.choice(POOL, size=(5, 10)), rng.standard_normal(10), 2)
        ctx = QueryContext(prob, range(10))
        mask = np.ones(10, dtype=bool)
        masks = [mask.copy(), mask.copy()]  # a fresh sort, then its reuse
        mask[4] = False
        masks += [mask.copy(), mask.copy()]  # a trim, then its reuse
        mask[[1, 2]] = False
        masks.append(mask)  # two columns fewer: a fresh sort again
        for held in masks:
            block, _ = ctx.sorted_rows(held, 3)
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 1.0
            assert ctx.sorted_block[1] is block

    def test_inconsistent_slot_leaves_buffer_unchanged(self):
        # The slot claims column 9, which it lacks; column 3 holds the same
        # values except in the last row, so every row but that one finds it.
        rng = np.random.default_rng(19)
        cen = rng.choice(POOL, size=(8, 10))
        cen[:, 9] = cen[:, 3]
        cen[-1, 9] = 50.0
        prob = SumTestProblem(cen, rng.standard_normal(10), 2)
        ctx = QueryContext(prob, range(9))
        mask = ctx.in_subset.copy()
        block, _ = ctx.sorted_rows(mask, 3)
        before = block.base.copy()
        claimed = mask.copy()
        claimed[9] = True
        ctx.sorted_block = (claimed, *ctx.sorted_block[1:])
        with pytest.raises(RuntimeError, match="sorted block"):
            ctx.sorted_rows(mask, 3)
        assert block.base.tolist() == before.tolist()
        assert np.signbit(block.base).tolist() == np.signbit(before).tolist()

    def test_trim_allocates_less_than_its_block(self):
        # A trim that copied the block would peak at its size or more; the
        # pivot's column, with the greatest observed statistic, sorts near
        # the end of each row, so moving the entries past it costs little.
        rng = np.random.default_rng(20)
        values = rng.standard_normal((200, 2000))
        values[0, :100] += 3.0
        prob = SumTestProblem(values[0] - values, values[0], 10)
        ctx = QueryContext(prob, range(2000))
        mask = np.ones(2000, dtype=bool)
        root, _ = ctx.sorted_rows(mask, 10)
        mask[int(np.argmax(prob.observed))] = False
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            block, _ = ctx.sorted_rows(mask, 10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < root.nbytes
        assert np.shares_memory(block, root)

    def test_fresh_sort_lets_the_last_block_go(self):
        # A mask two columns off the slot's is sorted afresh; the slot's
        # buffer goes first, so the two are never held at once.
        rng = np.random.default_rng(21)
        values = rng.standard_normal((200, 2000))
        prob = SumTestProblem(values[0] - values, values[0], 10)
        ctx = QueryContext(prob, range(2000))
        mask = np.ones(2000, dtype=bool)
        tracemalloc.start()
        try:
            ctx.sorted_rows(mask, 10)
            mask[:2] = False
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            block, _ = ctx.sorted_rows(mask, 10)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes / 2

    def test_columns_coming_back_merge_in_the_root_buffer(self):
        # A level's root asks for every column after the last level's
        # branches trimmed some: they return to the buffer's spare columns
        # and merge with the sorted run there, one column back, then two.
        rng = np.random.default_rng(22)
        cen = rng.choice(POOL, size=(200, 400))
        cen[0, :3] = (-0.0, 0.0, -0.0)
        prob = SumTestProblem(cen, rng.standard_normal(400), 10)
        ctx = QueryContext(prob, range(400))
        mask = np.ones(400, dtype=bool)
        needed = 30
        root, _ = ctx.sorted_rows(mask, needed)
        for col in (5, 17, 250):
            mask[col] = False
            ctx.sorted_rows(mask, needed)
        for back in ([17], [5, 250]):
            mask[back] = True
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                block, sums = ctx.sorted_rows(mask, needed)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < block.nbytes / 2
            assert np.shares_memory(block, root)
            self._assert_fresh(prob, block, sums, mask, needed)
            assert_carried_sums_exact(ctx)

    def test_no_room_to_merge_sorts_afresh(self):
        # a slot sorted for fewer columns has no spare ones to merge into
        rng = np.random.default_rng(23)
        prob = SumTestProblem(rng.choice(POOL, size=(6, 30)), rng.standard_normal(30), 2)
        ctx = QueryContext(prob, range(30))
        mask = np.ones(30, dtype=bool)
        mask[[3, 9]] = False
        first, _ = ctx.sorted_rows(mask, 5)
        mask[:] = True
        block, sums = ctx.sorted_rows(mask, 5)
        assert not np.shares_memory(block, first)
        self._assert_fresh(prob, block, sums, mask, 5)


class TestCarriedSums:
    """Row sums carried through the context equal fresh sums in any order."""

    def test_trim_patches_without_summing(self, monkeypatch):
        # Cutting column 47 moves the first k0 sorted entries of row 0 only:
        # it is the second smallest entry there and the largest in the other
        # rows.  The trim patches that row's carried sum in place of summing
        # it again, so a read at the carried width sums no entries.
        rng = np.random.default_rng(7)
        cen = rng.standard_normal((4, 48))
        cen[0, [0, 47]] = (-50.0, -40.0)
        cen[1:, 47] = 40.0
        prob = SumTestProblem(cen, rng.standard_normal(48), 1)
        subset, needed = tuple(range(48)), 44
        mask = np.ones(48, dtype=bool)
        ctx = QueryContext(prob, subset)
        ctx.sorted_rows(mask, needed)
        before = ctx.sorted_block[2].sums.copy()
        mask[47] = False
        summed = []
        def counting(cols, _real=shortcut._row_sums):
            summed.append(cols.size)
            return _real(cols)
        monkeypatch.setattr(shortcut, "_row_sums", counting)
        block, sums = ctx.sorted_rows(mask, needed)
        assert sum(summed) == 0
        assert sums[0] != before[0] and sums[1:].tolist() == before[1:].tolist()
        fresh_block, fresh_sums = QueryContext(prob, subset).sorted_rows(mask, needed)
        assert block.tolist() == fresh_block.tolist()
        assert sums.tolist() == fresh_sums.tolist()
        assert_sums_exact(sums, block[:, :needed])

    def test_survivor_sums_are_its_path_read(self, monkeypatch):
        # A survivor's sums are read at the size its path value was: the
        # running sums have not moved, so they are returned as held.
        prob = _post_hoc_problem()
        subset = np.random.default_rng(45).choice(2000, 45, replace=False)
        ws = Workspace(QueryContext(prob, subset), 32)
        v = ws.drop_end
        ws.path_value(v)
        summed = []
        def counting(cols, _real=shortcut._row_sums):
            summed.append(cols.size)
            return _real(cols)
        monkeypatch.setattr(shortcut, "_row_sums", counting)
        sums = ws.path_sums(v)
        assert summed == []
        assert sums.tobytes() == prob.centered[:, list(ws.path_set(v))].sum(axis=1).tobytes()

    @pytest.mark.parametrize("case", sorted(grid_cases()))
    def test_reads_and_trims_exact_in_any_order(self, case):
        # Random reads of the overlap picks, and random trims and fresh
        # sorts of the block, on a problem built from a raw matrix.
        values = grid_cases()[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank-1 configs
            prob = SumTestProblem.from_matrix(
                StatisticMatrix(values), TestConfig(0.5, len(values)))
        m = prob.n_hyps
        rng = np.random.default_rng(len(case))
        ctx = QueryContext(prob, range(m))
        mask = np.ones(m, dtype=bool)
        for _ in range(40):
            live = np.flatnonzero(mask)
            draw = rng.random()
            if draw < 0.4 and live.size > 1:
                mask[rng.choice(live)] = False
            elif draw < 0.5:
                mask = rng.random(m) < 0.7
                mask[rng.integers(m)] = True
            needed = int(rng.integers(0, mask.sum() + 1))
            block, sums = ctx.sorted_rows(mask, needed)
            fresh = np.sort(prob.centered[:, mask], axis=1)
            assert block.tolist() == fresh.tolist()
            assert_sums_exact(sums, fresh[:, :needed])
            k = int(rng.integers(0, m + 1))
            sums = ctx.order_sums.through(k)
            assert_sums_exact(sums, prob.centered[:, ctx.subset_order[:k]])
            assert_carried_sums_exact(ctx)

    def test_deep_spine_matches_fresh_contexts(self):
        # All columns at overlaps near |S|, so every pivot lies in S and each
        # force child needs one overlap pick fewer; the levels in bisection
        # order read wider, then much narrower, then wider sums again.
        prob = _deep_problem()
        depths = assert_spine_matches_fresh(
            prob, tuple(range(300)), [282, 256, 283], steps=14)
        assert min(depths) >= 12

    def test_spine_sums_few_columns(self, monkeypatch):
        # Each scan down the spine differs from the one before by a pivot,
        # so it extends or patches the carried sums of the overlap picks.
        # Summing every pick again would cost a full width, 40 x 282
        # entries, for each of the 25 scans and each of the bound's and the
        # path's sums; carried, the whole walk costs about two, the running
        # sums of the bound and the path included.
        prob = _deep_problem()
        summed = []
        def counting(cols, _real=shortcut._row_sums):
            summed.append(cols.size)
            return _real(cols)
        monkeypatch.setattr(shortcut, "_row_sums", counting)
        trace = []
        ctx = QueryContext(prob, tuple(range(300)))
        out = evaluate_iterative(ctx, 282, budget=24, trace=trace)
        assert out.verdict is Verdict.UNDECIDED
        assert sum(row["kind"] == "eval" for row in trace) == 25
        assert sum(summed) < 8 * 40 * 282


@st.composite
def spine_cases(draw):
    m, b = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    value = st.sampled_from(POOL)
    row = st.lists(value, min_size=m, max_size=m)
    centered = np.array(draw(st.lists(row, min_size=b, max_size=b)))
    prob = SumTestProblem(centered, np.array(draw(row)), draw(st.integers(1, b)))
    subsets = st.just(range(m)) | st.sets(st.integers(0, m - 1), min_size=1)
    subset = tuple(sorted(draw(subsets)))
    s = len(subset)
    level = st.integers(max(1, s - 24), s) | st.integers(1, s)
    overlaps = draw(st.lists(level, min_size=1, max_size=3))
    role = draw(st.lists(st.sampled_from("fx" + "." * 10), min_size=m, max_size=m))
    state = subspace(m, [i for i, r in enumerate(role) if r == "f"],
                     [i for i, r in enumerate(role) if r == "x"])
    # marking no pick at the highest overlap, it marks none at the others
    return prob, subset, overlaps, reachable(prob, subset, max(overlaps), state)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(spine_cases())
def test_spine_on_ties_matches_fresh_contexts(case):
    prob, subset, overlaps, state = case
    assert_spine_matches_fresh(prob, subset, overlaps, state, steps=6)


class TestSingleStepToy:
    def test_level_two_all_rejected(self, toy_problem):
        out = _scan(toy_problem, 2)
        assert out.verdict is Verdict.ALL_REJECTED

    def test_level_one_undecided(self, toy_problem):
        out = _scan(toy_problem, 1)
        assert out.verdict is Verdict.UNDECIDED
        assert out.window == (1, 3)

    # discoveries probes only overlaps 1..|S|: any other is an engine fault.
    def test_level_zero_survivor(self, toy_problem):
        with pytest.raises(RuntimeError, match="overlap"):
            _scan(toy_problem, 0)

    def test_level_above_size(self, toy_problem):
        with pytest.raises(RuntimeError, match="overlap"):
            _scan(toy_problem, 3)

    def test_window_restriction(self, toy_problem):
        # sizes 4..5 were certified by the bound in the full scan
        out = _scan(toy_problem, 1, window=(4, 5))
        assert out.verdict is Verdict.ALL_REJECTED

    def test_window_clamped_empty(self, toy_problem):
        out = _scan(toy_problem, 1, window=(6, 9))
        assert out.verdict is Verdict.ALL_REJECTED

    def test_marked_overlap_pick_raises(self, toy_problem):
        with pytest.raises(RuntimeError, match="overlap picks"):
            _scan(toy_problem, 2, subspace(5, excluded=(0,)))

    def test_trace_rows(self, toy_problem):
        trace = []
        _scan(toy_problem, 1, trace=trace)
        kinds = {r["kind"] for r in trace}
        assert kinds == {"bound", "path"}
        sizes = sorted(r["size"] for r in trace if r["kind"] == "bound")
        assert sizes == [1, 2, 3, 4]  # scan stopped after size 4 went positive
        for r in trace:
            assert r["overlap"] == 1
            assert r["forced"] == ()
            assert r["excluded"] == ()

    def test_positive_read_past_rise_start_ends_scan(self, toy_problem):
        # Size 4 is the smallest and reads positive at or past rise_start,
        # so size 5 is positive too and is not read.  It is the root scan's
        # first size, read before the remainder is built, so its path comes
        # first; that path does not survive, and the bound certifies size 4.
        trace = []
        out = _scan(toy_problem, 4, subset=(0, 1, 2, 3, 4), trace=trace)
        assert out.verdict is Verdict.ALL_REJECTED
        assert [(r["kind"], r["size"]) for r in trace] == [("path", 4), ("bound", 4)]
        assert [r["value"] > 0.0 for r in trace] == [True, True]


def assert_walk(prob, subset, overlap, state=None, window=None):
    """The scan reads sizes down from min(drop_end, hi), then up above it, once each."""
    trace = []
    single_step(QueryContext(prob, subset), overlap, state, window=window, trace=trace)
    reads = [(r["size"], r["value"]) for r in trace if r["kind"] == "bound"]
    if not reads:
        return
    sizes = [v for v, _ in reads]
    ws = Workspace(QueryContext(prob, subset), overlap, state)
    lo, hi = window if window is not None else (ws.size_min, ws.size_max)
    lo, hi = max(lo, ws.size_min), min(hi, ws.size_max)
    start = min(ws.drop_end, hi)
    down = [v for v in sizes if v <= start]
    up = sizes[len(down):]
    assert down == list(range(start, start - len(down), -1))
    assert up == list(range(max(start + 1, lo), max(start + 1, lo) + len(up)))
    assert len(set(sizes)) == len(sizes)
    # A positive read ends the downward run, and at or past rise_start the scan.
    for i, (v, value) in enumerate(reads[:-1]):
        if value > 0.0:
            assert v < ws.rise_start
            assert v > start or i == len(down) - 1


def _enumerate_checks(rng, n_instances):
    """Yield (prob, table, subset) tuples small enough to enumerate."""
    for _ in range(n_instances):
        stats, cfg = random_instance(rng, max_hyps=8, max_transforms=24)
        prob = SumTestProblem.from_matrix(stats, cfg)
        table = RejectionTable(prob)
        subset = random_subset(rng, stats.n_hyps)
        yield prob, table, subset


class TestLawsAgainstOracle:
    def test_bound_never_exceeds_candidate_quantiles(self):
        rng = np.random.default_rng(30)
        for prob, table, subset in _enumerate_checks(rng, 25):
            for z in range(1, len(subset) + 1):
                ws = Workspace(QueryContext(prob, subset), z)
                for v in range(ws.size_min, ws.size_max + 1):
                    ref = table.min_quantile(subset, z, v)
                    assert ws.bound_value(v) <= ref + 1e-9

    def test_path_candidates_are_feasible_and_exact(self):
        rng = np.random.default_rng(31)
        for prob, table, subset in _enumerate_checks(rng, 25):
            for z in range(1, len(subset) + 1):
                ws = Workspace(QueryContext(prob, subset), z)
                for v in range(ws.size_min, ws.size_max + 1):
                    cand = ws.path_set(v)
                    assert len(cand) == v
                    assert len(set(cand) & set(subset)) >= z
                    direct = subset_quantile(prob, cand)
                    assert ws.path_value(v) == pytest.approx(direct, abs=1e-9)

    def test_bound_below_path(self):
        rng = np.random.default_rng(32)
        for prob, table, subset in _enumerate_checks(rng, 15):
            for z in range(1, len(subset) + 1):
                ws = Workspace(QueryContext(prob, subset), z)
                for v in range(ws.size_min, ws.size_max + 1):
                    assert ws.bound_value(v) <= ws.path_value(v) + 1e-9

    def test_shape_indices_hold(self):
        rng = np.random.default_rng(33)
        for prob, table, subset in _enumerate_checks(rng, 25):
            for z in range(1, len(subset) + 1):
                ws = Workspace(QueryContext(prob, subset), z)
                vals = [ws.bound_value(v) for v in range(ws.size_min, ws.size_max + 1)]
                for i in range(1, len(vals)):
                    v = ws.size_min + i
                    if v <= ws.drop_end:
                        assert vals[i] <= vals[i - 1] + 1e-9
                    if v > ws.rise_start:
                        assert vals[i] >= vals[i - 1] - 1e-9

    def test_verdicts_sound(self):
        rng = np.random.default_rng(34)
        n_undecided = 0
        for prob, table, subset in _enumerate_checks(rng, 40):
            for z in range(1, len(subset) + 1):
                out = single_step(QueryContext(prob, subset), z)
                truth = table.all_overlapping_rejected(subset, z)
                if out.verdict is Verdict.ALL_REJECTED:
                    assert truth
                elif out.verdict is Verdict.SURVIVOR_FOUND:
                    assert not truth
                    w = out.witness
                    assert len(set(w) & set(subset)) >= z
                    assert subset_quantile(prob, w) <= 0.0
                else:
                    n_undecided += 1
                    lo, hi = out.window
                    ws = Workspace(QueryContext(prob, subset), z)
                    for v in range(ws.size_min, ws.size_max + 1):
                        if lo <= v <= hi:
                            continue
                        ref = table.min_quantile(subset, z, v)
                        assert np.isnan(ref) or ref > 0.0
        assert n_undecided > 0  # the law checks must exercise all verdicts

    def test_window_endpoints_not_singletons(self):
        rng = np.random.default_rng(35)
        for prob, table, subset in _enumerate_checks(rng, 30):
            for z in range(1, len(subset) + 1):
                out = single_step(QueryContext(prob, subset), z)
                if out.verdict is not Verdict.UNDECIDED:
                    continue
                ws = Workspace(QueryContext(prob, subset), z)
                for v in out.window:
                    # A size with one candidate: its path check decided it.
                    assert v != ws.size_max
                    assert not (v == ws.size_min and z == len(subset))

    def test_scan_reads_each_size_once(self):
        rng = np.random.default_rng(38)
        for prob, table, subset in _enumerate_checks(rng, 30):
            for z in range(1, len(subset) + 1):
                assert_walk(prob, subset, z)
                assert_walk(prob, subset, z, window=(z + 1, z + 2))

    def test_exclude_child_rereads_parent_path(self):
        # Path inheritance: the pivot is the last column of the parent's
        # greedy path, so at every size an exclude child reads, its path
        # value is one its parent read as positive, and it finds no survivor.
        rng = np.random.default_rng(36)
        n_children = n_reads = 0
        for _ in range(60):
            if rng.random() < 0.5:
                stats, cfg = random_instance(rng, min_hyps=5, max_hyps=10, max_transforms=24)
                prob = SumTestProblem.from_matrix(stats, cfg)
            else:
                m, b = int(rng.integers(5, 11)), int(rng.integers(2, 12))
                prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m),
                                      int(rng.integers(1, b + 1)))
            subset = random_subset(rng, prob.n_hyps)
            for z in range(1, len(subset) + 1):
                trace = []
                evaluate_iterative(QueryContext(prob, subset), z, trace=trace)
                paths, verdicts = {}, {}
                for r in trace:
                    key = (r["forced"], r["excluded"])
                    if r["kind"] == "path":
                        paths.setdefault(key, {})[r["size"]] = r["value"]
                    elif r["kind"] == "eval":
                        verdicts[key] = r["verdict"]
                for r in trace:
                    if r["kind"] != "branch":
                        continue
                    parent = (r["forced"], r["excluded"])
                    child = (r["forced"], tuple(sorted(r["excluded"] + (r["pivot"],))))
                    n_children += 1
                    assert verdicts[child] is not Verdict.SURVIVOR_FOUND
                    for v, value in paths.get(child, {}).items():
                        assert paths[parent][v] == value > 0.0
                        n_reads += 1
        assert n_children > 150 and n_reads > 200, (n_children, n_reads)

    def test_constrained_verdicts_sound(self):
        # force/exclude a random pair, as far as that marks no overlap pick,
        # and compare against an oracle built on the restricted candidate
        # family
        rng = np.random.default_rng(37)
        n_constrained = 0
        for prob, table, subset in _enumerate_checks(rng, 25):
            m = prob.n_hyps
            cols = rng.choice(m, size=2, replace=False)
            for z in range(1, len(subset) + 1):
                state = reachable(prob, subset, z, subspace(m, cols[:1], cols[1:]))
                forced = set(np.flatnonzero(state > 0).tolist())
                excluded = set(np.flatnonzero(state < 0).tolist())
                n_constrained += bool(forced or excluded)
                out = single_step(QueryContext(prob, subset), z, state)
                truth = _constrained_all_rejected(prob, subset, z, forced, excluded)
                if out.verdict is Verdict.ALL_REJECTED:
                    assert truth
                elif out.verdict is Verdict.SURVIVOR_FOUND:
                    assert not truth
                    w = set(out.witness)
                    assert forced <= w
                    assert not (excluded & w)
        assert n_constrained > 50, n_constrained


def _constrained_all_rejected(prob, subset, z, forced, excluded):
    m = prob.n_hyps
    sset = set(subset)
    for mask in range(1 << m):
        v = {i for i in range(m) if mask >> i & 1}
        if not forced <= v or (excluded & v):
            continue
        if len(v & sset) < z:
            continue
        if not v:
            return False
        if subset_quantile(prob, tuple(sorted(v))) <= 0.0:
            return False
    return True


class TestEvaluationShape:
    def test_frozen(self):
        ev = Evaluation(Verdict.ALL_REJECTED)
        with pytest.raises(AttributeError):
            ev.verdict = Verdict.UNDECIDED
