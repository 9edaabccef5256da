"""Single-step scan: bounds, greedy paths, shape indices, verdicts."""

import numpy as np
import pytest

from sumtdp import (
    FREE,
    Evaluation,
    RejectionTable,
    SubspaceConstraint,
    SumTestProblem,
    TestConfig,
    TraceLog,
    Verdict,
    Workspace,
    pick_pivot,
    single_step,
    subset_quantile,
)
from sumtdp.shortcut import QueryContext
from tests.util import POOL, random_instance, random_subset

TOY_SUBSET = (0, 1)


def _workspace(prob, overlap=1, constraint=FREE):
    return Workspace(prob, TOY_SUBSET, overlap, constraint)


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

    def test_arrays_read_only(self, toy_problem):
        with pytest.raises(ValueError):
            toy_problem.centered[0, 0] = 1.0
        with pytest.raises(ValueError):
            toy_problem.observed[0] = 1.0


class TestConstraint:
    def test_force_exclude_builders(self):
        c = FREE.force(2).exclude(4)
        assert c.forced == frozenset({2})
        assert c.excluded == frozenset({4})

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="forced and excluded"):
            SubspaceConstraint(frozenset({1}), frozenset({1}))

    def test_free_is_empty(self):
        assert FREE.forced == frozenset()
        assert FREE.excluded == frozenset()


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

    def test_overlap_validation(self, toy_problem):
        with pytest.raises(ValueError, match="overlap"):
            Workspace(toy_problem, TOY_SUBSET, 0)
        with pytest.raises(ValueError, match="overlap"):
            Workspace(toy_problem, TOY_SUBSET, 3)

    def test_constraint_column_range(self, toy_problem):
        with pytest.raises(ValueError, match="out of range"):
            Workspace(toy_problem, TOY_SUBSET, 1, FREE.exclude(9))

    def test_forced_subset_member_lowers_needed(self, toy_problem):
        ws = Workspace(toy_problem, TOY_SUBSET, 2, FREE.force(0))
        assert ws.size_min == 2  # one forced + one still needed
        assert not ws.infeasible

    def test_infeasible_subspace(self, toy_problem):
        ws = Workspace(toy_problem, TOY_SUBSET, 2, FREE.exclude(0))
        assert ws.infeasible

    def test_context_of_another_problem_rejected(self, toy_problem, toy_stats, toy_cfg):
        other = SumTestProblem.from_matrix(toy_stats, toy_cfg)
        ctx = QueryContext(other, TOY_SUBSET)
        with pytest.raises(ValueError, match="another problem"):
            Workspace(toy_problem, ctx, 1)
        assert Workspace(other, ctx, 1).subset == TOY_SUBSET


class TestSortedBlockReuse:
    """Scans sharing a context reuse or trim its sorted block, same tables."""

    SUBSET = tuple(range(9))  # columns 9-11 lie outside

    def _problem(self):
        rng = np.random.default_rng(404)
        cen = rng.choice(POOL, size=(15, 12))
        obs = rng.choice(POOL, size=12)
        # Pivots in observed order: 11 (outside S), then 8 and 7 (inside).
        obs[[11, 8, 7]] = (5.0, 4.0, 3.0)
        # Column 8 ties column 3 everywhere, and +0 meets -0 in some rows.
        cen[:, 8] = cen[:, 3]
        cen[:4, 8], cen[:4, 3] = 0.0, -0.0
        return SumTestProblem(cen, obs, 4)

    @staticmethod
    def _signs(tables):
        # == cannot tell -0.0 from 0.0; the sign bits can.
        return [np.signbit(values).tolist() for values in tables[1:]]

    @staticmethod
    def _tables(ws):
        sizes = range(ws.size_min, ws.size_max + 1)
        return (
            (ws.size_min, ws.size_max, ws.drop_end, ws.rise_start),
            [ws.bound_value(v) for v in sizes],
            [ws.path_value(v) for v in sizes],
        )

    def test_branch_order_matches_fresh_contexts(self):
        prob = self._problem()
        for overlap in (1, 3, 5, 9):
            ctx = QueryContext(prob, self.SUBSET)
            # Root, then each level's exclude and force child down the
            # exclude spine, then the deferred force children, deepest first.
            order, deferred, cons = [FREE], [], FREE
            for _ in range(3):
                pivot = pick_pivot(prob, ctx, overlap, cons)
                order += [cons.exclude(pivot), cons.force(pivot)]
                deferred.append(cons.force(pivot))
                cons = cons.exclude(pivot)
            order += deferred[::-1]
            for cons in order:
                shared = Workspace(prob, ctx, overlap, cons)
                fresh = Workspace(prob, self.SUBSET, overlap, cons)
                assert shared.infeasible == fresh.infeasible
                if not fresh.infeasible:
                    assert self._tables(shared) == self._tables(fresh)
                    assert self._signs(self._tables(shared)) == self._signs(
                        self._tables(fresh))

    def test_siblings_share_and_children_trim(self):
        prob = self._problem()
        ctx = QueryContext(prob, self.SUBSET)
        Workspace(prob, ctx, 3)
        root = ctx.sorted_block[1]
        assert root.shape == (15, 9) and not root.flags.writeable
        # Pivot 11 lies outside S: both children keep the root's block.
        Workspace(prob, ctx, 3, FREE.exclude(11))
        Workspace(prob, ctx, 3, FREE.force(11))
        assert ctx.sorted_block[1] is root
        # Pivot 8 lies inside S: the exclude child trims one value per row
        # (a tied one, +0 against -0 in some rows) and the force sibling
        # reuses that block.
        Workspace(prob, ctx, 3, FREE.exclude(11).exclude(8))
        trimmed = ctx.sorted_block[1]
        mask = np.ones(12, dtype=bool)
        mask[[8, 9, 10, 11]] = False
        assert np.array_equal(ctx.sorted_block[0], mask)
        fresh = np.sort(prob.centered[:, :8], axis=1)
        assert np.array_equal(trimmed, fresh)
        assert np.array_equal(np.signbit(trimmed), np.signbit(fresh))
        Workspace(prob, ctx, 3, FREE.exclude(11).force(8))
        assert ctx.sorted_block[1] is trimmed

    def test_negative_zeros_stored_as_zero(self):
        # numpy's sorts may swap or merge the signs of tied zeros, so a
        # block trimmed from its parent could disagree with a fresh sort.
        prob = self._problem()
        zeros = prob.centered[prob.centered == 0]
        assert zeros.size and not np.signbit(zeros).any()

    def test_inconsistent_slot_is_internal_error(self):
        prob = self._problem()
        ctx = QueryContext(prob, self.SUBSET)
        held = ctx.in_subset.copy()
        block = np.sort(prob.centered[:, :9], axis=1) + 10.0  # no column's values
        ctx.sorted_block = (held, block)
        smaller = held.copy()
        smaller[8] = False
        with pytest.raises(RuntimeError, match="sorted block"):
            ctx.sorted_rows(smaller)


class TestSingleStepToy:
    def test_level_two_all_rejected(self, toy_problem):
        out = single_step(toy_problem, TOY_SUBSET, 2)
        assert out.verdict is Verdict.ALL_REJECTED

    def test_level_one_undecided(self, toy_problem):
        out = single_step(toy_problem, TOY_SUBSET, 1)
        assert out.verdict is Verdict.UNDECIDED
        assert out.window == (1, 3)

    def test_level_zero_survivor(self, toy_problem):
        out = single_step(toy_problem, TOY_SUBSET, 0)
        assert out.verdict is Verdict.SURVIVOR_FOUND
        assert out.witness == ()

    def test_level_above_size(self, toy_problem):
        out = single_step(toy_problem, TOY_SUBSET, 3)
        assert out.verdict is Verdict.ALL_REJECTED

    def test_window_restriction(self, toy_problem):
        # sizes 4..5 were certified by the bound in the full scan
        out = single_step(toy_problem, TOY_SUBSET, 1, window=(4, 5))
        assert out.verdict is Verdict.ALL_REJECTED

    def test_window_clamped_empty(self, toy_problem):
        out = single_step(toy_problem, TOY_SUBSET, 1, window=(6, 9))
        assert out.verdict is Verdict.ALL_REJECTED

    def test_infeasible_vacuous(self, toy_problem):
        out = single_step(toy_problem, TOY_SUBSET, 2, FREE.exclude(0))
        assert out.verdict is Verdict.ALL_REJECTED

    def test_trace_rows(self, toy_problem):
        trace = TraceLog()
        single_step(toy_problem, TOY_SUBSET, 1, trace=trace)
        kinds = {r["kind"] for r in trace.rows}
        assert kinds == {"bound", "path"}
        sizes = sorted(r["size"] for r in trace.rows if r["kind"] == "bound")
        assert sizes == [1, 2, 3, 4]  # scan stopped after size 4 went positive
        for r in trace.rows:
            assert r["overlap"] == 1
            assert r["forced"] == ()
            assert r["excluded"] == ()

    def test_positive_read_past_rise_start_ends_scan(self, toy_problem):
        # Size 4 is the smallest and reads positive at or past rise_start,
        # so size 5 is positive too and is not read.
        trace = TraceLog()
        out = single_step(toy_problem, (0, 1, 2, 3, 4), 4, trace=trace)
        assert out.verdict is Verdict.ALL_REJECTED
        assert [(r["kind"], r["size"]) for r in trace.rows] == [("bound", 4)]


def assert_walk(prob, subset, overlap, constraint=FREE, window=None):
    """The scan reads sizes down from min(drop_end, hi), then up above it, once each."""
    trace = TraceLog()
    single_step(prob, subset, overlap, constraint, window=window, trace=trace)
    reads = [(r["size"], r["value"]) for r in trace.rows if r["kind"] == "bound"]
    if not reads:
        return
    sizes = [v for v, _ in reads]
    ws = Workspace(prob, subset, overlap, constraint)
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
                ws = Workspace(prob, subset, z)
                if ws.infeasible:
                    continue
                for v in range(ws.size_min, ws.size_max + 1):
                    ref = table.min_quantile(subset, z, v)
                    assert ws.bound_value(v) <= ref + 1e-9

    def test_path_candidates_are_feasible_and_exact(self):
        rng = np.random.default_rng(31)
        for prob, table, subset in _enumerate_checks(rng, 25):
            for z in range(1, len(subset) + 1):
                ws = Workspace(prob, subset, z)
                if ws.infeasible:
                    continue
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
                ws = Workspace(prob, subset, z)
                if ws.infeasible:
                    continue
                for v in range(ws.size_min, ws.size_max + 1):
                    assert ws.bound_value(v) <= ws.path_value(v) + 1e-9

    def test_shape_indices_hold(self):
        rng = np.random.default_rng(33)
        for prob, table, subset in _enumerate_checks(rng, 25):
            for z in range(1, len(subset) + 1):
                ws = Workspace(prob, subset, z)
                if ws.infeasible:
                    continue
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
                out = single_step(prob, subset, z)
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
                    ws = Workspace(prob, subset, z)
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
                out = single_step(prob, subset, z)
                if out.verdict is not Verdict.UNDECIDED:
                    continue
                ws = Workspace(prob, subset, z)
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

    def test_skipping_path_only_delays(self):
        # without path checks the verdict may stay UNDECIDED, but whenever it
        # is decided it must agree with the path-enabled run
        rng = np.random.default_rng(36)
        for prob, table, subset in _enumerate_checks(rng, 30):
            for z in range(1, len(subset) + 1):
                full = single_step(prob, subset, z, want_path=True)
                lazy = single_step(prob, subset, z, want_path=False)
                assert lazy.verdict is not Verdict.SURVIVOR_FOUND
                if lazy.verdict is Verdict.ALL_REJECTED:
                    assert full.verdict is Verdict.ALL_REJECTED
                if full.verdict is Verdict.UNDECIDED:
                    assert lazy == full

    def test_constrained_verdicts_sound(self):
        # force/exclude a random pair and compare against an oracle built on
        # the restricted candidate family
        rng = np.random.default_rng(37)
        for prob, table, subset in _enumerate_checks(rng, 25):
            m = prob.n_hyps
            cols = rng.choice(m, size=2, replace=False)
            constraint = FREE.force(int(cols[0])).exclude(int(cols[1]))
            for z in range(1, len(subset) + 1):
                out = single_step(prob, subset, z, constraint)
                truth = _constrained_all_rejected(
                    prob, subset, z, constraint)
                if out.verdict is Verdict.ALL_REJECTED:
                    assert truth
                elif out.verdict is Verdict.SURVIVOR_FOUND:
                    assert not truth
                    w = set(out.witness)
                    assert constraint.forced <= w
                    assert not (constraint.excluded & w)


def _constrained_all_rejected(prob, subset, z, constraint):
    m = prob.n_hyps
    sset = set(subset)
    for mask in range(1 << m):
        v = {i for i in range(m) if mask >> i & 1}
        if not constraint.forced <= v or (constraint.excluded & v):
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
