"""Branching on pivots: exactness, budget metering, path inheritance."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sumtdp import RejectionTable, SumTestProblem, Verdict
from sumtdp import branchbound
from sumtdp.branchbound import evaluate_iterative
from sumtdp.shortcut import (
    Evaluation,
    QueryContext,
    Workspace,
    single_step,
)
from tests.util import POOL, random_instance, random_subset, subspace

TOY_SUBSET = (0, 1)


@pytest.fixture
def toy_ctx(toy_problem):
    return QueryContext(toy_problem, TOY_SUBSET)


def _pivot(ctx, overlap, state=None):
    """The pivot an undecided scan names."""
    ev = single_step(ctx, overlap, state)
    assert ev.verdict is Verdict.UNDECIDED
    return ev.pivot


class TestPivotToy:
    def test_pivot_is_best_observed(self, toy_ctx):
        # free columns minus the one reserved column (H2, smallest observed
        # inside the subset); H1 has the greatest observed statistic
        assert _pivot(toy_ctx, 1) == 0

    def test_pivot_after_excluding_it(self, toy_ctx):
        assert _pivot(toy_ctx, 1, subspace(5, excluded=(0,))) == 2

    def test_tie_goes_to_highest_index(self):
        observed = np.array([1.0, 0.0, 1.0, 1.0])
        # size 1 holds {1}, positive in both rows, beside {0}, negative in
        # the second, so the bound leaves it in doubt; from size 2 on every
        # candidate is positive
        centered = np.array([[1.0, 1.0, 1.0, 1.0], [-0.5, 1.0, 1.0, 1.0]])
        prob = SumTestProblem(centered, observed, 1)
        # column 1 is reserved (smallest observed in subset); 0, 2, 3 tie at
        # observed 1, so the pivot is column 3
        assert _pivot(QueryContext(prob, (0, 1)), 1) == 3

    def test_no_candidate_settles(self):
        # One candidate: the greedy path reaches it, so the scan decides.
        prob = SumTestProblem(np.zeros((2, 1)), np.zeros(1), 1)
        ev = single_step(QueryContext(prob, (0,)), 1)
        assert ev.verdict is Verdict.SURVIVOR_FOUND
        assert ev.pivot is None

    def test_no_candidate_raises(self, toy_ctx, monkeypatch):
        # An undecided scan with no pivot is an engine fault.
        monkeypatch.setattr(
            branchbound, "single_step",
            lambda *args, **kwargs: Evaluation(Verdict.UNDECIDED, window=(1, 1)),
        )
        with pytest.raises(RuntimeError, match="no free column"):
            evaluate_iterative(toy_ctx, 1)

    def test_marked_pivot_raises(self, toy_ctx, monkeypatch):
        # Both children of a split on column 0 name column 0 again, which
        # their states already mark: an engine fault.
        monkeypatch.setattr(
            branchbound, "single_step",
            lambda *args, **kwargs: Evaluation(Verdict.UNDECIDED, window=(1, 1), pivot=0),
        )
        with pytest.raises(RuntimeError, match="no free column .* pivot 0"):
            evaluate_iterative(toy_ctx, 1)


class TestIterativeToy:
    def test_settles_in_two_steps(self, toy_ctx):
        res = evaluate_iterative(toy_ctx, 1)
        assert res.verdict is Verdict.SURVIVOR_FOUND
        assert res.iterations == 2
        assert res.witness == (0, 3)

    def test_level_two_root_only(self, toy_ctx):
        res = evaluate_iterative(toy_ctx, 2)
        assert res.verdict is Verdict.ALL_REJECTED
        assert res.iterations == 0

    def test_budget_zero_returns_root_window(self, toy_ctx):
        res = evaluate_iterative(toy_ctx, 1, budget=0)
        assert res.verdict is Verdict.UNDECIDED
        assert res.window == (1, 3)
        assert res.iterations == 0

    def test_budget_one_still_undecided(self, toy_ctx):
        res = evaluate_iterative(toy_ctx, 1, budget=1)
        assert res.verdict is Verdict.UNDECIDED
        assert res.iterations == 1

    def test_budget_two_settles(self, toy_ctx):
        res = evaluate_iterative(toy_ctx, 1, budget=2)
        assert res.verdict is Verdict.SURVIVOR_FOUND
        assert res.iterations == 2

    def test_negative_budget_rejected(self, toy_ctx):
        with pytest.raises(RuntimeError):
            evaluate_iterative(toy_ctx, 1, budget=-1)

    def test_trace_structure(self, toy_ctx):
        trace = []
        evaluate_iterative(toy_ctx, 1, trace=trace)
        evals = [r for r in trace if r["kind"] == "eval"]
        branches = [r for r in trace if r["kind"] == "branch"]
        assert [e["index"] for e in evals] == [0, 1, 2]
        assert evals[0]["verdict"] is Verdict.UNDECIDED
        assert branches == [{
            "kind": "branch", "pivot": 0, "overlap": 1,
            "forced": (), "excluded": (),
        }]
        # child one excludes the pivot, child two forces it and finds the
        # survivor {H1, H4}
        assert evals[1]["excluded"] == (0,)
        assert evals[1]["verdict"] is Verdict.UNDECIDED
        assert evals[1]["window"] == (2, 2)
        assert evals[2]["forced"] == (0,)
        assert evals[2]["verdict"] is Verdict.SURVIVOR_FOUND
        assert evals[2]["witness"] == (0, 3)


class TestAgainstOracle:
    def test_unlimited_run_is_exact(self):
        rng = np.random.default_rng(40)
        seen = {True: 0, False: 0}
        for _ in range(30):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            table = RejectionTable(prob)
            subset = random_subset(rng, stats.n_hyps)
            for z in range(1, len(subset) + 1):
                res = evaluate_iterative(QueryContext(prob, subset), z)
                truth = table.all_overlapping_rejected(subset, z)
                assert res.verdict is not Verdict.UNDECIDED
                assert (res.verdict is Verdict.ALL_REJECTED) == truth
                seen[truth] += 1
        assert min(seen.values()) > 10

    def test_budget_prefix_property(self):
        # the tree explored under a small budget is a prefix of the tree
        # explored under a larger one, so per-eval traces must agree; deep
        # trees are rare, so hunt for them over every overlap level
        rng = np.random.default_rng(41)
        deep = []
        for _ in range(150):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            subset = random_subset(rng, stats.n_hyps)
            for z in range(1, len(subset) + 1):
                full = evaluate_iterative(QueryContext(prob, subset), z)
                if full.iterations >= 2:
                    deep.append((prob, subset, z, full))
            if len(deep) >= 6:
                break
        assert len(deep) >= 6
        for prob, subset, z, full in deep:
            full_trace = []
            evaluate_iterative(QueryContext(prob, subset), z, trace=full_trace)
            full_evals = [r for r in full_trace if r["kind"] == "eval"]
            for budget in range(full.iterations + 1):
                t = []
                res = evaluate_iterative(QueryContext(prob, subset), z, budget=budget, trace=t)
                evals = [r for r in t if r["kind"] == "eval"]
                assert evals == full_evals[: len(evals)]
                if budget < full.iterations:
                    assert res.verdict is Verdict.UNDECIDED
                    assert res.iterations == budget
                else:
                    assert res == full

    def test_monotone_in_budget(self):
        # once settled, stay settled with the same verdict as budget grows
        rng = np.random.default_rng(42)
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=8, max_transforms=24)
            prob = SumTestProblem.from_matrix(stats, cfg)
            subset = random_subset(rng, stats.n_hyps)
            z = int(rng.integers(1, len(subset) + 1))
            final = None
            for budget in range(0, 12):
                res = evaluate_iterative(QueryContext(prob, subset), z, budget=budget)
                if final is None and res.verdict is not Verdict.UNDECIDED:
                    final = res.verdict
                if final is not None:
                    assert res.verdict is final


def _branched_nodes(rng, n_problems):
    """(prob, subset, overlap, state, pivot) of every node a run splits.

    Tie-heavy problems from the value pool, every overlap of a random
    subset, each run to completion; the nodes and pivots are read from the
    ``branch`` rows of its trace.
    """
    for _ in range(n_problems):
        m, b = int(rng.integers(5, 11)), int(rng.integers(2, 12))
        prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m),
                              int(rng.integers(1, b + 1)))
        subset = random_subset(rng, m)
        for z in range(1, len(subset) + 1):
            trace = []
            evaluate_iterative(QueryContext(prob, subset), z, trace=trace)
            for r in trace:
                if r["kind"] == "branch":
                    yield prob, subset, z, subspace(m, r["forced"], r["excluded"]), r["pivot"]


class TestPathInheritance:
    # Excluding the pivot never touches the greedy path at sizes the child
    # can still reach, which is why the exclude child's path checks find
    # nothing its ancestors did not already read.
    def test_exclude_child_keeps_parent_paths(self):
        checked = 0
        for prob, subset, z, state, pivot in _branched_nodes(np.random.default_rng(43), 40):
            if state.any():
                continue
            parent = Workspace(QueryContext(prob, subset), z)
            child = Workspace(QueryContext(prob, subset), z, subspace(prob.n_hyps, excluded=(pivot,)))
            checked += 1
            for v in range(child.size_min, child.size_max + 1):
                assert parent.path_set(v) == child.path_set(v)
                assert parent.path_value(v) == child.path_value(v)
        assert checked >= 20

    def test_inheritance_holds_in_nested_subspaces(self):
        checked = 0
        for prob, subset, z, state, pivot in _branched_nodes(np.random.default_rng(44), 40):
            if not state.any():
                continue
            parent = Workspace(QueryContext(prob, subset), z, state)
            state = state.copy()
            state[pivot] = -1
            child = Workspace(QueryContext(prob, subset), z, state)
            checked += 1
            for v in range(child.size_min, child.size_max + 1):
                assert parent.path_set(v) == child.path_set(v)
                assert parent.path_value(v) == child.path_value(v)
        assert checked >= 15


class TestSubspaceStates:
    def test_loop_never_marks_an_overlap_pick(self):
        # The picks are the first `needed` subset columns by (observed,
        # index), `needed` the overlap less the forced subset columns; the
        # scan relies on every state the loop builds leaving them free.
        rng = np.random.default_rng(46)
        n_states = n_subset_marks = 0
        for _ in range(150):
            stats, cfg = random_instance(rng, min_hyps=6, max_hyps=14, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            subset = random_subset(rng, stats.n_hyps)
            by_observed = sorted(subset, key=lambda i: (prob.observed[i], i))
            for z in range(1, len(subset) + 1):
                trace = []
                evaluate_iterative(QueryContext(prob, subset), z, trace=trace)
                for r in trace:
                    if r["kind"] != "eval" or r["index"] == 0:
                        continue
                    needed = max(z - len(set(r["forced"]) & set(subset)), 0)
                    marked = set(r["forced"]) | set(r["excluded"])
                    assert marked and not marked & set(by_observed[:needed])
                    n_states += 1
                    n_subset_marks += bool(marked & set(subset))
        assert n_states > 150 and n_subset_marks > 100, (n_states, n_subset_marks)


class TestWitnesses:
    def test_witness_is_surviving_candidate(self):
        rng = np.random.default_rng(45)
        from sumtdp import subset_quantile
        found = 0
        for _ in range(30):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            subset = random_subset(rng, stats.n_hyps)
            z = int(rng.integers(1, len(subset) + 1))
            res = evaluate_iterative(QueryContext(prob, subset), z)
            if res.verdict is not Verdict.SURVIVOR_FOUND:
                continue
            found += 1
            w = res.witness
            assert len(set(w) & set(subset)) >= z
            assert subset_quantile(prob, w) <= 0.0
        assert found >= 5


def _branching_runs(rng, n_problems):
    """(prob, subset, overlap) of tie-heavy runs to completion, every overlap."""
    for _ in range(n_problems):
        m, b = int(rng.integers(5, 11)), int(rng.integers(2, 12))
        prob = SumTestProblem(rng.choice(POOL, (b, m)), rng.choice(POOL, m),
                              int(rng.integers(1, b + 1)))
        subset = random_subset(rng, m)
        for z in range(1, len(subset) + 1):
            yield prob, subset, z


def _excludes(state, parent):
    return parent is not None and bool(state[parent.pivot] < 0)


class TestCarriedReads:
    """A child scan takes its parent's forced sum, path values and order."""

    def test_children_scan_as_without_a_parent(self, monkeypatch):
        # Each child scan, rerun on a fresh context with no parent, gives
        # the same evaluation and the same trace rows.
        real, kinds = branchbound.single_step, Counter()

        def twice(ctx, overlap, state=None, window=None, trace=None, parent=None):
            got, want = [], []
            ev = real(ctx, overlap, state, window=window, trace=got, parent=parent)
            alone = real(QueryContext(ctx.prob, ctx.subset), overlap, state, window=window, trace=want)
            assert (ev, got) == (alone, want)
            if parent is not None:
                kinds[_excludes(state, parent)] += 1
            return ev

        monkeypatch.setattr(branchbound, "single_step", twice)
        for prob, subset, z in _branching_runs(np.random.default_rng(47), 40):
            evaluate_iterative(QueryContext(prob, subset), z)
        assert min(kinds[True], kinds[False]) > 50, kinds

    def test_exclude_children_read_no_path(self, monkeypatch):
        # No path table is built or read in an exclude child's scan, yet
        # its trace keeps a path row for every size its bound leaves open.
        real, scan, calls, rows = branchbound.single_step, [], Counter(), Counter()

        def step(ctx, overlap, state=None, window=None, trace=None, parent=None):
            scan.append(_excludes(state, parent))
            start = len(trace)
            try:
                return real(ctx, overlap, state, window=window, trace=trace, parent=parent)
            finally:
                rows[scan.pop()] += sum(r["kind"] == "path" for r in trace[start:])

        def counted(name):
            method = getattr(Workspace, name)

            def hooked(self, *args):
                calls[scan[-1] if scan else False, name] += 1
                return method(self, *args)
            return hooked

        monkeypatch.setattr(branchbound, "single_step", step)
        for name in ("path_value", "path_sums", "_paths"):
            monkeypatch.setattr(Workspace, name, counted(name))
        for prob, subset, z in _branching_runs(np.random.default_rng(48), 40):
            evaluate_iterative(QueryContext(prob, subset), z, trace=[])
        assert not [key for key in calls if key[0]], calls
        assert calls[False, "path_value"] > 100 and rows[True] > 50, (calls, rows)

    def test_missing_carried_size_is_engine_fault(self):
        # An exclude child whose bound leaves a size open, handed a parent
        # that carries no path value there.
        faults = 0
        for prob, subset, z in _branching_runs(np.random.default_rng(49), 40):
            ctx = QueryContext(prob, subset)
            root = single_step(ctx, z)
            if root.verdict is not Verdict.UNDECIDED:
                continue
            child = subspace(prob.n_hyps, excluded=(root.pivot,))
            trace = []
            single_step(ctx, z, child, window=root.window, trace=trace, parent=root)
            if any(r["kind"] == "path" for r in trace):
                with pytest.raises(RuntimeError, match="carries no path value"):
                    single_step(ctx, z, child, window=root.window, parent=replace(root, paths={}))
                faults += 1
        assert faults >= 10
