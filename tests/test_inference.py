"""Discovery bounds: bisection, budgets, prefix search."""

import itertools

import numpy as np
import pytest

from sumtdp import (
    RejectionTable,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    Verdict,
    discoveries,
    discoveries_matrix,
    largest_subset,
    reduce_columns,
    reject,
    subset_quantile,
    truncate,
    TruncationRule,
)
from sumtdp import inference
from sumtdp.branchbound import evaluate_iterative
from sumtdp.inference import _probe
from sumtdp.shortcut import QueryContext
from tests.util import random_instance, random_subset

TOY_SUBSET = (0, 1)


class TestDiscoveriesToy:
    def test_counts(self, toy_problem):
        res = discoveries(toy_problem, TOY_SUBSET)
        assert res.discoveries == 1
        assert res.overlap_cap == 1
        assert res.tdp == 0.5
        assert res.converged
        assert res.d_upper == 1
        assert res.n_queried == 2

    def test_levels(self, toy_problem):
        res = discoveries(toy_problem, TOY_SUBSET)
        assert res.levels == (
            (2, Verdict.ALL_REJECTED, 1),
            (1, Verdict.SURVIVOR_FOUND, 3),
        )
        assert res.evals == 4

    def test_full_set(self, toy_problem):
        res = discoveries(toy_problem, (0, 1, 2, 3, 4))
        assert res.discoveries == 2
        assert res.converged

    def test_negative_budgets_rejected(self, toy_problem):
        with pytest.raises(ValueError):
            discoveries(toy_problem, TOY_SUBSET, step_budget=-1)

    @pytest.mark.parametrize("budget", [2.5, True, "3"])
    def test_non_integer_budgets_rejected(self, toy_problem, budget):
        # never run as some other budget (2.5 as 2, True as 1)
        with pytest.raises(ValueError, match="step_budget must be None or a nonnegative integer"):
            discoveries(toy_problem, TOY_SUBSET, step_budget=budget)

    def test_numpy_integer_budget(self, toy_problem):
        want = discoveries(toy_problem, TOY_SUBSET, step_budget=3)
        assert discoveries(toy_problem, TOY_SUBSET, step_budget=np.int64(3)) == want

    def test_fractional_columns_rejected(self, toy_problem):
        # not silently queried as columns (0, 1)
        with pytest.raises(ValueError, match="not an integer"):
            discoveries(toy_problem, [0.9, 1.2])

    def test_trace_collects_all_levels(self, toy_problem):
        trace = []
        discoveries(toy_problem, TOY_SUBSET, trace=trace)
        overlaps = {r["overlap"] for r in trace}
        assert overlaps == {1, 2}


class TestAgainstOracle:
    def test_exact_counts(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            table = RejectionTable(prob)
            for _ in range(6):
                sub = random_subset(rng, stats.n_hyps)
                res = discoveries(prob, sub)
                assert res.converged
                assert res.overlap_cap == table.max_nonrejected_overlap(sub)
                assert res.discoveries == len(sub) - res.overlap_cap

    def test_level_count_is_logarithmic(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            stats, cfg = random_instance(rng)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            res = discoveries(prob, sub)
            assert len(res.levels) <= (len(sub) + 1).bit_length()

    def test_full_set_positive_iff_global_rejection(self):
        rng = np.random.default_rng(52)
        seen = {True: 0, False: 0}
        for _ in range(30):
            stats, cfg = random_instance(rng)
            prob = SumTestProblem.from_matrix(stats, cfg)
            full = tuple(range(stats.n_hyps))
            res = discoveries(prob, full)
            assert res.converged
            rejected = reject(prob, full)
            assert (res.discoveries > 0) == rejected
            seen[rejected] += 1
        assert min(seen.values()) > 3


class TestBudgets:
    def test_monotone_in_step_budget(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=10, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            exact = discoveries(prob, sub).discoveries
            prev = -1
            for h in (0, 1, 2, 4, 8, None):
                d = discoveries(prob, sub, step_budget=h).discoveries
                assert d >= prev
                assert d <= exact
                prev = d
            assert prev == exact

    def test_budget_never_overcounts(self):
        # a truncated run must never report more discoveries than the exact
        # run, whatever the cap
        rng = np.random.default_rng(55)
        for _ in range(10):
            stats, cfg = random_instance(rng, max_hyps=10, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            exact = discoveries(prob, sub).discoveries
            for sb in (0, 1, 5, None):
                res = discoveries(prob, sub, step_budget=sb)
                assert res.discoveries <= exact
                if sb is None:
                    assert res.converged


class TestProbeRule:
    def test_probe_inside_bracket_and_level_cap(self):
        # worst[w]: most levels any sequence of answers needs to close a
        # bracket (lo, lo + w), following the probe into either side
        widths = 4097 + 1
        worst = [0] * widths
        for w in range(2, widths):
            for lo in (0, 5):
                z = _probe(lo, lo + w)
                assert lo < lo + w // 2 <= z < lo + w
            z = _probe(0, w)
            worst[w] = 1 + max(worst[z], worst[w - z])
        for s in range(4097):
            assert worst[s + 1] <= (s + 1).bit_length()

    def test_same_answer_as_midpoint_bisection(self):
        def midpoint_discoveries(prob, sub):
            lo, hi = 0, len(sub) + 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                verdict = evaluate_iterative(QueryContext(prob, sub), mid).verdict
                if verdict is Verdict.ALL_REJECTED:
                    hi = mid
                else:
                    assert verdict is Verdict.SURVIVOR_FOUND
                    lo = mid
            return len(sub) - lo

        rng = np.random.default_rng(59)
        for _ in range(25):
            stats, cfg = random_instance(rng)
            prob = SumTestProblem.from_matrix(stats, cfg)
            for _ in range(4):
                sub = random_subset(rng, stats.n_hyps)
                res = discoveries(prob, sub)
                assert res.converged
                assert res.discoveries == midpoint_discoveries(prob, sub)


class TestBracket:
    def test_bracket_holds_under_budgets(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=10, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            exact = discoveries(prob, sub).discoveries
            for sb in (0, 1, 5, None):
                res = discoveries(prob, sub, step_budget=sb)
                assert res.discoveries <= exact <= res.d_upper <= len(sub)
                if res.converged:
                    assert res.d_upper == res.discoveries


class TestSearchOrderGolden:
    def test_budgeted_full_set_query(self):
        # Recorded when the probe became top-biased: any change in probe
        # rule, pivot choice or scan order moves the levels.
        rng = np.random.default_rng(7)
        values = rng.normal(size=(100, 300))
        values[0, :60] += 3.0
        prob = SumTestProblem.from_matrix(StatisticMatrix(values), TestConfig(0.05, 100))
        res = discoveries(prob, range(300), step_budget=20)
        assert (res.discoveries, res.converged, res.evals) == (29, False, 63)
        assert res.levels == (
            (256, Verdict.SURVIVOR_FOUND, 1),
            (288, Verdict.ALL_REJECTED, 1),
            (272, Verdict.ALL_REJECTED, 17),
            (264, Verdict.SURVIVOR_FOUND, 1),
            (268, Verdict.SURVIVOR_FOUND, 1),
            (270, Verdict.UNDECIDED, 21),
            (271, Verdict.UNDECIDED, 21),
        )
        # survivors certified up to overlap 268 of 300
        assert res.d_upper == 32


def _mixed_queries(seed, n_instances):
    """Seeded (problem, subset, step budget) draws, d = 0 and d > 0 mixed."""
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        stats, cfg = random_instance(rng, max_hyps=14, max_transforms=40)
        prob = SumTestProblem.from_matrix(stats, cfg)
        for _ in range(4):
            sub = random_subset(rng, stats.n_hyps)
            rng.integers(7)  # the draw that once picked a per-query scan cap
            yield prob, sub, (None, 0, 1, 2, 4)[int(rng.integers(5))]


class TestLift:
    """A level's survivor W lifted to W ∪ S, which certifies d = 0 when it survives."""

    def test_never_worse_than_without(self, monkeypatch):
        real = inference._lifts
        n_zero = n_positive = n_lifted = 0
        for prob, sub, sb in _mixed_queries(90, 60):
            monkeypatch.setattr(inference, "_lifts", lambda *args: False)
            ref = discoveries(prob, sub, step_budget=sb)
            monkeypatch.setattr(inference, "_lifts", real)
            res = discoveries(prob, sub, step_budget=sb)
            assert res.discoveries == ref.discoveries
            assert res.evals <= ref.evals
            # Equal on every seeded query: wherever a lift certifies d = 0,
            # the plain climb's top level |S| settles within the step budget.
            assert res.converged == ref.converged
            if sb is None:
                assert res.converged
            if ref.discoveries > 0:
                assert res.levels == ref.levels
                n_positive += 1
            else:
                n_zero += 1
                n_lifted += res.levels != ref.levels
        assert n_zero + n_positive >= 200
        assert min(n_zero, n_positive, n_lifted) > 20

    def test_decision_is_the_sum_test(self, monkeypatch):
        real = inference._lifts
        calls = []

        def spy(prob, ctx, found, trace):
            lifted = real(prob, ctx, found, trace)
            calls.append((prob, set(ctx.subset) | set(found.witness), lifted))
            return lifted

        monkeypatch.setattr(inference, "_lifts", spy)
        for prob, sub, sb in _mixed_queries(91, 30):
            discoveries(prob, sub, step_budget=sb)
        assert {lifted for _, _, lifted in calls} == {True, False}
        for prob, members, lifted in calls:
            assert lifted == (not reject(prob, sorted(members)))

    def test_exact_against_oracle(self):
        rng = np.random.default_rng(92)
        n_lifts = 0
        for _ in range(30):
            stats, cfg = random_instance(rng, max_hyps=8, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            table = RejectionTable(prob)
            for _ in range(6):
                sub = random_subset(rng, stats.n_hyps)
                trace = []
                res = discoveries(prob, sub, trace=trace)
                assert res.converged
                assert res.discoveries == len(sub) - table.max_nonrejected_overlap(sub)
                lifts = [r for r in trace if r["kind"] == "lift"]
                if lifts:
                    n_lifts += 1
                    assert res.discoveries == res.d_upper == 0
                    assert set(sub) <= set(lifts[0]["witness"])
                    assert not reject(prob, lifts[0]["witness"])
        assert n_lifts > 10

    def test_toy_zero_discovery_query(self, toy_problem):
        trace = []
        res = discoveries(toy_problem, (0, 3, 4), trace=trace)
        assert res.levels == ((3, Verdict.SURVIVOR_FOUND, 1),)
        assert (res.discoveries, res.d_upper, res.evals) == (0, 0, 1)
        assert res.converged
        lifts = [r for r in trace if r["kind"] == "lift"]
        assert lifts == [{"kind": "lift", "overlap": 3, "witness": (0, 3, 4), "value": -1.0}]
        assert trace[-1] is lifts[0]

    def test_no_check_after_all_rejected(self, monkeypatch):
        events = []
        real_lifts, real_eval = inference._lifts, inference.evaluate_iterative

        def lifts(*args):
            events.append("check")
            return real_lifts(*args)

        def evaluate(*args, **kwargs):
            res = real_eval(*args, **kwargs)
            events.append(res.verdict)
            return res

        monkeypatch.setattr(inference, "_lifts", lifts)
        monkeypatch.setattr(inference, "evaluate_iterative", evaluate)
        n_refuted = 0
        for prob, sub, sb in _mixed_queries(93, 30):
            events.clear()
            discoveries(prob, sub, step_budget=sb)
            if Verdict.ALL_REJECTED in events:
                n_refuted += 1
                assert "check" not in events[events.index(Verdict.ALL_REJECTED):]
        assert n_refuted > 20


class TestReductionEquivalence:
    def test_toy_truncated(self, toy_stats, toy_cfg):
        trunc = truncate(toy_stats, TruncationRule(threshold=2.0, ground=0.0))
        plain = discoveries_matrix(trunc, toy_cfg, TOY_SUBSET)
        reduced = discoveries_matrix(trunc, toy_cfg, TOY_SUBSET, reduction_ground=0.0)
        assert plain.discoveries == reduced.discoveries
        assert reduced.subset == TOY_SUBSET
        assert plain.reduction is None
        assert reduced.reduction == {"m_reduced": 3, "removed": 1, "collapsed": 2}

    def test_random_truncated(self):
        rng = np.random.default_rng(56)
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=24)
            cut = float(np.quantile(stats.values, 0.7))
            ground = float(stats.values.min()) - 1.0
            trunc = truncate(stats, TruncationRule(threshold=cut, ground=ground))
            sub = random_subset(rng, stats.n_hyps)
            plain = discoveries_matrix(trunc, cfg, sub)
            reduced = discoveries_matrix(trunc, cfg, sub, reduction_ground=ground)
            assert plain.discoveries == reduced.discoveries
            assert plain.overlap_cap == reduced.overlap_cap
            red = reduce_columns(trunc, sub, ground=ground)
            assert plain.reduction is None
            assert reduced.reduction == {
                "m_reduced": red.stats.n_hyps,
                "removed": len(red.removed),
                "collapsed": len(red.collapsed),
            }

    def test_problem_with_ground_reduces_every_query(self):
        # discoveries and largest_subset on the problem built with the
        # ground answer as on the one built without it
        rng = np.random.default_rng(29)
        reduced_queries = 0
        for _ in range(15):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=24)
            cut = float(np.quantile(stats.values, 0.7))
            ground = float(stats.values.min()) - 1.0
            trunc = truncate(stats, TruncationRule(threshold=cut, ground=ground))
            plain = SumTestProblem.from_matrix(trunc, cfg)
            grounded = SumTestProblem.from_matrix(trunc, cfg, ground=ground)
            for _ in range(4):
                sub = random_subset(rng, stats.n_hyps)
                a, b = discoveries(plain, sub), discoveries(grounded, sub)
                assert (b.subset, b.discoveries, b.converged) == (a.subset, a.discoveries, True)
                reduced_queries += b.reduction["m_reduced"] < stats.n_hyps
            order = tuple(rng.permutation(stats.n_hyps).tolist())
            for gamma in (0.2, 0.5, 0.9):
                a, b = (largest_subset(p, gamma, order=order) for p in (plain, grounded))
                assert (a is None) == (b is None)
                if a is not None:
                    assert (b.subset, b.discoveries) == (a.subset, a.discoveries)
        assert reduced_queries >= 10

    def test_merged_observed_sum_overflows(self):
        # three columns observed at a ground of -1e308 merge into one whose
        # observed statistic sums past the float range
        values = np.full((6, 4), -1e308)
        values[:, 0] = [6, 2, 3, 2, 5, 2]
        for j in (1, 2, 3):
            values[j, j] = 8.0
        stats, cfg = StatisticMatrix(values), TestConfig(0.5, 6)
        plain = discoveries_matrix(stats, cfg, [0])
        reduced = discoveries_matrix(stats, cfg, [0], reduction_ground=-1e308)
        assert reduced.reduction == {"m_reduced": 2, "removed": 0, "collapsed": 3}
        assert plain.discoveries == reduced.discoveries == 0

    @pytest.mark.parametrize("case", ["dropped", "merged"])
    def test_columns_that_set_the_step(self, case):
        # The dropped column holds the largest magnitude, or the merged
        # column's sums exceed every entry: the reduced problem still sums
        # on the full problem's grid, so every verdict and count is the same.
        rng = np.random.default_rng(3)
        values = rng.choice([0.0, 0.001, 0.002, 0.003], (16, 8))
        values[0, :4] = rng.choice([0.002, 0.004, 0.01], 4)
        values[0, 5:] = 0.0  # observed at the ground: merged
        values[1:, 4] = 0.0  # transformed rows at the ground: dropped
        values[0, 4] = 1e13 if case == "dropped" else 0.5
        if case == "merged":
            values[1, 5:] = 3e12
        stats, cfg = StatisticMatrix(values), TestConfig(0.2, 16)
        full = SumTestProblem.from_matrix(stats, cfg)
        red = reduce_columns(stats, (0, 1, 2, 3), ground=0.0)
        assert (red.removed, red.collapsed) == ((4,), (5, 6, 7))
        small = full.restricted(red.kept, red.collapsed)
        assert small.centered.T.flags.c_contiguous
        members = [(0,), (1,), (2,), (3,), red.collapsed]  # of each reduced column
        for mask in range(1, 1 << 5):
            own = [i for i in range(5) if mask >> i & 1]
            expanded = [j for i in own for j in members[i]]
            assert subset_quantile(small, own) == subset_quantile(full, expanded)
        for r in range(1, 5):
            for sub in itertools.combinations(range(4), r):
                plain = discoveries_matrix(stats, cfg, sub)
                reduced = discoveries_matrix(stats, cfg, sub, reduction_ground=0.0)
                assert plain.discoveries == reduced.discoveries, sub


class TestLargestSubset:
    def test_toy_half(self, toy_problem):
        res = largest_subset(toy_problem, 0.5)
        assert res.tdp == 0.5
        assert res.subset == (0, 1, 2, 3)

    def test_gamma_zero_returns_full_set(self, toy_problem):
        res = largest_subset(toy_problem, 0.0)
        assert res.subset == (0, 1, 2, 3, 4)

    def test_none_qualifies(self):
        # no signal at all: nothing is ever rejected, d = 0 for every prefix
        rng = np.random.default_rng(57)
        vals = rng.normal(size=(20, 6))
        vals[0] = vals[1:].min(axis=0) - 1.0  # observed smallest everywhere
        stats = StatisticMatrix(vals)
        cfg = TestConfig(0.2, 20)
        prob = SumTestProblem.from_matrix(stats, cfg)
        assert largest_subset(prob, 0.9) is None

    def test_matches_downward_scan(self):
        rng = np.random.default_rng(58)
        for _ in range(12):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=24)
            prob = SumTestProblem.from_matrix(stats, cfg)
            m = stats.n_hyps
            order = tuple(np.argsort(-stats.observed).tolist())
            for gamma in (0.3, 0.5, 0.8, 1.0):
                res = largest_subset(prob, gamma, order=order)
                best = 0
                for k in range(m, 0, -1):
                    if discoveries(prob, order[:k]).tdp >= gamma:
                        best = k
                        break
                assert (0 if res is None else len(res.subset)) == best

    def test_order_validation(self, toy_problem):
        with pytest.raises(ValueError, match="permutation"):
            largest_subset(toy_problem, 0.5, order=(0, 1))
        with pytest.raises(ValueError, match="not an integer"):
            largest_subset(toy_problem, 0.5, order=(0.9, 1, 2, 3, 4.2))
        with pytest.raises(ValueError, match="not a number"):
            largest_subset(toy_problem, 0.5, order=(False, True, 2, 3, 4))
        floats = largest_subset(toy_problem, 0.5, order=(4.0, 3.0, 2.0, 1.0, 0.0))
        assert floats == largest_subset(toy_problem, 0.5, order=(4, 3, 2, 1, 0))
        with pytest.raises(ValueError, match="gamma"):
            largest_subset(toy_problem, 1.5)

    def test_prefix_uses_given_order(self, toy_problem):
        order = (4, 3, 2, 1, 0)
        res = largest_subset(toy_problem, 0.2, order=order)
        assert res.subset == tuple(sorted(order[: len(res.subset)]))
