"""Discovery bounds: bisection, budgets, prefix search, multi-set reports."""

import numpy as np
import pytest

from sumtdp import (
    RejectionTable,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    TraceLog,
    Verdict,
    center,
    discoveries,
    discoveries_matrix,
    evaluate_iterative,
    largest_subset,
    reduce_columns,
    reject,
    simultaneous_report,
    truncate,
    TruncationRule,
)
from sumtdp.inference import _probe
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

    def test_budget_zero_is_vacuous(self, toy_problem):
        res = discoveries(toy_problem, TOY_SUBSET, total_budget=0)
        assert res.discoveries == 0
        assert res.overlap_cap == 2
        assert res.d_upper == 2
        assert not res.converged
        assert res.evals == 0
        assert res.levels == ()

    def test_negative_budgets_rejected(self, toy_problem):
        with pytest.raises(ValueError):
            discoveries(toy_problem, TOY_SUBSET, total_budget=-1)
        with pytest.raises(ValueError):
            discoveries(toy_problem, TOY_SUBSET, step_budget=-1)

    def test_fractional_columns_rejected(self, toy_problem):
        # not silently queried as columns (0, 1)
        with pytest.raises(ValueError, match="not an integer"):
            discoveries(toy_problem, [0.9, 1.2])

    def test_trace_collects_all_levels(self, toy_problem):
        trace = TraceLog()
        discoveries(toy_problem, TOY_SUBSET, trace=trace)
        overlaps = {r["overlap"] for r in trace.rows}
        assert overlaps == {1, 2}


class TestAgainstOracle:
    def test_exact_counts(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            stats, cfg = random_instance(rng, max_hyps=9, max_transforms=32)
            table = RejectionTable(center(stats), cfg)
            prob = SumTestProblem.from_matrix(stats, cfg)
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
            cen = center(stats)
            prob = SumTestProblem.from_matrix(stats, cfg)
            full = tuple(range(stats.n_hyps))
            res = discoveries(prob, full)
            assert res.converged
            rejected = reject(cen, full, cfg)
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

    def test_monotone_in_total_budget(self):
        rng = np.random.default_rng(54)
        for _ in range(10):
            stats, cfg = random_instance(rng, max_hyps=10, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            full = discoveries(prob, sub)
            prev = -1
            for b in (0, 1, 2, 4, 8, 16, 32, None):
                res = discoveries(prob, sub, total_budget=b)
                assert res.discoveries >= prev
                prev = res.discoveries
                if b is not None:
                    assert res.evals <= b
            assert prev == full.discoveries

    def test_budget_never_overcounts(self):
        # a truncated run must never report more discoveries than the exact
        # run, whatever the combination of caps
        rng = np.random.default_rng(55)
        for _ in range(10):
            stats, cfg = random_instance(rng, max_hyps=10, max_transforms=32)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            exact = discoveries(prob, sub).discoveries
            for tb in (0, 3, 7, None):
                for sb in (0, 1, 5, None):
                    res = discoveries(prob, sub, total_budget=tb, step_budget=sb)
                    assert res.discoveries <= exact
                    if tb is None and sb is None:
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
                verdict = evaluate_iterative(prob, sub, mid).verdict
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
            for tb in (0, 1, 3, 7, None):
                for sb in (0, 1, 5, None):
                    res = discoveries(prob, sub, total_budget=tb, step_budget=sb)
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


class TestLargestSubset:
    def test_toy_half(self, toy_problem):
        res = largest_subset(toy_problem, 0.5)
        assert res.size == 4
        assert res.result.tdp == 0.5
        assert res.subset == (0, 1, 2, 3)

    def test_gamma_zero_returns_full_set(self, toy_problem):
        res = largest_subset(toy_problem, 0.0)
        assert res.size == 5
        assert res.subset == (0, 1, 2, 3, 4)

    def test_none_qualifies(self):
        # no signal at all: nothing is ever rejected, d = 0 for every prefix
        rng = np.random.default_rng(57)
        vals = rng.normal(size=(20, 6))
        vals[0] = vals[1:].min(axis=0) - 1.0  # observed smallest everywhere
        stats = StatisticMatrix(vals)
        cfg = TestConfig(0.2, 20)
        prob = SumTestProblem.from_matrix(stats, cfg)
        res = largest_subset(prob, 0.9)
        assert res.size == 0
        assert res.subset == ()
        assert res.result is None

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
                assert res.size == best

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
        assert res.subset == tuple(sorted(order[: res.size]))


class TestSimultaneousReport:
    def test_entries_in_input_order(self, toy_problem):
        subs = [(0, 1), (2,), (0, 1, 2, 3, 4)]
        report = simultaneous_report(toy_problem, subs)
        assert [e.set_id for e in report] == [0, 1, 2]
        assert report[0].result.discoveries == 1
        assert report[2].result.discoveries == 2

    def test_duplicates_allowed(self, toy_problem):
        report = simultaneous_report(toy_problem, [(0, 1), (0, 1)])
        assert report[0].result == report[1].result

    def test_error_entry_keeps_going(self, toy_problem):
        report = simultaneous_report(toy_problem, [(0, 9), (0, 1)])
        assert report[0].result is None
        assert "out of range" in report[0].error
        assert report[1].result.discoveries == 1
