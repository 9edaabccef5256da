"""End-to-end acceptance checks, one per release criterion.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so a red run names the failed criterion directly.  Stated runtime
ceilings are asserted too: blowing a time box is a failure even if the
numbers agree.
"""

import time

import numpy as np
import pytest

from sumtdp import (
    RejectionTable,
    SimulationConfig,
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    Verdict,
    discoveries,
    discoveries_matrix,
    reduce_columns,
    reject,
    run_study,
    subset_quantile,
    truncate,
    TruncationRule,
)
from sumtdp.branchbound import evaluate_iterative
from sumtdp.shortcut import QueryContext, Workspace, single_step
from tests.conftest import TOY_ROWS
from tests.util import random_instance, random_subset, subspace


def _report(num, label, ok):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_criterion_1_worked_example_exact():
    started = time.perf_counter()
    stats = StatisticMatrix(np.array(TOY_ROWS, dtype=float))
    cfg = TestConfig(alpha=0.4, n_transforms=6)
    prob = SumTestProblem.from_matrix(stats, cfg)
    sub = (0, 1)

    ok = cfg.crit_rank == 3
    ok &= subset_quantile(prob, sub) == 2.0
    ok &= reject(prob, sub)
    ctx = QueryContext(prob, sub)
    ok &= single_step(ctx, 2).verdict is Verdict.ALL_REJECTED
    root = single_step(ctx, 1)
    ok &= root.verdict is Verdict.UNDECIDED
    ok &= root.pivot == 0
    settled = evaluate_iterative(ctx, 1, budget=2)
    ok &= settled.verdict is Verdict.SURVIVOR_FOUND
    ok &= settled.iterations <= 2
    res = discoveries(prob, sub)
    ok &= res.discoveries == 1 and res.tdp == 0.5 and res.converged
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _report(1, "worked example exact", ok)


def test_criterion_2_matches_exhaustive_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        stats, cfg = random_instance(
            rng, min_hyps=3, max_hyps=12, min_transforms=4, max_transforms=64,
            alphas=(0.05, 0.2, 0.4))
        prob = SumTestProblem.from_matrix(stats, cfg)
        table = RejectionTable(prob)
        for _ in range(50):
            sub = random_subset(rng, stats.n_hyps)
            res = discoveries(prob, sub)
            if not res.converged:
                mismatches += 1
            if res.overlap_cap != table.max_nonrejected_overlap(sub):
                mismatches += 1
            for z in range(1, len(sub) + 1):
                verdict = evaluate_iterative(QueryContext(prob, sub), z).verdict
                truth = table.all_overlapping_rejected(sub, z)
                if (verdict is Verdict.ALL_REJECTED) != truth:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 300.0
    _report(2, "agrees with exhaustive reference", ok)


def test_criterion_3_budget_monotone_and_safe():
    rng = np.random.default_rng(3030)
    ok = True
    exercised = 0
    for _ in range(40):
        stats, cfg = random_instance(rng, max_hyps=11, max_transforms=48)
        prob = SumTestProblem.from_matrix(stats, cfg)
        table = RejectionTable(prob)
        sub = random_subset(rng, stats.n_hyps)
        d_oracle = len(sub) - table.max_nonrejected_overlap(sub)
        counts = [
            discoveries(prob, sub, step_budget=h).discoveries
            for h in (0, 1, 2, 4, 8, None)
        ]
        if len(set(counts)) > 1:
            exercised += 1
        ok &= all(a <= b for a, b in zip(counts, counts[1:]))
        ok &= counts[-1] == d_oracle
        ok &= all(c <= d_oracle for c in counts)
    ok &= exercised >= 3  # the ladder must actually bind sometimes
    _report(3, "budgets undercount monotonically", ok)


def test_criterion_4_bound_and_path_laws():
    rng = np.random.default_rng(4040)
    violations = 0
    lemma_checked = 0
    for _ in range(60):
        stats, cfg = random_instance(rng, max_hyps=10, max_transforms=32)
        prob = SumTestProblem.from_matrix(stats, cfg)
        table = RejectionTable(prob)
        for _ in range(5):
            sub = random_subset(rng, stats.n_hyps)
            for z in range(1, len(sub) + 1):
                ws = Workspace(QueryContext(prob, sub), z)
                prev = None
                for v in range(ws.size_min, ws.size_max + 1):
                    bound = ws.bound_value(v)
                    ref = table.min_quantile(sub, z, v)
                    if not np.isnan(ref) and bound > ref + 1e-9:
                        violations += 1
                    cand = ws.path_set(v)
                    if len(cand) != v or len(set(cand) & set(sub)) < z:
                        violations += 1
                    if abs(ws.path_value(v) - subset_quantile(prob, cand)) > 1e-9:
                        violations += 1
                    if bound > ws.path_value(v) + 1e-9:
                        violations += 1
                    if prev is not None:
                        if v <= ws.drop_end and bound > prev + 1e-9:
                            violations += 1
                        if v > ws.rise_start and bound < prev - 1e-9:
                            violations += 1
                    prev = bound
                # excluding the pivot must not disturb the greedy path, at
                # any node the level's run splits
                trace = []
                evaluate_iterative(QueryContext(prob, sub), z, trace=trace)
                for row in trace:
                    if row["kind"] != "branch":
                        continue
                    parent = subspace(prob.n_hyps, row["forced"], row["excluded"])
                    child = parent.copy()
                    child[row["pivot"]] = -1
                    parent = Workspace(QueryContext(prob, sub), z, parent)
                    child = Workspace(QueryContext(prob, sub), z, child)
                    lemma_checked += 1
                    for v in range(child.size_min, child.size_max + 1):
                        if parent.path_set(v) != child.path_set(v):
                            violations += 1
    ok = violations == 0 and lemma_checked >= 50
    _report(4, "bound and path laws, zero violations", ok)


def test_criterion_5_reduction_preserves_counts():
    ok = True
    # the worked example reduces from five columns to three
    stats = StatisticMatrix(
        np.array(TOY_ROWS, dtype=float), names=("H1", "H2", "H3", "H4", "H5"))
    cfg = TestConfig(alpha=0.4, n_transforms=6)
    trunc = truncate(stats, TruncationRule(threshold=2.0, ground=0.0))
    red = reduce_columns(trunc, (0, 1), ground=0.0)
    ok &= red.stats.n_hyps == 3
    ok &= red.removed == (2,)
    ok &= red.collapsed == (3, 4)
    ok &= red.stats.column_names() == ("H1", "H2", "H4+H5")
    ok &= (
        discoveries_matrix(trunc, cfg, (0, 1)).discoveries
        == discoveries_matrix(trunc, cfg, (0, 1), reduction_ground=0.0).discoveries
    )

    rng = np.random.default_rng(5050)
    for _ in range(25):
        rstats, rcfg = random_instance(rng, max_hyps=10, max_transforms=32)
        cut = float(np.quantile(rstats.values, 0.75))
        ground = float(rstats.values.min())
        rtrunc = truncate(rstats, TruncationRule(threshold=cut, ground=ground))
        sub = random_subset(rng, rstats.n_hyps)
        plain = discoveries_matrix(rtrunc, rcfg, sub)
        reduced = discoveries_matrix(rtrunc, rcfg, sub, reduction_ground=ground)
        ok &= plain.discoveries == reduced.discoveries
        ok &= plain.overlap_cap == reduced.overlap_cap
    _report(5, "reduction changes work, not answers", ok)


@pytest.mark.slow
def test_criterion_6_familywise_error_controlled():
    started = time.perf_counter()
    base = dict(n_obs=50, n_hyps=100, active_fraction=0.2, alpha=0.05,
                n_transforms=200, n_reps=500, seed=0,
                truncate_p=0.05, ground_p=0.5)
    ok = True
    for rho in (0.0, 0.6):
        for comb in ("fisher", "vw:-1"):
            cfg = SimulationConfig(**base, correlation=rho, combiner=comb)
            study = run_study(cfg, queries=("inactive",))
            fwer = study.family_error_rate()
            print(f"  correlation={rho} combiner={comb}: "
                  f"familywise error rate {fwer:.4f}")
            ok &= fwer <= 0.069
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1800.0
    _report(6, "familywise error within tolerance", ok)


@pytest.mark.slow
def test_criterion_7_power_ordering():
    def study_tdp(combiner, **kw):
        cfg = SimulationConfig(n_obs=50, n_hyps=100, alpha=0.05,
                               n_transforms=200, n_reps=200, seed=0,
                               combiner=combiner, **kw)
        return run_study(cfg, queries=("active",)).tdp_values("active")

    ok = True
    # sparse signal, truncated: reciprocal-power combining must not lose to
    # positive-power combining
    sparse = dict(active_fraction=0.02, correlation=0.0,
                  truncate_p=0.05, ground_p=0.5)
    diff = study_tdp("vw:-1", **sparse) - study_tdp("vw:1", **sparse)
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    print(f"  sparse: mean TDP gap {diff.mean():.4f} (se {se:.4f})")
    ok &= diff.mean() >= -se

    # dense signal, untruncated: log combining must not lose to strongly
    # reciprocal combining
    dense = dict(active_fraction=0.5, correlation=0.0)
    diff2 = study_tdp("vw:0", **dense) - study_tdp("vw:-2", **dense)
    se2 = diff2.std(ddof=1) / np.sqrt(len(diff2))
    print(f"  dense: mean TDP gap {diff2.mean():.4f} (se {se2:.4f})")
    ok &= diff2.mean() >= -se2
    _report(7, "combiner power ordering", ok)


def test_criterion_8_scaling():
    # bisection never exceeds its logarithmic level count
    rng = np.random.default_rng(8080)
    ok = True
    for _ in range(50):
        stats, cfg = random_instance(rng)
        prob = SumTestProblem.from_matrix(stats, cfg)
        sub = random_subset(rng, stats.n_hyps)
        res = discoveries(prob, sub)
        ok &= len(res.levels) <= (len(sub) + 1).bit_length()

    # one scan over ten thousand columns stays interactive
    m, b = 10_000, 200
    vals = rng.normal(size=(b, m))
    vals[0, :500] += 3.0
    stats = StatisticMatrix(vals)
    cfg = TestConfig(0.05, b)
    prob = SumTestProblem.from_matrix(stats, cfg)
    started = time.perf_counter()
    out = single_step(QueryContext(prob, tuple(range(m))), 1)
    elapsed = time.perf_counter() - started
    print(f"  single scan over {m} columns: {elapsed:.2f}s ({out.verdict.value})")
    ok &= elapsed < 10.0
    ok &= out.verdict is not Verdict.UNDECIDED or out.window is not None
    _report(8, "logarithmic levels, large scans fast", ok)
