"""Monte Carlo harness: calibration, data model, study aggregates."""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats as sps

from sumtdp import (
    GRID_COLUMNS,
    SimulationConfig,
    effect_size,
    run_grid,
    run_replication,
    run_study,
    simharness,
    simulate_data,
)

FAST = dict(n_obs=20, n_hyps=10, active_fraction=0.3, n_transforms=40,
            n_reps=4, seed=123)


class TestEffectSize:
    def test_solves_power_equation(self):
        for n, alpha, power in [(50, 0.05, 0.95), (20, 0.1, 0.8), (10, 0.05, 0.5)]:
            mu = effect_size(n, alpha, power)
            df = n - 1
            tcrit = sps.t.isf(alpha / 2, df)
            nc = mu * math.sqrt(n)
            attained = sps.nct.sf(tcrit, df, nc) + sps.nct.cdf(-tcrit, df, nc)
            if math.isnan(attained):
                attained = sps.nct.sf(tcrit, df, nc)
            assert attained == pytest.approx(power, abs=1e-9)

    def test_monte_carlo_power(self):
        # the planted shift really gives the single t-test its target power
        n, alpha, power = 25, 0.05, 0.8
        mu = effect_size(n, alpha, power)
        rng = np.random.default_rng(70)
        reps = 4000
        draws = rng.standard_normal((reps, n)) + mu
        tvals = sps.ttest_1samp(draws, 0.0, axis=1).statistic
        tcrit = sps.t.isf(alpha / 2, n - 1)
        hit = np.mean(np.abs(tvals) > tcrit)
        assert hit == pytest.approx(power, abs=0.02)

    def test_more_power_needs_bigger_effect(self):
        lo = effect_size(30, 0.05, 0.5)
        hi = effect_size(30, 0.05, 0.95)
        assert hi > lo > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            effect_size(30, 0.0, 0.9)
        with pytest.raises(ValueError):
            effect_size(30, 0.05, 0.04)  # power below alpha
        with pytest.raises(ValueError):
            effect_size(30, 0.05, 1.0)


class TestConfigObject:
    def test_active_count_no_float_residue(self):
        cfg = SimulationConfig(active_fraction=0.02, n_hyps=100)
        assert cfg.n_active == 2
        cfg = SimulationConfig(active_fraction=0.21, n_hyps=100)
        assert cfg.n_active == 21

    def test_active_count_rounds_up(self):
        cfg = SimulationConfig(active_fraction=0.025, n_hyps=100)
        assert cfg.n_active == 3

    def test_from_dict_round_trip(self):
        cfg = SimulationConfig(**FAST)
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config keys: reps"):
            SimulationConfig.from_dict({"reps": 10})

    def test_field_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(correlation=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(active_fraction=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(combiner="bogus")
        with pytest.raises(ValueError):
            SimulationConfig(truncate_p=0.6, ground_p=0.5)

    @pytest.mark.parametrize("key", ["alpha", "power_target"])
    def test_probabilities_lie_inside_the_unit_interval(self, key):
        with pytest.raises(ValueError, match=rf"^{key} must lie in \(0, 1\)$"):
            SimulationConfig(**{key: 1.0})

    @pytest.mark.parametrize("key, value", [
        ("n_obs", 50.5), ("n_obs", 1), ("n_hyps", 20.0), ("n_hyps", 0), ("n_transforms", 40.5),
        ("n_transforms", 1), ("n_reps", 1.5), ("n_reps", True), ("n_reps", 0), ("seed", -1),
        ("seed", 1.0), ("step_budget", "3"), ("step_budget", 2.5), ("step_budget", False),
        ("step_budget", -1),
    ])
    def test_integer_fields(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer of at least"):
            SimulationConfig(**{key: value})

    def test_integer_fields_accept_numpy_and_no_budget(self):
        cfg = SimulationConfig(n_hyps=np.int64(20), seed=np.uint32(7), step_budget=None)
        assert (cfg.n_hyps, cfg.seed, cfg.step_budget) == (20, 7, None)
        assert SimulationConfig(step_budget=0).step_budget == 0

    def test_truncation_needs_threshold_in_range(self):
        with pytest.raises(ValueError):
            SimulationConfig(truncate_p=0.0)
        SimulationConfig(truncate_p=0.05)  # fine

    def test_identity_takes_no_truncation(self):
        # identity increases in p: every replication would fail on ground > threshold
        with pytest.raises(ValueError, match="identity"):
            SimulationConfig(combiner="identity", truncate_p=0.05)
        SimulationConfig(combiner="identity")  # fine untruncated


class TestSimulateData:
    def test_shape_and_determinism(self):
        cfg = SimulationConfig(**FAST)
        a = simulate_data(cfg, rep=2, effect=1.0)
        b = simulate_data(cfg, rep=2, effect=1.0)
        assert a.shape == (cfg.n_obs, cfg.n_hyps)
        assert np.array_equal(a, b)

    def test_reps_differ(self):
        cfg = SimulationConfig(**FAST)
        a = simulate_data(cfg, rep=0, effect=1.0)
        b = simulate_data(cfg, rep=1, effect=1.0)
        assert not np.array_equal(a, b)

    def test_signal_in_leading_columns(self):
        cfg = SimulationConfig(**FAST)
        base = simulate_data(cfg, rep=0, effect=0.0)
        shifted = simulate_data(cfg, rep=0, effect=2.5)
        diff = shifted - base
        assert np.allclose(diff[:, : cfg.n_active], 2.5)
        assert np.allclose(diff[:, cfg.n_active :], 0.0)

    def test_equicorrelation(self):
        cfg = SimulationConfig(n_obs=20000, n_hyps=4, active_fraction=0.0,
                               correlation=0.6, seed=9)
        data = simulate_data(cfg, rep=0, effect=0.0)
        corr = np.corrcoef(data.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.6, atol=0.03)

    def test_zero_correlation(self):
        cfg = SimulationConfig(n_obs=20000, n_hyps=4, active_fraction=0.0,
                               correlation=0.0, seed=9)
        data = simulate_data(cfg, rep=0, effect=0.0)
        corr = np.corrcoef(data.T)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.0, atol=0.03)


class TestReplication:
    def test_result_keys(self):
        cfg = SimulationConfig(**FAST)
        out = run_replication(cfg, rep=0, effect=1.5)
        assert set(out.results) == {"active", "inactive"}
        assert out.results["active"].n_queried == cfg.n_active
        assert out.results["inactive"].n_queried == cfg.n_hyps - cfg.n_active

    def test_all_query(self):
        cfg = SimulationConfig(**FAST)
        out = run_replication(cfg, rep=0, effect=1.5, queries=("all",))
        assert out.results["all"].n_queried == cfg.n_hyps

    def test_unknown_query(self):
        cfg = SimulationConfig(**FAST)
        with pytest.raises(ValueError, match="unknown query"):
            run_replication(cfg, rep=0, effect=1.5, queries=("nulls",))

    def test_empty_query_skipped(self):
        cfg = SimulationConfig(**dict(FAST, active_fraction=0.0))
        out = run_replication(cfg, rep=0, effect=0.0)
        assert "active" not in out.results
        assert "inactive" in out.results

    def test_truncation_route_runs(self):
        cfg = SimulationConfig(**FAST, truncate_p=0.05, ground_p=0.5)
        out = run_replication(cfg, rep=0, effect=1.5)
        assert 0.0 <= out.results["active"].tdp <= 1.0

    @pytest.mark.parametrize("truncation", [{}, {"truncate_p": 0.05, "ground_p": 0.5}],
                             ids=["untruncated", "truncated"])
    def test_one_problem_per_replication(self, monkeypatch, truncation):
        built = []
        real = simharness.SumTestProblem.from_matrix

        def counting(stats, cfg, ground=None):
            built.append(stats)
            return real(stats, cfg, ground=ground)

        monkeypatch.setattr(simharness.SumTestProblem, "from_matrix", counting)
        cfg = SimulationConfig(**FAST, **truncation)
        for rep in range(3):
            out = run_replication(cfg, rep=rep, effect=1.5)
            assert set(out.results) == {"active", "inactive"}
            assert (out.results["active"].reduction is None) == (not truncation)
        assert len(built) == 3

    def test_deterministic(self):
        cfg = SimulationConfig(**FAST)
        a = run_replication(cfg, rep=3, effect=1.5)
        b = run_replication(cfg, rep=3, effect=1.5)
        assert a.results["active"] == b.results["active"]


# (discoveries, converged, evals) per query of run_replication at effect 0.8,
# recorded before the t to evidence conversion learned to skip the entries
# truncation drops; any change in the evidence matrix shows up here.
REPLICATION_GOLDENS = [
    (dict(n_obs=20, n_hyps=30, active_fraction=0.3, n_transforms=100, seed=11,
          combiner="fisher", truncate_p=0.05),
     [((6, True, 8), (0, True, 1)), ((4, True, 14), (0, True, 1)),
      ((4, True, 8), (0, True, 1))]),
    (dict(n_obs=15, n_hyps=20, active_fraction=0.25, correlation=0.3,
          n_transforms=80, seed=12, combiner="vw:-1", truncate_p=0.1, ground_p=0.6),
     [((3, True, 3), (0, True, 1)), ((3, True, 3), (0, True, 1)),
      ((5, True, 3), (0, True, 1))]),
    (dict(n_obs=25, n_hyps=25, active_fraction=0.2, n_transforms=60, seed=13,
          combiner="liptak", truncate_p=0.02),
     [((4, True, 3), (0, True, 1)), ((3, True, 3), (0, True, 1)),
      ((3, True, 3), (0, True, 1))]),
]


@pytest.mark.parametrize("cell, want", REPLICATION_GOLDENS,
                         ids=[c["combiner"] for c, _ in REPLICATION_GOLDENS])
def test_truncated_replication_golden(cell, want):
    cfg = SimulationConfig(**cell)
    for rep, expected in enumerate(want):
        out = run_replication(cfg, rep, effect=0.8)
        got = tuple(
            (r.discoveries, r.converged, r.evals)
            for r in (out.results["active"], out.results["inactive"])
        )
        assert got == expected, f"rep {rep}"


class TestStudy:
    def test_aggregates(self):
        cfg = SimulationConfig(**FAST)
        study = run_study(cfg)
        assert len(study.outcomes) == cfg.n_reps
        assert study.effect > 0
        assert 0.0 <= study.mean_tdp("active") <= 1.0
        assert 0.0 <= study.family_error_rate() <= 1.0
        assert study.tdp_values("active").shape == (cfg.n_reps,)
        assert study.wall_time > 0
        assert study.mean_wall_time() == pytest.approx(
            study.wall_time / cfg.n_reps)
        # convergence aggregates run over every query of every replication
        results = [r for o in study.outcomes for r in o.results.values()]
        assert len(results) == 2 * cfg.n_reps
        assert study.converged_frac() == np.mean([r.converged for r in results])
        assert study.mean_evals() == np.mean([r.evals for r in results]) >= 1.0

    def test_convergence_aggregates_see_the_budget(self):
        # with no scans past the root, some bisection levels stay undecided
        cell = dict(FAST, n_hyps=20, active_fraction=0.5, power_target=0.6)
        full = run_study(SimulationConfig(**cell))
        none = run_study(SimulationConfig(**dict(cell, step_budget=0)))
        assert none.converged_frac() < full.converged_frac() == 1.0
        assert none.mean_evals() < full.mean_evals()

    def test_reproducible(self):
        cfg = SimulationConfig(**FAST)
        a = run_study(cfg)
        b = run_study(cfg)
        assert np.array_equal(a.tdp_values("active"), b.tdp_values("active"))
        assert a.family_error_rate() == b.family_error_rate()


class TestGrid:
    def test_rows_have_all_columns(self):
        cells = [SimulationConfig(**FAST),
                 SimulationConfig(**dict(FAST, correlation=0.5))]
        rows = run_grid(cells)
        assert len(rows) == 2
        names = tuple(f.name for f in fields(SimulationConfig))
        assert GRID_COLUMNS[:len(names)] == names
        for row in rows:
            assert set(row) == set(GRID_COLUMNS)
            assert row["error"] is None
            assert 0.0 <= row["mean_tdp_active"] <= 1.0
            assert 0.0 <= row["converged_frac"] <= 1.0
            assert row["mean_evals"] >= 1.0
        assert GRID_COLUMNS[-3:] == ("converged_frac", "mean_evals", "error")

    def test_bad_cell_isolated(self):
        good = SimulationConfig(**FAST)
        bad = SimulationConfig(**dict(FAST, n_obs=2, power_target=0.999999))
        rows = run_grid([bad, good])
        assert rows[0]["error"] is not None or rows[0]["mean_tdp_active"] is not None
        assert rows[1]["error"] is None

    def test_engine_fault_propagates(self, monkeypatch):
        # only ValueError marks a bad cell; an engine invariant's
        # RuntimeError is a fault and must not become an error row
        def broken(cfg):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(simharness, "run_study", broken)
        with pytest.raises(RuntimeError, match="invariant broken"):
            run_grid([SimulationConfig(**FAST)])
