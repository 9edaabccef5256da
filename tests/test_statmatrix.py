"""Statistic matrices, centering, subset quantiles, and CSV round trips."""

import math
import warnings

import numpy as np
import pytest

from sumtdp import (
    StatisticMatrix,
    TestConfig,
    center,
    read_data_csv,
    read_statistic_csv,
    reject,
    subset_quantile,
    validate_subset,
    write_statistic_csv,
)
from tests.util import random_instance, random_subset


class TestStatisticMatrix:
    def test_shape_and_names(self, toy_stats):
        assert toy_stats.n_transforms == 6
        assert toy_stats.n_hyps == 5
        assert toy_stats.column_names() == ("H1", "H2", "H3", "H4", "H5")

    def test_default_names(self):
        s = StatisticMatrix(np.ones((2, 3)))
        assert s.names is None
        assert s.column_names() == ("H1", "H2", "H3")

    def test_observed_is_first_row(self, toy_stats, toy_values):
        assert np.array_equal(toy_stats.observed, toy_values[0])

    def test_values_read_only(self, toy_stats):
        with pytest.raises(ValueError):
            toy_stats.values[0, 0] = 99.0

    def test_input_copy_not_aliased(self):
        raw = np.ones((2, 3))
        s = StatisticMatrix(raw)
        raw[0, 0] = 42.0
        assert s.values[0, 0] == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            StatisticMatrix(np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            StatisticMatrix(np.ones(4))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            StatisticMatrix(np.ones((2, 3)), names=("a",))


class TestCentering:
    def test_first_row_zero(self, toy_centered):
        assert np.array_equal(toy_centered.values[0], np.zeros(5))

    def test_subtracts_from_observed(self, toy_stats, toy_centered):
        expect = toy_stats.values[0] - toy_stats.values
        assert np.array_equal(toy_centered.values, expect)

    def test_centering_random(self):
        rng = np.random.default_rng(1)
        stats, _ = random_instance(rng)
        cen = center(stats)
        assert np.allclose(cen.values, stats.values[0] - stats.values)
        assert np.array_equal(cen.values[0], np.zeros(stats.n_hyps))


class TestTestConfig:
    def test_critical_ranks_toy(self, toy_cfg):
        assert toy_cfg.crit_rank == 3

    def test_critical_rank_formula(self):
        for alpha in (0.05, 0.1, 0.25, 0.4):
            for b in (4, 6, 10, 20, 64):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    cfg = TestConfig(alpha, b)
                assert cfg.crit_rank == max(1, math.ceil(alpha * b))

    def test_zero_power_warning(self):
        with pytest.warns(UserWarning, match="zero power"):
            TestConfig(0.05, 10)

    def test_no_warning_with_power(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TestConfig(0.05, 40)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            TestConfig(1.0, 6)
        with pytest.raises(ValueError):
            TestConfig(-0.1, 6)

    def test_needs_identity_row(self):
        with pytest.raises(ValueError):
            TestConfig(0.4, 0)


class TestSubsetQuantile:
    def test_toy_values(self, toy_centered, toy_cfg):
        assert subset_quantile(toy_centered, (0, 1), toy_cfg) == 2.0
        assert subset_quantile(toy_centered, (0,), toy_cfg) == -1.0

    def test_toy_rejections(self, toy_centered, toy_cfg):
        assert reject(toy_centered, (0, 1), toy_cfg)
        assert not reject(toy_centered, (3,), toy_cfg)

    def test_reject_iff_quantile_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            stats, cfg = random_instance(rng)
            cen = center(stats)
            sub = random_subset(rng, stats.n_hyps)
            q = subset_quantile(cen, sub, cfg)
            assert reject(cen, sub, cfg) == (q > 0.0)

    def test_quantile_is_rank_of_centered_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            stats, cfg = random_instance(rng)
            cen = center(stats)
            sub = random_subset(rng, stats.n_hyps)
            sums = cen.values[:, sub].sum(axis=1)
            expect = np.sort(sums)[cfg.crit_rank - 1]
            got = subset_quantile(cen, sub, cfg)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_raw_scale_equivalence_noninteger_rank(self):
        # comparing the observed raw sum against the upper critical rank of
        # the raw sums matches the centered test when alpha * b is fractional
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(80):
            stats, cfg = random_instance(rng)
            if (cfg.alpha * cfg.n_transforms) == int(cfg.alpha * cfg.n_transforms):
                continue
            cen = center(stats)
            sub = random_subset(rng, stats.n_hyps)
            raw = stats.values[:, sub].sum(axis=1)
            upper = np.sort(raw)[math.ceil((1 - cfg.alpha) * cfg.n_transforms) - 1]
            assert reject(cen, sub, cfg) == (raw[0] > upper)
            checked += 1
        assert checked > 20

    def test_raw_scale_equivalence_fails_integer_rank(self):
        # with alpha * b integral the two formulations can disagree on ties;
        # this instance is built to disagree, so the loose rule is not used
        values = np.array([
            [2.0, 0.0],
            [1.0, 1.0],
            [0.0, 2.0],
            [2.0, 0.0],
        ])
        cfg = TestConfig(alpha=0.5, n_transforms=4)
        cen = center(StatisticMatrix(values))
        raw = values.sum(axis=1)
        upper = np.sort(raw)[math.ceil((1 - cfg.alpha) * cfg.n_transforms) - 1]
        assert not reject(cen, (0, 1), cfg)
        assert not raw[0] > upper  # both say keep here
        # the centered rule is the definition; spot check its quantile
        assert subset_quantile(cen, (0, 1), cfg) == 0.0


class TestValidateSubset:
    def test_sorts_and_tuples(self):
        assert validate_subset([2, 0], 5) == (0, 2)

    def test_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_subset((1, 1), 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_subset((5,), 5)
        with pytest.raises(ValueError, match="out of range"):
            validate_subset((-1,), 5)

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_subset((), 5)

    def test_integral_numbers_pass(self):
        assert validate_subset([2.0, np.int64(0), np.float64(1.0)], 5) == (0, 1, 2)

    @pytest.mark.parametrize(
        "bad", [0.9, 1.2, float("nan"), float("inf"), True, np.True_, "1", None]
    )
    def test_non_integral_or_boolean_rejected(self, bad):
        # int() would truncate these to some other column (0.9 -> 0, True -> 1)
        with pytest.raises(ValueError, match="column index"):
            validate_subset([bad, 3], 5)


class TestCsv:
    def test_round_trip(self, toy_stats, tmp_path):
        path = tmp_path / "stats.csv"
        write_statistic_csv(toy_stats, path)
        back = read_statistic_csv(path)
        assert np.array_equal(back.values, toy_stats.values)
        assert back.column_names() == toy_stats.column_names()

    def test_read_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            read_statistic_csv(path)

    def test_read_reports_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match=r"ragged\.csv:3"):
            read_statistic_csv(path)

    def test_read_data_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.5,2\n-3,4\n0,1\n")
        names, values = read_data_csv(path)
        assert names == ("x", "y")
        assert values.shape == (3, 2)
        assert values[1, 0] == -3.0
