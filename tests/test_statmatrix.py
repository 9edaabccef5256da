"""Statistic matrices, centering, subset quantiles, and CSV round trips."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sumtdp import (
    StatisticMatrix,
    SumTestProblem,
    TestConfig,
    read_data_csv,
    read_statistic_csv,
    reject,
    subset_quantile,
    validate_subset,
    write_statistic_csv,
)
from tests.util import grid_cases, random_instance, random_subset


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

    def test_read_only_owned_float_array_adopted(self):
        raw = np.ones((2, 3))
        raw.setflags(write=False)
        assert StatisticMatrix(raw).values is raw

    def test_read_only_view_of_writable_base_copied(self):
        base = np.ones((2, 3))
        view = base[:]
        view.setflags(write=False)
        s = StatisticMatrix(view)
        base[0, 0] = 42.0
        assert s.values[0, 0] == 1.0

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_read_only_other_dtype_converted(self, dtype):
        raw = np.arange(6, dtype=dtype).reshape(2, 3)
        raw.setflags(write=False)
        s = StatisticMatrix(raw)
        assert s.values.dtype == np.float64 and not s.values.flags.writeable
        assert s.values.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            StatisticMatrix(np.array([[1.0, np.nan], [0.0, 0.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            StatisticMatrix(np.ones(4))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            StatisticMatrix(np.ones((2, 3)), names=("a",))


def grid_step(m, k):
    """The centering grid's step: the least power of two s with
    s * (2**53 - 4 m) >= 2 m k, and at least 2**-1074."""
    need = Fraction(2 * m) * Fraction(k) / (2**53 - 4 * m)
    step = Fraction(1, 2**1074)
    while step < need:
        step *= 2
    return step


def assert_no_negative_zero(cen):
    zeros = cen[cen == 0]
    assert not np.signbit(zeros).any()


class TestCentering:
    """The problem stores centered values on an exact power-of-two grid."""

    def test_first_row_zero(self, toy_problem):
        assert np.array_equal(toy_problem.centered[0], np.zeros(5))

    def test_subtracts_from_observed(self, toy_stats, toy_problem):
        # Small integers lie on the grid, so the toy centers exactly.
        expect = toy_stats.values[0] - toy_stats.values
        assert np.array_equal(toy_problem.centered, expect)

    @staticmethod
    def assert_rounded_toward_survival(values, cen, step=None):
        """Each stored x0 - xr is a multiple of the step, at most its real
        value and within two steps of it; row 0 is 0, no zero is negative."""
        if step is None:
            step = grid_step(values.shape[1], max(abs(x) for x in values.flat))
        x0 = [Fraction(x) for x in values[0].tolist()]
        for raw, got in zip(values.tolist(), cen.tolist()):
            for obs, xr, c in zip(x0, raw, got):
                real, c = obs - Fraction(xr), Fraction(c)
                assert (c / step).denominator == 1
                assert real - 2 * step < c <= real
        assert cen[0].tolist() == [0.0] * values.shape[1]
        assert_no_negative_zero(cen)

    @pytest.mark.parametrize("name", sorted(grid_cases()))
    def test_rounds_toward_survival(self, name):
        values = grid_cases()[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rank-1 configs
            prob = SumTestProblem.from_matrix(
                StatisticMatrix(values), TestConfig(0.5, len(values)))
        self.assert_rounded_toward_survival(values, prob.centered)

    def test_centering_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            stats, cfg = random_instance(rng)
            cen = SumTestProblem.from_matrix(stats, cfg).centered
            self.assert_rounded_toward_survival(stats.values, cen)

    @pytest.mark.parametrize("dominant, flipped", [((3,), False), ((3, 7), False), ((3,), True)])
    def test_dominant_columns_stored_at_a_cap(self, dominant, flipped):
        # Columns whose every |x0 - xr| exceeds four times the other columns'
        # largest |x0 - xr| summed (L), with one sign per row, hold +-T, T the
        # power of two in (2 L, 4 L], +T at most the real value; the others
        # sit on the grid of max(K, T), K their own largest raw magnitude.
        values = grid_cases()["gaussian"].copy()
        values[0, list(dominant)] = [1e20, 3e17][: len(dominant)]
        if flipped:
            values[5, 3] = 3e20  # x0 - xr < 0 in row 5 only
        cen = SumTestProblem.from_matrix(StatisticMatrix(values), TestConfig(0.5, 12)).centered
        rest = np.delete(values, dominant, axis=1)
        light = sum(max(abs(rest[0, j] - x) for x in rest[:, j]) for j in range(rest.shape[1]))
        cap = Fraction(abs(cen[1, dominant[0]]))
        assert cap.denominator == 1 and cap.numerator.bit_count() == 1
        assert 2 * light < cap <= 4 * light
        for j in dominant:
            real = [Fraction(values[0, j]) - Fraction(x) for x in values[1:, j]]
            assert cen[0, j] == 0.0 and cen[1:, j].tolist() == [
                float(cap) if r > 0 else -float(cap) for r in real]
            assert all(cap <= r for r in real if r > 0)
        assert (cen[1:, 3] < 0).sum() == flipped
        step = grid_step(values.shape[1], max(cap, max(abs(Fraction(x)) for x in rest.flat)))
        self.assert_rounded_toward_survival(rest, np.delete(cen, dominant, axis=1), step)

    def test_dominant_columns_need_one_sign_per_row(self):
        # Two huge columns of one scale, of opposite signs in one row: a set
        # holding both can go either way, so neither is capped, and the step
        # covers them.
        values = grid_cases()["gaussian"].copy()
        values[0, [3, 7]] = [1e20, 5e19]
        values[5, 3] = 3e20
        cen = SumTestProblem.from_matrix(StatisticMatrix(values), TestConfig(0.5, 12)).centered
        self.assert_rounded_toward_survival(values, cen)

    @pytest.mark.parametrize("name", sorted(grid_cases()))
    def test_centered_input_rounds_down(self, name):
        # A centered matrix given directly rounds down onto the grid of its
        # own largest entry.
        given = grid_cases()[name]
        if not all(math.isfinite(sum(map(abs, row))) for row in given.tolist()):
            # near-max: its row sums overflow, so it is refused; divided by
            # m, its 2 m K still overflows and its sums do not
            with pytest.raises(ValueError, match="rescale the statistics"):
                SumTestProblem(given, np.zeros(given.shape[1]), 1)
            given = given / given.shape[1]
        cen = SumTestProblem(given, np.zeros(given.shape[1]), 1).centered
        step = grid_step(given.shape[1], max(abs(x) for x in given.flat))
        for raw, got in zip(given.tolist(), cen.tolist()):
            for c0, c in zip(raw, got):
                c0, c = Fraction(c0), Fraction(c)
                assert (c / step).denominator == 1
                assert c0 - step < c <= c0
        assert_no_negative_zero(cen)


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

    def test_zero_power_warning_names_the_caller(self):
        # Not the line of the dataclass's generated __init__ that calls
        # __post_init__, which reads as <string>.
        with pytest.warns(UserWarning, match="zero power") as caught:
            TestConfig(0.05, 10)
        assert caught[0].filename == __file__

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

    @pytest.mark.parametrize("count", [200.5, 200.0, True, "200"])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="n_transforms must be an integer of at least 1"):
            TestConfig(0.05, count)

    def test_numpy_count(self):
        assert TestConfig(0.05, np.int64(200)).crit_rank == 10


class TestSubsetQuantile:
    def test_toy_values(self, toy_problem):
        assert subset_quantile(toy_problem, (0, 1)) == 2.0
        assert subset_quantile(toy_problem, (0,)) == -1.0

    def test_toy_rejections(self, toy_problem):
        assert reject(toy_problem, (0, 1))
        assert not reject(toy_problem, (3,))

    def test_reject_iff_quantile_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            stats, cfg = random_instance(rng)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            q = subset_quantile(prob, sub)
            assert reject(prob, sub) == (q > 0.0)

    def test_quantile_is_rank_of_centered_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            stats, cfg = random_instance(rng)
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            sums = (stats.values[0] - stats.values)[:, sub].sum(axis=1)
            expect = np.sort(sums)[cfg.crit_rank - 1]
            got = subset_quantile(prob, sub)
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
            prob = SumTestProblem.from_matrix(stats, cfg)
            sub = random_subset(rng, stats.n_hyps)
            raw = stats.values[:, sub].sum(axis=1)
            upper = np.sort(raw)[math.ceil((1 - cfg.alpha) * cfg.n_transforms) - 1]
            assert reject(prob, sub) == (raw[0] > upper)
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
        prob = SumTestProblem.from_matrix(StatisticMatrix(values), cfg)
        raw = values.sum(axis=1)
        upper = np.sort(raw)[math.ceil((1 - cfg.alpha) * cfg.n_transforms) - 1]
        assert not reject(prob, (0, 1))
        assert not raw[0] > upper  # both say keep here
        # the centered rule is the definition; spot check its quantile
        assert subset_quantile(prob, (0, 1)) == 0.0


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

    @pytest.mark.parametrize("subset, first", [
        ((3, 9, -1), 9), ((3, -1, 9), -1), ((7, 0, 5), 7), ((0, 1, 2, 3, 4, 5), 5),
    ])
    def test_out_of_range_names_first_offender_in_input_order(self, subset, first):
        with pytest.raises(ValueError) as err:
            validate_subset(subset, 5)
        assert str(err.value) == f"column index {first} out of range for 5 columns"

    def test_checks_run_in_order_whatever_else_is_wrong(self):
        # conversion first, in input order; then duplicates; then range
        with pytest.raises(ValueError) as err:
            validate_subset((9, 0.5, 1.5), 5)
        assert str(err.value) == "column index 0.5 is not an integer"
        with pytest.raises(ValueError) as err:
            validate_subset((9, -1, 9), 5)
        assert str(err.value) == "duplicate column indices in subset (9, -1, 9)"
        with pytest.raises(ValueError) as err:
            validate_subset([np.int64(6), 2.0, 8.0], 5)
        assert str(err.value) == "column index 6 out of range for 5 columns"

    def test_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_subset((), 5)

    def test_integral_numbers_pass(self):
        assert validate_subset([2.0, np.int64(0), np.float64(1.0)], 5) == (0, 1, 2)

    def test_canonical_tuple_comes_back_itself(self):
        subset = (0, 2, 3)
        assert validate_subset(subset, 5) is subset
        numpy_ints = tuple(np.arange(3))
        for other in ((3, 0, 2), [0, 2, 3], numpy_ints):
            got = validate_subset(other, 5)
            assert got is not other and all(type(i) is int for i in got)

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
