"""Transformation schemes: identity row, reproducibility, statistics."""

import numpy as np
import pytest
from scipy import stats as sps

from sumtdp import (
    TransformationScheme,
    one_sample_t,
    row_permutation_matrix,
    sign_flip_matrix,
)


@pytest.fixture
def data():
    rng = np.random.default_rng(10)
    return rng.normal(size=(15, 4)) + np.array([1.0, 0.0, 0.5, 0.0])


class TestOneSampleT:
    def test_matches_scipy(self, data):
        got = one_sample_t(data, two_sided=False)
        ref = sps.ttest_1samp(data, 0.0).statistic
        assert np.allclose(got, ref)

    def test_two_sided_absolute(self, data):
        signed = one_sample_t(data, two_sided=False)
        assert np.allclose(one_sample_t(data), np.abs(signed))

    def test_zero_variance_column(self):
        bad = np.ones((5, 2))
        bad[:, 0] = np.arange(5)
        with pytest.raises(ValueError, match="column 1 has zero variance"):
            one_sample_t(bad)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="2 observations"):
            one_sample_t(np.ones((1, 3)))


class TestSignFlip:
    def test_row_zero_is_identity(self, data):
        scheme = TransformationScheme("sign_flip", 20, seed=0)
        mat = sign_flip_matrix(data, scheme)
        assert np.allclose(mat.values[0], one_sample_t(data))

    def test_shape(self, data):
        scheme = TransformationScheme("sign_flip", 20, seed=0)
        mat = sign_flip_matrix(data, scheme)
        assert mat.values.shape == (20, 4)

    def test_reproducible(self, data):
        a = sign_flip_matrix(data, TransformationScheme("sign_flip", 10, seed=3))
        b = sign_flip_matrix(data, TransformationScheme("sign_flip", 10, seed=3))
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_rows(self, data):
        a = sign_flip_matrix(data, TransformationScheme("sign_flip", 10, seed=3))
        b = sign_flip_matrix(data, TransformationScheme("sign_flip", 10, seed=4))
        assert not np.array_equal(a.values[1:], b.values[1:])

    def test_signed_statistic(self, data):
        scheme = TransformationScheme("sign_flip", 8, seed=1)
        mat = sign_flip_matrix(
            data, scheme, statistic=lambda d: one_sample_t(d, two_sided=False))
        assert np.allclose(mat.values[0], one_sample_t(data, two_sided=False))

    def test_flips_share_rows_across_columns(self):
        # a flip negates a whole observation, so column sums computed with a
        # mean statistic keep the cross-column dependence; check via a
        # statistic that exposes the raw signs
        data = np.ones((6, 3))
        data[:, 1] = 2.0
        data[:, 2] = -1.0
        scheme = TransformationScheme("sign_flip", 30, seed=2)
        mat = sign_flip_matrix(data, scheme, statistic=lambda d: d.sum(axis=0))
        # whatever signs were drawn, col1 = 2 * col0 and col2 = -col0
        assert np.allclose(mat.values[:, 1], 2.0 * mat.values[:, 0])
        assert np.allclose(mat.values[:, 2], -mat.values[:, 0])

    def test_kind_mismatch(self, data):
        scheme = TransformationScheme("row_permutation", 5, seed=0)
        with pytest.raises(ValueError, match="sign_flip"):
            sign_flip_matrix(data, scheme)


class TestRowPermutation:
    def test_row_zero_is_identity(self, data):
        labels = np.r_[np.ones(8), -np.ones(7)]

        def stat(d):
            return labels @ d

        scheme = TransformationScheme("row_permutation", 12, seed=0)
        mat = row_permutation_matrix(data, scheme, stat)
        assert np.allclose(mat.values[0], stat(data))

    def test_rows_are_permutations(self):
        data = np.arange(10, dtype=float).reshape(5, 2)

        def stat(d):
            return d[0]  # first row exposes which permutation was drawn

        scheme = TransformationScheme("row_permutation", 15, seed=5)
        mat = row_permutation_matrix(data, scheme, stat)
        for row in mat.values:
            assert any(np.array_equal(row, data[i]) for i in range(5))

    def test_kind_mismatch(self, data):
        scheme = TransformationScheme("sign_flip", 5, seed=0)
        with pytest.raises(ValueError, match="row_permutation"):
            row_permutation_matrix(data, scheme, lambda d: d.sum(axis=0))


class TestScheme:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transformation kind"):
            TransformationScheme("bootstrap", 5)

    def test_positive_count(self):
        with pytest.raises(ValueError):
            TransformationScheme("sign_flip", 0)

    def test_statistic_shape_check(self, data):
        scheme = TransformationScheme("sign_flip", 4, seed=0)
        with pytest.raises(ValueError, match="statistic must map"):
            sign_flip_matrix(data, scheme, statistic=lambda d: d.sum())

