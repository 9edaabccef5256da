"""Transformation schemes: identity row, reproducibility, statistics."""

import hashlib
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sumtdp import TransformationScheme, sign_flip_matrix
from sumtdp.generators import _BLOCK_ELEMENTS


def reference_sign_flip(data, n_transforms, seed, two_sided=True):
    """The per-row loop: one sign draw and one numpy t statistic per row.

    Equal to ``sign_flip_matrix`` bit for bit on C-ordered data with at
    least two columns, where numpy's axis-0 sums add in row order.  A single
    column is one contiguous run, which numpy sums pairwise from 8 entries
    on, so there ``scalar_flip_t`` is the reference.
    """
    def t(arr):
        sd = arr.std(axis=0, ddof=1)
        stat = arr.mean(axis=0) / (sd / np.sqrt(arr.shape[0]))
        return np.abs(stat) if two_sided else stat

    arr = np.asarray(data, dtype=float)
    rows = [t(arr)]
    rng = np.random.default_rng(seed)
    for _ in range(n_transforms - 1):
        signs = rng.integers(0, 2, size=arr.shape[0]) * 2 - 1
        rows.append(t(signs[:, None] * arr))
    return np.vstack(rows)


def flip_signs(n_transforms, n, seed):
    """The sign rows ``sign_flip_matrix`` draws: all plus, then the draws."""
    signs = np.ones((n_transforms, n))
    signs[1:] = np.random.default_rng(seed).integers(0, 2, size=(n_transforms - 1, n)) * 2 - 1
    return signs


def scalar_flip_t(data, signs, two_sided=True):
    """t statistics from scalar IEEE adds in observation order, first to last.

    ``reduce`` starts from the first term, keeping a lone -0.0 (``sum``
    would start from 0 and, from Python 3.12, compensate).  Raises
    ``ValueError(row, column)`` at the first zero standard deviation.
    """
    n = len(data)
    rows = []
    for r, flips in enumerate(signs.tolist()):
        row = []
        for c, column in enumerate(data.T.tolist()):
            x = [s * v for s, v in zip(flips, column)]
            mean = reduce(operator.add, x) / n
            ss = reduce(operator.add, [(v - mean) * (v - mean) for v in x])
            sd = math.sqrt(ss / (n - 1))
            if sd == 0.0:
                raise ValueError(r, c)
            t = mean / (sd / math.sqrt(n))
            row.append(abs(t) if two_sided else t)
        rows.append(row)
    return np.array(rows)


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b))


# Tie-heavy data values, both signed zeros included.
DATA_POOL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 0.1, 1 / 3, 7.25)


@st.composite
def flip_cases(draw):
    n = draw(st.integers(2, 20))
    m = draw(st.integers(2, 6))
    value = st.sampled_from(DATA_POOL) | st.floats(-1e3, 1e3, allow_nan=False)
    data = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m))).reshape(n, m)
    return data, draw(st.integers(1, 40)), draw(st.integers(0, 2**32)), draw(st.booleans())


@pytest.fixture
def data():
    rng = np.random.default_rng(10)
    return rng.normal(size=(15, 4)) + np.array([1.0, 0.0, 0.5, 0.0])


def observed_t(data, two_sided=True):
    """Row 0 of ``sign_flip_matrix``: the observed data's t statistics."""
    return sign_flip_matrix(data, TransformationScheme("sign_flip", 1), two_sided).values[0]


class TestOneSampleT:
    def test_matches_scipy(self, data):
        got = observed_t(data, two_sided=False)
        ref = sps.ttest_1samp(data, 0.0).statistic
        assert np.allclose(got, ref)

    def test_two_sided_absolute(self, data):
        signed = observed_t(data, two_sided=False)
        assert np.allclose(observed_t(data), np.abs(signed))

    def test_zero_variance_column(self):
        bad = np.ones((5, 2))
        bad[:, 0] = np.arange(5)
        with pytest.raises(ValueError, match="column 1 has zero variance"):
            observed_t(bad)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="2 observations"):
            observed_t(np.ones((1, 3)))


class TestSignFlip:
    def test_row_zero_is_identity(self, data):
        scheme = TransformationScheme("sign_flip", 20, seed=0)
        mat = sign_flip_matrix(data, scheme)
        assert bits_equal(mat.values[0], observed_t(data))

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
        mat = sign_flip_matrix(data, scheme, two_sided=False)
        assert bits_equal(mat.values[0], observed_t(data, two_sided=False))
        assert (mat.values < 0).any()
        assert bits_equal(np.abs(mat.values), sign_flip_matrix(data, scheme).values)

    def test_flips_share_rows_across_columns(self):
        # a flip negates a whole observation: the t statistics of c, 2c and
        # -c then stay tied in every row (doubling and negation are exact)
        c = np.array([1.0, 2.5, -0.5, 3.0, 0.25, 1.75])
        data = np.column_stack([c, 2.0 * c, -c])
        scheme = TransformationScheme("sign_flip", 30, seed=2)
        mat = sign_flip_matrix(data, scheme, two_sided=False)
        assert len(np.unique(mat.values[:, 0])) > 2
        assert np.array_equal(mat.values[:, 1], mat.values[:, 0])
        assert np.array_equal(mat.values[:, 2], -mat.values[:, 0])

    def test_flip_made_column_constant(self):
        # both observed columns vary, but flipping observations 2 and 4 (or
        # 1 and 3) makes column 0 constant
        data = np.array([[1, 0.3], [-1, 1.2], [1, -0.4], [-1, 2]])
        observed_t(data)
        signs = np.random.default_rng(0).integers(0, 2, size=(99, 4)) * 2 - 1
        row = 1 + next(r for r, s in enumerate(signs) if np.ptp(s * data[:, 0]) == 0)
        with pytest.raises(ValueError, match=(
                f"sign flip drawn for row {row} makes column 0 constant")):
            sign_flip_matrix(data, TransformationScheme("sign_flip", 100, 0))

    def test_golden(self):
        # the sha256 of the matrix the per-row loop returns for this input
        data = np.random.default_rng(2026).normal(size=(50, 100))
        data[:, :10] += 0.5
        mat = sign_flip_matrix(data, TransformationScheme("sign_flip", 200, 7))
        assert hashlib.sha256(mat.values.tobytes()).hexdigest() == (
            "4ee08d36133eec74a5e95b2ed0cdb5854328d674cc148fa669cfa7b33311c26c")

    def test_blocks_match_reference(self):
        # several blocks of flipped rows, one or more rows each, the last
        # block a single row
        for n, m in [(12, 3000), (12, 300)]:
            rows = max(1, _BLOCK_ELEMENTS // (n * m))
            b = 3 * rows + 1
            data = np.random.default_rng(3).normal(size=(n, m))
            scheme = TransformationScheme("sign_flip", b, seed=5)
            assert bits_equal(sign_flip_matrix(data, scheme).values,
                              reference_sign_flip(data, b, 5))

    def test_layout_independent(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 40)) + 0.2
        scheme = TransformationScheme("sign_flip", 60, seed=9)
        want = sign_flip_matrix(data, scheme).values
        wide = np.zeros((50, 120))
        wide[:, ::3] = data
        for view in (np.asfortranarray(data), wide[:, ::3], np.repeat(data, 2, axis=0)[::2]):
            assert bits_equal(sign_flip_matrix(view, scheme).values, want)
        for j in (0, 17):
            one = sign_flip_matrix(data[:, [j]], scheme).values
            assert bits_equal(one[:, 0], want[:, j])

    def test_row_zero_is_all_plus_flip(self):
        data = np.asfortranarray(np.random.default_rng(6).normal(size=(9, 5)))
        scheme = TransformationScheme("sign_flip", 2000, seed=1)
        mat = sign_flip_matrix(data, scheme, two_sided=False)
        signs = np.random.default_rng(1).integers(0, 2, size=(1999, 9))
        plus = 1 + np.flatnonzero(signs.all(axis=1))
        assert plus.size
        for r in plus:
            assert bits_equal(mat.values[r], mat.values[0])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(flip_cases())
def test_sign_flip_matches_per_row_loop(case):
    data, n_transforms, seed, two_sided = case
    scheme = TransformationScheme("sign_flip", n_transforms, seed)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ref = reference_sign_flip(data, n_transforms, seed, two_sided)
    if not np.isfinite(ref).all():
        with pytest.raises(ValueError):
            sign_flip_matrix(data, scheme, two_sided)
        return
    assert bits_equal(sign_flip_matrix(data, scheme, two_sided).values, ref)


def scalar_cases():
    """Shapes and values on which numpy's pairwise summation would show."""
    rng = np.random.default_rng(18)
    pool = np.array(DATA_POOL)
    for k in range(120):
        n, m, b = int(rng.integers(2, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if k % 2:
            data = rng.choice(pool, size=(n, m))
        else:
            data = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4)
        yield data, b, k
    # zero variance observed, and made by a flip (|x| equal in a column)
    yield np.array([[0.0], [-0.0], [0.0]] * 4), 3, 0
    yield np.array([[1.0, 2.0], [-1.0, 0.5], [1.0, 1 / 3], [-1.0, 7.25]]), 4, 6
    # a one-column input whose last block of flipped rows is a lone row
    yield np.random.default_rng(7).normal(size=(20, 1)), _BLOCK_ELEMENTS // 20 + 1, 3


def test_scalar_reference_matches():
    seen = {"m1": 0, "b1": 0, "small": 0, "large": 0, "observed": 0, "flipped": 0}
    for data, b, seed in scalar_cases():
        n, m = data.shape
        signs = flip_signs(b, n, seed)
        scheme = TransformationScheme("sign_flip", b, seed)
        seen["m1"] += m == 1
        seen["b1"] += b == 1
        seen["small" if n < 8 else "large"] += 1
        for two_sided in (True, False):
            try:
                want = scalar_flip_t(data, signs, two_sided)
            except ValueError as exc:
                r, c = exc.args
                seen["observed" if r == 0 else "flipped"] += 1
                message = (f"column {c} has zero variance" if r == 0
                           else f"row {r} makes column {c} constant")
                with pytest.raises(ValueError, match=message):
                    sign_flip_matrix(data, scheme, two_sided)
                if r == 0:
                    with pytest.raises(ValueError, match=message):
                        observed_t(data, two_sided)
                continue
            got = sign_flip_matrix(data, scheme, two_sided)
            assert bits_equal(got.values, want), (n, m, b, seed)
            assert bits_equal(observed_t(data, two_sided), want[0])
    assert all(seen.values()), seen


class TestScheme:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transformation kind"):
            TransformationScheme("row_permutation", 5)

    def test_positive_count(self):
        with pytest.raises(ValueError):
            TransformationScheme("sign_flip", 0)
