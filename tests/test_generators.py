"""Transformation schemes: identity row, reproducibility, statistics."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sumtdp import TransformationScheme, generators, sign_flip_matrix
from sumtdp.generators import _BLOCK_ELEMENTS, _flipped_t, _grid

SRC = Path(generators.__file__).resolve().parents[1]


def flip_signs(n_transforms, n, seed):
    """The sign rows ``sign_flip_matrix`` draws: all plus, then the draws."""
    signs = np.ones((n_transforms, n))
    signs[1:] = np.random.default_rng(seed).integers(0, 2, size=(n_transforms - 1, n)) * 2 - 1
    return signs


def grid_reference(data, signs):
    """The grid integers, row sums and ``n sum q^2 - S^2`` in plain Python.

    Column j is multiplied by 2^(52 - ceil(log2 n) - e_j), where ``e_j`` is
    ``math.frexp``'s exponent of its largest |x| (so 2^e_j > max|x|), and
    every entry rounded half to even, all as Python ints.  Returns ``q`` (a
    list of columns), ``S[r][j]`` and ``D[r][j]``; D is 0 exactly where the
    flip makes the column constant.
    """
    n = len(data)
    k = math.ceil(math.log2(n))
    q = []
    for column in data.T.tolist():
        scale = Fraction(2) ** (52 - k - math.frexp(max(map(abs, column)))[1])
        q.append([round(Fraction(v) * scale) for v in column])
    n_sq = [n * sum(v * v for v in col) for col in q]
    S, D = [], []
    for flips in signs.astype(int).tolist():
        S.append([sum(f * v for f, v in zip(flips, col)) for col in q])
        D.append([nq - s * s for nq, s in zip(n_sq, S[-1])])
    return q, S, D


def assert_t_within_bound(got, S, D, n, two_sided):
    """Each t is within (n + 8) 2^-53 relative of S sqrt(n - 1) / sqrt(D).

    Checked on squares in integers: with t = a / b, (t / t_exact)^2 is
    a^2 D / (b^2 (n - 1) S^2).  Where S is 0, t must be 0.
    """
    big, ulps = 2**53, n + 8
    for r, (t_row, s_row, d_row) in enumerate(zip(got.tolist(), S, D)):
        for c, (t, s, d) in enumerate(zip(t_row, s_row, d_row)):
            if s == 0 or t == 0:
                assert s == t, (r, c, t, s)
                continue
            assert (t > 0) == (two_sided or s > 0), (r, c, t, s)
            a, b = abs(t).as_integer_ratio()
            lhs, rhs = a * a * d * big * big, b * b * (n - 1) * s * s
            assert (big - ulps) ** 2 * rhs <= lhs <= (big + ulps) ** 2 * rhs, (r, c, t, s, d)


def check_reference(data, b, seed, two_sided):
    """Check ``sign_flip_matrix`` against ``grid_reference``; say what was exercised.

    The grid and the sums equal the reference's integers, and t is within
    the bound of the exact value, or the call raises the reference's first
    constant (row, column).  Returns ``"observed"`` or ``"flipped"`` for a
    raise, ``"band"`` where some entry has 2 D < n sum q^2 (the integer
    path), else ``"plain"``.
    """
    n = len(data)
    signs = flip_signs(b, n, seed)
    q, S, D = grid_reference(data, signs)
    grid = _grid(data)
    assert np.array_equal(grid, np.array(q, dtype=float))
    assert np.array_equal(np.matmul(signs, grid.T), np.array(S, dtype=float))
    scheme = TransformationScheme("sign_flip", b, seed)
    flat = [(r, c) for r, row in enumerate(D) for c, d in enumerate(row) if d == 0]
    if flat:
        r, c = flat[0]
        message = (f"column {c} has zero variance" if r == 0
                   else f"sign flip drawn for row {r} makes column {c} constant")
        with pytest.raises(ValueError, match=message):
            sign_flip_matrix(data, scheme, two_sided)
        return "observed" if r == 0 else "flipped"
    got = sign_flip_matrix(data, scheme, two_sided).values
    assert_t_within_bound(got, S, D, n, two_sided)
    n_sq = [s * s + d for s, d in zip(S[0], D[0])]
    band = any(2 * d < nq for row in D for d, nq in zip(row, n_sq))
    return "band" if band else "plain"


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(
        np.signbit(a), np.signbit(b))


# Tie-heavy data values, both signed zeros included.
DATA_POOL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 0.1, 1 / 3, 7.25)

# Offsets far above the spread, where the one-pass variance cancels.
OFFSETS = (0.0, 1e4, 1e8)


@st.composite
def flip_cases(draw):
    n = draw(st.integers(2, 20))
    m = draw(st.integers(1, 6))
    value = st.sampled_from(DATA_POOL) | st.floats(-1e3, 1e3, allow_nan=False)
    data = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m))).reshape(n, m)
    data += draw(st.sampled_from(OFFSETS))
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

    @pytest.mark.parametrize("data, message", [
        (np.ones(5), r"^data must be 2-D \(observations x variables\), got \(5,\)$"),
        (np.array([[1.0, np.nan], [2.0, 3.0]]), "^data contains non-finite entries$"),
    ], ids=["one-dimensional", "non-finite"])
    def test_refuses_bad_data(self, data, message):
        with pytest.raises(ValueError, match=message):
            sign_flip_matrix(data, TransformationScheme("sign_flip", 5, seed=0))

    def test_needs_a_variable(self):
        scheme = TransformationScheme("sign_flip", 10, seed=1)
        with pytest.raises(ValueError, match=r"at least 1 variable, got \(5, 0\)"):
            sign_flip_matrix(np.zeros((5, 0)), scheme)


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
        # sha256 of the t statistics on the per-column grid, recorded when
        # they replaced the in-order float sums of the raw data
        data = np.random.default_rng(2026).normal(size=(50, 100))
        data[:, :10] += 0.5
        mat = sign_flip_matrix(data, TransformationScheme("sign_flip", 200, 7))
        assert hashlib.sha256(mat.values.tobytes()).hexdigest() == (
            "483bacd73f627235d10aa69c844122273fa7885cc5a7bc71aea2194ec5cb28ff")

    def test_blocks_match_reference(self):
        # several blocks of the elementwise tail, one or more rows each, the
        # last block a single row; offset columns send row 0 to the integer
        # path, and each row alone gives the same bits
        for n, m in [(12, 3000), (12, 300)]:
            rows = max(1, _BLOCK_ELEMENTS // m)
            b = 3 * rows + 1
            data = np.random.default_rng(3).normal(size=(n, m))
            data[:, ::7] += 1e4
            assert check_reference(data, b, 5, True) == "band"
            signs = flip_signs(b, n, 5)
            whole = _flipped_t(data, signs, False)
            for r in range(0, b, rows // 2 + 1):
                assert bits_equal(_flipped_t(data, signs[r:r + 1], False)[0], whole[r])

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
    check_reference(*case)


def scalar_cases():
    """Shapes, values and offsets for the reference sweep."""
    rng = np.random.default_rng(18)
    pool = np.array(DATA_POOL)
    for k in range(120):
        n, m, b = int(rng.integers(2, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if k % 2:
            data = rng.choice(pool, size=(n, m))
        else:
            data = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4)
        yield data + OFFSETS[k % 3], b, k
    # zero variance observed, and made by a flip (|x| equal in a column)
    yield np.array([[0.0], [-0.0], [0.0]] * 4), 3, 0
    yield np.array([[1.0, 2.0], [-1.0, 0.5], [1.0, 1 / 3], [-1.0, 7.25]]), 4, 6
    # the extremes of the float range, and values closer than the grid step
    yield np.array([[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]]), 3, 0
    yield np.array([[5e-324, 1.0], [1e-323, 2.0], [0.0, 4.0]]), 3, 0
    yield np.array([[2.0, 1.0], [1.0, 1.0 + 2.0**-52], [3.0, 1.0]]), 3, 0


def test_scalar_reference_matches():
    seen = {"m1": 0, "b1": 0, "small": 0, "large": 0,
            "observed": 0, "flipped": 0, "band": 0, "plain": 0}
    for data, b, seed in scalar_cases():
        n, m = data.shape
        seen["m1"] += m == 1
        seen["b1"] += b == 1
        seen["small" if n < 8 else "large"] += 1
        for two_sided in (True, False):
            with np.errstate(all="raise"):
                seen[check_reference(data, b, seed, two_sided)] += 1
    assert all(seen.values()), seen


class TestExtremes:
    """Magnitudes at both ends of the float range, and the grid step's contract."""

    def test_huge_column(self):
        data = np.array([[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]])
        with np.errstate(all="raise"):
            mat = sign_flip_matrix(data, TransformationScheme("sign_flip", 3, 0), two_sided=False)
        assert mat.values[0, 0] == pytest.approx(0.5)
        check_reference(data, 3, 0, False)

    def test_subnormal_column(self):
        data = np.array([[5e-324], [1e-323], [0.0]])
        with np.errstate(all="raise"):
            got = observed_t(data, two_sided=False)
        assert got[0] == pytest.approx(math.sqrt(3))
        check_reference(data, 20, 1, False)

    def test_values_closer_than_grid_step_are_constant(self):
        # the grid step of [1, 1 + 2^-52, 1] is 2^-50: the column is constant
        data = np.array([[1.0, 2.0], [1.0 + 2.0**-52, 1.0], [1.0, 3.0]])
        with pytest.raises(ValueError, match="column 0 has zero variance"):
            observed_t(data)


BLAS_SCRIPT = """
import hashlib
import numpy as np
from sumtdp import TransformationScheme, sign_flip_matrix
data = np.random.default_rng(3).standard_normal((50, 2000))
data[:, :200] += 0.5
mat = sign_flip_matrix(data, TransformationScheme("sign_flip", 1000, 11))
print(hashlib.sha256(mat.values.tobytes()).hexdigest())
"""


def test_blas_threads_leave_bits():
    # the cli-tdp shape under one and two OpenBLAS threads
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", BLAS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_negated_signs_negate_rows():
    data = np.random.default_rng(3).standard_normal((50, 2000))
    data[:, :200] += 0.5
    signs = flip_signs(1000, 50, 11)
    plus = _flipped_t(data, signs, False)
    assert plus.all()
    assert bits_equal(_flipped_t(data, -signs, False), -plus)


class TestScheme:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown transformation kind"):
            TransformationScheme("row_permutation", 5)

    def test_positive_count(self):
        with pytest.raises(ValueError):
            TransformationScheme("sign_flip", 0)

    @pytest.mark.parametrize("count", [True, 2.0, "3", None, -1])
    def test_non_count_refused(self, count):
        with pytest.raises(ValueError, match="n_transforms must be an integer"):
            TransformationScheme("sign_flip", count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), 3])
    def test_numpy_integer_count(self, count):
        mat = sign_flip_matrix(np.arange(8.0).reshape(4, 2), TransformationScheme("sign_flip", count, 0))
        assert mat.values.shape == (3, 2)
