"""P-value combining transforms, truncation, rank-based thresholds, and the
t statistic to evidence conversion."""

import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sumtdp import (
    COMBINER_KINDS,
    Combiner,
    StatisticMatrix,
    TransformationScheme,
    TruncationRule,
    apply_combiner,
    evidence_from_t,
    sign_flip_matrix,
    threshold_from_rank,
    truncate,
)

P_GRID = np.array([1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0])

ALL_TOKENS = [
    "fisher", "pearson", "liptak", "edgington", "cauchy",
    "vw:-2", "vw:-1", "vw:-0.5", "vw:0", "vw:0.5", "vw:1", "vw:2",
]


class TestParse:
    def test_plain_kinds(self):
        for kind in COMBINER_KINDS:
            if kind == "generalized_mean":
                continue
            c = Combiner.parse(kind)
            assert c.kind == kind

    def test_power_tokens(self):
        c = Combiner.parse("vw:-1")
        assert c.kind == "generalized_mean"
        assert c.power == -1.0

    def test_bad_tokens(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            Combiner.parse("nope")
        with pytest.raises(ValueError, match="power"):
            Combiner.parse("vw:abc")
        with pytest.raises(ValueError, match="power"):
            Combiner.parse("vw:")

    @pytest.mark.parametrize("make, message", [
        (lambda: Combiner("generalized_mean"), "generalized_mean requires a power"),
        (lambda: Combiner("fisher", 1.0), "fisher takes no power argument"),
        (lambda: Combiner.parse("abc:1"), "unknown combiner 'abc:1'"),
        (lambda: Combiner.parse("vw"), "'vw' needs a power, e.g. vw:-1"),
        (lambda: Combiner.parse("generalized_mean:-1"), "unknown combiner 'generalized_mean:-1'"),
        (lambda: Combiner("identity"), "unknown combiner kind 'identity'"),
        (lambda: Combiner.parse("identity"), "unknown combiner kind 'identity'"),
    ], ids=["no-power", "power-for-fisher", "unknown-with-power", "vw-without-power",
            "generalized-mean-token", "identity", "identity-token"])
    def test_bad_arguments(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("power", ["inf", "1e400", "-inf", "nan"])
    def test_power_must_be_finite(self, power):
        with pytest.raises(ValueError, match="bad combiner power"):
            Combiner.parse(f"vw:{power}")
        with pytest.raises(ValueError, match="bad combiner power"):
            Combiner("generalized_mean", float(power))


class TestTransforms:
    def test_fisher_values(self):
        c = Combiner.parse("fisher")
        assert c.transform(np.array([1.0]))[0] == pytest.approx(0.0)
        assert c.transform(np.array([np.exp(-2.0)]))[0] == pytest.approx(2.0)

    def test_edgington_is_negated_p(self):
        c = Combiner.parse("edgington")
        assert c.transform(np.array([0.3]))[0] == pytest.approx(-0.3)

    def test_liptak_is_normal_quantile(self):
        c = Combiner.parse("liptak")
        assert c.transform(np.array([0.025]))[0] == pytest.approx(
            sps.norm.isf(0.025))

    def test_pearson_values(self):
        c = Combiner.parse("pearson")
        assert c.transform(np.array([0.3]))[0] == pytest.approx(np.log(0.7))

    def test_cauchy_values(self):
        c = Combiner.parse("cauchy")
        assert c.transform(np.array([0.5]))[0] == pytest.approx(0.0)
        assert c.transform(np.array([0.25]))[0] == pytest.approx(1.0)

    def test_reciprocal_power(self):
        c = Combiner.parse("vw:-1")
        got = c.transform(np.array([0.01, 0.1]))
        assert np.allclose(got, [100.0, 10.0])

    def test_positive_power_negated(self):
        c = Combiner.parse("vw:1")
        assert c.transform(np.array([0.3]))[0] == pytest.approx(-0.3)
        c2 = Combiner.parse("vw:2")
        assert c2.transform(np.array([0.3]))[0] == pytest.approx(-0.09)

    def test_power_zero_matches_fisher(self):
        a = Combiner.parse("vw:0").transform(P_GRID)
        b = Combiner.parse("fisher").transform(P_GRID)
        assert np.allclose(a, b)

    def test_all_strictly_decreasing(self):
        # larger p must always map to a smaller statistic
        for tok in ALL_TOKENS:
            out = Combiner.parse(tok).transform(P_GRID)
            assert np.all(np.diff(out) < 0), tok

    def test_finite_at_p_one(self):
        # kinds that diverge at 1 clamp just below it instead
        for tok in ["pearson", "liptak", "cauchy"]:
            out = Combiner.parse(tok).transform(np.array([1.0]))
            assert np.isfinite(out).all(), tok

    def test_finite_on_grid(self):
        for tok in ALL_TOKENS:
            out = Combiner.parse(tok).transform(P_GRID)
            assert np.isfinite(out).all(), tok


class TestApplyCombiner:
    def test_elementwise_with_names(self):
        s = StatisticMatrix(np.array([[0.1, 0.5], [0.9, 0.2]]), names=("a", "b"))
        out = apply_combiner(s, Combiner.parse("fisher"))
        assert np.allclose(out.values, -np.log(s.values))
        assert out.column_names() == ("a", "b")


class TestTruncation:
    def test_rule_validates_ground(self):
        with pytest.raises(ValueError, match="ground"):
            TruncationRule(threshold=1.0, ground=2.0)

    @pytest.mark.parametrize("threshold, ground", [(np.inf, 0.0), (1.0, np.nan)])
    def test_rule_must_be_finite(self, threshold, ground):
        with pytest.raises(ValueError, match="^threshold and ground must be finite$"):
            TruncationRule(threshold, ground)

    def test_basic(self):
        s = StatisticMatrix(np.array([[3.0, 0.5], [1.0, 2.0]]))
        out = truncate(s, TruncationRule(threshold=2.0, ground=0.0))
        assert out.values.tolist() == [[3.0, 0.0], [0.0, 2.0]]

    def test_threshold_itself_survives(self):
        s = StatisticMatrix(np.array([[2.0], [1.999]]))
        out = truncate(s, TruncationRule(threshold=2.0, ground=0.0))
        assert out.values.tolist() == [[2.0], [0.0]]

    def test_output_range(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(20, 8))
        rule = TruncationRule(threshold=0.5, ground=-1.0)
        out = truncate(StatisticMatrix(vals), rule).values
        assert np.all((out == -1.0) | (out >= 0.5))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        s = StatisticMatrix(rng.normal(size=(10, 4)))
        rule = TruncationRule(threshold=0.3, ground=0.0)
        once = truncate(s, rule)
        twice = truncate(once, rule)
        assert np.array_equal(once.values, twice.values)

    def test_names_preserved(self):
        s = StatisticMatrix(np.ones((2, 2)), names=("x", "y"))
        out = truncate(s, TruncationRule(threshold=2.0, ground=0.0))
        assert out.column_names() == ("x", "y")

    def test_commutes_with_combining(self):
        # dropping p-values above a cutoff, then combining, must agree with
        # combining first and truncating at the transformed cutoff
        rng = np.random.default_rng(7)
        pvals = rng.uniform(size=(12, 6))
        cutoff_p, ground_p = 0.05, 0.5
        for tok in ["fisher", "vw:-1", "cauchy", "edgington"]:
            comb = Combiner.parse(tok)
            thr = float(comb.transform(np.array([cutoff_p]))[0])
            gnd = float(comb.transform(np.array([ground_p]))[0])
            combined = apply_combiner(StatisticMatrix(pvals), comb)
            route_a = truncate(combined, TruncationRule(thr, gnd)).values
            kept = pvals <= cutoff_p
            route_b = np.where(kept, combined.values, gnd)
            assert np.allclose(route_a, route_b), tok


class TestThresholdFromRank:
    def test_toy_ranks(self, toy_stats):
        assert threshold_from_rank(toy_stats, 12) == 2.0
        assert threshold_from_rank(toy_stats, 1) == 8.0

    def test_last_rank_is_minimum(self, toy_stats):
        n = toy_stats.values.size
        assert threshold_from_rank(toy_stats, n) == toy_stats.values.min()

    def test_matches_sorted_positions(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(7, 5))
        s = StatisticMatrix(vals)
        flat = np.sort(vals, axis=None)[::-1]
        for k in (1, 3, 17, 35):
            assert threshold_from_rank(s, k) == flat[k - 1]

    def test_rank_out_of_range(self, toy_stats):
        with pytest.raises(ValueError):
            threshold_from_rank(toy_stats, 0)
        with pytest.raises(ValueError):
            threshold_from_rank(toy_stats, toy_stats.values.size + 1)

    @pytest.mark.parametrize("rank", [2.5, 2.0, True])
    def test_rank_must_be_a_count(self, toy_stats, rank):
        with pytest.raises(ValueError, match=r"rank must lie in 1\.\.30"):
            threshold_from_rank(toy_stats, rank)

    def test_numpy_rank(self, toy_stats):
        assert threshold_from_rank(toy_stats, np.int64(12)) == 2.0


def full_conversion(tstats, df, comb, two_sided, threshold, rank, ground):
    """Every entry through t.sf, the combiner and then truncation."""
    pvals = sps.t.sf(tstats.values, df)
    if two_sided:
        pvals = 2.0 * pvals
    evidence = apply_combiner(StatisticMatrix(pvals, names=tstats.names), comb)
    if rank is not None:
        threshold = threshold_from_rank(evidence, rank)
    if threshold is None:
        return evidence
    return truncate(evidence, TruncationRule(threshold, ground))


def outcome(fn, *args):
    """Result bits and names, or the error raised."""
    try:
        res = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return res.values.tobytes(), res.values.shape, res.names


@st.composite
def conversion_cases(draw):
    """A t matrix, a combiner and a truncation rule, with the edges drawn often:
    ties, statistics near 0, p-values rounding to 1 or underflowing to 0,
    thresholds on, above and below the entries, ground at or below them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, m = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    style = draw(st.sampled_from(["gauss", "ties", "wide", "near_zero", "far_negative", "huge"]))
    if style == "gauss":
        t = 2.0 * rng.standard_normal((b, m)) + rng.uniform(0, 4) * (rng.random((b, m)) < 0.2)
    elif style == "ties":
        t = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0, 3.5], size=(b, m))
    elif style == "wide":
        t = rng.standard_normal((b, m)) * 10.0 ** rng.uniform(-3, 1.5, size=(b, m))
    elif style == "near_zero":
        t = rng.choice([0.0, 1e-300, 1e-20, 1e-17, 3e-16, 1e-8], size=(b, m)) * rng.choice([-1, 1], size=(b, m))
    elif style == "far_negative":
        t = -(10.0 ** rng.uniform(0.5, 3.0, size=(b, m)))
        t.flat[rng.integers(t.size)] = 3.0
    else:
        t = rng.standard_normal((b, m))
        t.flat[rng.integers(t.size)] = draw(st.sampled_from([1e4, 1e10, 1e300, -1e300]))
    two_sided = draw(st.booleans())
    if two_sided:
        t = np.abs(t)
    df = draw(st.integers(1, 60))
    power = draw(st.floats(-4, 4).map(lambda r: round(r, 2)))
    comb = draw(st.sampled_from(
        [Combiner.parse(k) for k in COMBINER_KINDS if k != "generalized_mean"]
        + [Combiner("generalized_mean", power)]
    ))
    names = tuple(f"c{j}" for j in range(m)) if draw(st.booleans()) else None
    tstats = StatisticMatrix(t, names=names)

    try:
        values = full_conversion(tstats, df, comb, two_sided, None, None, 0.0).values
    except ValueError:
        values = np.zeros(1)
    rule = draw(st.sampled_from(
        ["none", "rank_one", "rank_all", "rank", "rank_bad", "entry", "above", "below", "between"]
    ))
    threshold = rank = None
    if rule == "rank_one":
        rank = 1
    elif rule == "rank_all":
        rank = t.size
    elif rule == "rank":
        rank = int(rng.integers(1, t.size + 1))
    elif rule == "rank_bad":
        rank = draw(st.sampled_from([0, t.size + 1]))
    elif rule == "entry":
        threshold = float(values.flat[rng.integers(values.size)])
    elif rule == "above":
        threshold = float(values.max()) + 1.0
    elif rule == "below":
        threshold = float(values.min()) - 1.0
    elif rule == "between":
        threshold = float(rng.uniform(values.min(), values.max()))
    cut = threshold
    if rank is not None and 1 <= rank <= values.size:
        cut = float(np.sort(values, axis=None)[values.size - rank])
    ground = draw(st.sampled_from(["zero", "equal", "lower"]))
    if ground == "zero" or cut is None:
        ground = 0.0
    elif ground == "equal":
        ground = cut
    else:
        ground = cut - float(rng.uniform(0.0, 3.0))
    return tstats, df, comb, two_sided, threshold, rank, ground


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(conversion_cases())
def test_evidence_from_t_matches_full_conversion(case):
    with np.errstate(all="ignore"):
        want = outcome(full_conversion, *case)
        got = outcome(evidence_from_t, *case)
    assert got == want


@pytest.mark.parametrize("t, df, token, two_sided, threshold, rank, ground", [
    # p rounds to 1 from the rank-th greatest t down: the cut is flat
    ([[3.0, -30.0, -40.0, -50.0]], 60, "fisher", False, None, 2, 0.0),
    ([[3.0, -30.0, -40.0, -50.0]], 60, "pearson", False, None, 3, -50.0),
    # a p-value so small that its evidence overflows, reported before the
    # infinite threshold or the bad ground
    ([[1e150, 1.0, 2.0]], 1, "vw:-3", False, None, 1, 0.0),
    ([[1e5, 0.5, 1.0, 2.0]], 30, "vw:-3", True, 1e100, None, np.nan),
    # signed statistics given as two-sided: p-values above 1
    ([[-1.0, 2.0, 3.0]], 5, "fisher", True, None, 1, 0.0),
    ([[-1.0, 2.0, 3.0]], 5, "fisher", True, 3.0, None, 0.0),
    # ground above the threshold, and ranks out of range
    ([[1.0, 2.0, 3.0]], 5, "liptak", False, None, 1, 9.0),
    ([[1.0, 2.0, 3.0]], 5, "liptak", False, None, 4, 0.0),
    ([[1.0, 2.0, 3.0]], 5, "liptak", False, None, 0, 0.0),
])
def test_edges_match_full_conversion(t, df, token, two_sided, threshold, rank, ground):
    case = (StatisticMatrix(t), df, Combiner.parse(token), two_sided, threshold, rank, ground)
    with np.errstate(all="ignore"):
        assert outcome(evidence_from_t, *case) == outcome(full_conversion, *case)


class TestEvidenceFromT:
    def test_underflow_raises_as_before(self):
        t = np.abs(np.random.default_rng(3).standard_normal((20, 5)))
        t[7, 2] = 1e300
        for rank in (1, 30, 100):
            with pytest.raises(ValueError, match=r"p-values must lie in \(0, 1\], got 0.0"):
                evidence_from_t(StatisticMatrix(t), 9, Combiner.parse("fisher"), rank=rank)

    @pytest.mark.parametrize("rank", [2.5, 2.0, True])
    def test_rank_must_be_a_count(self, rank):
        t = np.abs(np.random.default_rng(5).standard_normal((20, 5)))
        with pytest.raises(ValueError, match=r"rank must lie in 1\.\.100"):
            evidence_from_t(StatisticMatrix(t), 9, Combiner.parse("fisher"), rank=rank)

    def test_numpy_rank(self):
        t = StatisticMatrix(np.abs(np.random.default_rng(5).standard_normal((20, 5))))
        fisher = Combiner.parse("fisher")
        got = evidence_from_t(t, 9, fisher, rank=np.int64(30)).values
        assert np.array_equal(got, evidence_from_t(t, 9, fisher, rank=30).values)

    def test_threshold_and_rank_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            evidence_from_t(StatisticMatrix([[1.0]]), 5, Combiner.parse("fisher"),
                            threshold=1.0, rank=1)

    @pytest.mark.parametrize("rule", [dict(rank=1000), dict(threshold=-np.log(0.05))])
    def test_converts_only_what_truncation_keeps(self, monkeypatch, rule):
        data = np.random.default_rng(4).standard_normal((30, 100))
        tstats = sign_flip_matrix(data, TransformationScheme("sign_flip", 200, seed=5))
        converted = []
        stdtr = scipy.special.stdtr

        def counting(df, t):
            converted.append(np.size(t))
            return stdtr(df, t)

        monkeypatch.setattr(scipy.special, "stdtr", counting)
        evidence_from_t(tstats, 29, Combiner.parse("fisher"), **rule)
        assert sum(converted) < 0.1 * tstats.values.size

    @pytest.mark.parametrize("hi", [8.0, 1e5])
    def test_threshold_search_resolves_the_boundary(self, hi):
        # one statistic far above the boundary must not stop the search short
        # of it, which would convert every entry
        from sumtdp.combiners import _T_MARGIN, _last_below

        fisher = Combiner.parse("fisher")

        def evidence(t):
            return fisher.transform(2.0 * scipy.special.stdtr(30, -t))

        threshold = -np.log(0.05)
        boundary = sps.t.isf(0.025, 30)
        found = _last_below(evidence, 0.5, hi, threshold)
        assert evidence(np.array([found]))[0] < threshold
        assert boundary - _T_MARGIN * boundary <= found <= boundary
