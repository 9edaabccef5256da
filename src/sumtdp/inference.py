"""Lower confidence bounds on true discoveries in a query subset.

For a subset S of the m hypotheses, the number of discoveries is

    d(S) = |S| - max overlap of S with any non-rejected hypothesis set,

where a set counts as rejected when the centered sum test rejects it and, by
closure, the maximum runs over all sets, the empty one included.  The maximum
is found by bisection on the overlap level z: level z is settled by a
branch-and-bound run answering whether every set sharing at least z members
with S is rejected.  Closed testing makes the answer monotone in z, so any
probe strictly between the bracket's ends narrows it soundly.  The
probe is top-biased: with k = ceil(log2(hi - lo)) it is lo + 2^(k-1), never
below the midpoint.  A query whose answer is d = 0 (the overlap maximum at
|S|) then climbs in fewer, larger steps than from the midpoint.  Both sides
of every split span at most 2^(k-1) levels, so a query still needs at most
ceil(log2(|S|+1)) levels, the same worst case as the midpoint.

A survivor W found while no level has been refuted is lifted: the one set
W ∪ S is tested exactly as :func:`~.problem.reject` tests it.  If it
survives it contains S, so the overlap maximum is |S| and d(S) = 0 at
once; the step is recorded at |S|, the overlap it certifies.  When
d(S) > 0 that set is always rejected, so levels, scans and trace are those
of the plain bisection.  The check is not a scan: it spends no budget and
adds no level.

One budget, ``step_budget``, caps the branch-and-bound splits within each
overlap level; each level costs one scan for its root plus one per split.
A level cut short by it is treated as if a survivor existed, which can only
lower d(S), so reported discovery counts stay valid at the configured
confidence level no matter the budget, and raising it never lowers the
discovery count.  All subsets of one matrix are covered simultaneously: no
correction for asking about many subsets is needed.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .branchbound import evaluate_iterative
from .problem import SumTestProblem, _rank_stat
from .shortcut import QueryContext, Verdict
from .statmatrix import (
    StatisticMatrix,
    TestConfig,
    _is_count,
    column_index,
    validate_subset,
)

__all__ = [
    "DiscoveryResult",
    "discoveries",
    "discoveries_matrix",
    "largest_subset",
]


@dataclass(frozen=True, slots=True)
class DiscoveryResult:
    """Discovery bound for one subset query.

    :attr:`overlap_cap` is the certified bound on the overlap maximum above
    (equal to it when ``converged``); :attr:`d_upper` is the bound on the
    discovery count above that the levels certify.  ``levels`` records each
    bisection step as (overlap level, verdict, scans spent there); a step
    whose survivor was lifted to one containing the subset records the
    overlap that survivor certifies, the subset's size, not the probed one.
    ``evals`` is the total number of single-step scans, root scans included.
    ``reduction`` holds the column-reduction counts (``m_reduced``,
    ``removed``, ``collapsed``) when the query ran on a problem built with a
    truncation ground (see :func:`discoveries`), and is None otherwise.
    """

    subset: tuple
    discoveries: int
    converged: bool
    evals: int
    levels: tuple
    reduction: dict = field(default=None, hash=False)

    @property
    def n_queried(self) -> int:
        return len(self.subset)

    @property
    def overlap_cap(self) -> int:
        """|S| - d: the overlap maximum's certified upper bound."""
        return len(self.subset) - self.discoveries

    @property
    def tdp(self) -> float:
        """d / |S|: the true discovery proportion's lower bound."""
        return self.discoveries / len(self.subset)

    @property
    def d_upper(self) -> int:
        """Upper end of the bracket ``[discoveries, d_upper]``.

        A survivor certified at overlap z shows that at most |S| - z members
        of S are discoveries.  Equal to ``discoveries`` when ``converged``.
        """
        certified = [
            z for z, verdict, _ in self.levels if verdict is Verdict.SURVIVOR_FOUND
        ]
        return len(self.subset) - max(certified, default=0)


def _probe(lo: int, hi: int) -> int:
    """Overlap level to settle next in the open bracket (lo, hi).

    ``lo + 2^(k-1)`` with ``k = ceil(log2(hi - lo))``: strictly inside the
    bracket, never below its midpoint, and leaving at most 2^(k-1) levels on
    either side, so every query settles within ceil(log2(|S|+1)) levels.
    """
    return lo + (1 << ((hi - lo - 1).bit_length() - 1))


def _lifts(prob, ctx, found, trace) -> bool:
    """Whether the survivor ``found`` joined with the query subset survives.

    The set W ∪ S, W the witness, is tested exactly as :func:`~.problem.reject`
    tests it, from W's row sums plus the columns of S outside W.  If it survives
    it contains S, so it certifies the overlap |S| (d = 0) and the trace gets one
    ``lift`` row.
    """
    witness = np.zeros_like(ctx.in_subset)
    witness[list(found.witness)] = True
    rest = np.flatnonzero(ctx.in_subset & ~witness)  # S outside W
    sums = found.sums + np.take(prob.centered, rest, axis=1).sum(axis=1)
    value = _rank_stat(sums, prob.crit_rank)
    if value > 0.0:
        return False
    if trace is not None:
        members = tuple(np.flatnonzero(witness | ctx.in_subset).tolist())
        trace.append(dict(kind="lift", overlap=len(ctx.subset), witness=members, value=value))
    return True


def discoveries(
    prob: SumTestProblem,
    subset,
    step_budget=None,
    trace: list = None,
) -> DiscoveryResult:
    """Lower confidence bound on true discoveries in ``subset``.

    ``step_budget`` caps the branch-and-bound splits per overlap level.
    ``None`` runs to completion, which makes the bound exact (``converged``
    is then always True).  With a finite budget the bound stays valid but
    may undercount; ``converged`` tells the difference.  One
    :class:`~.shortcut.QueryContext` serves every scan of the query.

    A problem with ``ground_classes`` is first reduced to the subset on its
    own grid (see :meth:`SumTestProblem.reduced`), which changes no verdict;
    trace rows then name original columns (a merged one as a tuple), while
    sizes and windows count reduced ones.

    Bounds from any number of calls on one problem hold jointly at the
    configured confidence level, so a loop over many subsets needs no
    adjustment across queries.
    """
    if prob.ground_classes is None:
        return _bisect(QueryContext(prob, subset), step_budget, trace)
    subset = validate_subset(subset, prob.n_hyps)
    reduced, inner, origin, counts = prob.reduced(subset)
    start = len(trace) if trace is not None else 0
    res = _bisect(QueryContext(reduced, inner), step_budget, trace)
    if trace is not None and reduced is not prob:
        for row in trace[start:]:
            for key in ("forced", "excluded", "witness"):
                if row.get(key) is not None:
                    row[key] = tuple(sorted(j for i in row[key] for j in origin[i]))
            if row.get("pivot") is not None:
                pivot = origin[row["pivot"]]
                row["pivot"] = pivot if len(pivot) > 1 else pivot[0]
    return replace(res, subset=subset, reduction=counts)


def _bisect(ctx: QueryContext, step_budget, trace) -> DiscoveryResult:
    """:func:`discoveries` on the context's problem and subset, as they stand."""
    prob, subset = ctx.prob, ctx.subset
    s = len(subset)
    if step_budget is not None and not _is_count(step_budget):
        raise ValueError(f"step_budget must be None or a nonnegative integer: {step_budget!r}")

    # Bisection invariant: some non-rejected set overlaps S by at least lo
    # (the empty set vouches for lo = 0), and every set overlapping S by at
    # least hi is rejected (vacuously true at hi = s + 1).
    lo, hi = 0, s + 1
    levels = []
    spent_total = 0
    lo_certified = True

    while hi - lo > 1:
        z = _probe(lo, hi)
        res = evaluate_iterative(ctx, z, budget=step_budget, trace=trace)
        cost = 1 + res.iterations
        spent_total += cost
        if res.verdict is Verdict.ALL_REJECTED:
            hi = z
        elif res.verdict is Verdict.SURVIVOR_FOUND:
            if hi == s + 1 and z < s and _lifts(prob, ctx, res, trace):
                z = s  # a survivor containing S: the overlap maximum is |S|
            lo = z
            lo_certified = True
        else:
            # Out of budget at this level: assume a survivor, staying valid.
            lo = z
            lo_certified = False
        levels.append((z, res.verdict, cost))

    # The loop ends at lo == hi - 1, so the bracket is closed; it is exact
    # unless its lower end rests on a level the budget left undecided.
    return DiscoveryResult(
        subset=subset,
        discoveries=s - (hi - 1),
        converged=lo_certified,
        evals=spent_total,
        levels=tuple(levels),
    )


def discoveries_matrix(
    stats: StatisticMatrix,
    cfg: TestConfig,
    subset,
    reduction_ground=None,
    step_budget=None,
) -> DiscoveryResult:
    """Discovery bound straight from a statistic matrix: :func:`discoveries` on
    ``SumTestProblem.from_matrix(stats, cfg, ground=reduction_ground)``."""
    prob = SumTestProblem.from_matrix(stats, cfg, ground=reduction_ground)
    return discoveries(prob, subset, step_budget=step_budget)


def largest_subset(
    prob: SumTestProblem,
    gamma: float,
    order=None,
    step_budget=None,
) -> DiscoveryResult:
    """Largest k whose first-k-columns TDP bound is at least ``gamma``.

    ``order`` is a permutation of all column indices (default: natural
    order) defining the nested family of prefixes.  The prefix length
    starts at m, so ``gamma = 0`` is met by the full set at once.  A prefix
    of length k with discovery count d < gamma*k rules out every length
    above floor(d/gamma) as well, because dropping columns removes at most
    that many discoveries while the requirement scales with k, so the
    search jumps straight there.  Returns the qualifying prefix's result,
    whose ``subset`` is the prefix, or None when no prefix qualifies.
    ``step_budget`` caps each prefix query's levels as in :func:`discoveries`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    m = prob.n_hyps
    if order is None:
        order = tuple(range(m))
    else:
        order = tuple(column_index(i) for i in order)
        if sorted(order) != list(range(m)):
            raise ValueError("order must be a permutation of all column indices")
    k = m
    while k >= 1:
        res = discoveries(prob, order[:k], step_budget=step_budget)
        if res.tdp >= gamma:
            return res
        # No larger prefix can qualify than discoveries/gamma (discoveries
        # only drop when columns are removed); +1 absorbs float rounding at
        # the boundary, at worst costing one extra query.
        k = min(int(res.discoveries / gamma) + 1, k - 1)
    return None
