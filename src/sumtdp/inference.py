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
ceil(log2(|S|+1)) levels, the same worst case as the midpoint.  A run cut
short by its budget is treated as if a survivor existed, which can only
lower d(S), so reported discovery counts stay valid at the configured
confidence level no matter the budget.  All subsets of one matrix are
covered simultaneously: no correction for asking about many subsets is
needed.

Budgets come in two layers.  ``step_budget`` caps the branch-and-bound
splits within one overlap level.  ``total_budget`` meters the whole query in
scan counts (each level costs one scan for its root plus one per split); it
is spread evenly over at most ceil(log2(|S|+2)) bisection levels, an upper
bound on the levels a query needs, with whatever a level leaves unspent
rolling over to the next.  Raising either budget never lowers the discovery
count.
"""

from dataclasses import dataclass, field, replace

from .branchbound import evaluate_iterative
from .reduction import reduce_columns
from .shortcut import QueryContext, SumTestProblem, TraceLog, Verdict
from .statmatrix import StatisticMatrix, TestConfig, column_index, validate_subset

__all__ = [
    "DiscoveryResult",
    "PrefixResult",
    "ReportEntry",
    "discoveries",
    "discoveries_matrix",
    "largest_subset",
    "simultaneous_report",
]


@dataclass(frozen=True)
class DiscoveryResult:
    """Discovery bound for one subset query.

    ``overlap_cap`` is the certified bound on the overlap maximum above
    (equal to it when ``converged``); :attr:`d_upper` is the bound on the
    discovery count above that the levels certify.  ``levels`` records each
    bisection step as (overlap level, verdict, scans spent there).
    ``evals`` is the total number of single-step scans, root scans included.
    ``reduction`` holds the column-reduction counts (``m_reduced``,
    ``removed``, ``collapsed``) when :func:`discoveries_matrix` reduced the
    matrix first, and is None otherwise.
    """

    subset: tuple
    discoveries: int
    overlap_cap: int
    tdp: float
    converged: bool
    evals: int
    levels: tuple
    reduction: dict = field(default=None, hash=False)

    @property
    def n_queried(self) -> int:
        return len(self.subset)

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


def discoveries(
    prob: SumTestProblem,
    subset,
    total_budget=None,
    step_budget=None,
    trace: TraceLog = None,
) -> DiscoveryResult:
    """Lower confidence bound on true discoveries in ``subset``.

    ``total_budget=None`` and ``step_budget=None`` run to completion, which
    makes the bound exact (``converged`` is then always True).  With a
    finite budget the bound stays valid but may undercount; ``converged``
    tells the difference.  One :class:`~.shortcut.QueryContext` serves
    every scan of the query.
    """
    ctx = QueryContext(prob, subset)
    subset = ctx.subset
    s = len(subset)
    if total_budget is not None and total_budget < 0:
        raise ValueError("total_budget must be nonnegative")
    if step_budget is not None and step_budget < 0:
        raise ValueError("step_budget must be nonnegative")

    # Bisection invariant: some non-rejected set overlaps S by at least lo
    # (the empty set vouches for lo = 0), and every set overlapping S by at
    # least hi is rejected (vacuously true at hi = s + 1).
    lo, hi = 0, s + 1
    # ceil(log2(s + 2)) without floating point, for the even budget split.
    est_steps = (s + 1).bit_length()
    remaining = None if total_budget is None else int(total_budget)
    steps_left = est_steps
    levels = []
    spent_total = 0
    lo_certified = True
    completed = True

    while hi - lo > 1:
        if remaining is not None and remaining < 1:
            completed = False
            break
        z = _probe(lo, hi)
        caps = []
        if step_budget is not None:
            caps.append(int(step_budget))
        if remaining is not None:
            # Even share of what is left, rolling unspent scans forward;
            # minus one because the level's root scan is paid here too.
            share = -(-remaining // max(steps_left, 1))
            caps.append(min(share, remaining) - 1)
        budget = min(caps) if caps else None
        res = evaluate_iterative(
            prob, ctx, z, budget=budget, trace=trace,
        )
        cost = 1 + res.iterations
        spent_total += cost
        if remaining is not None:
            remaining -= cost
        steps_left -= 1
        levels.append((z, res.verdict, cost))
        if res.verdict is Verdict.ALL_REJECTED:
            hi = z
        elif res.verdict is Verdict.SURVIVOR_FOUND:
            lo = z
            lo_certified = True
        else:
            # Out of budget at this level: assume a survivor, staying valid.
            lo = z
            lo_certified = False

    overlap_cap = hi - 1
    converged = completed and lo_certified and lo == overlap_cap
    d = s - overlap_cap
    return DiscoveryResult(
        subset=subset,
        discoveries=d,
        overlap_cap=overlap_cap,
        tdp=d / s,
        converged=converged,
        evals=spent_total,
        levels=tuple(levels),
    )


def discoveries_matrix(
    stats: StatisticMatrix,
    cfg: TestConfig,
    subset,
    reduction_ground=None,
    total_budget=None,
    step_budget=None,
    trace: TraceLog = None,
) -> DiscoveryResult:
    """Discovery bound straight from a statistic matrix.

    When ``reduction_ground`` is given, inert columns outside the subset are
    dropped or merged first (see :mod:`.reduction`); the result is reported
    in terms of the original subset, with the reduction's counts in
    ``reduction``.  Discovery counts are unchanged by the reduction, only the
    work to reach them shrinks.
    """
    subset = validate_subset(subset, stats.n_hyps)
    if reduction_ground is not None:
        red = reduce_columns(stats, subset, ground=reduction_ground)
        prob = SumTestProblem.from_matrix(red.stats, cfg)
        inner = discoveries(
            prob, red.subset,
            total_budget=total_budget, step_budget=step_budget, trace=trace,
        )
        counts = {
            "m_reduced": red.stats.n_hyps,
            "removed": len(red.removed),
            "collapsed": len(red.collapsed),
        }
        return replace(inner, subset=subset, reduction=counts)
    prob = SumTestProblem.from_matrix(stats, cfg)
    return discoveries(
        prob, subset,
        total_budget=total_budget, step_budget=step_budget, trace=trace,
    )


@dataclass(frozen=True)
class PrefixResult:
    """Largest prefix of an ordering whose TDP bound clears a target."""

    size: int
    subset: tuple
    result: DiscoveryResult  # None when no prefix qualifies


def largest_subset(
    prob: SumTestProblem,
    gamma: float,
    order=None,
    total_budget=None,
    step_budget=None,
) -> PrefixResult:
    """Largest k whose first-k-columns TDP bound is at least ``gamma``.

    ``order`` is a permutation of all column indices (default: natural
    order) defining the nested family of prefixes.  ``gamma = 0`` is
    satisfied by the full set at once.  Otherwise the prefix length starts
    at m; a prefix of length k with discovery count d < gamma*k rules out
    every length above floor(d/gamma) as well, because dropping columns
    removes at most that many discoveries while the requirement scales with
    k, so the search jumps straight there.  Returns size 0 with an empty
    subset when no prefix qualifies.  Budgets apply per prefix query.
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
    if gamma == 0.0:
        res = discoveries(
            prob, order,
            total_budget=total_budget, step_budget=step_budget,
        )
        return PrefixResult(size=m, subset=res.subset, result=res)
    k = m
    while k >= 1:
        res = discoveries(
            prob, order[:k],
            total_budget=total_budget, step_budget=step_budget,
        )
        if res.tdp >= gamma:
            return PrefixResult(size=k, subset=res.subset, result=res)
        # No larger prefix can qualify than discoveries/gamma (discoveries
        # only drop when columns are removed); +1 absorbs float rounding at
        # the boundary, at worst costing one extra query.
        k = min(int(res.discoveries / gamma) + 1, k - 1)
    return PrefixResult(size=0, subset=(), result=None)


@dataclass(frozen=True)
class ReportEntry:
    """One row of a multi-subset report: a result or a per-query error."""

    set_id: int
    result: DiscoveryResult = None
    error: str = None


def simultaneous_report(
    prob: SumTestProblem,
    subsets,
    total_budget=None,
    step_budget=None,
) -> list:
    """Discovery bounds for many subsets of one matrix.

    All bounds hold jointly at the configured confidence level, however many
    subsets are queried, so no adjustment across queries is applied.  A
    subset that fails validation yields an error entry; the rest still run.
    Entries come back in input order.
    """
    report = []
    for idx, subset in enumerate(subsets):
        try:
            res = discoveries(
                prob, subset,
                total_budget=total_budget, step_budget=step_budget,
            )
            report.append(ReportEntry(set_id=idx, result=res))
        except ValueError as exc:
            report.append(ReportEntry(set_id=idx, error=str(exc)))
    return report
