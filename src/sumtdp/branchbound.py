"""Iterative deepening of the single-step scan over subspaces.

When a scan leaves some candidate sizes undecided, the space is split on a
pivot column: one child excludes it, the other forces it in.  Every candidate
lands in exactly one child, so ALL_REJECTED in both settles the parent, and a
survivor in either settles the whole question.  Children inherit the parent's
undecided size window, which is where the splitting gains its power: sizes
already certified never get rescanned.

The pivot is the free column with the greatest observed statistic among those
the greedy path does not reserve for the overlap requirement.  Forcing it in
drags the force-child's candidates toward large observed sums, pushing that
side to reject quickly, while the exclude-child keeps the parent's greedy
path intact, so its scan skips the path check.

Both children of a node are evaluated as soon as the node is split, and each
evaluation counts one unit of budget.  Still-undecided children go on a
stack, exclude side on top, giving a depth-first run through the exclude
spine first.  The root evaluation is free of charge; callers that count
scans add it themselves.

A run takes the query's :class:`~.shortcut.QueryContext` and hands it to
every scan and every pivot choice, so the subset is validated and the
columns are ordered once per query.  The pivot reads the subspace's masks
and reserved columns from the context, the same rule the scan's greedy
path uses.  A negative budget, or an undecided subspace with no column
left to split on, breaks an engine invariant and raises
:class:`RuntimeError`, never :class:`ValueError`, which means bad input.
"""

import math
from dataclasses import dataclass

from .shortcut import (
    FREE,
    Evaluation,
    QueryContext,
    TraceLog,
    Verdict,
    single_step,
)

__all__ = ["IterationResult", "pick_pivot", "evaluate_iterative"]


@dataclass(frozen=True)
class IterationResult:
    """Final evaluation together with the number of budgeted steps spent."""

    evaluation: Evaluation
    iterations: int

    @property
    def verdict(self) -> Verdict:
        return self.evaluation.verdict


def pick_pivot(ctx: QueryContext, overlap: int, constraint=FREE) -> int:
    """Branching column for an undecided subspace.

    Free columns reserved by the greedy path (the columns inside the subset
    holding its smallest observed statistics, as many as the overlap still
    requires) are not split on; among the rest, the greatest observed
    statistic wins, ties going to the highest index.  That makes the pivot
    exactly the last column the greedy path would add, so excluding it
    leaves every shorter path prefix, and hence the parent's path values,
    untouched.
    """
    _, free, _, reserved = ctx.subspace(overlap, constraint)
    candidates = free.copy()
    candidates[reserved] = False
    by_obs = ctx.order[candidates[ctx.order]]
    if not by_obs.size:
        raise RuntimeError(
            "no free column to branch on; the scan should have settled this subspace"
        )
    return int(by_obs[-1])


def evaluate_iterative(
    ctx: QueryContext,
    overlap: int,
    constraint=FREE,
    budget=None,
    trace: TraceLog = None,
) -> IterationResult:
    """Decide whether all sets overlapping the subset enough are rejected.

    Runs the single-step scan on the root subspace, then repeatedly splits
    undecided subspaces, spending one unit of ``budget`` per child scan (the
    root scan is free).  ``budget=None`` means unlimited, which always
    terminates: subspaces shrink by one free column per split.

    Returns the final evaluation and the number of budgeted scans performed.
    An UNDECIDED result means the budget ran out; spending more can only
    refine it (the explored tree is a prefix of the unlimited run's tree).
    """
    limit = math.inf if budget is None else int(budget)
    if limit < 0:
        raise RuntimeError("budget must be nonnegative")

    def log(ev, cons, index):
        if trace is not None:
            trace.add(
                kind="eval", index=index, overlap=overlap,
                forced=tuple(sorted(cons.forced)),
                excluded=tuple(sorted(cons.excluded)),
                verdict=ev.verdict, window=ev.window, witness=ev.witness,
            )

    root = single_step(ctx, overlap, constraint, want_path=True, trace=trace)
    log(root, constraint, 0)
    if root.verdict is not Verdict.UNDECIDED:
        return IterationResult(root, 0)

    spent = 0
    stack = [(constraint, root.window)]
    while stack:
        cons, window = stack.pop()
        pivot = pick_pivot(ctx, overlap, cons)
        if trace is not None:
            trace.add(
                kind="branch", pivot=pivot, overlap=overlap,
                forced=tuple(sorted(cons.forced)),
                excluded=tuple(sorted(cons.excluded)),
            )
        children = []
        # Exclude side first: it inherits the parent's greedy path, already
        # checked at these sizes, so its scan runs without the path device.
        for cons_child, want_path in (
            (cons.exclude(pivot), False),
            (cons.force(pivot), True),
        ):
            if spent >= limit:
                return IterationResult(Evaluation(Verdict.UNDECIDED, window=window), spent)
            spent += 1
            ev = single_step(
                ctx, overlap, cons_child,
                window=window, want_path=want_path, trace=trace,
            )
            log(ev, cons_child, spent)
            if ev.verdict is Verdict.SURVIVOR_FOUND:
                return IterationResult(ev, spent)
            if ev.verdict is Verdict.UNDECIDED:
                children.append((cons_child, ev.window))
        # LIFO stack: push the force side first so the exclude side pops first.
        for child in reversed(children):
            stack.append(child)

    return IterationResult(Evaluation(Verdict.ALL_REJECTED), spent)
