"""Iterative deepening of the single-step scan over subspaces.

When a scan leaves some candidate sizes undecided, the space is split on
the pivot that scan names: one child excludes it, the other forces it in.
Every candidate lands in exactly one child, so ALL_REJECTED in both settles
the parent, and a survivor in either settles the whole question.  Children
inherit the parent's undecided size window, which is where the splitting
gains its power: sizes already certified never get rescanned.

The pivot is the last column of the scan's greedy path, the free column
with the greatest observed statistic among those the path does not reserve
for the overlap requirement.  Forcing it in drags the force-child's
candidates toward large observed sums, pushing that side to reject quickly.
Excluding it leaves every shorter path candidate as it was, so at the
inherited sizes the exclude-child's path values are ones an ancestor
already read as positive, and its scan finds no survivor.  The scan is the
only place that knows the rule, so this holds by construction.

A subspace is one ``int8`` state per column (0 free, +1 forced, -1
excluded): a child copies its parent and marks the pivot; a root scan
passes None.  The pivot is never an overlap pick (one of the first
``needed`` subset columns in observed order), and forcing a subset pivot
lowers ``needed``.  So every marked subset column lies past the first
``needed``: those are the picks, their sums the query context's running
ones, and every subspace holds a candidate.

Both children of a node are evaluated as soon as the node is split, and each
evaluation counts one unit of budget.  Still-undecided children go on a
stack with their windows and pivots, exclude side on top, giving a
depth-first run through the exclude spine first.  The root evaluation is
free of charge; callers that count scans add it themselves.

A run takes the query's :class:`~.shortcut.QueryContext` and hands it to
every scan, so the subset is validated and the columns are ordered once per
query.  A negative budget, or an undecided subspace with no free column
named to split on, breaks an engine invariant and raises
:class:`RuntimeError`, never :class:`ValueError`, which means bad input.
"""

import math
from dataclasses import dataclass

import numpy as np

from .shortcut import (
    Evaluation,
    QueryContext,
    Verdict,
    _marked,
    single_step,
)

__all__ = ["IterationResult", "evaluate_iterative"]


@dataclass(frozen=True)
class IterationResult:
    """Final evaluation together with the number of budgeted steps spent."""

    evaluation: Evaluation
    iterations: int

    @property
    def verdict(self) -> Verdict:
        return self.evaluation.verdict


def evaluate_iterative(
    ctx: QueryContext,
    overlap: int,
    budget=None,
    trace: list = None,
) -> IterationResult:
    """Decide whether all sets overlapping the subset enough are rejected.

    Runs the single-step scan on the root subspace, then repeatedly splits
    undecided subspaces, spending one unit of ``budget`` per child scan (the
    root scan is free).  ``budget=None`` means unlimited, which always
    terminates: subspaces shrink by one free column per split.

    Returns the final evaluation and the number of budgeted scans performed.
    An UNDECIDED result means the budget ran out; spending more can only
    refine it (the explored tree is a prefix of the unlimited run's tree).
    ``trace``, a list, gets the scans' rows (see :func:`~.shortcut.single_step`),
    one ``eval`` dict per scan and one ``branch`` dict per split.
    """
    limit = math.inf if budget is None else int(budget)
    if limit < 0:
        raise RuntimeError("budget must be nonnegative")

    def log(ev, state, index):
        if trace is not None:
            trace.append(dict(
                kind="eval", index=index, overlap=overlap, **_marked(state),
                verdict=ev.verdict, window=ev.window, witness=ev.witness,
            ))

    root = single_step(ctx, overlap, trace=trace)
    log(root, None, 0)
    if root.verdict is not Verdict.UNDECIDED:
        return IterationResult(root, 0)

    spent = 0
    stack = [(np.zeros(ctx.prob.n_hyps, dtype=np.int8), root.window, root.pivot)]
    while stack:
        state, window, pivot = stack.pop()
        if pivot is None or state[pivot]:
            raise RuntimeError(f"no free column to branch on: the scan named pivot {pivot}")
        if trace is not None:
            trace.append(dict(kind="branch", pivot=pivot, overlap=overlap, **_marked(state)))
        children = []
        for mark in (-1, 1):  # exclude, then force
            if spent >= limit:
                return IterationResult(Evaluation(Verdict.UNDECIDED, window=window), spent)
            spent += 1
            child = state.copy()
            child[pivot] = mark
            ev = single_step(ctx, overlap, child, window=window, trace=trace)
            log(ev, child, spent)
            if ev.verdict is Verdict.SURVIVOR_FOUND:
                return IterationResult(ev, spent)
            if ev.verdict is Verdict.UNDECIDED:
                children.append((child, ev.window, ev.pivot))
        # LIFO stack: push the force side first so the exclude side pops first.
        stack.extend(reversed(children))

    return IterationResult(Evaluation(Verdict.ALL_REJECTED), spent)
