"""The benchmark's answer checks hold on a sample of its own queries.

``bench/run.py`` checks every answer it times: invariants on each
``DiscoveryResult`` and the recorded answers in ``bench/expected.json``.
Running those checks here, on a few of the same queries, makes a change that
breaks the answer contract (say, a level recorded at the probed overlap
rather than the one it certifies) fail in the test suite, not only in a
benchmark run.  The ``cli-tdp`` check runs one in-process ``tdp`` call and
compares its JSON with the same pipeline rebuilt through the library; the
``simulate`` check runs one pass of replications and compares them with
``run_study``.  The benchmark files are imported and read, never written;
the ``cli-tdp`` inputs and output go to a temporary directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sumtdp

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # run.py imports its sibling tracing.py
        mp.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def contract_problems(bench, name, picks):
    """Check messages for the queries ``picks`` of workload ``name`` at its default seed."""
    workload = bench.WORKLOADS[name](
        sumtdp, bench.DEFAULT_SEED, None, bench.HostProbe(share=0.0),
    )
    workload.build()
    expected = bench.load_expected(name, bench.DEFAULT_SEED)
    assert expected is not None and len(expected) == len(workload.queries)
    problems = []
    for q in picks:
        k, cols = workload.queries[q]
        # the call Engine.run_pass times
        res = sumtdp.discoveries(workload.probs[k], cols, step_budget=bench.STEP_BUDGET)
        problems += [
            f"query {q}: {message}"
            for message in bench.result_problems(res, cols, sumtdp.Verdict)
            + bench.expected_problems(res, expected[q])
        ]
    return problems


def test_engine_sets_every_tenth_query(bench):
    assert contract_problems(bench, "engine-sets", range(0, 120, 10)) == []


def test_engine_deep_both_queries(bench):
    assert contract_problems(bench, "engine-deep", range(2)) == []


def test_cli_tdp_answers_match_the_library(bench, tmp_path):
    workload = bench.WORKLOADS["cli-tdp"](
        sumtdp, bench.DEFAULT_SEED, tmp_path, bench.HostProbe(share=0.0),
    )
    workload.build()
    check, _ = workload.check([workload.trace_pass()])
    assert (check.attempted, check.failed) == (4, 0), check.messages


def test_simulate_pass_matches_run_study(bench):
    # each replication's invariants, and the first ones against run_study
    workload = bench.WORKLOADS["simulate"](sumtdp, bench.DEFAULT_SEED, None, bench.HostProbe(share=0.0))
    workload.build()
    check, _ = workload.check([workload.run_pass()])
    assert (check.attempted, check.failed) == (40, 0), check.messages


@pytest.mark.parametrize("name", ["cli-tdp", "engine-sets", "engine-deep", "simulate"])
def test_traced_pass_has_no_failed_request(bench, tmp_path, name):
    # The span hooks in bench/tracing.py read result shapes (.verdict,
    # .evals, .levels, window=) that only a traced run exercises otherwise.
    workload = bench.WORKLOADS[name](sumtdp, bench.DEFAULT_SEED, tmp_path, bench.HostProbe(share=0.0))
    workload.build()
    tracer = bench.Tracer()
    with bench.Patches(tracer, sumtdp):
        requests = workload.trace_pass()
    assert [r.error for r in requests if r.error is not None] == []
    calls = {span: row[0] for span, row in tracer.aggregate().items()}
    spans = ["inference.discoveries", "branchbound.evaluate_iterative", "shortcut.single_step"]
    if name in ("cli-tdp", "simulate"):
        # these build their problem inside the pass; tracing.py finds the
        # class through the scan module's import of it
        spans.append("shortcut.SumTestProblem.from_matrix")
    for span in spans:
        assert calls.get(span, 0) >= 1, span
