#!/usr/bin/env python3
"""Seeded benchmark of sumtdp: four workloads, answer checks, traced layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout holding this file,
never from an installed copy.  Each workload is a closed loop with one
caller: one query, replication or CLI invocation at a time, in one process,
with the library default of one thread.  Whole passes (the workload's fixed
request list, or the next batch of it) run while another pass is expected to
end within ``S`` seconds; at least one pass always runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, per pass.  Every answer is checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it list every
metric with its unit.  A result file with the run's metadata goes to
``.bench_out/``.  ``python3 bench/run.py --record`` rewrites
``bench/expected.json`` from the current code.  See ``bench/NOTES.md``.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from tracing import SPAN_NAMES, Patches, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
STEP_BUDGET = 50

# Seed of the fixed instances of engine-deep and cli-tdp, which every run
# seed shares; the run seed only permutes them (see engine_deep and CliTdp).
FAMILY_SEED = 2102_11759

# Host-speed probe: a fixed mix of row sorts and interpreted Python, timed
# in set-up and between requests.  The benchmark was built on a shared VM
# whose speed drifted by up to half over minutes, so end-to-end times are
# scaled by the probe's reference time over its median time in the same
# phase of the run: they read as seconds at the reference speed.
PROBE = np.random.default_rng(0).standard_normal((200, 1000))
PROBE_REFERENCE_S = 0.007
PROBE_SHARE = 0.02  # of the measured time, spent probing between requests

Request = namedtuple("Request", "latency answer error")


def fail(message):
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def import_package():
    """Import sumtdp from this checkout's ``src/``, or stop with exit 2."""
    if not (SRC / "sumtdp" / "__init__.py").is_file():
        fail(f"no sumtdp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sumtdp

    if Path(sumtdp.__file__).resolve().parent != (SRC / "sumtdp").resolve():
        fail(f"imported sumtdp from {sumtdp.__file__}, not from {SRC}")
    return sumtdp


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class HostProbe:
    """Host-speed samples; between requests, ``share`` of the time elapsed."""

    def __init__(self, share):
        self.share = share
        self.samples = []
        self.spent = 0.0  # seconds spent probing, kept out of pass times
        self.start()

    def start(self):
        """Begin a phase: forget the samples, restart the time share."""
        self.samples, self.spent = [], 0.0
        self._t0 = time.perf_counter()

    def sample(self):
        keys = PROBE[0].tolist()
        t0 = time.perf_counter()
        for _ in range(2):
            np.sort(PROBE, axis=1)
            np.cumsum(PROBE, axis=1)
            sorted(range(len(keys)), key=keys.__getitem__)
            total = 0
            for i in range(20000):
                total += i * i
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def between_requests(self):
        while self.spent < self.share * (time.perf_counter() - self._t0):
            self.sample()


def fresh_import_s(module):
    """Seconds to import ``module`` in a new interpreter, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        answer = fn(*args, **kwargs)
    except Exception as exc:  # a failing request is counted; the run goes on
        return Request(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    return Request(time.perf_counter() - t0, answer, None)


def gaussian_values(rng, n_transforms=200, n_hyps=2000, n_signal=100, shift=3.0):
    """Untruncated Gaussian statistic matrix; random columns shifted on row 0."""
    values = rng.standard_normal((n_transforms, n_hyps))
    values[0, rng.permutation(n_hyps)[:n_signal]] += shift
    return values


# ---------------------------------------------------------------------------
# answer checks shared by the engine workloads


def certified_upper(res, verdicts):
    """Upper bound on the exact count that the result's survivors certify."""
    found = [z for z, verdict, _ in res.levels if verdict is verdicts.SURVIVOR_FOUND]
    return len(res.subset) - max(found, default=0)


def result_problems(res, subset, verdicts):
    """Invariants every DiscoveryResult must satisfy, as messages."""
    s = len(subset)
    problems = []
    if tuple(res.subset) != tuple(sorted(subset)):
        problems.append("subset differs from the query")
    if not 0 <= res.discoveries <= s:
        problems.append(f"d={res.discoveries} outside 0..{s}")
    if res.tdp != res.discoveries / s:
        problems.append(f"tdp={res.tdp} is not d/|S|")
    if res.overlap_cap != s - res.discoveries:
        problems.append("overlap_cap is not |S| - d")
    if res.evals != sum(cost for _, _, cost in res.levels):
        problems.append("evals differ from the scans spent on the levels")
    if res.converged:
        if any(v is verdicts.UNDECIDED for _, v, _ in res.levels):
            problems.append("converged with an UNDECIDED level")
        if certified_upper(res, verdicts) != res.discoveries:
            problems.append("converged but no survivor certifies d")
    return problems


def expected_problems(res, recorded):
    """A converged answer lies in the recorded bracket; none exceeds its top."""
    d_rec, _, upper_rec = recorded
    problems = []
    if res.discoveries > upper_rec:
        problems.append(f"d={res.discoveries} above the recorded certified bound {upper_rec}")
    if res.converged and res.discoveries < d_rec:
        problems.append(f"converged d={res.discoveries} below the recorded d={d_rec}")
    return problems


def signature(res):
    return (res.discoveries, res.converged, res.evals, tuple((z, v.value, c) for z, v, c in res.levels))


def load_expected(name, seed):
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text()).get(name, {})
    return table.get("*", table.get(str(seed)))


class Check:
    """Tally of checked answers and the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")


def unstable_requests(passes, sign, ident=lambda p, i: i):
    """Requests some later pass answered differently from their first answer.

    ``sign`` maps a request to a comparable answer, or None when it failed;
    ``ident(p, i)`` names the request at position ``i`` of pass ``p``.
    """
    first, unstable = {}, set()
    for p, requests in enumerate(passes):
        for i, r in enumerate(requests):
            key, answer = ident(p, i), sign(r)
            if answer is not None and first.setdefault(key, answer) != answer:
                unstable.add(key)
    return unstable


# ---------------------------------------------------------------------------
# workloads


class Engine:
    """Discovery queries on prepared problems through the library API.

    The queries split round-robin into ``n_batches`` batches, and each pass
    runs the next batch in turn.
    """

    entry = "sumtdp"
    noun = ("query", "queries")
    children_rss = False

    def __init__(self, sumtdp, name, seed, probe, matrices, queries, n_batches=1):
        self.sumtdp = sumtdp
        self.probe = probe
        self.name = name
        self.seed = seed
        self.stats = [sumtdp.StatisticMatrix(v) for v in matrices]
        self.cfg = sumtdp.TestConfig(0.05, self.stats[0].n_transforms)
        self.queries = queries  # (matrix index, column tuple)
        self.batches = [range(b, len(queries), n_batches) for b in range(n_batches)]
        self.passes_run = 0
        self.probs = None

    def build(self):
        self.probs = [self.sumtdp.SumTestProblem.from_matrix(st, self.cfg) for st in self.stats]

    def batch(self, p):
        return self.batches[p % len(self.batches)]

    def run_pass(self):
        batch = self.batch(self.passes_run)
        self.passes_run += 1
        requests = []
        for i in batch:
            k, cols = self.queries[i]
            requests.append(timed(self.sumtdp.discoveries, self.probs[k], cols, step_budget=STEP_BUDGET))
            self.probe.between_requests()
        return requests

    trace_pass = run_pass

    def check(self, passes):
        verdicts = self.sumtdp.Verdict
        expected = load_expected(self.name, self.seed)
        unstable = unstable_requests(
            passes, lambda r: r.answer and signature(r.answer), lambda p, i: self.batch(p)[i],
        )
        check = Check()
        answers = []
        for p, requests in enumerate(passes):
            for q, r in zip(self.batch(p), requests):
                if r.error is not None:
                    check.add(f"pass {p} query {q}", [r.error])
                    continue
                problems = result_problems(r.answer, self.queries[q][1], verdicts)
                if expected is not None:
                    problems += expected_problems(r.answer, expected[q])
                if q in unstable:
                    problems.append("answer changed between passes")
                check.add(f"pass {p} query {q}", problems)
                answers.append(r.answer)
        return check, query_extras(answers, len(passes), verdicts)


def query_extras(answers, n_pass, verdicts):
    return {
        "converged_frac": (sum(a.converged for a in answers) / max(len(answers), 1), "ratio", "higher"),
        "undecided_levels": (
            sum(v is verdicts.UNDECIDED for a in answers for _, v, _ in a.levels) / n_pass,
            "count", "lower",
        ),
    }


def engine_sets(sumtdp, seed, workdir, probe):
    """One Gaussian matrix, 120 queries of log-uniform size 5..400.

    The sizes are stratified, one uniform draw in each of 120 equal slices
    of the log scale, so that seeds differ in the columns drawn, not in how
    much work the queries ask for.  Taking every fourth slice gives four
    batches of 30 queries with the same size profile, one batch per pass, so
    a run has several comparable passes to take the median of.
    """
    rng = np.random.default_rng([seed, 1])
    values = gaussian_values(rng)
    n = 120
    u = (np.arange(n) + rng.uniform(size=n)) / n
    sizes = np.rint(np.exp(np.log(5) + u * (np.log(400) - np.log(5)))).astype(int)
    queries = [
        (0, tuple(sorted(rng.choice(values.shape[1], size, replace=False).tolist())))
        for size in sizes
    ]
    return Engine(sumtdp, "engine-sets", seed, probe, [values], queries, n_batches=4)


def engine_deep(sumtdp, seed, workdir, probe):
    """Two deep instances, all columns queried; the seed permutes them.

    Random instances of this shape differ up to four-fold in work (61 to
    201 scans, 2.6 to 10.7 s, over 8 seeds), more than any affordable number
    of instances averages out.  So the instances are fixed, and the run seed
    only permutes their transformation rows and their columns, which changes
    neither the answers nor the work; the recorded answers check every seed.
    """
    prng = np.random.default_rng([seed, 2])
    matrices = []
    for k in range(2):
        values = gaussian_values(np.random.default_rng([FAMILY_SEED, k]))
        rows = np.concatenate([[0], 1 + prng.permutation(values.shape[0] - 1)])
        matrices.append(values[rows][:, prng.permutation(values.shape[1])])
    queries = [(k, tuple(range(values.shape[1]))) for k in range(len(matrices))]
    return Engine(sumtdp, "engine-deep", seed, probe, matrices, queries)


class CliTdp:
    """``python -m sumtdp.cli tdp --data`` invocations, timed from outside.

    Like engine-deep, the table and the sign-flip seed are fixed: over seeds
    11-19 the budget left one to three levels UNDECIDED, and the time per
    invocation followed.  The run seed permutes the columns inside each
    block that no query set cuts, so every set, answer and scan stays the
    same.
    """

    entry = "sumtdp.cli"
    noun = None
    children_rss = True
    SETS = (
        list(range(1, 201)), list(range(1, 401)), list(range(1, 2001)), list(range(150, 260)),
    )
    BLOCKS = (0, 149, 200, 259, 400, 2000)  # 0-based block edges of the sets above
    B, COMBINER, TRUNCATE_RANK = 1000, "fisher", 20000

    def __init__(self, sumtdp, seed, workdir, probe):
        import sumtdp.cli

        self.sumtdp = sumtdp
        self.probe = probe
        self.flip_seed = FAMILY_SEED
        self.workdir = workdir
        data = np.random.default_rng([FAMILY_SEED, 3]).standard_normal((50, 2000))
        data[:, :200] += 0.5
        prng = np.random.default_rng([seed, 3])
        edges = self.BLOCKS
        data = data[:, np.concatenate([
            lo + prng.permutation(hi - lo) for lo, hi in zip(edges, edges[1:])
        ])]
        self.data_path = workdir / "data.csv"
        header = ",".join(f"v{j + 1}" for j in range(data.shape[1]))
        np.savetxt(self.data_path, data, delimiter=",", fmt="%.17g", header=header, comments="")
        self.sets_path = workdir / "sets.json"
        self.sets_path.write_text(json.dumps(self.SETS))
        self.calls = 0

    def argv(self):
        self.calls += 1
        out = self.workdir / f"out{self.calls}.json"
        argv = [
            "tdp", "--data", str(self.data_path), "--b", str(self.B),
            "--combiner", self.COMBINER, "--truncate-rank", str(self.TRUNCATE_RANK),
            "--sets", str(self.sets_path), "--seed", str(self.flip_seed), "--out", str(out),
        ]
        return argv, out

    def build(self):
        pass

    @staticmethod
    def _read(latency, code, out, stderr=""):
        if code != 0:
            return Request(latency, None, f"exit code {code} {stderr.strip()[-300:]}")
        try:
            return Request(latency, json.loads(out.read_text()), None)
        except (OSError, ValueError) as exc:
            return Request(latency, None, f"unreadable output: {exc}")

    def run_pass(self):
        argv, out = self.argv()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sumtdp.cli", *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=170,
        )
        request = self._read(time.perf_counter() - t0, proc.returncode, out, proc.stderr)
        self.probe.between_requests()
        return [request]

    def trace_pass(self):
        argv, out = self.argv()
        r = timed(self.sumtdp.cli.main, argv)
        if r.error is not None:
            return [r]
        return [self._read(r.latency, r.answer, out)]

    def reference(self):
        """The same pipeline rebuilt through the public API, untimed."""
        from scipy import stats as scipy_stats

        api = self.sumtdp
        _, data = api.read_data_csv(self.data_path)
        scheme = api.TransformationScheme("sign_flip", self.B, self.flip_seed)
        tstats = api.sign_flip_matrix(data, scheme)
        pvals = 2.0 * scipy_stats.t.sf(tstats.values, data.shape[0] - 1)
        evidence = api.apply_combiner(api.StatisticMatrix(pvals), api.Combiner.parse(self.COMBINER))
        threshold = api.threshold_from_rank(evidence, self.TRUNCATE_RANK)
        evidence = api.truncate(evidence, api.TruncationRule(threshold, 0.0))
        cfg = api.TestConfig(0.05, self.B)
        entries, results = [], []
        for set_id, cols in enumerate(self.SETS, start=1):
            subset = [c - 1 for c in cols]
            res = api.discoveries_matrix(
                evidence, cfg, subset, reduction_ground=0.0, step_budget=STEP_BUDGET,
            )
            red = api.reduce_columns(evidence, subset, ground=0.0)
            results.append(res)
            entries.append({
                "set_id": set_id, "size": len(subset), "d": res.discoveries,
                "tdp": res.tdp, "converged": res.converged, "iterations": res.evals,
                "m_reduced": red.stats.n_hyps, "removed": len(red.removed),
                "collapsed": len(red.collapsed),
            })
        return entries, results

    def check(self, passes):
        try:
            import jsonschema
        except ImportError:
            fail("the cli-tdp answer check needs the jsonschema package")
        schema = json.loads((ROOT / "docs" / "output-schema.json").read_text())
        validator = jsonschema.Draft202012Validator(schema)
        want, results = self.reference()
        unstable = unstable_requests(passes, lambda r: r.answer and json.dumps(r.answer, sort_keys=True))
        check = Check()
        for p, requests in enumerate(passes):
            r = requests[0]
            errors = [r.error] if r.error else [e.message for e in validator.iter_errors(r.answer)][:1]
            if not errors and len(r.answer) != len(want):
                errors = [f"{len(r.answer)} entries for {len(want)} sets"]
            if 0 in unstable:
                errors.append("output changed between invocations")
            for ref in want:
                label = f"pass {p} set {ref['set_id']}"
                if errors:
                    check.add(label, errors)
                    continue
                got = r.answer[ref["set_id"] - 1]
                check.add(label, [
                    f"{key}={got.get(key)!r}, the library gives {value!r}"
                    for key, value in ref.items() if got.get(key) != value
                ])
        return check, query_extras(results, 1, self.sumtdp.Verdict)


class Simulate:
    """Criterion-6 study cell, replicated one at a time as run_study does."""

    entry = "sumtdp"
    noun = ("rep", "reps")
    children_rss = False
    REPS = 40

    def __init__(self, sumtdp, seed, workdir, probe):
        self.sumtdp = sumtdp
        self.probe = probe
        self.cfg = sumtdp.SimulationConfig(
            n_obs=50, n_hyps=100, n_transforms=200, n_reps=self.REPS, seed=seed,
            combiner="fisher", truncate_p=0.05, ground_p=0.5,
        )

    def _effect(self):
        return self.sumtdp.effect_size(self.cfg.n_obs, self.cfg.alpha, self.cfg.power_target)

    def build(self):
        self._effect()

    def run_pass(self):
        # One study, as run_study runs it with threads=1: calibrate, then
        # replicate in order.  Each replication is one timed request.
        effect = self._effect()
        requests = []
        for rep in range(self.cfg.n_reps):
            requests.append(timed(self.sumtdp.run_replication, self.cfg, rep, effect))
            self.probe.between_requests()
        return requests

    trace_pass = run_pass

    def check(self, passes):
        verdicts = self.sumtdp.Verdict
        cfg = self.cfg
        columns = {
            "active": tuple(range(cfg.n_active)),
            "inactive": tuple(range(cfg.n_active, cfg.n_hyps)),
        }

        def sign(r):
            return r.answer and tuple(
                (name, signature(res)) for name, res in sorted(r.answer.results.items())
            )

        study = self.sumtdp.run_study(dataclasses.replace(cfg, n_reps=2))
        unstable = unstable_requests(passes, sign)
        check = Check()
        answers = []
        for p, requests in enumerate(passes):
            for rep, r in enumerate(requests):
                label = f"pass {p} rep {rep}"
                if r.error is not None:
                    check.add(label, [r.error])
                    continue
                problems = []
                if set(r.answer.results) != set(columns):
                    problems.append(f"queries {sorted(r.answer.results)}")
                for name, res in r.answer.results.items():
                    problems += [f"{name}: {m}" for m in result_problems(res, columns[name], verdicts)]
                    answers.append(res)
                if rep in unstable:
                    problems.append("answer changed between passes")
                if rep < len(study.outcomes) and sign(r) != sign(Request(0, study.outcomes[rep], None)):
                    problems.append("differs from run_study")
                check.add(label, problems)
        extras = query_extras(answers, len(passes), verdicts)
        first = [r.answer for r in passes[0] if r.answer is not None]
        inactive = [o.results["inactive"].discoveries > 0 for o in first]
        active = [o.results["active"].tdp for o in first]
        extras["fwer"] = (sum(inactive) / max(len(inactive), 1), "ratio", "lower")
        extras["mean_tdp_active"] = (sum(active) / max(len(active), 1), "ratio", "higher")
        return check, extras


WORKLOADS = {
    "cli-tdp": CliTdp,
    "engine-sets": engine_sets,
    "engine-deep": engine_deep,
    "simulate": Simulate,
}


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload, probe):
    """Median of fresh-process import plus in-process build, over repeats."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            probe.sample()
        imports.append(fresh_import_s(workload.entry))
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    totals = [a + b for a, b in zip(imports, builds)]
    return statistics.median(totals), statistics.median(imports), statistics.median(builds)


def run_passes(workload, seconds, probe):
    """Whole passes until another would overrun ``seconds``; at least one."""
    passes, times = [], []
    start = time.perf_counter()
    probe.start()
    probe.sample()
    while True:
        spent, t0 = probe.spent, time.perf_counter()
        passes.append(workload.run_pass())
        times.append(time.perf_counter() - t0 - (probe.spent - spent))
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return passes, times


def run_traced(workload, seconds, patches):
    """Alternate untraced and traced passes; at least one of each."""
    passes, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.trace_pass())
        plain.append(time.perf_counter() - t0)
        with patches:
            t0 = time.perf_counter()
            passes.append(workload.trace_pass())
            traced.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if spent + statistics.median(plain) + statistics.median(traced) > seconds:
            return passes, plain, traced


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end_metrics(workload, setup, setup_probes, passes, times, run_probes):
    """Times at the probe's reference speed (see PROBE); raw ones as ``raw.*``.

    Set-up times scale with the probes taken during set-up, pass and request
    times with those taken between requests.
    """
    lat = [r.latency for requests in passes for r in requests]
    setup_speed = PROBE_REFERENCE_S / statistics.median(setup_probes)
    speed = PROBE_REFERENCE_S / statistics.median(run_probes)
    raw = {
        "setup_s": (setup[0], "s", "lower"),
        "wall_s": (statistics.median(times), "s", "lower"),
        "request_p50_ms": (statistics.median(lat) * 1e3, "ms", "lower"),
        "requests_per_s": (len(lat) / sum(lat), "1/s", "higher"),
    }
    metrics = {
        "setup_s": (setup[0] * setup_speed, "s", "lower"),
        "wall_s": (raw["wall_s"][0] * speed, "s", "lower"),
        "request_p50_ms": (raw["request_p50_ms"][0] * speed, "ms", "lower"),
        "requests_per_s": (raw["requests_per_s"][0] / speed, "1/s", "higher"),
    }
    metrics["peak_rss_mb"] = (peak_rss_mb(workload.children_rss), "MB", "lower")
    if workload.noun is not None:
        noun, plural = workload.noun
        metrics[f"{noun}_p50_ms"] = metrics["request_p50_ms"]
        if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
            p90 = statistics.quantiles(lat, n=10)[8] * 1e3 * speed
            metrics[f"{noun}_p90_ms"] = (p90, "ms", "lower")
        metrics[f"{plural}_per_s"] = metrics["requests_per_s"]
    metrics["requests"] = (len(lat), "count", "higher")
    metrics.update({f"raw.{name}": entry for name, entry in raw.items()})
    metrics["host.setup_speed"] = (setup_speed, "factor", "higher")
    metrics["host.speed"] = (speed, "factor", "higher")
    return metrics


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, setup, plain, traced):
    n = len(traced)
    agg = tracer.aggregate()
    c = tracer.counters
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, own = agg.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count", "lower")
        metrics[f"{name}.total_s"] = (total / n, "s", "lower")
        metrics[f"{name}.self_s"] = (own / n, "s", "lower")

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    scans = agg.get("shortcut.single_step", (0, 0.0, 0.0))[0]
    queries = c["inference.queries"]
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics.update({
        "generators.rows_per_s": (ratio(c["generators.rows"], total("generators.sign_flip_matrix")), "1/s", "higher"),
        "reduction.kept_frac": (ratio(c["reduction.columns_kept"], c["reduction.columns_in"]), "ratio", "lower"),
        "shortcut.scans_per_s": (ratio(scans, total("shortcut.single_step")), "1/s", "higher"),
        "shortcut.path_hit_ratio": (ratio(c["shortcut.path_hits"], c["shortcut.path_checks"]), "ratio", "higher"),
        "branchbound.settled_ratio": (ratio(c["branchbound.child_settled"], c["branchbound.child_scans"]), "ratio", "higher"),
        "branchbound.budget_exhausted": (c["branchbound.budget_exhausted"] / n, "count", "lower"),
        "inference.evals_per_query": (ratio(c["inference.evals"], queries), "count", "lower"),
        "inference.levels_per_query": (ratio(c["inference.levels"], queries), "count", "lower"),
        "inference.converged_frac": (ratio(c["inference.converged"], queries), "ratio", "higher"),
        "inference.undecided_levels": (c["inference.undecided_levels"] / n, "count", "lower"),
        "setup.import_s": (setup[1], "s", "lower"),
        "setup.build_s": (setup[2], "s", "lower"),
        "trace.untraced_wall_s": (plain_s, "s", "lower"),
        "trace.traced_wall_s": (traced_s, "s", "lower"),
        "trace.overhead_s": (traced_s - plain_s, "s", "lower"),
        "trace.overhead_frac": (ratio(traced_s - plain_s, plain_s), "ratio", "lower"),
        "trace.spans_per_pass": (len(tracer.start) / n, "count", "lower"),
    })
    return metrics


# ---------------------------------------------------------------------------
# reporting

# BLAS thread settings, and whether fresh imports may use bytecode caches.
ENV_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "PYTHONDONTWRITEBYTECODE",
)


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args):
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ.get(k) for k in ENV_VARS},
        "platform": platform.platform(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def declared_metrics(trace):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    spec = json.loads(path.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(args, metrics, check, extra_meta):
    declared = declared_metrics(args.trace)
    printed = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            fail(f"BENCHMARK.json names {name}, which this run does not measure")
        value, unit, _ = metrics[name]
        if unit != entry["unit"]:
            fail(f"{name} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        printed[name] = {"value": value, "unit": unit}
    result = {
        "meta": {**metadata(args), **extra_meta},
        "correct": check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.messages,
        "metrics": {
            name: {"value": v, "unit": u, "better": b} for name, (v, u, b) in metrics.items()
        },
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for message in check.messages:
        print(f"FAILED {message}")
    for name, (value, unit, _) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": printed,
    }))


def record_expected(sumtdp):
    """Write the engine answers at the default seed to ``expected.json``."""
    verdicts = sumtdp.Verdict
    table = {}
    for name, key in (("engine-sets", str(DEFAULT_SEED)), ("engine-deep", "*")):
        workload = WORKLOADS[name](sumtdp, DEFAULT_SEED, None, HostProbe(share=0.0))
        workload.build()
        rows = {}
        for p in range(len(workload.batches)):
            for q, r in zip(workload.batch(p), workload.run_pass()):
                if r.error is not None:
                    fail(f"{name} query {q}: {r.error}")
                res = r.answer
                rows[q] = [res.discoveries, res.converged, certified_upper(res, verdicts)]
        table[name] = {key: [rows[q] for q in sorted(rows)]}
    EXPECTED.write_text(json.dumps(table) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/expected.json from the current code and exit")
    args = parser.parse_args(argv)
    sumtdp = import_package()
    if args.record:
        record_expected(sumtdp)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # Traced runs report per-layer values only and probe only in set-up.
        probe = HostProbe(share=0.0 if args.trace else PROBE_SHARE)
        workload = WORKLOADS[args.workload](sumtdp, args.seed, Path(tmp), probe)
        setup = measure_setup(workload, probe)
        setup_probes = probe.samples
        if args.trace:
            tracer = Tracer()
            patches = Patches(tracer, sumtdp)
            passes, plain, traced = run_traced(workload, args.seconds, patches)
            metrics = per_layer_metrics(tracer, setup, plain, traced)
            spans = OUT / f"spans_{args.workload}_seed{args.seed}.csv.gz"
            tracer.write(spans)
            extra = {"passes_untraced": len(plain), "passes_traced": len(traced),
                     "spans_file": str(spans.relative_to(ROOT))}
        else:
            passes, times = run_passes(workload, args.seconds, probe)
            metrics = end_to_end_metrics(workload, setup, setup_probes, passes, times, probe.samples)
            extra = {"passes": len(passes), "pass_s": times,
                     "latency_s": [r.latency for requests in passes for r in requests],
                     "setup_probe_s": setup_probes, "probe_s": probe.samples}
        check, extras = workload.check(passes)
    metrics.update(extras)
    metrics["failed_frac"] = (ratio(check.failed, check.attempted), "ratio", "lower")
    report(args, metrics, check, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
