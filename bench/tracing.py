"""Span recording around sumtdp's public functions, for the traced run.

The package's modules import each other's functions by name (``branchbound``
calls its own ``single_step`` global, ``simharness`` its ``sign_flip_matrix``
global), so a function is wrapped at every ``sumtdp.*`` module attribute that
holds it, which is where its callers look it up.  Methods are wrapped on their
class.  Nothing under ``src/`` changes; leaving a ``Patches`` context restores
every attribute it replaced.

Spans live in flat arrays while the run goes on (name, parent span, request,
start, end) and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly
because the workloads run one request at a time in one thread.
"""

import gzip
import sys
import time
from array import array
from collections import Counter

# Span name -> (defining module, attribute path).  A path with a dot names a
# method on a class of that module.
WRAPPED = (
    ("cli.main", "cli", "main"),
    ("statmatrix.read_data_csv", "statmatrix", "read_data_csv"),
    ("generators.sign_flip_matrix", "generators", "sign_flip_matrix"),
    ("combiners.apply_combiner", "combiners", "apply_combiner"),
    ("combiners.threshold_from_rank", "combiners", "threshold_from_rank"),
    ("combiners.truncate", "combiners", "truncate"),
    ("reduction.reduce_columns", "reduction", "reduce_columns"),
    ("shortcut.SumTestProblem.from_matrix", "shortcut", "SumTestProblem.from_matrix"),
    ("shortcut.Workspace", "shortcut", "Workspace.__init__"),
    ("shortcut.single_step", "shortcut", "single_step"),
    ("shortcut.Workspace.bound_value", "shortcut", "Workspace.bound_value"),
    ("shortcut.Workspace.path_value", "shortcut", "Workspace.path_value"),
    ("branchbound.evaluate_iterative", "branchbound", "evaluate_iterative"),
    ("branchbound.pick_pivot", "branchbound", "pick_pivot"),
    ("inference.discoveries", "inference", "discoveries"),
    ("inference.discoveries_matrix", "inference", "discoveries_matrix"),
    ("simharness.effect_size", "simharness", "effect_size"),
    ("simharness.simulate_data", "simharness", "simulate_data"),
    ("simharness.run_replication", "simharness", "run_replication"),
)

# scipy's t.sf is shared by the CLI and the simulation harness, so its span
# takes the name of the layer that called it.
T_TO_P = {"cli.main": "cli.t_to_p", "simharness.run_replication": "simharness.t_to_p"}

SPAN_NAMES = tuple(name for name, _, _ in WRAPPED) + tuple(T_TO_P.values())


class Tracer:
    """In-memory span store.  Each top-level span starts a new request id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.requests = 0
        self.counters = Counter()
        self.t0 = time.perf_counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id):
        idx = len(self.start)
        if self.stack:
            self.parent.append(self.stack[-1])
        else:
            self.parent.append(-1)
            self.requests += 1
        self.name.append(name_id)
        self.request.append(self.requests)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, names):
        """The innermost open span's name among ``names``, or None."""
        ids = {self._ids.get(n): n for n in names}
        for idx in reversed(self.stack):
            found = ids.get(self.name[idx])
            if found is not None:
                return found
        return None

    def aggregate(self):
        """Per-name [calls, total_s, self_s] over all spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path):
        """All spans as gzipped CSV, times in seconds from tracer creation."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("span,name,parent,request,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.request[i]},"
                    f"{self.start[i] - self.t0:.9f},{self.end[i] - self.t0:.9f}\n"
                )


def _counting_hooks(sumtdp):
    """Counters taken from arguments and results at the span boundary."""
    undecided = sumtdp.Verdict.UNDECIDED

    def rows(c, args, kwargs, res):
        c["generators.rows"] += res.n_transforms

    def columns(c, args, kwargs, res):
        c["reduction.columns_in"] += args[0].n_hyps
        c["reduction.columns_kept"] += res.stats.n_hyps

    def scan(c, args, kwargs, res):
        # The root scan of a level passes no window; child scans always do.
        if "window" in kwargs:
            c["branchbound.child_scans"] += 1
            c["branchbound.child_settled"] += res.verdict is not undecided

    def path(c, args, kwargs, res):
        c["shortcut.path_checks"] += 1
        c["shortcut.path_hits"] += res <= 0.0

    def level(c, args, kwargs, res):
        c["branchbound.budget_exhausted"] += res.verdict is undecided

    def query(c, args, kwargs, res):
        c["inference.queries"] += 1
        c["inference.evals"] += res.evals
        c["inference.levels"] += len(res.levels)
        c["inference.converged"] += res.converged
        c["inference.undecided_levels"] += sum(v is undecided for _, v, _ in res.levels)

    return {
        "generators.sign_flip_matrix": rows,
        "reduction.reduce_columns": columns,
        "shortcut.single_step": scan,
        "shortcut.Workspace.path_value": path,
        "branchbound.evaluate_iterative": level,
        "inference.discoveries": query,
    }


def _wrap(tracer, name, fn, hook):
    name_id = tracer.name_id(name)
    counters = tracer.counters

    def traced(*args, **kwargs):
        idx = tracer.begin(name_id)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if hook is not None:
            hook(counters, args, kwargs, res)
        return res

    return traced


def _wrap_t_sf(tracer, fn):
    ids = {layer: tracer.name_id(name) for layer, name in T_TO_P.items()}
    fallback = tracer.name_id("scipy.t_sf")

    def traced(*args, **kwargs):
        caller = tracer.inside(T_TO_P)
        idx = tracer.begin(ids[caller] if caller else fallback)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)

    return traced


class Patches:
    """Context manager replacing each wrapped function wherever loaded
    ``sumtdp`` modules hold it; leaving the context restores them."""

    def __init__(self, tracer, sumtdp):
        import scipy.stats

        self._wrappers = []
        hooks = _counting_hooks(sumtdp)
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "sumtdp" or key.startswith("sumtdp."))
        ]
        for name, module, attr in WRAPPED:
            home = sys.modules.get(f"sumtdp.{module}")
            if home is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                raw = vars(owner).get(method) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__, hooks.get(name)))
                else:
                    new = _wrap(tracer, name, raw, hooks.get(name))
                self._wrappers.append((owner, method, raw, new))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            new = _wrap(tracer, name, fn, hooks.get(name))
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is fn:
                        self._wrappers.append((mod, key, fn, new))
        self._t = scipy.stats.t
        self._t_sf = _wrap_t_sf(tracer, self._t.sf)

    def __enter__(self):
        for owner, key, _, new in self._wrappers:
            setattr(owner, key, new)
        self._t.sf = self._t_sf
        return self

    def __exit__(self, *exc):
        for owner, key, raw, _ in self._wrappers:
            setattr(owner, key, raw)
        del self._t.sf
