"""What the package imports.

No linter ships with the project, so the first tests walk the syntax tree
of each module in ``src/sumtdp`` and ``tests``: a name bound by an import
must be read somewhere in the module, or be listed in its ``__all__``.
Every name an ``__all__`` lists must exist, once: a stale string there
still imports cleanly and breaks only ``from sumtdp import *``.  A private
definition in ``src/sumtdp`` (a module-level function, class or assignment,
or a method, whose name starts with one underscore) must be read somewhere
in the package: code that only tests reach does not belong there.  A
parameter default of a function or method outside the package's
``__all__`` must be overridden by some call in ``src/sumtdp`` or
``bench``, by keyword or by position: a default no caller sets is an
option that changes nothing, and test calls do not count.  Every
text-mode ``open`` in ``src/sumtdp`` names its encoding, so that reading a
file does not depend on the locale.

A problem's centered matrix is stored hypothesis-major, so a gather of its
columns is one contiguous copy only through ``problem._columns``:
``np.take`` along axis 1 first copies the whole matrix, and ``[:, cols]``
reads one value per row.  No module of ``src/sumtdp`` calls ``np.take`` on
``centered`` or indexes its columns with ``[:, ...]``, directly or through a
name bound to it.

Each module of ``src/sumtdp`` imports only the package modules that
``LAYERS`` lists for it.  The sum-test problem imports nothing but the data
model, and the exhaustive reference nothing but the two, so the reference
that checks the scan loads no search code.

The package never imports ``scipy.stats`` or ``scipy.optimize``: after
``scipy.special``, they cost about half a second and 45 MB of a process.
The Liptak combiner, ``evidence_from_t`` (the one t to p conversion that
``tdp --data`` and the simulation harness share) and the simulation
harness's effect size use the ``scipy.special`` functions behind
``norm.isf``, ``t.sf``, ``t.isf`` and ``nct.cdf`` instead, imported where
they are called, and give the same bits; the effect size solves by a port
of scipy's ``brentq`` (see ``tests/test_simharness.py``).  Running a study
cell loads neither module.  Importing the CLI loads no scipy at all: its
manifest imports scipy for the version when it is written.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtr

import sumtdp
from sumtdp.combiners import _P_HIGH, Combiner

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sumtdp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = ["sumtdp"] + [
    f"sumtdp.{path.stem}"
    for path in sorted((ROOT / "src" / "sumtdp").glob("*.py"))
    if path.stem != "__init__"
]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_spares_exports():
    source = "import os\nimport sys as system\nfrom a import b, c\n__all__ = ['c']\nprint(b)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system"]


def dead_definitions(sources: dict) -> list:
    """Private definitions that no module of ``sources`` (name -> text) reads.

    A read is a loaded name, an attribute or an imported name, anywhere in
    any of the modules.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, item.lineno, f"{node.name}.{item.name}")
                            for item in node.body if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [
        f"{module}:{line}: {name}"
        for module, line, name in defined
        if (bare := name.rpartition(".")[2]).startswith("_")
        and not bare.endswith("__") and bare not in read
    ]


def test_no_dead_definitions():
    sources = {path.name: path.read_text() for path in sorted((ROOT / "src" / "sumtdp").glob("*.py"))}
    assert dead_definitions(sources) == []


def test_dead_definition_checker_flags_unread_private_names():
    a = (
        "_LIMIT = 3\n_KINDS = ('x',)\nPUBLIC = 1\n"
        "def _add_columns(x):\n    return x\n"
        "def _helper(x):\n    return x + _LIMIT\n"
        "class Thing:\n"
        "    def __init__(self):\n        self._table = _helper(1)\n"
        "    def _grow(self):\n        return self._table\n"
        "    def _stale(self):\n        return self._grow()\n"
    )
    b = "from a import _helper as h\n"
    assert dead_definitions({"a.py": a, "b.py": b}) == [
        "a.py:2: _KINDS", "a.py:4: _add_columns", "a.py:13: Thing._stale",
    ]


def unset_defaults(sources: dict, callers: dict, public) -> list:
    """Defaulted parameters of ``sources`` that no call in ``callers`` supplies.

    Both map a name to module text.  Functions and methods named in
    ``public``, or defined on a class named there, are skipped, and so are
    names that a caller reads as a value (passed on, so called out of
    sight).  A call supplies a parameter by keyword, by ``**``, or by
    position at or past its index (any position for ``*``).  Calls match
    by the called name alone, and a class call is a call of its
    ``__init__``.
    """
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    calls, escaped, public = {}, set(), set(public)
    for source in callers.values():
        nodes = list(ast.walk(ast.parse(source)))
        # called, or only looked into: each callee and each attribute's owner
        heads = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        heads |= {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
        for node in nodes:
            if isinstance(node, ast.Call):
                calls.setdefault(name(node.func), []).append(node)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in heads:
                escaped.add(name(node))

    def supplies(call, arg, index):
        if any(k.arg in (arg, None) for k in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return index is not None and (starred or len(call.args) > index)

    faults = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(id(node))
            callee = cls if node.name == "__init__" else node.name
            if {node.name, cls} & public or callee in escaped:
                continue
            args = node.args
            params = args.posonlyargs + args.args
            if cls is not None and "staticmethod" not in {
                getattr(d, "id", None) for d in node.decorator_list
            }:
                params = params[1:]  # self or cls
            first = len(params) - len(args.defaults)
            defaulted = [(a.arg, i) for i, a in enumerate(params) if i >= first]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for arg, index in defaulted:
                if not any(supplies(call, arg, index) for call in calls.get(callee, ())):
                    where = f"{cls}.{node.name}" if cls else node.name
                    faults.append(f"{module}:{node.lineno}: {where}({arg})")
    return faults


def test_no_default_left_unset():
    sources = {path.name: path.read_text() for path in sorted((ROOT / "src" / "sumtdp").glob("*.py"))}
    callers = {f"src/{name}": text for name, text in sources.items()}
    callers.update({f"bench/{path.name}": path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))})
    assert unset_defaults(sources, callers, sumtdp.__all__) == []


def test_unset_default_checker_flags_defaults_no_caller_sets():
    a = (
        "def scan(x, window=None, trace=None, *, fast=False):\n    return x\n"
        "def grid(lo, hi, points=32):\n    return lo\n"
        "def public(x, flag=True):\n    return x\n"
        "def entry(argv=None):\n    return argv\n"
        "class Box:\n"
        "    def __init__(self, size=1, fill=0):\n        self.size = size\n"
        "    def grow(self, by=1):\n        return self.size + by\n"
        "    @staticmethod\n"
        "    def make(n, k=2):\n        return n * k\n"
    )
    b = (
        "scan(1, (2, 3))\n"
        "grid(0, 1)\n"
        "run(entry)\n"
        "box = Box(4)\n"
        "box.grow(by=2)\n"
        "Box.make(1, 2)\n"
    )
    assert unset_defaults({"a.py": a}, {"a.py": a, "b.py": b}, ["public"]) == [
        "a.py:1: scan(trace)", "a.py:1: scan(fast)", "a.py:3: grid(points)",
        "a.py:10: Box.__init__(fill)",
    ]


def unnamed_encodings(source: str) -> list:
    """Lines of ``source`` that call ``open`` in text mode without ``encoding=``.

    The mode is the second positional argument or ``mode=``; one that is not
    a string literal counts as text.
    """
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and "encoding" not in keywords:
            faults.append(f"line {node.lineno}")
    return faults


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sumtdp").glob("*.py")),
                         ids=lambda p: p.name)
def test_text_files_name_their_encoding(path):
    assert unnamed_encodings(path.read_text(encoding="utf-8")) == []


def test_encoding_checker_flags_text_mode_opens_only():
    source = (
        "open(a)\nopen(a, 'rb')\nopen(a, mode='w')\nopen(a, 'w', encoding='utf-8')\n"
        "open(a, newline='')\nopen(a, mode)\nopen(a, encoding=enc)\nfh.open(a)\n"
    )
    assert unnamed_encodings(source) == ["line 1", "line 3", "line 5", "line 6"]


def export_faults(module) -> list:
    names = list(getattr(module, "__all__", ()))
    faults = [f"{name} listed twice" for name in sorted(set(names)) if names.count(name) > 1]
    for name in names:
        try:
            getattr(module, name)
        except AttributeError:
            faults.append(f"{name} not defined")
    return faults


@pytest.mark.parametrize("name", PACKAGE)
def test_all_names_resolve_once(name):
    assert export_faults(importlib.import_module(name)) == []


def test_export_checker_flags_stale_and_repeated_names():
    module = type(sys)("fake")
    module.__all__ = ["a", "gone", "a"]
    module.a = 1
    assert export_faults(module) == ["a listed twice", "gone not defined"]


# Package modules each module may import; "__init__" is the package itself.
LAYERS = {
    "statmatrix": set(),
    "problem": {"statmatrix"},
    "oracle": {"problem", "statmatrix"},
    "shortcut": {"problem", "statmatrix"},
    "combiners": {"statmatrix"},
    "generators": {"statmatrix"},
    "branchbound": {"shortcut"},
    "inference": {"branchbound", "problem", "shortcut", "statmatrix"},
    "simharness": {"combiners", "generators", "inference", "problem", "statmatrix"},
    "cli": {"__init__", "combiners", "generators", "inference", "oracle", "problem",
            "simharness", "statmatrix"},
    "__init__": {"combiners", "generators", "inference", "oracle", "problem", "shortcut",
                 "simharness", "statmatrix"},
}


def package_imports(source: str, modules) -> set:
    """The package modules ``source`` imports: ``from .x``, ``from . import x``,
    ``from sumtdp.x`` and ``import sumtdp.x``; a name of ``modules`` imported
    from the package is that module, any other name the package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["sumtdp" if node.level else "", node.module]))
            names = [f"sumtdp.{alias.name}" if module == "sumtdp" and alias.name in modules
                     else module for alias in node.names]
        else:
            continue
        found |= {name.partition(".")[2] or "__init__" for name in names
                  if name.partition(".")[0] == "sumtdp"}
    return found


def test_modules_import_only_their_layers():
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "sumtdp").glob("*.py"))}
    extra = {name: sorted(package_imports(text, LAYERS) - LAYERS.get(name, set()))
             for name, text in sources.items()}
    assert extra == {name: [] for name in sources}
    assert sorted(sources) == sorted(LAYERS)


def test_layer_checker_reads_every_import_form():
    source = (
        "import numpy\nimport sumtdp\nimport sumtdp.cli as c\n"
        "from . import __version__, oracle\nfrom .shortcut import Workspace\n"
        "from sumtdp.problem import reject\nfrom sumtdp import generators\n"
        "from os import path\n"
        "def late():\n    from .simharness import run_grid\n"
    )
    assert package_imports(source, ["oracle", "generators"]) == {
        "__init__", "cli", "oracle", "shortcut", "problem", "generators", "simharness",
    }


def scipy_loaded_by(module: str, run: str = "") -> list:
    """The scipy modules a fresh interpreter holds after ``import module`` and ``run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}\n{run}\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


@pytest.mark.parametrize("module", ["sumtdp", "sumtdp.cli"])
def test_import_leaves_scipy_stats_and_optimize_unloaded(module):
    assert not {"scipy.stats", "scipy.optimize"} & set(scipy_loaded_by(module))


def test_study_leaves_scipy_stats_and_optimize_unloaded():
    run = ("sumtdp.run_study(sumtdp.SimulationConfig(n_obs=12, n_hyps=8, n_transforms=20, "
           "n_reps=2, truncate_p=0.05))")
    loaded = scipy_loaded_by("sumtdp", run)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.partition(".")[2].startswith(("stats", "optimize"))]


def test_cli_import_leaves_scipy_unloaded():
    assert scipy_loaded_by("sumtdp.cli") == []


def test_liptak_equals_norm_isf_bit_for_bit():
    p = np.concatenate([
        [_P_HIGH, 1.0, 0.5, 5e-324, 1e-300, 1e-20, 1e-8, 0.25],
        np.random.default_rng(0).uniform(size=500),
    ])
    got = Combiner.parse("liptak").transform(p)
    assert got.tobytes() == stats.norm.isf(np.minimum(p, _P_HIGH)).tobytes()


@pytest.mark.parametrize("df", [1, 2, 9, 49, 1000])
def test_stdtr_form_equals_t_sf_bit_for_bit(df):
    t = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 1e10, -1e10, np.inf, -np.inf],
        5.0 * np.random.default_rng(df).standard_normal(500),
    ]).reshape(-1, 10)
    assert stdtr(df, -t).tobytes() == stats.t.sf(t, df).tobytes()


def centered_column_reads(source: str) -> list:
    """Lines of ``source`` that call ``take`` on ``centered`` or index it ``[:, ...]``.

    ``centered`` is an attribute of that name, or a name that the function
    reading it, or one it is nested in, assigns one, alone or in a tuple
    assignment, and that no parameter of a function in between shadows.
    """
    def scope(node):
        """``node``'s descendants, less the bodies of functions defined in it."""
        todo = list(ast.iter_child_nodes(node))
        while todo:
            child = todo.pop()
            yield child
            if not isinstance(child, ast.FunctionDef):
                todo.extend(ast.iter_child_nodes(child))

    def centered(node, aliases):
        return (isinstance(node, ast.Attribute) and node.attr == "centered") or (
            isinstance(node, ast.Name) and node.id in aliases)

    def check(node, aliases):
        nodes = sorted(scope(node), key=lambda n: getattr(n, "lineno", 0))
        for assign in (n for n in nodes if isinstance(n, ast.Assign)):
            for target in assign.targets:
                pairs = [(target, assign.value)]
                if isinstance(target, ast.Tuple) and isinstance(assign.value, ast.Tuple):
                    pairs = zip(target.elts, assign.value.elts)
                aliases = aliases | {t.id for t, v in pairs if isinstance(t, ast.Name)
                                     and centered(v, ())}
        faults = []
        for n in nodes:
            if isinstance(n, ast.FunctionDef):
                faults += check(n, aliases - {a.arg for a in ast.walk(n.args)
                                              if isinstance(a, ast.arg)})
            elif isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None)) \
                    == "take" and n.args and centered(n.args[0], aliases):
                faults.append((n.lineno, "take"))
            elif isinstance(n, ast.Subscript) and centered(n.value, aliases) \
                    and isinstance(n.slice, ast.Tuple) and isinstance(n.slice.elts[0], ast.Slice):
                faults.append((n.lineno, "[:, ...]"))
        return faults

    return [f"line {line}: {kind}" for line, kind in sorted(check(ast.parse(source), set()))]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sumtdp").glob("*.py")),
                         ids=lambda p: p.name)
def test_centered_columns_read_through_one_helper(path):
    assert centered_column_reads(path.read_text(encoding="utf-8")) == []


def test_column_read_checker_flags_takes_and_column_slices():
    source = (
        "a = np.take(prob.centered, cols, axis=1)\n"
        "cen, order = self.centered, self.order\n"
        "b = cen[:, cols]\n"
        "c = take(cen, [1])\n"
        "d = order[:, 1] + cen[0] + _columns(cen, cols) + prob.centered.T[3]\n"
        "e = prob.centered[:3, 2:]\n"
        "def f(cen):\n    return cen[1:, 2]\n"
        "def g(prob):\n    cen = prob.centered\n"
        "    def h():\n        return cen[:, 2]\n"
        "    return lambda: np.take(cen, 1, axis=1)\n"
    )
    assert centered_column_reads(source) == [
        "line 1: take", "line 3: [:, ...]", "line 4: take", "line 6: [:, ...]",
        "line 12: [:, ...]", "line 13: take",
    ]
