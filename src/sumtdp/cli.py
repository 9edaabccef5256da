"""Command-line front end.

Subcommands:

* ``test``      sum test of one hypothesis set (centered quantile + verdict)
* ``tdp``       discovery bounds for many sets at once
* ``largest``   largest prefix of an ordering with TDP bound >= gamma
* ``simulate``  Monte Carlo study grid from a JSON config
* ``verify``    cross-check the engine against the exhaustive reference

User-facing column indices are 1-based everywhere (set specs, order files,
trace output); the conversion to internal 0-based indices happens here and
only here.  Each subcommand computes its result; :func:`main` alone times the
run, writes the result and writes a manifest (command, configuration,
versions, input checksums, wall time) next to ``--out``, or to stderr when
results go to stdout, so any result file can be traced back to its exact
inputs.  ``tdp`` reduces the matrix for each set whenever truncation is
active (see :mod:`.reduction`), and is the only subcommand with ``--trace``.

Exit codes: 0 success, 1 internal error or verification mismatch, 2 usage or
input error.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import platform
import sys
import time
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .combiners import (
    COMBINER_KINDS,
    Combiner,
    TruncationRule,
    apply_combiner,
    evidence_from_t,
    threshold_from_rank,
    truncate,
)
from .generators import TransformationScheme, sign_flip_matrix
from .inference import discoveries, discoveries_matrix, largest_subset
from .oracle import RejectionTable
from .shortcut import SumTestProblem, TraceLog
from .statmatrix import (
    StatisticMatrix,
    TestConfig,
    column_index,
    read_data_csv,
    read_statistic_csv,
    reject,
    subset_quantile,
    validate_subset,
)


class InputError(ValueError):
    """User-correctable problem: bad file, bad flag combination, bad spec."""


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumtdp",
        description=(
            "Simultaneous lower confidence bounds on true discoveries via "
            "sum-based permutation tests"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_input=True):
        p.add_argument("--alpha", type=float, default=None,
                       help="significance level (default 0.05)")
        p.add_argument("--seed", type=int, default=None,
                       help="generator seed (used when --data is given)")
        p.add_argument("--out", default=None,
                       help="write results here (default stdout); the manifest "
                            "goes to <out>.manifest.json")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default json; simulate defaults to csv)")
        if with_input:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--stats", default=None,
                             help="statistic matrix CSV (header; first data row observed)")
            src.add_argument("--data", default=None,
                             help="raw data CSV (observations x variables, header); "
                                  "the matrix holds t statistics under sign flips")
            p.add_argument("--b", type=int, default=200,
                           help="transformations to generate from --data, "
                                "identity included (default 200)")
            p.add_argument("--one-sided", action="store_true",
                           help="signed t statistics instead of absolute values")
            p.add_argument("--combiner", default=None, metavar="KIND",
                           help="p-value transform: "
                                + "|".join(k for k in COMBINER_KINDS if k != "generalized_mean")
                                + "|vw:<r> (entries must be p-values; with --data, "
                                "statistics are converted to p-values first)")
            p.add_argument("--truncate", type=float, default=None, metavar="T",
                           help="floor entries below T to the ground value")
            p.add_argument("--truncate-rank", type=int, default=None, metavar="K",
                           help="use the K-th greatest matrix entry as the threshold")
            p.add_argument("--ground", type=float, default=0.0,
                           help="ground value for truncation (default 0)")

    def add_budget(p):
        p.add_argument("--max-iter", type=_nonnegative_int, default=50, metavar="H",
                       help="branch-and-bound scans per overlap level (default 50)")

    p_test = sub.add_parser("test", help="sum test of one hypothesis set")
    add_common(p_test)
    p_test.add_argument("--set", default=None, metavar="SPEC",
                        help="hypothesis set: JSON list or comma-separated 1-based "
                             "indices/names (default: all columns)")

    p_tdp = sub.add_parser("tdp", help="discovery bounds for many sets")
    add_common(p_tdp)
    p_tdp.add_argument("--sets", required=True, metavar="SPEC",
                       help="JSON list of lists (inline or file path), or a file "
                            "with one comma-separated set per line; 1-based "
                            "indices or header names")
    add_budget(p_tdp)
    p_tdp.add_argument("--trace", default=None, metavar="PATH",
                       help="write per-size bound/path audit rows as CSV")

    p_largest = sub.add_parser("largest",
                               help="largest prefix with TDP bound >= gamma")
    add_common(p_largest)
    p_largest.add_argument("--gamma", type=float, required=True,
                           help="TDP target in [0, 1]")
    p_largest.add_argument("--order", default=None, metavar="FILE",
                           help="permutation of all columns (JSON list or lines "
                                "of 1-based indices/names; default natural order)")
    add_budget(p_largest)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study grid")
    add_common(p_sim, with_input=False)
    p_sim.add_argument("--config", required=True,
                       help="JSON study configuration (see README for the schema)")
    p_sim.add_argument("--full-scale", action="store_true",
                       help="full-scale defaults (1000 variables, 1000 replications) "
                            "instead of desk scale (100/200)")

    p_verify = sub.add_parser("verify",
                              help="cross-check against the exhaustive reference")
    add_common(p_verify)

    return parser


# ---------------------------------------------------------------------------
# input plumbing


def _alpha(args) -> float:
    return 0.05 if args.alpha is None else args.alpha


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def _load_matrix(args, inputs: dict) -> StatisticMatrix:
    """Load or generate the statistic matrix, then combine and truncate."""
    if args.truncate is not None and args.truncate_rank is not None:
        raise InputError("--truncate and --truncate-rank are mutually exclusive")
    comb = Combiner.parse(args.combiner) if args.combiner is not None else None
    if args.stats is not None:
        inputs[args.stats] = _sha256(args.stats)
        stats = read_statistic_csv(args.stats)
    else:
        inputs[args.data] = _sha256(args.data)
        names, data = read_data_csv(args.data)
        scheme = TransformationScheme(kind="sign_flip", n_transforms=args.b, seed=args.seed)
        tstats = sign_flip_matrix(data, scheme, two_sided=not args.one_sided)
        if comb is not None:
            # generated t statistics become two-sided (or one-sided) p-values
            return evidence_from_t(
                tstats, data.shape[0] - 1, comb, two_sided=not args.one_sided,
                names=names, threshold=args.truncate, rank=args.truncate_rank,
                ground=args.ground,
            )
        stats = StatisticMatrix(tstats.values, names=names)

    if comb is not None:
        stats = apply_combiner(stats, comb)
    threshold = args.truncate
    if args.truncate_rank is not None:
        threshold = threshold_from_rank(stats, args.truncate_rank)
    if threshold is not None:
        stats = truncate(stats, TruncationRule(threshold=threshold, ground=args.ground))
    return stats


def _problem(args, inputs: dict):
    """The loaded matrix, its test configuration and its sum-test problem."""
    stats = _load_matrix(args, inputs)
    cfg = TestConfig(_alpha(args), stats.n_transforms)
    return stats, cfg, SumTestProblem.from_matrix(stats, cfg)


def _column_indices(tokens, stats: StatisticMatrix) -> list:
    """1-based indices or header names -> 0-based indices, in token order.

    Strings are names or integers; any other token must pass
    :func:`column_index` (integers and integral floats), so anything else
    JSON can hold (null, booleans, nested lists, objects) is an input error.
    """
    names = list(stats.column_names())
    out = []
    for tok in tokens:
        if isinstance(tok, str):
            tok = tok.strip()
            if not tok:
                continue
            if tok in names:
                out.append(names.index(tok))
                continue
            try:
                tok = int(tok)
            except ValueError:
                raise InputError(f"unknown column {tok!r}") from None
        else:
            try:
                tok = column_index(tok)
            except ValueError as exc:
                if isinstance(tok, float):
                    raise InputError(str(exc)) from None
                raise InputError(f"bad column token {tok!r}") from None
        if not 1 <= tok <= stats.n_hyps:
            raise InputError(
                f"column index {tok} out of range 1..{stats.n_hyps} (indices are 1-based)"
            )
        out.append(tok - 1)
    return out


def _parse_tokens(tokens, stats: StatisticMatrix):
    """1-based indices or header names -> sorted validated 0-based tuple."""
    return validate_subset(_column_indices(tokens, stats), stats.n_hyps)


def _read_list(spec: str, inputs: dict, inline=False):
    """The JSON value of file ``spec``, else its lines split into tokens.

    Tokens are separated by commas or blanks, one list per nonblank line.
    Returns the value and whether it was JSON.  The file's hash goes to
    ``inputs``; with ``inline``, a ``spec`` starting with ``[`` is the text
    itself and must be JSON.
    """
    is_text = inline and spec.lstrip().startswith("[")
    if is_text:
        text = spec
    else:
        inputs[spec] = _sha256(spec)
        with open(spec) as fh:
            text = fh.read()
    try:
        return json.loads(text), True
    except json.JSONDecodeError as exc:
        if is_text:
            raise InputError(f"--sets is not valid JSON: {exc}") from None
        lines = [line for line in text.splitlines() if line.strip()]
        return [line.replace(",", " ").split() for line in lines], False


def _parse_set_lists(spec: str, inputs: dict):
    """--sets: JSON list of lists, or one comma-separated set per line."""
    loaded, _ = _read_list(spec, inputs, inline=True)
    if not isinstance(loaded, list) or not loaded:
        raise InputError("--sets must supply a nonempty list of sets")
    if not all(isinstance(entry, list) for entry in loaded):
        loaded = [loaded]  # a single flat list means one set
    return loaded


def _parse_order(spec, stats: StatisticMatrix, inputs: dict):
    if spec is None:
        return None
    tokens, is_json = _read_list(spec, inputs)
    if not is_json:
        tokens = [tok for line in tokens for tok in line]
    elif not isinstance(tokens, list):
        tokens = [tokens]  # a lone JSON scalar, as in a one-column order file
    order = _column_indices(tokens, stats)
    if sorted(order) != list(range(stats.n_hyps)):
        raise InputError("--order must list every column exactly once")
    return tuple(order)


# ---------------------------------------------------------------------------
# output plumbing


def _one_based(indices):
    return ";".join(str(i + 1) for i in indices) if indices else ""


def _write_trace(rows, path):
    columns = (
        "set_id", "kind", "index", "overlap", "size", "value", "verdict",
        "window_lo", "window_hi", "forced", "excluded", "witness", "pivot",
    )
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            out = {key: "" for key in columns}
            out["set_id"] = row.get("set_id", "")
            out["kind"] = row.get("kind", "")
            for key in ("index", "overlap", "size", "value"):
                if row.get(key) is not None:
                    out[key] = row[key]
            if row.get("verdict") is not None:
                out["verdict"] = row["verdict"].value
            window = row.get("window")
            if window is not None:
                out["window_lo"], out["window_hi"] = window
            for key in ("forced", "excluded", "witness"):
                if row.get(key):
                    out[key] = _one_based(row[key])
            if row.get("pivot") is not None:
                out["pivot"] = row["pivot"] + 1
            writer.writerow(out)


class _Result(NamedTuple):
    """A subcommand's outcome, written and turned into the exit code by :func:`main`."""

    payload: object  # the JSON output
    rows: list  # the CSV output, one dict per row
    columns: list
    default_format: str = "json"
    extra: dict = None  # more manifest keys
    code: int = 0


def _emit(args, result: _Result):
    fmt = args.format or result.default_format
    if fmt == "json":
        text = json.dumps(result.payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=result.columns)
        writer.writeheader()
        for row in result.rows:
            writer.writerow({key: row.get(key, "") for key in result.columns})
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_manifest(args, inputs: dict, started: float, extra=None):
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("subcommand",) and not key.startswith("_")
    }
    manifest = {
        "command": ["sumtdp"] + list(getattr(args, "_argv", sys.argv[1:])),
        "subcommand": args.subcommand,
        "config": config,
        "seed": getattr(args, "seed", None),
        "versions": {
            "sumtdp": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "inputs": inputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if extra:
        manifest.update(extra)
    text = json.dumps(manifest, indent=2, default=str) + "\n"
    if args.out:
        with open(args.out + ".manifest.json", "w") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)


# ---------------------------------------------------------------------------
# subcommands: each reads its inputs, recording their hashes in ``inputs``


def _cmd_test(args, inputs: dict) -> _Result:
    stats, cfg, prob = _problem(args, inputs)
    if args.set is None:
        subset = tuple(range(stats.n_hyps))
    else:
        tokens = json.loads(args.set) if args.set.lstrip().startswith("[") \
            else args.set.replace(",", " ").split()
        subset = _parse_tokens(tokens, stats)
    payload = {
        "size": len(subset),
        "quantile": subset_quantile(prob, subset),
        "critical_rank": cfg.crit_rank,
        "reject": reject(prob, subset),
    }
    return _Result(payload, [payload], list(payload))


def _cmd_tdp(args, inputs: dict) -> _Result:
    stats = _load_matrix(args, inputs)
    cfg = TestConfig(_alpha(args), stats.n_transforms)
    # Reduction rests on the floor truncation leaves (see .reduction).
    truncated = args.truncate is not None or args.truncate_rank is not None
    # Without reduction every set queries the same problem: build it at the
    # first set that needs it (a failed build is retried, so each set still
    # reports its own error).
    problem = functools.cache(lambda: SumTestProblem.from_matrix(stats, cfg))

    entries, trace_rows = [], []
    for set_id, tokens in enumerate(_parse_set_lists(args.sets, inputs), start=1):
        trace = TraceLog() if args.trace is not None else None
        opts = dict(step_budget=args.max_iter, trace=trace)
        try:
            subset = _parse_tokens(tokens, stats)
            if truncated:
                res = discoveries_matrix(
                    stats, cfg, subset, reduction_ground=args.ground, **opts,
                )
            else:
                res = discoveries(problem(), subset, **opts)
        except ValueError as exc:
            entries.append({"set_id": set_id, "error": str(exc)})
            continue
        entry = {
            "set_id": set_id,
            "size": res.n_queried,
            "d": res.discoveries,
            "tdp": res.tdp,
            "converged": res.converged,
            "iterations": res.evals,
        }
        if res.reduction is not None:
            entry.update(res.reduction)
        entries.append(entry)
        if trace is not None:
            trace_rows += [{**row, "set_id": set_id} for row in trace.rows]
    if args.trace is not None:
        _write_trace(trace_rows, args.trace)

    columns = ["set_id", "size", "d", "tdp", "converged", "iterations",
               "m_reduced", "removed", "collapsed", "error"]
    return _Result(entries, entries, columns)


def _cmd_largest(args, inputs: dict) -> _Result:
    stats, _, prob = _problem(args, inputs)
    order = _parse_order(args.order, stats, inputs)
    res = largest_subset(prob, args.gamma, order=order, step_budget=args.max_iter)
    names = stats.column_names()
    payload = {
        "size": res.size,
        "tdp": res.result.tdp if res.result is not None else 0.0,
        "members": [names[i] for i in res.subset],
    }
    csv_row = {**payload, "members": ";".join(payload["members"])}
    return _Result(payload, [csv_row], list(payload))


def _cmd_verify(args, inputs: dict) -> _Result:
    stats, _, prob = _problem(args, inputs)
    table = RejectionTable(prob)
    m = stats.n_hyps
    subsets = [tuple(i for i in range(m) if mask >> i & 1) for mask in range(1, 1 << m)]
    mismatches = []
    for subset in subsets:
        expected = len(subset) - table.max_nonrejected_overlap(subset)
        got = discoveries(prob, subset).discoveries
        if expected != got:
            mismatches.append({"set": _one_based(subset), "expected": expected, "got": got})
    payload = {
        "subsets_checked": len(subsets),
        "mismatches": len(mismatches),
        "details": mismatches[:20],
    }
    rows = [{"subsets_checked": len(subsets), "mismatches": len(mismatches)}]
    return _Result(payload, rows, ["subsets_checked", "mismatches"],
                   code=1 if mismatches else 0)


_GRID_ONLY_KEYS = {"cells", "combiners"}


def _build_cells(config: dict, full_scale: bool, args):
    from .simharness import SimulationConfig

    defaults = {"n_hyps": 1000, "n_reps": 1000} if full_scale else {}
    top = {key: value for key, value in config.items() if key not in _GRID_ONLY_KEYS}
    combiners = config.get("combiners")
    cell_dicts = config.get("cells", [{}])
    if not isinstance(cell_dicts, list) or not all(isinstance(c, dict) for c in cell_dicts):
        raise InputError("config key 'cells' must be a list of objects")
    cells = []
    for cell in cell_dicts:
        merged = {**defaults, **top, **cell}
        if args.alpha is not None and "alpha" not in merged:
            merged["alpha"] = args.alpha
        if args.seed is not None:
            merged["seed"] = args.seed
        tokens = combiners or [merged.get("combiner", "fisher")]
        for token in tokens:
            try:
                cells.append(SimulationConfig.from_dict({**merged, "combiner": token}))
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad simulation config: {exc}") from None
    return cells


def _cmd_simulate(args, inputs: dict) -> _Result:
    from .simharness import GRID_COLUMNS, run_grid

    inputs[args.config] = _sha256(args.config)
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise InputError(f"{args.config}: top level must be an object")
    cells = _build_cells(config, args.full_scale, args)
    rows = run_grid(cells)
    payload = [
        {key: (None if value == "" else value) for key, value in row.items()}
        for row in rows
    ]
    return _Result(payload, rows, list(GRID_COLUMNS), default_format="csv",
                   extra={"cells": len(cells)})


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    handlers = {
        "test": _cmd_test,
        "tdp": _cmd_tdp,
        "largest": _cmd_largest,
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
    }
    inputs = {}
    try:
        result = handlers[args.subcommand](args, inputs)
        _emit(args, result)
        _emit_manifest(args, inputs, started, result.extra)
    except (OSError, ValueError) as exc:  # InputError and JSONDecodeError included
        sys.stderr.write(f"sumtdp: error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"sumtdp: internal error: {exc}\n")
        return 1
    return result.code


if __name__ == "__main__":
    sys.exit(main())
