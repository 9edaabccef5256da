"""Command-line interface: golden runs, formats, manifests, exit codes."""

import csv
import hashlib
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy import stats as sps

import sumtdp
from sumtdp.cli import build_parser, main

TOY_CSV = """\
H1,H2,H3,H4,H5
6,5,4,1,1
1,2,1,0,4
8,3,0,2,1
8,1,0,1,0
0,6,1,1,2
7,0,1,2,1
"""

SCHEMA_PATH = "docs/output-schema.json"


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV)
    return str(path)


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(80)
    data = rng.normal(size=(15, 4))
    data[:, 0] += 1.5
    path = tmp_path / "data.csv"
    lines = ["G1,G2,G3,G4"]
    lines += [",".join(f"{v:.8f}" for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTdp:
    def test_golden_single_set(self, toy_csv, capsys):
        code, out, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]")
        assert code == 0
        payload = json.loads(out)
        assert payload == [{
            "set_id": 1, "size": 2, "d": 1, "tdp": 0.5,
            "converged": True, "iterations": 4,
        }]
        manifest = json.loads(err)
        assert manifest["subcommand"] == "tdp"

    def test_output_matches_schema(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", '[[1,2],["H3"],[1,2,3,4,5]]')
        assert code == 0
        schema = json.load(open(SCHEMA_PATH))
        jsonschema.validate(json.loads(out), schema)

    def test_sets_by_name(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", '[["H1","H2"]]')
        assert code == 0
        assert json.loads(out)[0]["d"] == 1

    def test_sets_flat_list_is_one_set(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[1,2]")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["size"] == 2

    def test_sets_from_line_file(self, toy_csv, tmp_path, capsys):
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("1,2\nH4 H5\n")
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", str(sets_file))
        assert code == 0
        payload = json.loads(out)
        assert [e["set_id"] for e in payload] == [1, 2]
        assert payload[0]["d"] == 1
        assert payload[1]["d"] == 0

    def test_bad_set_becomes_error_entry(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", '[[1,9],[1,2]]')
        assert code == 0
        payload = json.loads(out)
        assert "error" in payload[0]
        assert "out of range" in payload[0]["error"]
        assert payload[1]["d"] == 1
        schema = json.load(open(SCHEMA_PATH))
        jsonschema.validate(payload, schema)

    @pytest.mark.parametrize("spec", ['[[null],[1,2]]', '[[[1],2],[1,2]]'])
    def test_malformed_token_becomes_error_entry(self, toy_csv, capsys, spec):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4", "--sets", spec)
        assert code == 0
        payload = json.loads(out)
        assert "bad column token" in payload[0]["error"]
        assert payload[1]["d"] == 1
        jsonschema.validate(payload, json.load(open(SCHEMA_PATH)))

    def test_boolean_is_not_a_column(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[true,2]]")
        assert code == 0
        assert json.loads(out) == [
            {"set_id": 1, "error": "bad column token True"}]

    def test_fractional_index_is_not_a_column(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1.5,2],[2.0,1]]")
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"set_id": 1, "error": "column index 1.5 is not an integer"}
        assert payload[1]["size"] == 2

    def test_csv_format(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["d"] == "1"
        assert rows[0]["tdp"] == "0.5"

    def test_out_file_and_manifest(self, toy_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--out", str(out_path))
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload[0]["d"] == 1
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"][0] == "sumtdp"
        assert manifest["subcommand"] == "tdp"
        assert manifest["versions"]["sumtdp"]
        assert list(manifest["inputs"].values())[0].startswith("sha256:")
        assert manifest["wall_time_s"] >= 0

    def test_trace_csv(self, toy_csv, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--trace", str(trace_path))
        assert code == 0
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        assert {r["kind"] for r in rows} >= {"bound", "path", "eval", "branch"}
        evals = [r for r in rows if r["kind"] == "eval"]
        assert all(r["set_id"] == "1" for r in rows)
        # survivor witness and pivot are reported 1-based
        assert any(r["witness"] == "1;4" for r in evals)
        branch = next(r for r in rows if r["kind"] == "branch")
        assert branch["pivot"] == "1"

    def test_trace_lift_row(self, toy_csv, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,4,5]]", "--trace", str(trace_path))
        assert code == 0
        assert json.loads(out)[0]["iterations"] == 1
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        lift = rows[-1]
        assert (lift["kind"], lift["overlap"], lift["witness"]) == ("lift", "3", "1;4;5")
        assert float(lift["value"]) <= 0.0

    def test_one_problem_per_run(self, toy_csv, capsys, monkeypatch):
        built = []
        real = sumtdp.SumTestProblem.from_matrix

        def counting(stats, cfg):
            built.append(stats)
            return real(stats, cfg)

        monkeypatch.setattr(sumtdp.SumTestProblem, "from_matrix", counting)
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2],[1,4,5],[2,3,4]]")
        assert code == 0
        assert [e["set_id"] for e in json.loads(out)] == [1, 2, 3]
        assert len(built) == 1

    def test_truncation_reduces_by_default(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--truncate", "2.0")
        assert code == 0
        entry = json.loads(out)[0]
        assert entry["m_reduced"] == 3
        assert entry["removed"] == 1
        assert entry["collapsed"] == 2

    def test_truncate_rank(self, toy_csv, capsys):
        # rank 12 of the toy matrix is the value 2.0, matching --truncate 2.0
        code_a, out_a, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--truncate-rank", "12")
        code_b, out_b, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--truncate", "2.0")
        assert code_a == code_b == 0
        assert json.loads(out_a) == json.loads(out_b)

    def test_exclusive_truncation_flags(self, toy_csv, capsys):
        code, _, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--truncate", "2.0", "--truncate-rank", "5")
        assert code == 2
        assert "mutually exclusive" in err


class TestTestCommand:
    def test_golden(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "test", "--stats", toy_csv, "--alpha", "0.4",
            "--set", "1,2")
        assert code == 0
        assert json.loads(out) == {
            "size": 2, "quantile": 2.0, "critical_rank": 3, "reject": True,
        }

    def test_default_set_is_everything(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "test", "--stats", toy_csv, "--alpha", "0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 5
        assert payload["reject"] is True

    def test_non_rejected_set(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "test", "--stats", toy_csv, "--alpha", "0.4",
            "--set", "4")
        assert code == 0
        assert json.loads(out)["reject"] is False


class TestLargest:
    def test_golden(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "largest", "--stats", toy_csv, "--alpha", "0.4",
            "--gamma", "0.5")
        assert code == 0
        assert json.loads(out) == {
            "size": 4, "tdp": 0.5, "members": ["H1", "H2", "H3", "H4"]}

    def test_gamma_zero(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "largest", "--stats", toy_csv, "--alpha", "0.4",
            "--gamma", "0")
        assert code == 0
        assert json.loads(out)["size"] == 5

    def test_order_file(self, toy_csv, tmp_path, capsys):
        order = tmp_path / "order.txt"
        order.write_text("H1,H2,H3,H4,H5\n")
        code, out, _ = run(
            capsys, "largest", "--stats", toy_csv, "--alpha", "0.4",
            "--gamma", "0.5", "--order", str(order))
        assert code == 0
        assert json.loads(out)["size"] == 4

    def test_incomplete_order(self, toy_csv, tmp_path, capsys):
        order = tmp_path / "order.txt"
        order.write_text("1,2,3\n")
        code, _, err = run(
            capsys, "largest", "--stats", toy_csv, "--alpha", "0.4",
            "--gamma", "0.5", "--order", str(order))
        assert code == 2
        assert "every column exactly once" in err

    @pytest.mark.parametrize("text", ["[1,2,3,4,null]", "[true,2,3,4,5]"])
    def test_malformed_order_token(self, toy_csv, tmp_path, capsys, text):
        order = tmp_path / "order.json"
        order.write_text(text)
        code, _, err = run(
            capsys, "largest", "--stats", toy_csv, "--alpha", "0.4",
            "--gamma", "0.5", "--order", str(order))
        assert code == 2
        assert "bad column token" in err

    def test_one_column_order(self, tmp_path, capsys):
        stats = tmp_path / "one.csv"
        stats.write_text("H1\n6\n1\n8\n8\n0\n7\n")
        order = tmp_path / "order.txt"
        order.write_text("1\n")
        code, out, _ = run(
            capsys, "largest", "--stats", str(stats), "--alpha", "0.4",
            "--gamma", "0", "--order", str(order))
        assert code == 0
        assert json.loads(out)["members"] == ["H1"]


class TestVerify:
    def test_engine_matches_reference(self, toy_csv, capsys):
        code, out, _ = run(
            capsys, "verify", "--stats", toy_csv, "--alpha", "0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["subsets_checked"] == 31
        assert payload["mismatches"] == 0
        assert payload["details"] == []


class TestDataRoute:
    def test_generated_matrix_runs(self, data_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--data", data_csv, "--b", "64", "--seed", "7",
            "--sets", '[["G1","G2"]]')
        assert code == 0
        entry = json.loads(out)[0]
        assert entry["size"] == 2
        assert 0 <= entry["d"] <= 2

    def test_seed_reproducible(self, data_csv, capsys):
        args = ("tdp", "--data", data_csv, "--b", "64", "--seed", "7",
                "--sets", "[[1,2,3]]")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    def test_combiner_with_truncation(self, data_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--data", data_csv, "--b", "64", "--seed", "7",
            "--combiner", "vw:-1", "--truncate", "20", "--ground", "2",
            "--sets", "[[1,2,3,4]]")
        assert code == 0
        entry = json.loads(out)[0]
        assert entry["size"] == 4
        assert "m_reduced" in entry

    def test_flip_made_column_constant(self, tmp_path, capsys):
        # both columns vary, but a drawn sign flip makes column 0 constant
        path = tmp_path / "flip.csv"
        path.write_text("a,b\n1,0.3\n-1,1.2\n1,-0.4\n-1,2\n")
        code, out, err = run(
            capsys, "tdp", "--data", str(path), "--b", "100", "--seed", "0",
            "--sets", "[[1,2]]")
        assert code == 2
        assert out == ""
        assert "sign flip drawn for row" in err
        assert "makes column 0 constant" in err

    def test_unknown_combiner(self, data_csv, capsys):
        code, _, err = run(
            capsys, "tdp", "--data", data_csv, "--combiner", "nope",
            "--sets", "[[1]]")
        assert code == 2
        assert "unknown combiner" in err


class TestDataConversion:
    """``--data`` with a combiner and truncation gives what the library
    gives on the matrix rebuilt from ``scipy.stats.t.sf``."""

    B, SEED = 100, 3
    SETS = [list(range(1, 7)), list(range(1, 31)), list(range(7, 13))]

    @pytest.fixture
    def signal_csv(self, tmp_path):
        rng = np.random.default_rng(81)
        data = rng.normal(size=(20, 30))
        data[:, :6] += 0.8
        lines = [",".join(f"V{j + 1}" for j in range(30))]
        lines += [",".join(f"{v:.8f}" for v in row) for row in data]
        path = tmp_path / "signal.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def library_entries(self, path, token, one_sided, threshold, rank, ground):
        names, data = sumtdp.read_data_csv(path)
        scheme = sumtdp.TransformationScheme("sign_flip", self.B, self.SEED)
        tstats = sumtdp.sign_flip_matrix(data, scheme, two_sided=not one_sided)
        pvals = sps.t.sf(tstats.values, data.shape[0] - 1)
        if not one_sided:
            pvals = 2.0 * pvals
        evidence = sumtdp.apply_combiner(
            sumtdp.StatisticMatrix(pvals, names=names), sumtdp.Combiner.parse(token))
        if rank is not None:
            threshold = sumtdp.threshold_from_rank(evidence, rank)
        evidence = sumtdp.truncate(evidence, sumtdp.TruncationRule(threshold, ground))
        cfg = sumtdp.TestConfig(0.05, self.B)
        entries = []
        for set_id, cols in enumerate(self.SETS, start=1):
            res = sumtdp.discoveries_matrix(
                evidence, cfg, [c - 1 for c in cols], reduction_ground=ground, step_budget=50)
            entries.append({
                "set_id": set_id, "size": res.n_queried, "d": res.discoveries,
                "tdp": res.tdp, "converged": res.converged, "iterations": res.evals,
                **res.reduction,
            })
        return entries

    @pytest.mark.parametrize("token, one_sided, threshold, rank, ground", [
        ("fisher", False, None, 150, 0.0),
        ("fisher", True, 3.0, None, 0.0),
        ("vw:-1", False, 20.0, None, 1.0),
        ("vw:-1", True, None, 200, 1.0),
        ("liptak", True, 1.645, None, 0.0),
        ("liptak", False, None, 100, 0.0),
        ("edgington", False, None, 300, -1.0),
        ("edgington", True, -0.05, None, -1.0),
    ])
    def test_matches_library(self, signal_csv, capsys, token, one_sided, threshold, rank, ground):
        argv = ["tdp", "--data", signal_csv, "--b", str(self.B), "--seed", str(self.SEED),
                "--sets", json.dumps(self.SETS), "--combiner", token, "--ground", str(ground)]
        argv += ["--truncate-rank", str(rank)] if rank is not None else ["--truncate", str(threshold)]
        if one_sided:
            argv.append("--one-sided")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        got = json.loads(out)
        assert got == self.library_entries(signal_csv, token, one_sided, threshold, rank, ground)
        assert got[0]["d"] > 0


class TestDataGoldens:
    """``--data`` output with a combiner and truncation, pinned by sha256.

    Recorded before the t to evidence conversion learned to skip the
    entries truncation drops; the ``test`` quantile is a sum of matrix
    entries, so a change in any bit of the kept evidence shows up.
    """

    SETS = "[[1,2,3,4],[1,2,3,4,5,6,7,8,9,10,11,12],[5,6,7,8]]"

    @pytest.fixture
    def golden_csv(self, tmp_path):
        rng = np.random.default_rng(2024)
        data = rng.normal(size=(18, 12))
        data[:, :4] += 0.9
        lines = [",".join(f"C{j + 1}" for j in range(12))]
        lines += [",".join(f"{v:.6f}" for v in row) for row in data]
        path = tmp_path / "golden.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("argv, digest", [
        (["tdp", "--sets", SETS, "--combiner", "fisher", "--truncate-rank", "60"],
         "615571948deb82424e3a5d3de9ee132a263ce7023fb4913303029a56bf2a9880"),
        (["tdp", "--sets", SETS, "--combiner", "liptak", "--one-sided",
          "--truncate", "1.6"],
         "50b25e2d8a38909029194f7b535a22e8cee07a1e10ea7b28ac654d839377e611"),
        (["test", "--set", "1,2,3,4,5", "--combiner", "vw:-1",
          "--truncate-rank", "150"],
         "aa70094292d305b079040b54b1147276783c50f3c2e6f302b3aa5a6a4cae57cf"),
        (["test", "--set", "1,2,3,4,5", "--combiner", "edgington", "--one-sided",
          "--truncate", "-0.2", "--ground", "-1"],
         "8256e450b89599829c86698bf99df2082372b6d4b13316984d6fcf73f759bb71"),
    ], ids=["tdp-fisher-rank", "tdp-liptak-one-sided", "test-vw-rank",
            "test-edgington-one-sided"])
    def test_output_digest(self, golden_csv, capsys, argv, digest):
        code, out, _ = run(
            capsys, *argv, "--data", golden_csv, "--b", "100", "--seed", "5")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimulate:
    def test_tiny_grid(self, tmp_path, capsys):
        cfg = {
            "n_obs": 15, "n_hyps": 8, "active_fraction": 0.25,
            "alpha": 0.1, "n_transforms": 30, "n_reps": 2, "seed": 5,
            "combiners": ["fisher", "vw:-1"],
            "cells": [{"correlation": 0.0}, {"correlation": 0.5}],
        }
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "results.csv"
        code, out, _ = run(
            capsys, "simulate", "--config", str(cfg_path),
            "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 4  # 2 cells x 2 combiners
        assert {r["combiner"] for r in rows} == {"fisher", "vw:-1"}
        assert {r["correlation"] for r in rows} == {"0.0", "0.5"}
        for r in rows:
            assert r["error"] == ""
            assert 0.0 <= float(r["mean_tdp_active"]) <= 1.0
        manifest = json.loads(
            (tmp_path / "results.csv.manifest.json").read_text())
        assert manifest["cells"] == 4

    def test_toml_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.toml"
        cfg_path.write_text("n_reps = 1\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert "JSON" in err

    def test_bad_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text("{nope")
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"reps": 3}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert "unknown config keys" in err

    def test_removed_total_budget_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"n_reps": 1, "total_budget": 5}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert "unknown config keys: total_budget" in err

    def test_identity_with_truncation_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(
            {"n_obs": 15, "n_hyps": 6, "n_transforms": 20, "n_reps": 1,
             "combiner": "identity", "truncate_p": 0.05}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert "bad simulation config" in err and "identity" in err

    def test_seed_override(self, tmp_path, capsys):
        cfg = {"n_obs": 15, "n_hyps": 6, "n_transforms": 20, "n_reps": 1,
               "seed": 1, "active_fraction": 0.5, "alpha": 0.1}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "simulate", "--config", str(cfg_path), "--seed", "42")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["seed"] == "42"


class TestErrors:
    def test_missing_stats_file(self, capsys):
        code, _, err = run(
            capsys, "tdp", "--stats", "no-such.csv", "--sets", "[[1]]")
        assert code == 2
        assert "error" in err

    def test_malformed_stats(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n")
        code, _, err = run(
            capsys, "tdp", "--stats", str(path), "--sets", "[[1]]")
        assert code == 2
        assert "bad.csv:2" in err

    def test_empty_sets(self, toy_csv, capsys):
        code, _, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[]")
        assert code == 2
        assert "nonempty" in err

    def test_inline_sets_must_parse(self, toy_csv, capsys):
        # text starting with "[" is inline JSON, never a line-per-set list
        code, out, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2],[3]")
        assert code == 2
        assert out == ""
        assert "--sets" in err

    def test_engine_fault_is_internal_error(self, toy_csv, capsys, monkeypatch):
        # a scan that never settles leaves a subspace with no pivot: an
        # engine fault, reported as such, not as a per-set input error
        monkeypatch.setattr(
            sumtdp.branchbound, "single_step",
            lambda *args, **kwargs: sumtdp.Evaluation(sumtdp.Verdict.UNDECIDED, window=(1, 1)),
        )
        code, out, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]")
        assert code == 1
        assert "internal error" in err
        assert "no free column" in err
        assert out == ""

    @pytest.mark.parametrize("flag, value", [("--max-iter", "-1"), ("--total-budget", "5")])
    @pytest.mark.parametrize("command", [["tdp", "--sets", "[[1,2]]"], ["largest", "--gamma", "0.5"]],
                             ids=["tdp", "largest"])
    def test_bad_budget_flag_is_usage_error(self, toy_csv, capsys, command, flag, value):
        # a negative budget is refused at parse time, naming the flag; the
        # per-query scan cap --total-budget no longer exists
        with pytest.raises(SystemExit) as exc:
            main([*command, "--stats", toy_csv, "--alpha", "0.4", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (["test"], "--trace"),
        (["largest", "--gamma", "0.5"], "--trace"),
        (["verify"], "--trace"),
        (["simulate"], "--trace"),
        (["tdp", "--sets", "[[1,2]]", "--truncate", "2.0"], "--reduce"),
    ], ids=["test-trace", "largest-trace", "verify-trace", "simulate-trace", "tdp-reduce"])
    def test_unread_flag_is_refused(self, toy_csv, tmp_path, capsys, command, flag):
        # only tdp writes a trace, and tdp reduces whenever truncation is
        # active: a flag that could change neither a result nor a time is
        # refused at parse time instead of being ignored
        if command[0] == "simulate":
            config = tmp_path / "study.json"
            config.write_text(json.dumps({"n_reps": 1}))
            source = ["--config", str(config)]
        else:
            source = ["--stats", toy_csv, "--alpha", "0.4"]
        value = tmp_path / "trace.csv" if flag == "--trace" else "off"
        with pytest.raises(SystemExit) as exc:
            main([*command, *source, flag, str(value)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "sumtdp" in out


class TestReadme:
    """The README documents only options and names that exist."""

    README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def section(self, start, last=None):
        """Text from ``start`` to the end of the section holding ``last``."""
        begin = self.README.index(start)
        last_begin = self.README.index(last or start, begin)
        end = self.README.find("\n## ", last_begin + 1)
        return self.README[begin:end if end != -1 else None]

    def test_command_line_flags_exist(self):
        parser = build_parser()
        known = set(parser._option_string_actions)
        for action in parser._subparsers._group_actions:
            for sub in action.choices.values():
                known |= set(sub._option_string_actions)
        # every section from the command line through the budgets; the
        # installation section names pip's flags, not ours
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                               self.section("## Command line", "## Budgets")))
        assert {"--max-iter", "--truncate", "--trace"} <= flags
        assert sorted(flags - known) == []

    def test_command_line_examples_run(self, tmp_path, capsys, monkeypatch):
        """Each ``sumtdp`` example followed by a JSON block prints that JSON."""
        text = self.section("## Command line")
        (toy,) = re.findall(r"```csv\n(.*?)```", text, re.S)
        assert toy == TOY_CSV
        (tmp_path / "toy_stats.csv").write_text(toy)
        monkeypatch.chdir(tmp_path)
        examples = re.findall(r"```sh\n(sumtdp [^\n]*)\n```\s*```json\n(.*?)```", text, re.S)
        assert [cmd.split()[1] for cmd, _ in examples] == ["tdp", "test", "largest", "verify"]
        for command, expected in examples:
            code, out, _ = run(capsys, *shlex.split(command)[1:])
            assert (code, json.loads(out)) == (0, json.loads(expected)), command

    def test_simulate_config_table_lists_every_field(self):
        keys = re.findall(r"^\| `(\w+)` \|", self.section("### `simulate`"), re.M)
        assert keys == [f.name for f in fields(sumtdp.SimulationConfig)]

    def test_entry_points_exported(self):
        items = self.section("Useful entry points").split("\n- ")[1:]
        names = {
            name
            for item in items
            for name in re.findall(r"`(\w+)`", item.split(":", 1)[0])
        }
        assert "discoveries_matrix" in names
        assert sorted(names - set(sumtdp.__all__)) == []
