"""Command-line interface: golden runs, formats, manifests, exit codes."""

import csv
import hashlib
import json
import re
import os
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy import stats as sps

import sumtdp
from sumtdp.cli import build_parser, main
from sumtdp.shortcut import Evaluation
from tests.test_exactness import fuzz_instances

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
ROOT = Path(__file__).resolve().parent.parent


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

    def test_max_iter(self, toy_csv, capsys):
        argv = ("tdp", "--stats", toy_csv, "--alpha", "0.4", "--sets", "[[1,2]]")
        for extra, converged, iterations in [((), True, 4), (("--max-iter", "0"), False, 2)]:
            code, out, err = run(capsys, *argv, *extra)
            entry = json.loads(out)[0]
            assert (code, entry["converged"], entry["iterations"]) == (0, converged, iterations)
        assert json.loads(err)["config"]["max_iter"] == 0

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

    def test_header_name_wins_over_integer(self, tmp_path, capsys):
        # Column 1 is named "2": the token 2 is that column, not column 2,
        # while an integer that names no column stays a 1-based index.
        path = tmp_path / "named.csv"
        path.write_text(TOY_CSV.replace("H1,H2", "2,H2", 1))
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("2 H2\n1 2\n")
        code, out, _ = run(
            capsys, "tdp", "--stats", str(path), "--alpha", "0.4",
            "--sets", str(sets_file))
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {
            "set_id": 1, "size": 2, "d": 1, "tdp": 0.5,
            "converged": True, "iterations": 4,
        }
        assert "duplicate" in payload[1]["error"]

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

    @pytest.mark.parametrize("spec, entry", [
        ('[["nope"]]', {"set_id": 1, "error": "unknown column 'nope'"}),
        ('[["1", " ", "2"]]', {"set_id": 1, "size": 2, "d": 1, "tdp": 0.5,
                                "converged": True, "iterations": 4}),
    ], ids=["unknown-name", "blank-token-skipped"])
    def test_string_tokens(self, toy_csv, capsys, spec, entry):
        code, out, _ = run(capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4", "--sets", spec)
        assert code == 0
        assert json.loads(out) == [entry]

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

    @pytest.mark.parametrize("argv, alpha, fmt, seed", [
        (["test", "--data", "DATA", "--seed", "7"], 0.05, "json", 7),
        (["tdp", "--stats", "STATS", "--sets", "[[1,2]]", "--alpha", "0.4", "--format", "csv"],
         0.4, "csv", None),
        (["simulate", "--config", "CONFIG"], None, "csv", None),
    ], ids=["defaults", "given", "simulate"])
    def test_manifest_records_settings_used(self, toy_csv, data_csv, tmp_path, capsys,
                                            argv, alpha, fmt, seed):
        # the parser holds every default, so the manifest records what ran;
        # simulate's alpha stays None, which keeps each cell's own
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"n_obs": 15, "n_hyps": 6, "n_transforms": 40,
                                      "n_reps": 1}))
        paths = {"DATA": data_csv, "STATS": toy_csv, "CONFIG": str(config)}
        code, _, err = run(capsys, *[paths.get(a, a) for a in argv])
        manifest = json.loads(err)
        assert code == 0
        assert (manifest["config"]["alpha"], manifest["config"]["format"]) == (alpha, fmt)
        assert manifest["seed"] == seed

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

    def test_trace_of_reduced_sets_names_user_columns(self, tmp_path, capsys):
        # truncation merges most of the 30 columns into one synthetic
        # column; the trace still names the user's columns, 1-based
        rng = np.random.default_rng(0)
        data = rng.normal(size=(20, 30))
        data[:, 20:26] += 1.0
        path = tmp_path / "signal.csv"
        lines = [",".join(f"v{j + 1}" for j in range(30))]
        lines += [",".join(f"{v:.8f}" for v in row) for row in data]
        path.write_text("\n".join(lines) + "\n")
        sets = [list(range(21, 29)), [1, 2, 3]]
        trace_path = tmp_path / "trace.csv"
        argv = ["tdp", "--data", str(path), "--b", "100", "--combiner", "fisher",
                "--truncate-rank", "200", "--seed", "1", "--sets", json.dumps(sets)]
        code, out, _ = run(capsys, *argv, "--trace", str(trace_path))
        assert code == 0
        assert all(e["collapsed"] >= 2 for e in json.loads(out))
        stats = sumtdp.cli._load_matrix(build_parser().parse_args(argv), {})
        prob = sumtdp.SumTestProblem.from_matrix(stats, sumtdp.TestConfig(0.05, 100))

        def cols(text):
            return [int(c) for c in text.split(";")] if text else []

        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        survivors = [r for r in rows if r["kind"] == "lift" or r["verdict"] == "survivor-found"]
        assert {r["kind"] for r in survivors} == {"eval", "lift"}
        for row in rows:
            named = [c for key in ("forced", "excluded", "witness", "pivot")
                     for c in cols(row[key])]
            assert all(1 <= c <= 30 for c in named)
        for row in survivors:
            query, witness = set(sets[int(row["set_id"]) - 1]), set(cols(row["witness"]))
            if row["kind"] == "lift":
                assert query <= witness
            assert len(query & witness) >= int(row["overlap"])
            assert sumtdp.subset_quantile(prob, [c - 1 for c in witness]) <= 0.0

    def test_one_problem_per_run(self, toy_csv, capsys, monkeypatch):
        built = []
        real = sumtdp.SumTestProblem.from_matrix

        def counting(stats, cfg, ground=None):
            built.append(stats)
            return real(stats, cfg, ground=ground)

        monkeypatch.setattr(sumtdp.SumTestProblem, "from_matrix", counting)
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2],[1,4,5],[2,3,4]]")
        assert code == 0
        assert [e["set_id"] for e in json.loads(out)] == [1, 2, 3]
        assert len(built) == 1

    def test_one_problem_for_truncated_sets(self, toy_csv, capsys, monkeypatch):
        # each set is reduced from the one full problem, not rebuilt
        built = []
        real = sumtdp.SumTestProblem.from_matrix

        def counting(stats, cfg, ground=None):
            built.append(stats)
            return real(stats, cfg, ground=ground)

        monkeypatch.setattr(sumtdp.SumTestProblem, "from_matrix", counting)
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4", "--truncate", "2.0",
            "--sets", "[[1,2],[1,4,5],[2,3,4],[5]]")
        assert code == 0
        assert [e["m_reduced"] for e in json.loads(out)] == [3, 4, 5, 4]
        assert len(built) == 1

    def test_all_column_set_is_not_restricted(self, toy_csv, capsys, monkeypatch):
        # a reduction that keeps every column queries the full problem itself
        restricted = []
        real = sumtdp.SumTestProblem.restricted

        def counting(prob, kept, merged):
            restricted.append(kept)
            return real(prob, kept, merged)

        monkeypatch.setattr(sumtdp.SumTestProblem, "restricted", counting)
        code, out, _ = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4", "--truncate", "2.0",
            "--sets", "[[1,2],[1,2,3,4,5],[1,4,5],[5]]")
        assert code == 0
        assert [e["m_reduced"] for e in json.loads(out)] == [3, 5, 4, 4]
        assert len(restricted) == 3

    def test_header_names_a_merged_column(self, tmp_path, capsys):
        # Columns a and b merge under truncation; the merged column would be
        # named "a+b", which the header already holds.  No reduced matrix
        # with names is built, so both sets answer.
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a+b,d\n0,0,3,2\n1,2,1,0\n2,1,0,1\n0,3,1,1\n1,0,2,0\n3,1,0,1\n")
        code, out, _ = run(
            capsys, "tdp", "--stats", str(path), "--alpha", "0.4", "--truncate", "0.5",
            "--sets", "[[3],[3,4]]")
        assert code == 0
        entries = json.loads(out)
        assert [(e["d"], e["m_reduced"], e["collapsed"]) for e in entries] == [(0, 3, 2)] * 2

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

    def test_truncated_prefixes_are_reduced(self, toy_csv, capsys, monkeypatch):
        # under truncation each prefix query runs on its reduced problem,
        # with the answer of the full one
        restricted = []
        real = sumtdp.SumTestProblem.restricted

        def counting(prob, kept, merged):
            restricted.append(kept)
            return real(prob, kept, merged)

        monkeypatch.setattr(sumtdp.SumTestProblem, "restricted", counting)
        argv = ["largest", "--stats", toy_csv, "--alpha", "0.4", "--truncate", "2", "--gamma"]
        code, out, _ = run(capsys, *argv, "0.5")
        assert code == 0
        assert json.loads(out) == {
            "size": 4, "tdp": 0.5, "members": ["H1", "H2", "H3", "H4"]}
        # prefixes of at most 3 columns leave H4 and H5, at the ground, to merge
        code, out, _ = run(capsys, *argv, "0.99")
        assert code == 0
        assert json.loads(out) == {"size": 0, "tdp": 0.0, "members": []}
        assert restricted

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

    def test_truncated_engine_matches_reference(self, toy_csv, capsys, monkeypatch):
        # under truncation the engine's answers come from reduced problems;
        # the reference enumerates the full one
        restricted = []
        real = sumtdp.SumTestProblem.restricted

        def counting(prob, kept, merged):
            restricted.append(kept)
            return real(prob, kept, merged)

        monkeypatch.setattr(sumtdp.SumTestProblem, "restricted", counting)
        code, out, _ = run(
            capsys, "verify", "--stats", toy_csv, "--alpha", "0.4", "--truncate", "2")
        assert code == 0
        payload = json.loads(out)
        assert (payload["subsets_checked"], payload["mismatches"]) == (31, 0)
        assert restricted

    def test_mismatch_exits_1(self, toy_csv, capsys, monkeypatch):
        # an engine answer off by one is an internal fault, reported set by set
        real = sumtdp.cli.discoveries

        def off_by_one(prob, subset):
            res = real(prob, subset)
            return replace(res, discoveries=res.discoveries + 1)

        monkeypatch.setattr(sumtdp.cli, "discoveries", off_by_one)
        code, out, _ = run(capsys, "verify", "--stats", toy_csv, "--alpha", "0.4")
        assert code == 1
        payload = json.loads(out)
        assert payload["mismatches"] == payload["subsets_checked"] == 31
        details = payload["details"]
        assert [row["set"] for row in details] == [
            ";".join(str(i + 1) for i in range(5) if mask >> i & 1) for mask in range(1, 21)]
        assert all(row["got"] == row["expected"] + 1 for row in details)

    @pytest.mark.parametrize("instance, shape, alpha", [
        (201, (11, 8), 0.2), (394, (6, 7), 0.4),
    ], ids=["fuzz-201", "fuzz-394"])
    def test_tie_heavy_fuzz_instance(self, tmp_path, capsys, instance, shape, alpha):
        # Exact zero sums that float sums in two orders put on different
        # sides of the threshold; centered on the grid, both agree.
        values, got_alpha, _ = next(islice(fuzz_instances(), instance, None))
        assert (values.shape, got_alpha) == (shape, alpha)
        path = tmp_path / f"fuzz{instance}.csv"
        sumtdp.write_statistic_csv(sumtdp.StatisticMatrix(values), path)
        code, out, _ = run(capsys, "verify", "--stats", str(path), "--alpha", str(alpha))
        assert code == 0
        payload = json.loads(out)
        assert payload["subsets_checked"] == 2 ** shape[1] - 1
        assert payload["mismatches"] == 0


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

    def test_unseeded_run_records_the_seed_it_drew(self, data_csv, tmp_path, capsys):
        # each run draws its own seed, and the manifest's seed reruns it exactly
        args = ("test", "--data", data_csv, "--b", "64", "--set", "1,2,3")
        seeds = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert run(capsys, *args, "--out", str(out))[0] == 0
            seed = json.loads(Path(f"{out}.manifest.json").read_text())["seed"]
            assert isinstance(seed, int) and 0 <= seed < 2 ** 63
            code, again, _ = run(capsys, *args, "--seed", str(seed))
            assert (code, again) == (0, out.read_text())
            seeds.append(seed)
        assert seeds[0] != seeds[1]

    def test_combiner_with_truncation(self, data_csv, capsys):
        code, out, _ = run(
            capsys, "tdp", "--data", data_csv, "--b", "64", "--seed", "7",
            "--combiner", "vw:-1", "--truncate", "20", "--ground", "2",
            "--sets", "[[1,2,3,4]]")
        assert code == 0
        entry = json.loads(out)[0]
        assert entry["size"] == 4
        assert "m_reduced" in entry

    @pytest.mark.parametrize("truncation, threshold, rank, ground", [
        (["--truncate-rank", "60"], None, 60, 0.0),
        (["--truncate", "2.0", "--ground", "0.5"], 2.0, None, 0.5),
    ], ids=["rank", "threshold"])
    def test_stats_combiner_matches_library(self, tmp_path, capsys, truncation, threshold,
                                            rank, ground):
        rng = np.random.default_rng(82)
        pvals = rng.uniform(size=(40, 12))
        pvals[0, :5] *= 1e-3
        path = tmp_path / "p.csv"
        sumtdp.write_statistic_csv(sumtdp.StatisticMatrix(pvals), path)
        sets = [[1, 2, 3, 4, 5], list(range(1, 13))]
        code, out, _ = run(capsys, "tdp", "--stats", str(path), "--combiner", "fisher",
                           "--sets", json.dumps(sets), *truncation)
        assert code == 0
        evidence = sumtdp.apply_combiner(
            sumtdp.read_statistic_csv(path), sumtdp.Combiner.parse("fisher"))
        if rank is not None:
            threshold = sumtdp.threshold_from_rank(evidence, rank)
        evidence = sumtdp.truncate(evidence, sumtdp.TruncationRule(threshold, ground))
        prob = sumtdp.SumTestProblem.from_matrix(evidence, sumtdp.TestConfig(0.05, 40),
                                                 ground=ground)
        want = []
        for set_id, cols in enumerate(sets, start=1):
            res = sumtdp.discoveries(prob, [c - 1 for c in cols], step_budget=50)
            want.append({
                "set_id": set_id, "size": res.n_queried, "d": res.discoveries,
                "tdp": res.tdp, "converged": res.converged, "iterations": res.evals,
                **res.reduction,
            })
        assert json.loads(out) == want
        assert want[0]["d"] > 0 and want[0]["m_reduced"] < 12

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

    def test_values_closer_than_grid_step(self, tmp_path, capsys):
        # 1 and 1 + 2^-52 round to one point of column a's grid (step 2^-50)
        path = tmp_path / "step.csv"
        path.write_text("a,b\n1,2\n1.0000000000000002,1\n1,3\n")
        code, out, err = run(
            capsys, "tdp", "--data", str(path), "--b", "10", "--seed", "0",
            "--sets", "[[1,2]]")
        assert code == 2
        assert out == ""
        assert "column 0 has zero variance" in err

    def test_unknown_combiner(self, data_csv, capsys):
        code, _, err = run(
            capsys, "tdp", "--data", data_csv, "--combiner", "nope",
            "--sets", "[[1]]")
        assert code == 2
        assert "unknown combiner" in err

    @pytest.mark.parametrize("token, message", [
        ("identity", "unknown combiner kind 'identity'"),
        ("generalized_mean:-1", "unknown combiner 'generalized_mean:-1'"),
    ])
    @pytest.mark.parametrize("source", ["--stats", "--data"])
    def test_refused_combiner_tokens(self, toy_csv, data_csv, capsys, source, token, message):
        # every combiner decreases in p, and the power family is spelled vw:<r>
        path = toy_csv if source == "--stats" else data_csv
        code, out, err = run(capsys, "tdp", source, path, "--combiner", token,
                             "--sets", "[[1]]")
        assert (code, out) == (2, "")
        assert err == f"sumtdp: error: {message}\n"

    @pytest.mark.parametrize("power", ["inf", "1e400", "nan", "-inf"])
    def test_power_must_be_finite(self, tmp_path, capsys, power):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n0.01,0.2\n0.5,0.7\n0.3,0.9\n")
        code, out, err = run(
            capsys, "tdp", "--stats", str(path), "--combiner", f"vw:{power}",
            "--sets", "[[1,2]]")
        assert (code, out) == (2, "")
        assert f"bad combiner power '{power}'" in err


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
        prob = sumtdp.SumTestProblem.from_matrix(
            evidence, sumtdp.TestConfig(0.05, self.B), ground=ground)
        entries, rows = [], []
        for set_id, cols in enumerate(self.SETS, start=1):
            trace = []
            res = sumtdp.discoveries(prob, [c - 1 for c in cols], step_budget=50, trace=trace)
            entries.append({
                "set_id": set_id, "size": res.n_queried, "d": res.discoveries,
                "tdp": res.tdp, "converged": res.converged, "iterations": res.evals,
                **res.reduction,
            })
            rows += [{**row, "set_id": set_id} for row in trace]
        return entries, rows

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
    def test_matches_library(self, signal_csv, tmp_path, capsys, token, one_sided, threshold,
                             rank, ground):
        argv = ["tdp", "--data", signal_csv, "--b", str(self.B), "--seed", str(self.SEED),
                "--sets", json.dumps(self.SETS), "--combiner", token, "--ground", str(ground)]
        argv += ["--truncate-rank", str(rank)] if rank is not None else ["--truncate", str(threshold)]
        if one_sided:
            argv.append("--one-sided")
        trace_path, want_path = tmp_path / "trace.csv", tmp_path / "want.csv"
        code, out, _ = run(capsys, *argv, "--trace", str(trace_path))
        assert code == 0
        got = json.loads(out)
        entries, rows = self.library_entries(signal_csv, token, one_sided, threshold, rank, ground)
        assert got == entries
        assert got[0]["d"] > 0
        # the same trace rows, set by set, as the CSV writer formats them
        sumtdp.cli._write_trace(rows, want_path)
        assert trace_path.read_text() == want_path.read_text()


class TestDataGoldens:
    """``--data`` output with a combiner and truncation, pinned by sha256.

    Recorded before the t to evidence conversion learned to skip the
    entries truncation drops; the ``test`` quantile is a sum of matrix
    entries, so a change in any bit of the kept evidence shows up.  The
    two ``test`` digests were re-recorded when centered values moved onto
    an exact power-of-two grid, which moved their quantiles in the last
    bits.
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
         "9b6c3e9970625eac03c3a257060c20e8e26ee5dbac1205947936645f7afcaba3"),
        (["test", "--set", "1,2,3,4,5", "--combiner", "edgington", "--one-sided",
          "--truncate", "-0.2", "--ground", "-1"],
         "d910301d6533f227fc633706a47f1549f67792e114de58420e70b8c1bc6a0b5f"),
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
        assert "bad simulation config: unknown combiner kind 'identity'" in err

    @pytest.mark.parametrize("config, key", [
        ({"combiner": 1}, "combiner"),
        ({"combiners": [1]}, "combiners"),
        ({"combiners": "fisher"}, "combiners"),
        ({"combiners": []}, "combiners"),
    ], ids=["combiner-number", "combiners-number", "combiners-string", "combiners-empty"])
    def test_combiner_type_errors_are_usage_errors(self, tmp_path, capsys, config, key):
        # a combiner that is not a name, or combiners that are not a
        # nonempty list of names, is bad input naming its key
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"n_reps": 1, **config}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert re.search(rf"\b{key}\b", err), err

    @pytest.mark.parametrize("config, key", [
        ({"n_hyps": 20.0}, "n_hyps"),
        ({"n_obs": 50.5}, "n_obs"),
        ({"n_transforms": 40.5}, "n_transforms"),
        ({"n_reps": 1.5}, "n_reps"),
        ({"n_reps": True}, "n_reps"),
        ({"seed": -1}, "seed"),
        ({"step_budget": "3"}, "step_budget"),
        ({"step_budget": 2.5}, "step_budget"),
    ])
    def test_integer_fields_are_usage_errors(self, tmp_path, capsys, config, key):
        # never an internal error, and never a budget other than the one given
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"n_reps": 1, **config}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert out == ""
        assert f"bad simulation config: {key} must be an integer of at least" in err

    @pytest.mark.parametrize("config, message", [
        ([{"n_reps": 1}], "top level must be an object"),
        ({"cells": [1]}, "config key 'cells' must be a list of objects"),
        ({"cells": {"n_reps": 1}}, "config key 'cells' must be a list of objects"),
    ], ids=["top-level-list", "cells-of-numbers", "cells-an-object"])
    def test_config_shape_errors_are_usage_errors(self, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        assert message in err

    def test_alpha_flag_fills_cells_without_alpha(self, tmp_path, capsys):
        cfg = {"n_obs": 15, "n_hyps": 6, "n_transforms": 20, "n_reps": 1,
               "cells": [{}, {"alpha": 0.2}]}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg_path), "--alpha", "0.1")
        assert code == 0
        assert [row["alpha"] for row in csv.DictReader(out.splitlines())] == ["0.1", "0.2"]

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

    def test_engine_fault_is_internal_error(self, tmp_path, capsys, monkeypatch):
        # a fault inside a cell is not a bad cell: exit 1, no error row
        def broken(cfg):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(sumtdp.simharness, "run_study", broken)
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps({"n_reps": 1}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 1
        assert out == ""
        assert "internal error" in err and "invariant broken" in err


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

    HUGE = "a,b,c\n1e308,-1e308,1\n-1e308,1e308,0\n1e308,1e308,2\n"
    # every x0 - xr finite, but row sums of the centered matrix overflow
    ROW_SUMS = ("a,b,c,d,e,f\n1,1.3e308,1,2,2,2\n-6e307,2,6e307,-1.3e308,1.3e308,6e307\n"
                "1,2,1,-6e307,-6e307,2\n1,2,0,2,2,0\n")

    @pytest.mark.parametrize("command, text", [
        (["test"], HUGE), (["tdp", "--sets", "[[1,2],[3]]"], HUGE),
        (["tdp", "--sets", "[[1,2]]"], ROW_SUMS), (["verify"], ROW_SUMS),
    ], ids=["test", "tdp", "tdp-row-sums", "verify-row-sums"])
    def test_centering_overflow(self, tmp_path, capsys, command, text):
        # finite statistics whose x0 - xr or row sums overflow: one usage
        # error for the whole run, naming the cause, not an error copied
        # into every set
        path = tmp_path / "huge.csv"
        path.write_text(text)
        code, out, err = run(capsys, *command, "--stats", str(path), "--alpha", "0.4")
        assert code == 2
        assert out == ""
        assert "centered values x0 - xr overflow; rescale the statistics" in err

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
        # test --set follows the same rule, and its message names --set
        code, out, err = run(
            capsys, "test", "--stats", toy_csv, "--alpha", "0.4", "--set", "[1,2")
        assert code == 2
        assert out == ""
        assert "--set is not valid JSON" in err

    @pytest.mark.parametrize("flag, command", [
        ("--sets", ["tdp"]),
        ("--order", ["largest", "--gamma", "0.5"]),
    ], ids=["sets", "order"])
    def test_file_starting_with_bracket_must_parse(self, toy_csv, tmp_path, capsys,
                                                   flag, command):
        # a file that looks like JSON is never read as one list per line
        path = tmp_path / "list.json"
        path.write_text("  \n[[1,2],[3]\n")
        code, out, err = run(
            capsys, *command, "--stats", toy_csv, "--alpha", "0.4", flag, str(path))
        assert code == 2
        assert out == ""
        assert f"{flag} is not valid JSON" in err

    @pytest.mark.parametrize("command", [
        ["test", "--stats"],
        ["tdp", "--sets", "[[1,2]]", "--data"],
        ["tdp", "--sets", "[[1,2]]", "--combiner", "fisher", "--truncate-rank", "4", "--data"],
    ], ids=["test-stats", "tdp-data", "tdp-data-combiner"])
    def test_duplicate_column_names(self, tmp_path, capsys, command):
        path = tmp_path / "dup.csv"
        path.write_text("g,g\n1,2\n-0.5,0.3\n2,1.1\n0.7,-1\n")
        code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (2, "")
        assert "column names must be unique" in err

    def test_one_sided_needs_data(self, toy_csv, capsys):
        # sign flips make the t statistics; a given matrix has no sides
        code, out, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--one-sided")
        assert code == 2
        assert out == ""
        assert "--one-sided applies to --data only" in err

    @pytest.mark.parametrize("flag, value", [("--b", "7"), ("--seed", "3")])
    def test_generator_flags_need_data(self, toy_csv, capsys, flag, value):
        # --b and --seed only shape the sign flips that --data generates
        code, out, err = run(
            capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
            "--sets", "[[1,2]]", flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} applies to --data only" in err

    @pytest.mark.parametrize("source", ["stats", "data"])
    def test_ground_needs_truncation(self, toy_csv, data_csv, capsys, source):
        # the ground value is what truncation floors entries to
        path = toy_csv if source == "stats" else data_csv
        code, out, err = run(
            capsys, "tdp", f"--{source}", path, "--alpha", "0.4",
            "--sets", "[[1,2]]", "--ground", "5")
        assert code == 2
        assert out == ""
        assert "--ground applies with --truncate or --truncate-rank only" in err

    def test_b_defaults_to_200_with_data(self, data_csv, capsys):
        args = ("test", "--data", data_csv, "--alpha", "0.4", "--seed", "3")
        code, implicit, _ = run(capsys, *args)
        assert code == 0
        code, explicit, _ = run(capsys, *args, "--b", "200")
        assert code == 0
        assert implicit == explicit
        assert json.loads(implicit)["critical_rank"] == 80

    def test_engine_fault_is_internal_error(self, toy_csv, capsys, monkeypatch):
        # a scan that never settles leaves a subspace with no pivot: an
        # engine fault, reported as such, not as a per-set input error
        monkeypatch.setattr(
            sumtdp.branchbound, "single_step",
            lambda *args, **kwargs: Evaluation(sumtdp.Verdict.UNDECIDED, window=(1, 1)),
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

    def test_budget_must_be_an_integer(self, toy_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tdp", "--stats", toy_csv, "--sets", "[[1,2]]", "--max-iter", "abc"])
        assert exc.value.code == 2
        assert "expected a nonnegative integer, got 'abc'" in capsys.readouterr().err

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


class TestEncoding:
    """Input files are UTF-8, a byte-order mark allowed; outputs are UTF-8."""

    @pytest.mark.parametrize("source", ["--stats", "--data"])
    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, capsys, source):
        path = tmp_path / "bom.csv"
        rows = ["a,b,c", "1.5,0.25,2", "0.5,1,0.75", "-1,0.5,0.25", "0.25,-0.5,1"]
        path.write_text("\ufeff" + "\n".join(rows) + "\n", encoding="utf-8")
        read = sumtdp.read_statistic_csv if source == "--stats" else sumtdp.read_data_csv
        names = read(str(path)).column_names() if source == "--stats" else read(str(path))[0]
        assert names == ("a", "b", "c")
        seed = ["--seed", "1", "--b", "8"] if source == "--data" else []
        code, out, err = run(capsys, "test", source, str(path), "--set", "a", "--alpha", "0.4",
                             *seed)
        assert code == 0, err
        assert json.loads(out)["size"] == 1

    def test_byte_order_mark_in_sets_and_config(self, toy_csv, tmp_path, capsys):
        sets = tmp_path / "sets.txt"
        sets.write_text("\ufeffH1,H2\n", encoding="utf-8")
        code, out, _ = run(capsys, "tdp", "--stats", toy_csv, "--alpha", "0.4",
                           "--sets", str(sets))
        assert (code, json.loads(out)[0]["d"]) == (0, 1)
        config = tmp_path / "study.json"
        config.write_text("\ufeff" + json.dumps({"n_obs": 15, "n_hyps": 6,
                                                  "n_transforms": 40, "n_reps": 1}),
                          encoding="utf-8")
        assert run(capsys, "simulate", "--config", str(config))[0] == 0

    def test_reading_and_writing_ignore_the_locale(self, tmp_path):
        # an ASCII locale with UTF-8 mode off once failed to decode the header
        path = tmp_path / "cafe.csv"
        path.write_text("café,b\n3,2\n1,0\n0,1\n2,1\n", encoding="utf-8")
        out = tmp_path / "largest.csv"
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "sumtdp.cli", "largest", "--stats", str(path),
             "--gamma", "0", "--format", "csv", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert out.read_text(encoding="utf-8").splitlines()[1] == "2,0.0,café;b"

    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path):
        # under an ASCII locale a finished run once exited 2 writing its result
        path = tmp_path / "cafe.csv"
        path.write_text("café,b\n3,2\n1,0\n0,1\n2,1\n", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "sumtdp.cli", "largest", "--stats", str(path),
             "--gamma", "0", "--format", "csv"],
            env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode("utf-8").splitlines() == ["size,tdp,members", "2,0.0,café;b"]


def test_seed_help_fits_each_subcommand():
    helps = {}
    for action in build_parser()._subparsers._group_actions:
        for name, sub in action.choices.items():
            helps[name] = sub._option_string_actions["--seed"].help
    assert "--data" in helps["tdp"] and "manifest" in helps["tdp"]
    assert "--data" not in helps["simulate"] and "every cell" in helps["simulate"]


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
        # each item names its entries before its first colon, bare or in a
        # call form such as `sign_flip_matrix(data, ...)`
        items = self.section("The public API").split("\n- ")[1:]
        names = [
            name
            for item in items
            for name in re.findall(r"`(\w+)[`(]", item.split(":", 1)[0])
        ]
        assert sorted(names) == sorted(set(sumtdp.__all__) - {"__version__"})
