"""End-to-end tests for the command-line interface and its exit-code contract."""

import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from moduli_traces import cli, traces
from moduli_traces.arith import PrimeLevel
from moduli_traces.traces import reset_state


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHauptmodul:
    def test_text_coefficients(self, capsys):
        code, out, _ = run(capsys, "hauptmodul", "--p", "2", "--terms", "3")
        assert code == 0
        values = [int(line.split(":")[1]) for line in out.strip().splitlines()]
        assert values == [1, 0, 4372, 96256, 1240002]

    def test_unsupported_level_exits_2(self, capsys):
        code, _, err = run(capsys, "hauptmodul", "--p", "11", "--terms", "3")
        assert code == 2
        msg = json.loads(err)["error"]
        assert "(2, 3, 5, 7, 13)" in msg and "11" in msg

    def test_json_matches_series_schema(self, capsys):
        code, out, _ = run(capsys, "hauptmodul", "--p", "3", "--terms", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["v"] == -1
        assert [int(c) for c in obj["coeffs"][:4]] == [1, 0, 783, 8672]

    def test_bad_terms(self, capsys):
        code, *_ = run(capsys, "hauptmodul", "--p", "2", "--terms", "1")
        assert code == 2


class TestTrace:
    def test_basic_invocation(self, tmp_path, capsys):
        cache = str(tmp_path / "c.jsonl")
        code, out, _ = run(capsys, "trace", "--p", "2", "--d", "4",
                           "--format", "json", "--cache", cache)
        assert code == 0
        obj = json.loads(out)
        assert obj["trace"] == "-26"
        assert isinstance(obj["trace"], str)  # big ints as decimal strings
        assert obj["cached"] is False
        assert obj["bits"] >= 128
        assert isinstance(obj["residual"], float) and 0 <= obj["residual"] <= 1e-6

    def test_cache_hit_reported(self, tmp_path, capsys):
        cache = str(tmp_path / "c.jsonl")
        reset_state()  # in-process memo would otherwise bypass the cache file
        run(capsys, "trace", "--p", "2", "--d", "4", "--format", "json", "--cache", cache)
        reset_state()
        code, out, _ = run(capsys, "trace", "--p", "2", "--d", "4",
                           "--format", "json", "--cache", cache)
        assert code == 0
        obj = json.loads(out)
        assert obj["cached"] is True and obj["trace"] == "-26"
        assert obj["residual"] is None  # the cache stores no residual

    def test_brute_method_recomputes_over_cached_gkz(self, tmp_path, capsys):
        cache = tmp_path / "c.jsonl"
        args = ("trace", "--p", "2", "--d", "23", "--format", "json", "--cache", str(cache))
        reset_state()
        _, out_gkz, _ = run(capsys, *args)
        size = cache.stat().st_size
        reset_state()
        code, out_brute, _ = run(capsys, *args, "--method", "brute")
        assert code == 0
        gkz, brute = json.loads(out_gkz), json.loads(out_brute)
        assert brute["method"] == "brute" and brute["cached"] is False
        assert brute["trace"] == gkz["trace"]
        assert cache.stat().st_size == size

    def test_brute_method_conflicting_cache_exits_4(self, tmp_path, capsys):
        cache = tmp_path / "c.jsonl"
        cache.write_text(json.dumps({"p": 2, "D": 1, "d": 23, "t": "999", "bits": 128,
                                     "terms": 64, "method": "gkz"}) + "\n")
        reset_state()
        code, _, err = run(capsys, "trace", "--p", "2", "--d", "23", "--method", "brute",
                           "--cache", str(cache))
        assert code == 4
        assert "999" in json.loads(err)["error"]

    def test_inadmissible_exits_2(self, tmp_path, capsys):
        code, *_ = run(capsys, "trace", "--p", "2", "--d", "5",
                       "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2

    def test_generalized_degree(self, tmp_path, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--d", "8", "--D", "3",
                           "--format", "json", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert json.loads(out)["trace"] == "614704"


class TestClasses:
    def test_count_and_fields(self, capsys):
        code, out, _ = run(capsys, "classes", "--p", "2", "--d", "23", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 6
        assert {"sl2_rep", "line", "beta", "eval_form", "omega"} <= set(obj["classes"][0])

    def test_methods_agree(self, capsys):
        _, out_g, _ = run(capsys, "classes", "--p", "2", "--d", "108", "--format", "json")
        _, out_b, _ = run(capsys, "classes", "--p", "2", "--d", "108",
                          "--method", "brute", "--format", "json")
        assert json.loads(out_g) == json.loads(out_b)


class TestVerify:
    def test_congruence_grid_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "congruence", "--p", "2", "--ell", "3",
                           "--n", "1", "--dmax", "40", "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and all(r["ok"] for r in obj["reports"])

    def test_recurrence_grid_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "recurrence", "--p", "3", "--ell", "5",
                           "--n", "1", "--dmax", "30", "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_coeff_identities_pass(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "coeff-identities", "--p", "2", "--ell", "3",
                           "--dmax", "16", "--Dmax", "9", "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_even_ell_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "congruence", "--p", "2", "--ell", "2",
                           "--dmax", "20", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2
        assert "odd" in json.loads(err)["error"]

    def test_csv_format_exits_2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "verify", "congruence", "--p", "2", "--ell", "3",
                           "--dmax", "20", "--format", "csv",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""

    def test_report_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, *_ = run(capsys, "verify", "congruence", "--p", "2", "--ell", "3",
                       "--dmax", "20", "--format", "json", "--out", str(out_file),
                       "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert json.loads(out_file.read_text())["ok"]


class TestTraceTable:
    def test_admissible_rows_level_2(self, tmp_path, capsys):
        code, out, _ = run(capsys, "trace-table", "--p", "2", "--dmax", "32",
                           "--format", "json", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["d"] for r in rows] == [4, 7, 8, 12, 15, 16, 20, 23, 24, 28, 31, 32]
        expect = ["-26", "-23", "76", "-248", "-1", "518",
                  "-1128", "-94", "2200", "-4096", "93", "7180"]
        assert [r["trace"] for r in rows] == expect

    def test_csv_round_trips_against_json(self, tmp_path, capsys):
        cache = str(tmp_path / "c.jsonl")
        _, out_json, _ = run(capsys, "trace-table", "--p", "3", "--dmax", "20",
                             "--format", "json", "--cache", cache)
        _, out_csv, _ = run(capsys, "trace-table", "--p", "3", "--dmax", "20",
                            "--format", "csv", "--cache", cache)
        json_rows = json.loads(out_json)["rows"]
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(csv_rows) == len(json_rows)
        for jr, cr in zip(json_rows, csv_rows):
            assert str(jr["d"]) == cr["d"] and jr["trace"] == cr["trace"]

    def test_deterministic_output_with_warm_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "c.jsonl")
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "trace-table", "--p", "2", "--dmax", "24", "--out", str(f1),
            "--cache", cache)
        run(capsys, "trace-table", "--p", "2", "--dmax", "24", "--out", str(f2),
            "--cache", cache)
        assert f1.read_bytes() == f2.read_bytes()

    def test_enumerates_each_row_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = traces.enumerate_classes

        def counted(level, d, method="gkz"):
            calls.append(d)
            return real(level, d, method)

        monkeypatch.setattr(traces, "enumerate_classes", counted)
        for _ in range(2):  # cold, then every row from the cache file
            reset_state()
            code, out, _ = run(capsys, "trace-table", "--p", "2", "--dmax", "40",
                               "--cache", str(tmp_path / "c.jsonl"))
            assert code == 0
            rows = [int(r["d"]) for r in csv.DictReader(io.StringIO(out))]
            assert calls == rows
            assert traces._state(PrimeLevel(2)).classes_cache == {}
            calls.clear()


class TestCacheCommand:
    def test_stats_and_verify(self, tmp_path, capsys):
        cache = str(tmp_path / "c.jsonl")
        reset_state()  # force fresh computations so the cache file is written
        run(capsys, "trace", "--p", "2", "--d", "4", "--cache", cache)
        run(capsys, "trace", "--p", "2", "--d", "7", "--cache", cache)
        code, out, _ = run(capsys, "cache", "stats", "--format", "json", "--cache", cache)
        assert code == 0
        assert json.loads(out)["records"] == 2
        code, out, _ = run(capsys, "cache", "verify", "--format", "json", "--cache", cache)
        assert code == 0
        assert json.loads(out)["ok"]

    @pytest.mark.parametrize("action", ["stats", "verify"])
    def test_csv_format_exits_2(self, tmp_path, capsys, action):
        cache = tmp_path / "c.jsonl"
        cache.write_text(json.dumps({"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128,
                                     "terms": 64, "method": "gkz"}) + "\n")
        code, out, _ = run(capsys, "cache", action, "--format", "csv", "--cache", str(cache))
        assert code == 2 and out == ""

    def test_corrupt_cache_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text("garbage\n")
        code, *_ = run(capsys, "cache", "stats", "--cache", str(bad))
        assert code == 4


class TestArgumentContract:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(capsys, "trace", "--p", "2", "--nope")[0] == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_verify_kind_exits_2(self, capsys):
        assert run(capsys, "verify", "everything", "--p", "2", "--ell", "3")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("trace", "--p", "2", "--d", "4", "--prec-bits", "256"),
        ("trace-table", "--p", "2", "--dmax", "8", "--terms", "99"),
        ("verify", "congruence", "--p", "2", "--ell", "3", "--tol", "1e-3"),
    ])
    def test_precision_overrides_exit_2(self, tmp_path, capsys, argv):
        # the precision plan and its escalation are the only precision policy
        code, out, _ = run(capsys, *argv, "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert not (tmp_path / "c.jsonl").exists()

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        examples = [line for line in block.splitlines() if line.startswith("moduli-traces ")]
        assert len(examples) >= 9
        parser = cli.build_parser()
        for line in examples:
            parser.parse_args(shlex.split(line)[1:])
