"""End-to-end tests for the command-line interface and its exit-code contract."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from moduli_traces import cli, qforms, traces
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

    @pytest.mark.parametrize("argv", [
        "congruence --ell 0 --dmax 10",
        "congruence --ell 1",
        "congruence --ell 2 --dmax 3",
        "recurrence --ell 9 --dmax 2",
        "recurrence --ell 2 --dmax 3",
        "coeff-identities --ell 0 --dmax 0",
        "congruence --ell 3 --n 0 --dmax 0",
        "recurrence --ell 3 --n 0 --dmax 0",
    ])
    def test_invalid_ell_or_n_exits_2(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, "verify", *argv.split(), "--p", "2",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert "error" in json.loads(err)

    def test_non_square_D_exits_2_before_the_grid(self, tmp_path, capsys):
        for dmax in ("0", "8"):
            code, out, err = run(capsys, "verify", "recurrence", "--p", "2", "--ell", "3",
                                 "--D", "2", "--dmax", dmax, "--cache", str(tmp_path / "c.jsonl"))
            assert code == 2 and out == ""
            assert json.loads(err) == {"error": "D=2 must be a positive perfect square"}

    @pytest.mark.parametrize("kind", ["congruence", "recurrence"])
    @pytest.mark.parametrize("d", ["0", "-7"])
    def test_nonpositive_d_exits_2(self, tmp_path, capsys, kind, d):
        # --d 0 is a value, not an absent --d: it must not run the --dmax grid
        code, out, err = run(capsys, "verify", kind, "--p", "2", "--ell", "3", "--d", d,
                             "--dmax", "40", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        assert f"d={d}" in json.loads(err)["error"]

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
        # class_count comes from the trace record: a cold row builds its class
        # labels once, inside trace(), and a warm row once, for the count
        calls, reps = [], []
        real, real_reps = traces.enumerate_classes, qforms.class_reps

        def counted(level, d, method="gkz"):
            calls.append(d)
            return real(level, d, method)

        def counted_reps(d):
            reps.append(d)
            return real_reps(d)

        monkeypatch.setattr(traces, "enumerate_classes", counted)
        monkeypatch.setattr(qforms, "class_reps", counted_reps)
        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        reset_state()
        code, out_cold, _ = run(capsys, "trace-table", "--p", "2", "--dmax", "40",
                                "--cache", str(cold))
        assert code == 0
        rows = [int(r["d"]) for r in csv.DictReader(io.StringIO(out_cold))]
        assert calls == rows and reps == rows
        st = traces._state(PrimeLevel(2))
        assert st.classes_cache == {} and st.value_cache == {} and st.trace_cache == {}

        warm.write_bytes(cold.read_bytes())
        warm.chmod(0o444)  # as in the benchmark; a superuser can still write, so compare bytes
        calls.clear()
        reps.clear()
        code, out_warm, _ = run(capsys, "trace-table", "--p", "2", "--dmax", "40",
                                "--cache", str(warm))
        assert code == 0 and out_warm == out_cold and calls == [] and reps == rows
        assert warm.read_bytes() == cold.read_bytes()
        assert st.classes_cache == {} and st.value_cache == {} and st.trace_cache == {}

    @pytest.mark.parametrize("fmt", [(), ("--format", "csv")], ids=["default", "csv"])
    def test_empty_table_prints_the_header(self, tmp_path, capsys, fmt):
        header = "d,beta_count,class_count,trace\r\n"  # csv's row terminator, as on every row
        argv = ("trace-table", "--p", "2", "--dmax", "3", *fmt,
                "--cache", str(tmp_path / "c.jsonl"))
        assert run(capsys, *argv) == (0, header, "")
        out_file = tmp_path / "t.csv"
        assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
        assert out_file.read_bytes() == header.encode()
        assert not (tmp_path / "c.jsonl").exists()


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

    def test_torn_last_line_is_dropped(self, tmp_path, capsys):
        cache = tmp_path / "c.jsonl"
        cache.write_text("".join(
            json.dumps({"p": 2, "D": 1, "d": d, "t": t, "bits": 128, "terms": 64,
                        "method": "gkz"}) + "\n"
            for d, t in ((4, "-26"), (7, "-23"))
        ))
        cache.write_bytes(cache.read_bytes()[:-20])  # a writer killed mid-line
        reset_state()
        code, out, err = run(capsys, "trace", "--p", "2", "--d", "8", "--format", "json",
                             "--cache", str(cache))
        assert code == 0 and json.loads(out)["trace"] == "76"
        assert json.loads(err) == {
            "warning": f"{cache}:2: skipping unterminated last line"
        }
        assert [json.loads(line)["d"] for line in cache.read_text().splitlines()] == [4, 8]

    def test_corrupt_cache_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "c.jsonl"
        bad.write_text("garbage\n")
        code, *_ = run(capsys, "cache", "stats", "--cache", str(bad))
        assert code == 4

    @pytest.mark.parametrize("line", [
        "null",
        "[1, 2]",
        # a float trace must not be served truncated
        '{"p": 2, "D": 1, "d": 4, "t": -26.9, "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": null}',
        '{"p": 11, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
    ], ids=["null", "list", "float-t", "method-null", "p-11"])
    @pytest.mark.parametrize("argv", [("cache", "stats"), ("trace", "--p", "2", "--d", "4"),
                                      ("cache", "verify"),
                                      ("trace-table", "--p", "2", "--dmax", "8")])
    def test_json_that_is_not_a_record_exits_4(self, tmp_path, capsys, line, argv):
        bad = tmp_path / "c.jsonl"
        bad.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--cache", str(bad))
        assert code == 4 and out == ""
        assert json.loads(err)["error"].startswith(f"{bad}:1: corrupt cache line")


class TestMpmathImport:
    # a fresh interpreter: the test process has imported mpmath long ago
    SCRIPT = (
        "import sys; from moduli_traces import cli; "
        "code = cli.main(sys.argv[1:]); "
        "print(code, 'mpmath' in sys.modules)"
    )

    def table(self, cache):
        src = Path(qforms.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        argv = ["trace-table", "--p", "2", "--dmax", "24", "--cache", str(cache)]
        res = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                             capture_output=True, text=True, check=True)
        return res.stdout.splitlines()[-1]

    def test_warm_table_never_loads_mpmath(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        assert self.table(cache) == "0 True"  # an empty cache: every row is a CM sum
        assert self.table(cache) == "0 False"  # every row is a cache hit


class TestArgumentContract:
    def test_unknown_flag_exits_2(self, capsys):
        code, out, err = run(capsys, "trace", "--p", "2", "--d", "4", "--nope")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "moduli-traces trace: unrecognized arguments: --nope"}

    def test_unrecognized_argument_names_the_subcommand(self, capsys):
        code, out, err = run(capsys, "verify", "coeff-identities", "--p", "2", "--ell", "3",
                             "--d", "7")
        assert code == 2 and out == ""
        assert err == ('{"error": "moduli-traces verify coeff-identities: '
                       'unrecognized arguments: --d 7"}\n')

    def test_help_prints_usage_and_exits_0(self, capsys):
        code, out, err = run(capsys, "trace", "--help")
        assert code == 0 and out.startswith("usage: moduli-traces trace ") and err == ""

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

    @pytest.mark.parametrize("argv", [
        ("trace", "--p", "2", "--d", "4", "--method", "brute"),
        ("classes", "--p", "2", "--d", "4", "--method", "brute"),
    ])
    def test_method_flag_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # GKZ is the one class enumeration behind the CLI; brute force is the
        # library's reference for tests
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        # a flag of another verify kind: each kind accepts only the flags it reads
        "verify congruence --p 2 --ell 3 --D 4",
        "verify congruence --p 2 --ell 3 --Dmax 4",
        "verify recurrence --p 2 --ell 3 --Dmax 4",
        "verify coeff-identities --p 2 --ell 3 --n 1",
        "verify coeff-identities --p 2 --ell 3 --d 7",
        "verify coeff-identities --p 2 --ell 3 --D 4",
        # the kind comes first
        "verify --p 2 --ell 3 congruence",
        # no prefix stands for a longer flag
        "trace-table --p 2 --d 8",
        "hauptmodul --p 2 --t 3",
        "verify coeff-identities --p 2 --ell 3 --dm 8",
        # csv is the table's one plain-text format
        "trace-table --p 2 --dmax 8 --format text",
    ])
    def test_unread_flag_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert list(json.loads(err)) == ["error"]  # one JSON object, as for every error
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        "congruence --n 2", "recurrence --n 2 --D 4", "coeff-identities --Dmax 4",
    ])
    def test_each_verify_kind_reads_its_flags(self, tmp_path, capsys, monkeypatch, argv):
        # --d, read by congruence and recurrence, is covered by test_nonpositive_d_exits_2
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify", *argv.split(), "--p", "2", "--ell", "3",
                           "--dmax", "0", "--format", "json")
        assert code == 0 and json.loads(out)["kind"] == argv.split()[0]
        assert list(tmp_path.iterdir()) == []

    def test_readme_examples_parse(self, tmp_path, capsys, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        examples = [line for line in block.splitlines() if line.startswith("moduli-traces ")]
        assert len(examples) >= 9
        monkeypatch.chdir(tmp_path)  # the examples write their cache and table here
        for line in examples:
            assert run(capsys, *shlex.split(line)[1:])[0] == 0, line
