"""End-to-end tests for the command-line interface and its exit-code contract."""

import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from moduli_traces import cli, qforms, traces
from moduli_traces.arith import PrimeLevel, is_admissible, splits
from moduli_traces.cm_eval import fixed_width
from moduli_traces.hauptmodul import MAX_ORDER


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

    def test_terms_past_the_bound_exits_2_at_once(self, capsys):
        # the window N = terms + 1 past hauptmodul.MAX_ORDER: refused before any series is built
        code, out, err = run(capsys, "hauptmodul", "--p", "2", "--terms", "1000000000")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            f"Hauptmodul window N=1000000001 is above the supported bound {MAX_ORDER}")

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
        run(capsys, "trace", "--p", "2", "--d", "4", "--format", "json", "--cache", cache)
        code, out, _ = run(capsys, "trace", "--p", "2", "--d", "4",
                           "--format", "json", "--cache", cache)
        assert code == 0
        obj = json.loads(out)
        assert obj["cached"] is True and obj["trace"] == "-26"
        assert obj["residual"] is None  # the cache stores no residual

    def test_precision_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a kernel off by 1/2 keeps t(4) 1/8 off an integer at every plan
        kernel = traces.eta_hauptmodul

        def off_by_half(level, q, bits):
            re, im = kernel(level, q, bits)
            return re + (1 << (fixed_width(bits) - 1)), im

        monkeypatch.setattr(traces, "eta_hauptmodul", off_by_half)
        code, out, err = run(capsys, "trace", "--p", "2", "--d", "4",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 3 and out == ""
        [line] = err.splitlines()
        msg = json.loads(line)["error"]
        assert msg.startswith("t_1(4) at p=2 (class count 1): ")
        assert msg.count("residual=") == 5
        assert not (tmp_path / "c.jsonl").exists()

    def test_inadmissible_exits_2(self, tmp_path, capsys):
        code, *_ = run(capsys, "trace", "--p", "2", "--d", "5",
                       "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2

    def test_generalized_degree(self, tmp_path, capsys):
        code, out, _ = run(capsys, "trace", "--p", "2", "--d", "8", "--D", "3",
                           "--format", "json", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert json.loads(out)["trace"] == "614704"

    def test_trace_past_the_int_str_digit_limit(self, tmp_path, capsys):
        # t_256(607) at p=2 has more than CPython's default 4300 digits: main
        # lifts the int/str limit while it runs, for the printed trace, the
        # cache line and the cache reload alike, and restores it on return
        cache = str(tmp_path / "c.jsonl")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        outs = []
        for _ in range(2):
            code, out, err = run(capsys, "trace", "--p", "2", "--D", "256", "--d", "607",
                                 "--format", "json", "--cache", cache)
            assert (code, err) == (0, "")
            outs.append(json.loads(out))
        assert [o["cached"] for o in outs] == [False, True]
        assert outs[0]["trace"] == outs[1]["trace"] and len(outs[0]["trace"]) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


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

    @pytest.mark.parametrize("p, digest", [
        (2, "6b0966f2c833a3294e1c2262376d2448116547b01f662d43ddc08514b16fec50"),
        (13, "8c13ab976ba936a9ce45573a546fb904ca864abdeb85ffb6674930aecf17a5b4"),
    ])
    def test_coeff_identities_output_is_pinned(self, tmp_path, capsys, p, digest):
        # the verifier's JSON, byte for byte, as measured before the value memo
        # evaluated at 64-bit width buckets
        code, out, _ = run(capsys, "verify", "coeff-identities", "--p", str(p), "--ell", "3",
                           "--Dmax", "25", "--dmax", "126", "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, evaluations, computed", [
        ("congruence --p 2 --ell 3 --dmax 400", 878, 147),
        ("recurrence --p 5 --ell 3 --D 9 --dmax 300", 1802, 434),
    ])
    def test_grid_checks_share_one_memo(self, tmp_path, capsys, monkeypatch,
                                        argv, evaluations, computed):
        # the checks at d and 9d read traces and CM points in common, so a
        # verify grid passes its checks one memo: with a memo per check these
        # grids took 917 and 1979 evaluations, and the recurrence 466 traces
        calls = []
        for name in ("cm_point_q", "_class_sum"):
            real = getattr(traces, name)
            monkeypatch.setattr(traces, name, lambda *args, _name=name, _real=real:
                                calls.append(_name) or _real(*args))
        code, out, _ = run(capsys, "verify", *argv.split(), "--format", "json",
                           "--cache", str(tmp_path / "c.jsonl"))
        assert code == 0 and json.loads(out)["ok"]
        assert (calls.count("cm_point_q"), calls.count("_class_sum")) == (evaluations, computed)

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

    def test_ell_past_the_primality_bound_exits_2(self, tmp_path, capsys):
        # 1000003^2 is composite and above the 10^12 that trial division answers below
        code, out, err = run(capsys, "verify", "congruence", "--p", "2", "--ell", "1000006000009",
                             "--d", "7", "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "10^12" in json.loads(lines[0])["error"]

    @pytest.mark.parametrize("argv", [
        "congruence --ell 10007 --d 7",  # t at d = 7 * 10007^2
        "recurrence --ell 3 --n 12 --d 7",  # B(1, 3^24 * 7)
        "coeff-identities --ell 10007 --dmax 7",  # B(1, 10007^2 * 4)
    ])
    def test_discriminant_past_the_bound_exits_2(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, "verify", *argv.split(), "--p", "2",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert f"above the supported bound {qforms.MAX_DISC}" in json.loads(line)["error"]

    @pytest.mark.parametrize("argv, named, bound", [
        # ell^(2n) d past qforms.MAX_DISC: refused before ell^(2n) is built
        ("verify recurrence --ell 3 --n 10000000 --d 7", "ell=3, n=10000000, d=7",
         qforms.MAX_DISC),
        ("verify congruence --ell 11 --n 10000000 --d 7", "ell=11, n=10000000, d=7",
         qforms.MAX_DISC),
        # a Faber degree past traces.MAX_DEGREE: refused before any series is built
        ("trace --D 1000 --d 7", "Faber degree D=1000", traces.MAX_DEGREE),
        # a charge past traces.MAX_COST: refused before any series or class is
        # built (d degree_cost(D) for a trace, ell^(2n) d degree_cost(sqrt(D))
        # for a check)
        ("trace --D 256 --d 9999999", "d=9999999", traces.MAX_COST // traces.degree_cost(256)),
        ("verify recurrence --ell 3 --D 7225 --d 1111111",
         "(ell=3, n=1), times the cost of Faber degree sqrt(D), sum to 7829999217",
         traces.MAX_COST),
        ("verify recurrence --ell 3 --n 1 --D 1000000 --d 7", "ell=3, n=1, D=1000000",
         traces.MAX_DEGREE),
        ("verify coeff-identities --ell 3 --Dmax 7396 --dmax 40", "ell=3, n=1, D=7396",
         traces.MAX_DEGREE),
        # a grid's largest member is checked before any list is built
        (f"verify coeff-identities --ell 3 --Dmax {10**30} --dmax 7", f"ell=3, n=1, D={10**30}",
         traces.MAX_DEGREE),
        (f"verify coeff-identities --ell 3 --dmax {10**30}", f"ell=3, n=1, d={10**30}",
         qforms.MAX_DISC),
        (f"verify recurrence --ell 3 --dmax {10**30}", f"ell=3, n=1, d={10**30}",
         qforms.MAX_DISC),
        (f"verify congruence --ell 3 --dmax {10**30}", "ell=3, n=1, d=", qforms.MAX_DISC),
    ])
    def test_reach_past_a_bound_exits_2_at_once(self, tmp_path, capsys, argv, named, bound):
        code, out, err = run(capsys, *argv.split(), "--p", "2",
                             "--cache", str(tmp_path / "c.jsonl"))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        msg = json.loads(line)["error"]
        assert named in msg and f"above the supported bound {bound}" in msg
        assert not (tmp_path / "c.jsonl").exists()

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
        # labels once, inside trace(), and a warm row walks the reduced forms
        # once, for the count
        calls, reps = [], []
        real, real_reps = traces.enumerate_classes, qforms._reduced_triples

        def counted(level, d, method="gkz"):
            calls.append(d)
            return real(level, d, method)

        def counted_reps(d):
            reps.append(d)
            return real_reps(d)

        monkeypatch.setattr(traces, "enumerate_classes", counted)
        monkeypatch.setattr(qforms, "_reduced_triples", counted_reps)
        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        code, out_cold, _ = run(capsys, "trace-table", "--p", "2", "--dmax", "40",
                                "--cache", str(cold))
        assert code == 0
        rows = [int(r["d"]) for r in csv.DictReader(io.StringIO(out_cold))]
        assert calls == rows and reps == rows
        st = traces._state(PrimeLevel(2))
        assert set(vars(st)) == {"level", "haupt", "polys"}  # no memo outlives a row

        warm.write_bytes(cold.read_bytes())
        warm.chmod(0o444)  # as in the benchmark; a superuser can still write, so compare bytes
        calls.clear()
        reps.clear()
        code, out_warm, _ = run(capsys, "trace-table", "--p", "2", "--dmax", "40",
                                "--cache", str(warm))
        assert code == 0 and out_warm == out_cold and calls == [] and reps == rows
        assert warm.read_bytes() == cold.read_bytes()

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
        run(capsys, "trace", "--p", "2", "--d", "4", "--cache", cache)
        run(capsys, "trace", "--p", "2", "--d", "7", "--cache", cache)
        code, out, _ = run(capsys, "cache", "stats", "--format", "json", "--cache", cache)
        assert code == 0
        assert json.loads(out)["records"] == 2
        code, out, _ = run(capsys, "cache", "verify", "--format", "json", "--cache", cache)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and report["checked"] == 2 and report["refused"] == []

    def test_verify_names_each_record_it_cannot_recompute(self, tmp_path, capsys):
        # records past today's bounds load, but trace() refuses them: each is
        # listed with its reason, and every other record is recomputed
        cache = tmp_path / "c.jsonl"
        cache.write_text("".join(
            json.dumps({"p": 2, "D": D, "d": d, "t": t, "bits": 128, "terms": 64,
                        "method": "gkz"}) + "\n"
            for D, d, t in ((300, 4, "5"), (1, 4, "-26"), (256, 2444, "6"), (1, 7, "-23"))
        ))
        code, out, err = run(capsys, "cache", "verify", "--format", "json", "--cache", str(cache))
        assert code == 1 and err == ""
        assert json.loads(out) == {
            "kind": "cache-verify", "checked": 2, "mismatches": [],
            "refused": [
                {"p": 2, "D": 300, "d": 4,
                 "reason": f"Faber degree D=300 is above the supported bound {traces.MAX_DEGREE}"},
                {"p": 2, "D": 256, "d": 2444,
                 "reason": "d=2444 is above the supported bound 2441 at Faber degree D=256: "
                           f"d degree_cost(D) must stay within {traces.MAX_COST}"},
            ],
            "ok": False,
        }

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
        code, out, err = run(capsys, "trace", "--p", "2", "--d", "8", "--format", "json",
                             "--cache", str(cache))
        assert code == 0 and json.loads(out)["trace"] == "76"
        assert json.loads(err) == {
            "warning": f"{cache}:2: skipping unterminated last line"
        }
        assert [json.loads(line)["d"] for line in cache.read_text().splitlines()] == [4, 8]

    def test_conflicting_put_exits_4_and_names_the_cache(self, tmp_path, capsys, monkeypatch):
        # a computed record meets a cache line with another value for its key:
        # get is made to miss, so the record reaches put
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"p": 2, "D": 1, "d": 4, "t": "-25", "bits": 128,
                                   "terms": 64, "method": "gkz"}) + "\n")
        monkeypatch.setattr(traces.TraceCache, "get", lambda self, p, D, d: None)
        code, out, err = run(capsys, "trace", "--p", "2", "--d", "4", "--cache", str(bad))
        assert code == 4 and out == ""
        assert json.loads(err) == {
            "error": f"{bad}: conflicting values for (2, 1, 4): -25 vs -26"
        }

    def test_verify_of_a_missing_file_exits_4_and_names_it(self, tmp_path, capsys):
        # a mistyped path does not pass the audit with nothing checked
        missing = tmp_path / "no" / "such.jsonl"
        code, out, err = run(capsys, "cache", "verify", "--format", "json", "--cache", str(missing))
        assert code == 4 and out == ""
        [line] = err.splitlines()
        assert json.loads(line) == {"error": f"cache verify: no cache file at {missing}"}
        assert not missing.exists()

    def test_stats_of_a_missing_file_reports_no_records(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such.jsonl"
        code, out, err = run(capsys, "cache", "stats", "--format", "json", "--cache", str(missing))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"path": str(missing), "records": 0, "by_level": {}}
        assert not missing.exists()

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
        # an integer in a shape put never writes
        '{"p": "2", "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": null}',
        '{"p": 11, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        # values no put writes, which cache verify or trace would otherwise act on
        '{"p": 2, "D": 0, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 2, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": -3, "terms": 0, "method": "gkz"}',
    ], ids=["null", "list", "float-t", "string-p", "method-null", "p-11", "D-0", "d-2", "bits-terms"])
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

    def cli(self, *argv):
        src = Path(qforms.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        res = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                             capture_output=True, text=True, check=True)
        return res.stdout.splitlines()[-1]

    def test_cold_and_warm_table_never_load_mpmath(self, tmp_path):
        argv = ("trace-table", "--p", "2", "--dmax", "24", "--cache", str(tmp_path / "c.jsonl"))
        assert self.cli(*argv) == "0 False"  # an empty cache: every row is a CM sum
        assert self.cli(*argv) == "0 False"  # every row is a cache hit

    def test_cold_identities_never_load_mpmath(self, tmp_path):
        assert self.cli("verify", "coeff-identities", "--p", "13", "--ell", "3",
                        "--Dmax", "4", "--dmax", "12", "--out", str(tmp_path / "v.json")
                        ) == "0 False"


class TestStartupModules:
    # a fresh interpreter: the test process has loaded dataclasses and inspect
    SCRIPT = (
        "import sys; from moduli_traces import cli; "
        "code = cli.main(sys.argv[1:]); "
        "print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    cli = TestMpmathImport.cli

    def test_warm_table_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        argv = ("trace-table", "--p", "2", "--dmax", "24", "--cache", str(cache))
        assert cli.main([*argv, "--out", str(tmp_path / "cold.csv")]) == 0
        cache.chmod(0o444)
        assert self.cli(*argv, "--out", str(tmp_path / "warm.csv")) == "0 False False"
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


class TestNoFractions:
    # a fresh interpreter: the test process has loaded fractions and decimal;
    # a class sum is certified on an integer pair, never as a Fraction
    SCRIPT = (
        "import sys; from moduli_traces import cli; "
        "code = cli.main(sys.argv[1:]); "
        "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)"
    )
    cli = TestMpmathImport.cli

    def test_warm_table_and_cold_identities_load_neither_fractions_nor_decimal(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        argv = ("trace-table", "--p", "2", "--dmax", "24", "--cache", str(cache))
        assert cli.main([*argv, "--out", str(tmp_path / "cold.csv")]) == 0
        cache.chmod(0o444)
        assert self.cli(*argv, "--out", str(tmp_path / "warm.csv")) == "0 False False"
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        assert self.cli("verify", "coeff-identities", "--p", "13", "--ell", "3",
                        "--Dmax", "4", "--dmax", "12", "--out", str(tmp_path / "v.json")
                        ) == "0 False False"


class TestGridBound:
    # the discriminants ell^(2n) d of a verify grid's checks, each times
    # traces.degree_cost(sqrt(D)), sum to at most traces.MAX_COST; _grid refuses
    # before any trace is computed

    @pytest.mark.parametrize("kind, flags, dmax, first", [
        ("coeff-identities", (), 1000000, 608),  # passes the reach check, then ran for minutes
        ("recurrence", ("--D", "7225"), 87, 87),  # 783 times the weight of D = 1
    ])
    def test_over_bound_grid_exits_2_at_once(self, capsys, kind, flags, dmax, first):
        code, out, err = run(capsys, "verify", kind, "--p", "2", "--ell", "3", *flags,
                             "--dmax", str(dmax))
        assert code == 2 and out == "" and err.count("\n") == 1
        msg = json.loads(err)["error"]
        assert msg.startswith(f"verify {kind} --p 2 --ell 3 --dmax {dmax}: ")
        assert msg.endswith(f"supported bound {traces.MAX_COST} at d={first}")

    @pytest.mark.parametrize("kind, n, D, degrees, weight, keep, top", [
        # D = 1, 4, 9, 16 at each d
        ("coeff-identities", 1, 16, range(1, 5), 1 + 2 + 5 + 8, None, 607),
        ("coeff-identities", 1, 7225, range(1, 86), 27001, None, 12),
        ("congruence", 1, 1, (1,), 1, "splits", 4208),
        ("recurrence", 1, 1, (1,), 1, None, 2431),
        ("recurrence", 2, 1, (1,), 1, None, 808),
        ("recurrence", 1, 7225, (85,), 783, None, 84),
    ])
    def test_largest_grid_is_accepted_and_one_more_d_is_not(self, kind, n, D, degrees, weight,
                                                              keep, top):
        assert sum(map(traces.degree_cost, degrees)) == weight
        keep = (lambda d: splits(3, d)) if keep else (lambda d: True)
        args = argparse.Namespace(kind=kind, p=2, ell=3, dmax=top)
        grid = cli._grid(args, PrimeLevel(2), n, D, degrees, keep)
        assert grid[-1] == top and 9**n * weight * sum(grid) <= traces.MAX_COST
        nxt = next(d for d in range(top + 1, 2 * top) if is_admissible(d, PrimeLevel(2)) and keep(d))
        with pytest.raises(ValueError, match=f"at d={nxt}$"):
            cli._grid(argparse.Namespace(kind=kind, p=2, ell=3, dmax=nxt), PrimeLevel(2), n, D,
                      degrees, keep)

    def test_degree_cost_is_the_floor_of_m_to_the_three_halves(self):
        assert [traces.degree_cost(m) for m in (1, 2, 3, 4, 5, 85, 256)] == [1, 2, 5, 8, 11, 783, 4096]


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
