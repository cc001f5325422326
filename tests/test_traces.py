"""Unit tests for traces, duality coefficients, the Hecke operator, verifiers,
and the persistent cache."""

import json
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

import oracles
from moduli_traces import traces as traces_mod
from moduli_traces.arith import PrimeLevel, divisors, is_admissible, kronecker
from moduli_traces.cm_eval import PrecisionContext
from moduli_traces.hauptmodul import build_hauptmodul
from moduli_traces.qforms import (
    InadmissibleDiscriminant,
    QuadForm,
    class_labels,
    enumerate_classes,
)
from moduli_traces.qseries import WindowError
from moduli_traces.traces import (
    CacheIntegrityError,
    CoeffTable,
    HypothesisViolation,
    TraceCache,
    _state,
    a_coeff,
    b_coeff,
    hecke_apply,
    plus_condition,
    reset_state,
    trace,
    verify_coeff_identities,
    verify_congruence,
    verify_recurrence,
)

P2 = PrimeLevel(2)
P3 = PrimeLevel(3)

# independently recomputed in every full run via the integrality certificate;
# pinned here to catch silent regressions of the whole pipeline
KNOWN_TRACES_P2 = {
    4: -26, 7: -23, 8: 76, 12: -248, 15: -1, 16: 518,
    20: -1128, 23: -94, 24: 2200, 28: -4096, 31: 93, 32: 7180,
}
KNOWN_TRACES_P3 = {3: -7, 8: -34, 11: 22, 12: 26}


class TestTrace:
    def test_d4_matches_direct_cm_evaluation(self):
        # single class (beta=2, [1,0,1], omega=2) with symmetric root and the
        # extra mass 1/2: t(4) = j_2*((-1+i)/2) / 4
        rec = trace(P2, 1, 4)
        h = build_hauptmodul(P2, 200)
        with mpmath.workprec(256):
            q = oracles.cm_point_q(QuadForm(2, 2, 1), 256)
            val = oracles.horner_in_q(h.series, q, 150, 256).real / 4
            assert int(mpmath.nint(val)) == rec.value
            assert abs(val - rec.value) < 1e-30
        assert rec.value == -26

    def test_known_values(self):
        for d, t in KNOWN_TRACES_P2.items():
            assert trace(P2, 1, d).value == t, d
        for d, t in KNOWN_TRACES_P3.items():
            assert trace(P3, 1, d).value == t, d

    def test_line_split_classes_change_the_answer(self):
        # d = 108 = 4 * 27: the SL_2 class [2,2,14] contributes three distinct
        # Gamma_0(2)-classes; merging them breaks integrality and this value
        assert trace(P2, 1, 108).value == -12288992
        assert trace(P2, 1, 16).value == 518

    @pytest.mark.parametrize("kwargs", [
        {"memo": False},
        {"ctx0": PrecisionContext(bits=256, terms=128)},
    ])
    def test_unmemoized_call_keeps_nothing(self, kwargs):
        reset_state()
        try:
            assert trace(P2, 1, 23, **kwargs).value == -94
            st = _state(P2)
            assert st.classes_cache == {} and st.value_cache == {} and st.trace_cache == {}
        finally:
            reset_state()

    def test_unmemoized_call_reads_no_memo(self):
        reset_state()
        try:
            rec = trace(P2, 1, 23)
            _state(P2).classes_cache[(23, "gkz")] = []  # would sum to 0 if read
            assert trace(P2, 1, 23, memo=False).value == rec.value
        finally:
            reset_state()

    def test_each_distinct_form_evaluated_once(self, monkeypatch):
        calls = []
        real = traces_mod.horner_poly
        monkeypatch.setattr(
            traces_mod, "horner_poly", lambda poly, x, bits: calls.append(x) or real(poly, x, bits)
        )
        # (level, d, summed classes, distinct evaluation forms)
        for level, d, n_classes, n_forms in ((P2, 108, 8, 4), (P3, 108, 10, 6),
                                             (PrimeLevel(13), 399, 16, 16)):
            calls.clear()
            rec = trace(level, 1, d, memo=False)
            summed = [c.eval_form for c in enumerate_classes(level, d) if c.beta <= level.p]
            assert (len(summed), len(set(summed))) == (n_classes, n_forms)
            assert len(calls) == n_forms
            assert rec.value == oracles.trace_value(level.p, 1, d)

    def test_methods_agree(self):
        for d in (16, 23, 108):
            assert trace(P2, 1, d, method="gkz").value == trace(P2, 1, d, method="brute").value

    def test_inadmissible_and_bad_degree(self):
        with pytest.raises(InadmissibleDiscriminant):
            trace(P2, 1, 5)
        with pytest.raises(ValueError):
            trace(P2, 0, 4)

    def test_record_provenance(self):
        rec = trace(P2, 1, 23)
        assert rec.p == 2 and rec.D == 1 and rec.d == 23
        assert rec.bits >= 128 and rec.terms >= 64
        assert rec.residual < 1e-6
        assert rec.class_count == 6

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_class_count_on_every_record_trace_returns(self, tmp_path, p):
        # computed, memo hit and cache hit all carry the count of class labels;
        # only a record read straight from the cache file leaves it unset
        level = PrimeLevel(p)
        ds = [d for d in range(1, 301) if is_admissible(d, level)]
        path = tmp_path / "c.jsonl"
        reset_state()
        try:
            cache = TraceCache(path)
            counts = {d: len(class_labels(level, d)) for d in ds}
            for d in ds:
                rec = trace(level, 1, d, cache=cache)
                assert not rec.cached and rec.class_count == counts[d], d
                assert trace(level, 1, d) is rec  # memo hit
            reset_state()
            cache = TraceCache(path)
            for d in ds:
                assert cache.get(p, 1, d).class_count is None
                hit = trace(level, 1, d, cache=cache)
                assert hit.cached and hit.class_count == counts[d], d
        finally:
            reset_state()

    def test_precision_override_respected(self):
        rec = trace(P2, 1, 7, ctx0=PrecisionContext(bits=640, terms=256))
        assert rec.bits >= 640 and rec.terms >= 256
        assert rec.value == -23


class TestBCoeff:
    def test_anchor_is_negated_trace(self):
        for d in (4, 7, 8, 23):
            assert b_coeff(P2, 1, d) == -trace(P2, 1, d).value

    def test_divisor_sum_relation(self):
        # t_m(d) = -sum_{n | m} n B(n^2, d)
        for m in (1, 2, 3, 4):
            for d in (7, 8, 15):
                lhs = trace(P2, m, d).value
                rhs = -sum(n * b_coeff(P2, n * n, d) for n in divisors(m))
                assert lhs == rhs, (m, d)

    def test_pinned_value(self):
        assert b_coeff(P2, 9, 8) == -204876

    def test_square_requirement(self):
        with pytest.raises(ValueError):
            b_coeff(P2, 3, 8)  # 3 is not a perfect square (nor square mod 8)
        with pytest.raises(ValueError):
            b_coeff(P2, 8, 8)
        with pytest.raises(ValueError):
            b_coeff(P2, 0, 8)

    def test_a_is_minus_b(self):
        for D in (1, 4, 9):
            for d in (7, 8):
                assert a_coeff(P2, D, d) == -b_coeff(P2, D, d)


def generic_hecke(entries, k, ell, n):
    """Generic rational operator form with the ell_k = ell^(1-2k) prefactor explicit."""
    ell_k = Fraction(ell) ** (1 - 2 * k) if k <= 0 else Fraction(1)
    sign = 1 if k % 2 == 0 else -1
    up = entries.get(ell * ell * n, 0)
    mid = entries.get(n, 0)
    down = entries.get(n // (ell * ell), 0) if n % (ell * ell) == 0 else 0
    val = ell_k * (
        up
        + kronecker(sign * n, ell) * Fraction(ell) ** (k - 1) * mid
        + Fraction(ell) ** (2 * k - 1) * down
    )
    assert val.denominator == 1
    return int(val)


def _random_plus_table(rng, k, level, n_max, density=0.3):
    entries = {}
    for n in range(1, n_max + 1):
        if plus_condition(k, level, n) and rng.random() < density:
            entries[n] = rng.randint(-50, 50)
    return CoeffTable(k, level, n_max, entries)


class TestCoeffTable:
    def test_plus_condition_enforced(self):
        # k=0 at p=2: n must be a square mod 8
        CoeffTable(0, P2, 10, {1: 5, 4: 2, 8: 1, 9: -1})
        with pytest.raises(ValueError):
            CoeffTable(0, P2, 10, {3: 1})
        # k=1 at p=2: -n must be a square mod 8, so n = 4, 7, 8 mod 8
        CoeffTable(1, P2, 10, {4: 1, 7: 2, 8: 3})
        with pytest.raises(ValueError):
            CoeffTable(1, P2, 10, {1: 1})

    def test_window_enforced(self):
        with pytest.raises(WindowError):
            CoeffTable(0, P2, 10, {16: 1})
        with pytest.raises(ValueError):
            CoeffTable(2, P2, 10, {})

    def test_get_defaults_to_zero(self):
        t = CoeffTable(0, P2, 10, {4: 7})
        assert t.get(4) == 7 and t.get(8) == 0


class TestHeckeApply:
    def test_weight_three_halves_worked_example(self):
        # entries a(7)=5, a(63)=2, a(567)=7 at p=2, read at n=63:
        # a(567) + (-63/3) a(63) + 3 a(7) = 7 + 0 + 15 = 22
        t = CoeffTable(1, P2, 567, {7: 5, 63: 2, 567: 7})
        out = hecke_apply(t, 3)
        assert out.get(63) == 22
        assert out.n_max == 63

    def test_generic_form_worked_example(self):
        # same arithmetic at raw indices 1, 9, 81 through the generic formula
        assert generic_hecke({1: 5, 9: 2, 81: 7}, 1, 3, 9) == 22

    def test_zero_table_maps_to_zero(self):
        out = hecke_apply(CoeffTable(0, P2, 90, {}), 3)
        assert out.entries == {}

    def test_matches_generic_formula_both_weights(self):
        rng = random.Random(99)
        for _ in range(60):
            k = rng.choice([0, 1])
            level = PrimeLevel(rng.choice([2, 3, 5, 7, 13]))
            ell = rng.choice([e for e in (3, 5, 7) if e != level.p])
            t = _random_plus_table(rng, k, level, rng.randint(ell * ell, 600))
            out = hecke_apply(t, ell)
            for n in range(1, out.n_max + 1):
                if plus_condition(k, level, n):
                    assert out.get(n) == generic_hecke(t.entries, k, ell, n), (k, level.p, ell, n)

    def test_plus_space_closure_random(self):
        rng = random.Random(123)
        for _ in range(1000):
            k = rng.choice([0, 1])
            level = PrimeLevel(rng.choice([2, 3, 5, 7, 13]))
            ell = rng.choice([e for e in (3, 5, 7) if e != level.p])
            t = _random_plus_table(rng, k, level, rng.randint(ell * ell, 200), density=0.5)
            out = hecke_apply(t, ell)  # CoeffTable revalidates on construction
            for n in out.entries:
                assert plus_condition(k, level, n)

    def test_contract_violations(self):
        t = CoeffTable(1, P2, 100, {7: 1})
        with pytest.raises(HypothesisViolation, match="ell-even"):
            hecke_apply(t, 2)
        with pytest.raises(HypothesisViolation, match="ell-not-prime"):
            hecke_apply(t, 9)
        with pytest.raises(HypothesisViolation, match="ell-equals-p"):
            hecke_apply(CoeffTable(1, P3, 100, {3: 1}), 3)
        with pytest.raises(WindowError):
            hecke_apply(CoeffTable(1, P2, 8, {7: 1}), 5)  # window < ell^2


class TestVerifyCoeffIdentities:
    def test_grid_examples(self):
        rep = verify_coeff_identities(P2, 3, [1], [8])
        assert rep["ok"] and len(rep["checks"]) == 1
        c = rep["checks"][0]
        assert c["duality_ok"] and c["step_ok"]
        assert int(c["hecke"]) == int(c["closed"])

        rep = verify_coeff_identities(P3, 5, [4], [11])
        assert rep["ok"]

    def test_kronecker_zero_branch(self):
        # ell | d: the (-d/ell) term vanishes and the identity still balances
        rep = verify_coeff_identities(P2, 3, [1, 4], [12])
        assert rep["ok"]
        assert all(kronecker(-c["d"], 3) == 0 for c in rep["checks"])

    def test_report_carries_decimal_strings(self):
        rep = verify_coeff_identities(P2, 3, [9], [8])
        c = rep["checks"][0]
        for key in ("hecke", "closed", "b_ell2d", "step_rhs"):
            int(c[key])  # decimal strings

    def test_input_gates(self):
        with pytest.raises(HypothesisViolation) as exc:
            verify_coeff_identities(P2, 2, [1], [8])
        assert exc.value.reason == "ell-even"
        with pytest.raises(HypothesisViolation) as exc:
            verify_coeff_identities(P2, 9, [1], [8])
        assert exc.value.reason == "ell-not-prime"
        with pytest.raises(HypothesisViolation) as exc:
            verify_coeff_identities(P3, 3, [1], [8])
        assert exc.value.reason == "ell-equals-p"
        with pytest.raises(ValueError):
            verify_coeff_identities(P2, 3, [2], [8])
        with pytest.raises(InadmissibleDiscriminant):
            verify_coeff_identities(P2, 3, [1], [5])


class TestVerifyRecurrence:
    def test_n1_reduces_to_single_step(self):
        rep = verify_recurrence(P2, 3, 1, 8, 1)
        assert rep["ok"] and rep["iterated_step_ok"]
        assert int(rep["lhs"]) == int(rep["rhs"]) == int(rep["iterated_step"])

    def test_n2_touches_d648(self):
        rep = verify_recurrence(P2, 3, 1, 8, 2)
        assert rep["ok"] and rep["iterated_step_ok"]

    def test_level_3_example(self):
        assert verify_recurrence(P3, 5, 1, 8, 1)["ok"]

    def test_square_D_and_bad_n(self):
        with pytest.raises(ValueError):
            verify_recurrence(P2, 3, 2, 8, 1)
        with pytest.raises(ValueError):
            verify_recurrence(P2, 3, 1, 8, 0)


class TestVerifyCongruence:
    def test_exact_lift_example(self):
        rep = verify_congruence(P2, 3, 8, 1)
        assert rep["ok"] and rep["congruence_ok"] and rep["exact_lift_ok"]
        assert int(rep["trace"]) == trace(P2, 1, 72).value
        assert int(rep["trace"]) % 3 == 0
        assert int(rep["trace"]) == 3 * int(rep["lift_value"])

    def test_ell_11_example(self):
        rep = verify_congruence(P2, 11, 7, 1)
        assert rep["ok"]
        assert int(rep["trace"]) % 11 == 0

    def test_non_split_gate(self):
        with pytest.raises(HypothesisViolation) as exc:
            verify_congruence(P2, 3, 7, 1)
        assert exc.value.reason == "non-split"

    def test_inadmissible_gate(self):
        with pytest.raises(HypothesisViolation) as exc:
            verify_congruence(P2, 3, 5, 1)
        assert exc.value.reason == "inadmissible"


class TestTraceCache:
    def test_put_get_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TraceCache(path)
        rec = trace(P2, 1, 4)
        cache.put(rec)
        got = cache.get(2, 1, 4)
        assert got.value == rec.value and got.bits == rec.bits

    def test_idempotent_put_single_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TraceCache(path)
        rec = trace(P2, 1, 4)
        cache.put(rec)
        cache.put(rec)
        assert len(path.read_text().strip().splitlines()) == 1

    def test_reload_marks_cached(self, tmp_path):
        path = tmp_path / "c.jsonl"
        TraceCache(path).put(trace(P2, 1, 4))
        fresh = TraceCache(path)
        assert fresh.get(2, 1, 4).cached is True
        assert fresh.get(2, 1, 4).residual is None  # not stored, not measured

    def test_conflicting_put_aborts(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TraceCache(path)
        rec = trace(P2, 1, 4)
        cache.put(rec)
        with pytest.raises(CacheIntegrityError):
            cache.put(replace(rec, value=rec.value + 1))

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 72, "method": "gkz"})
        path.write_text(good + "\nnot json at all\n")
        with pytest.raises(CacheIntegrityError) as exc:
            TraceCache(path)
        assert ":2:" in str(exc.value)

    @pytest.mark.parametrize("line", [
        "null",
        "[1, 2]",
        '"text"',
        '{"p": 2, "D": 1, "d": 4, "t": -26.9, "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26.9", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128.0, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": true, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        # well-typed, but no enumeration method or no supported level
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": null}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": ["gkz"]}',
        '{"p": 11, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
    ])
    def test_json_that_is_not_a_record_is_corrupt(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CacheIntegrityError, match=r"c\.jsonl:1: corrupt cache line"):
            TraceCache(path)

    def test_integer_fields_may_be_decimal_strings(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"p": "2", "D": 1, "d": "4", "t": "-26", "bits": 128, '
                        '"terms": "64", "method": "gkz"}\n')
        rec = TraceCache(path).get(2, 1, 4)
        assert (rec.value, rec.bits, rec.terms) == (-26, 128, 64)

    def test_torn_last_line_is_skipped_then_removed(self, tmp_path):
        # a writer killed mid-line leaves an unterminated last line
        path = tmp_path / "c.jsonl"
        cache = TraceCache(path)
        for d in (4, 7):
            cache.put(trace(P2, 1, d))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.warns(UserWarning, match=r"c\.jsonl:2: skipping unterminated") as rec:
            torn = TraceCache(path)
        assert len(rec) == 1
        assert torn.stats()["records"] == 1 and torn.get(2, 1, 4).value == -26
        torn.put(trace(P2, 1, 7))
        torn.put(trace(P2, 1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = TraceCache(path)
        assert reloaded.stats()["records"] == 3
        assert path.read_text().endswith("\n")
        assert len(path.read_text().splitlines()) == 3

    def test_conflicting_lines_abort_on_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        a = {"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 72, "method": "gkz"}
        b = dict(a, t="-27")
        path.write_text(json.dumps(a) + "\n" + json.dumps(b) + "\n")
        with pytest.raises(CacheIntegrityError):
            TraceCache(path)

    def test_stats_and_verify(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TraceCache(path)
        for d in (4, 7):
            cache.put(trace(P2, 1, d))
        cache.put(trace(P3, 1, 8))
        stats = cache.stats()
        assert stats["records"] == 3 and stats["by_level"] == {2: 2, 3: 1}
        report = cache.verify()
        assert report["ok"] and report["checked"] == 3

    def test_verify_ignores_a_poisoned_memo(self, tmp_path):
        # a wrong value in the in-process memo and in the cache file: verify
        # recomputes instead of reading the memo back, and reports it
        rec = trace(P2, 1, 39)
        bad = replace(rec, value=rec.value + 1)
        _state(P2).trace_cache[(1, 39, "gkz")] = bad
        try:
            cache = TraceCache(tmp_path / "c.jsonl")
            cache.put(bad)
            report = cache.verify()
        finally:
            reset_state()
        assert not report["ok"]
        assert report["mismatches"] == [
            {"p": 2, "D": 1, "d": 39, "cached": str(bad.value), "fresh": str(rec.value)}
        ]

    def test_verify_recomputes_poisoned_cm_values(self, tmp_path):
        # a wrong CM value in the in-process memo makes trace() write a wrong
        # record; verify shares no memo with trace(), so it reports it
        reset_state()
        try:
            trace(P2, 1, 23)
            st = _state(P2)
            st.trace_cache.clear()
            key = next(iter(st.value_cache))
            re, im = st.value_cache[key]
            st.value_cache[key] = (re + (12 << key[1]), im)
            cache = TraceCache(tmp_path / "c.jsonl")
            assert trace(P2, 1, 23, cache=cache).value == -82
            report = cache.verify()
        finally:
            reset_state()
        assert report["mismatches"] == [
            {"p": 2, "D": 1, "d": 23, "cached": "-82", "fresh": "-94"}
        ]

    def test_trace_uses_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TraceCache(path)
        first = trace(P2, 1, 79, cache=cache, memo=False)
        assert first.cached is False
        again = trace(P2, 1, 79, cache=TraceCache(path), memo=False)
        assert again.cached is True and again.value == first.value

    def test_memo_hit_is_written_to_the_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = trace(P2, 1, 4)
        again = trace(P2, 1, 4, cache=TraceCache(path))
        assert again is first
        assert TraceCache(path).get(2, 1, 4).value == first.value
        assert len(path.read_text().splitlines()) == 1

    def test_cache_hit_is_not_written_back(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        TraceCache(path).put(trace(P2, 1, 4))
        reset_state()
        cache = TraceCache(path)
        monkeypatch.setattr(cache, "put", lambda rec: pytest.fail("put of a cache hit"))
        assert trace(P2, 1, 4, cache=cache).cached is True
