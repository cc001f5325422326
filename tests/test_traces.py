"""Unit tests for traces, duality coefficients, the Hecke operator, verifiers,
and the persistent cache."""

import collections
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import oracles
from moduli_traces import hauptmodul as hauptmodul_mod
from moduli_traces import traces as traces_mod
from moduli_traces.arith import SUPPORTED_LEVELS, PrimeLevel, divisors, is_admissible, kronecker
from moduli_traces.cm_eval import (
    MAX_RETRIES,
    PrecisionContext,
    PrecisionFailure,
    fixed_width,
    plan_precision,
)
from moduli_traces.hauptmodul import Hauptmodul, build_hauptmodul, faber_poly, faber_polys
from moduli_traces.qforms import (
    MAX_DISC,
    InadmissibleDiscriminant,
    brute_force_labels,
    enumerate_classes,
)
from moduli_traces.qseries import WindowError
from moduli_traces.traces import (
    MAX_COST,
    MAX_DEGREE,
    CacheIntegrityError,
    CoeffTable,
    HypothesisViolation,
    TraceCache,
    TraceMemo,
    TraceRecord,
    a_coeff,
    b_coeff,
    degree_cost,
    hecke_apply,
    plus_condition,
    trace,
    verify_coeff_identities,
    verify_congruence,
    verify_recurrence,
)

P2 = PrimeLevel(2)
P3 = PrimeLevel(3)


def fresh_store(monkeypatch) -> dict:
    """An empty per-level store for hauptmodul.faber_poly, the old one restored after the test."""
    store = {}
    monkeypatch.setattr(hauptmodul_mod, "_STORE", store)
    return store


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
            q = oracles.cm_point_q((2, 2, 1), 256)
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

    @pytest.mark.parametrize("call", [
        lambda: trace(P2, 1, 23),
        lambda: trace(P2, 1, 23, memo=False),
        lambda: trace(P2, 1, 23, ctx0=PrecisionContext(bits=256, terms=128)),
        lambda: trace(P2, 1, 23, memo=TraceMemo(P2)),
        lambda: b_coeff(P2, 4, 23),
        lambda: verify_coeff_identities(P2, 3, [1, 4], [7, 8]),
        lambda: verify_recurrence(P2, 3, 1, [8], 1),
        lambda: verify_congruence(P2, 3, [8], 1),
    ], ids=["trace", "memo-false", "ctx0", "memo", "b_coeff", "identities", "recurrence",
            "congruence"])
    def test_level_state_holds_only_the_series_and_faber_list(self, monkeypatch, call):
        # the process keeps no classes, weights, CM values or records between
        # calls: only hauptmodul's per-level series and Faber list, and no
        # module-level table of traces grows
        store = fresh_store(monkeypatch)
        tables = {k: len(v) for k, v in vars(traces_mod).items() if isinstance(v, dict)}
        call()
        [(p, (h, polys))] = store.items()
        assert p == 2 and type(h) is Hauptmodul and set(vars(h)) == {"p", "series"}
        assert type(polys) is list and all(type(P) is list for P in polys)
        assert {k: len(v) for k, v in vars(traces_mod).items() if isinstance(v, dict)} == tables

    @pytest.mark.parametrize("kwargs", [{}, {"memo": False}])
    def test_calls_without_a_memo_each_compute(self, monkeypatch, kwargs):
        calls = []
        real = traces_mod.enumerate_classes
        monkeypatch.setattr(traces_mod, "enumerate_classes",
                            lambda *args: calls.append(args) or real(*args))
        first = trace(P2, 1, 23, **kwargs)
        second = trace(P2, 1, 23, **kwargs)
        assert first == second and first is not second
        assert calls == [(P2, 23, "gkz")] * 2

    def test_call_without_a_memo_reads_none(self):
        # a memo whose record is poisoned serves it to a call that passes it, and
        # to no other call
        memo = TraceMemo(P2)
        rec = trace(P2, 1, 23, memo=memo)
        memo.records[(1, 23)] = rec._replace(value=0)
        assert trace(P2, 1, 23, memo=memo).value == 0
        assert trace(P2, 1, 23).value == trace(P2, 1, 23, memo=False).value == -94

    def test_memo_of_another_level_is_refused(self, monkeypatch):
        # its classes are keyed by d alone: refused before any work
        monkeypatch.setattr(traces_mod, "enumerate_classes",
                            lambda *args: pytest.fail("classes enumerated"))
        memo = TraceMemo(P3)
        for call in (lambda: trace(P2, 1, 23, memo=memo), lambda: b_coeff(P2, 1, 23, memo)):
            with pytest.raises(ValueError, match="TraceMemo of p=3 was passed with a trace at p=2"):
                call()
        assert memo.classes == memo.values == memo.records == {}

    def test_brute_request_with_a_cache_computes_afresh(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            trace(P2, 1, 23, cache=cache)
        before = path.read_bytes()
        with TraceCache(path) as cache:
            rec = trace(P2, 1, 23, method="brute", cache=cache)
        assert (rec.method, rec.cached, rec.value) == ("brute", False, -94)
        assert path.read_bytes() == before

    def test_ctx0_request_with_a_cache_computes_afresh(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            first = trace(P2, 1, 7, cache=cache)
        before = path.read_bytes()
        with TraceCache(path) as cache:
            rec = trace(P2, 1, 7, ctx0=PrecisionContext(640, 256), cache=cache)
        assert rec.bits >= 640 and rec.cached is False and rec.value == first.value
        assert path.read_bytes() == before
        with TraceCache(tmp_path / "new.jsonl") as cache:
            trace(P2, 1, 7, ctx0=PrecisionContext(640, 256), cache=cache)
            trace(P2, 1, 8, method="brute", cache=cache)
        assert not (tmp_path / "new.jsonl").exists()

    @pytest.mark.parametrize("D, admitted, refused", [(256, 2440, 2444), (85, 12768, 12772)])
    def test_charge_bound_edges(self, tmp_path, monkeypatch, D, admitted, refused):
        # d degree_cost(D) <= MAX_COST, checked before the memo, the cache, the
        # series or the enumeration; an admitted request reaches the enumeration
        assert admitted * degree_cost(D) <= MAX_COST < refused * degree_cost(D)

        class Reached(Exception):
            pass

        calls = []

        def enumerate_classes(*args):
            calls.append(args)
            raise Reached

        monkeypatch.setattr(traces_mod, "enumerate_classes", enumerate_classes)
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"p": 2, "D": D, "d": refused, "t": "5", "bits": 128,
                                    "terms": 64, "method": "gkz"}) + "\n")
        store = fresh_store(monkeypatch)
        with TraceCache(path) as cache:
            with pytest.raises(ValueError, match=f"d={refused} is above the supported bound "
                                                 f"{MAX_COST // degree_cost(D)} at Faber degree D={D}"):
                trace(P2, D, refused, cache=cache)
        assert store == {} and calls == []
        with pytest.raises(Reached):
            trace(P2, D, admitted)
        assert calls == [(P2, admitted, "gkz")]

    def test_memoized_oracle_request_evaluates_its_own_values(self, monkeypatch):
        memo = TraceMemo(P2)
        trace(P2, 1, 108, memo=memo)
        kept = (dict(memo.classes), dict(memo.weights), dict(memo.values), dict(memo.records))
        calls = []
        real = traces_mod.eta_hauptmodul
        monkeypatch.setattr(traces_mod, "eta_hauptmodul",
                            lambda *args: calls.append(args) or real(*args))
        rec = trace(P2, 1, 108, method="brute", memo=memo)
        assert (rec.method, rec.value) == ("brute", -12288992)
        assert len(calls) == 3  # one per distinct (a, |b|, c) of the evaluation forms
        assert (memo.classes, memo.weights, memo.values, memo.records) == kept

    def test_value_memo_is_shared_across_faber_degrees(self, monkeypatch):
        # at p=13, d=23 the degrees 1, 2, 3 and 5 all plan the same bits, and
        # a memo keys a CM value by ((a, |b|, c), Wb) alone, Wb being W
        # rounded up to a multiple of 64: after t_1(23) evaluated its 2
        # distinct (a, |b|, c), (13, 9, 2) and (26, 17, 3), the higher degrees
        # evaluate none
        level = PrimeLevel(13)
        classes = enumerate_classes(level, 23)
        plans = {plan_precision(level, 23, classes, degree=D) for D in (1, 2, 3, 5)}
        assert [(c.bits, c.terms) for c in plans] == [(128, 256)]
        calls = []
        real = traces_mod.eta_hauptmodul
        monkeypatch.setattr(traces_mod, "eta_hauptmodul",
                            lambda *args: calls.append(args) or real(*args))
        memo = TraceMemo(level)
        trace(level, 1, 23, memo=memo)
        assert len(calls) == 2
        calls.clear()
        for D in (2, 3, 5):
            assert trace(level, D, 23, memo=memo).value == oracles.trace_value(13, D, 23), D
        assert calls == []

    def test_value_memo_serves_every_plan_in_a_width_bucket(self, monkeypatch):
        # at p=13, d=79 the degrees 1 and 15 plan different bits, 128 and 143,
        # so W is 160 and 175; both round up to the bucket 192, and t_15(79)
        # shifts the 4 values t_1(79) evaluated down to its own W
        level = PrimeLevel(13)
        classes = enumerate_classes(level, 79)
        assert [plan_precision(level, 79, classes, degree=D).bits for D in (1, 15)] == [128, 143]
        assert len({(a, abs(b), c) for beta, _, _, (a, b, c), _ in classes if beta <= 13}) == 4
        calls = []
        real = traces_mod.eta_hauptmodul
        monkeypatch.setattr(traces_mod, "eta_hauptmodul",
                            lambda *args: calls.append(args) or real(*args))
        memo = TraceMemo(level)
        trace(level, 1, 79, memo=memo)
        assert len(calls) == 4 and {Wb for _, Wb in memo.values} == {192}
        calls.clear()
        assert trace(level, 15, 79, memo=memo).value == oracles.trace_value(13, 15, 79)
        assert calls == []

    def test_identities_p13_grid_evaluates_each_cm_point_once(self, monkeypatch):
        # verify coeff-identities --p 13 --ell 3 --Dmax 25 --dmax 126: the
        # call's memo keys a CM value by its primitive form, so the traces at d
        # and 9d share their common points, and it computes each B(D, d) once.
        # Keyed by (a, |b|, c) it took 347 evaluations, and 1022 B were asked
        # for.  The memo is dropped with the call, so a second call evaluates
        # as many points again
        level = PrimeLevel(13)
        ds = [d for d in range(1, 127) if is_admissible(d, level)]
        calls = collections.Counter()
        for name in ("cm_point_q", "b_coeff"):
            real = getattr(traces_mod, name)
            monkeypatch.setattr(traces_mod, name, lambda *args, _name=name, _real=real:
                                calls.update([_name]) or _real(*args))
        memos = []

        class Kept(TraceMemo):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                memos.append(self)

        monkeypatch.setattr(traces_mod, "TraceMemo", Kept)
        for _ in range(2):
            calls.clear()
            assert verify_coeff_identities(level, 3, [1, 4, 9, 16, 25], ds)["ok"]
            assert calls == {"cm_point_q": 236, "b_coeff": 433}
        assert len(memos) == 2 and memos[0] is not memos[1]
        for memo in memos:
            assert len(memo.values) == 236 and all(math.gcd(*form) == 1 for form, _ in memo.values)

    def test_imprimitive_class_reads_the_value_of_its_primitive_point(self, monkeypatch):
        # at p=2 every class of d = 92 = 4 * 23 evaluates at a form of content
        # 2; two of their primitive parts are CM points of t(23), so after t(23)
        # a memo's t(92) evaluates only its other points, and its value is
        # the one without a memo
        forms = {d: set(traces_mod._weights(P2, d, enumerate_classes(P2, d))) for d in (23, 92)}
        assert len(forms[92] & forms[23]) == 2
        calls = []
        real = traces_mod.eta_hauptmodul
        monkeypatch.setattr(traces_mod, "eta_hauptmodul",
                            lambda *args: calls.append(args) or real(*args))
        memo = TraceMemo(P2)
        trace(P2, 1, 23, memo=memo)
        calls.clear()
        memoized = trace(P2, 1, 92, memo=memo).value
        assert len(calls) == len(forms[92]) - 2
        assert memoized == trace(P2, 1, 92).value

    def test_memoized_value_does_not_depend_on_the_call_order(self):
        # each memoized value is evaluated at its key's width, whichever plan
        # asked for it first, so t_1(79) sums the same values either way
        level = PrimeLevel(13)
        alone = trace(level, 1, 79, memo=TraceMemo(level)).residual
        memo = TraceMemo(level)
        trace(level, 15, 79, memo=memo)
        assert trace(level, 1, 79, memo=memo).residual == alone

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_memoized_and_unmemoized_traces_agree(self, p):
        # memoized values are evaluated at the 64-bit bucket and shifted, the
        # values of a call without a memo at W itself; both certify the same integer
        level = PrimeLevel(p)
        memo = TraceMemo(level)
        for D in (1, 3, 15):
            for d in range(1, 101):
                if is_admissible(d, level):
                    assert trace(level, D, d, memo=memo).value == trace(level, D, d).value, (D, d)

    def test_each_distinct_form_evaluated_once(self, monkeypatch):
        calls = []
        real = traces_mod.horner_poly
        monkeypatch.setattr(
            traces_mod, "horner_poly", lambda poly, x, bits: calls.append(x) or real(poly, x, bits)
        )
        # (level, d, summed classes, distinct evaluation forms, distinct
        # (a, |b|, c)): a form and its mirror (a, -b, c) share one evaluation
        for level, d, n_classes, n_forms, n_evals in (
            (P2, 108, 8, 4, 3), (P3, 108, 10, 6, 5), (PrimeLevel(13), 399, 16, 16, 10),
        ):
            calls.clear()
            rec = trace(level, 1, d)
            summed = [c.eval_form for c in enumerate_classes(level, d) if c.beta <= level.p]
            assert (len(summed), len(set(summed))) == (n_classes, n_forms)
            assert len({(a, abs(b), c) for a, b, c in summed}) == n_evals
            assert len(calls) == n_evals
            assert rec.value == oracles.trace_value(level.p, 1, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_one_evaluation_per_mirror_pair(self, monkeypatch, p):
        # a trace evaluates j_p* once per distinct (a, |b|, c) of its summed
        # classes: a form and its mirror (a, -b, c) share one evaluation
        level = PrimeLevel(p)
        calls = []
        real = traces_mod.eta_hauptmodul
        monkeypatch.setattr(traces_mod, "eta_hauptmodul",
                            lambda *args: calls.append(args) or real(*args))
        for d in range(1, 201):
            if not is_admissible(d, level):
                continue
            calls.clear()
            trace(level, 1, d)
            summed = {(a, abs(b), c) for beta, _, _, (a, b, c), _ in enumerate_classes(level, d)
                      if beta <= p}
            assert len(calls) == len(summed), d

    def test_methods_agree(self):
        for d in (16, 23, 108):
            assert trace(P2, 1, d, method="gkz").value == trace(P2, 1, d, method="brute").value

    def test_inadmissible_and_bad_degree(self):
        with pytest.raises(InadmissibleDiscriminant):
            trace(P2, 1, 5)
        with pytest.raises(ValueError):
            trace(P2, 0, 4)

    def test_degree_bound(self, monkeypatch):
        # a degree past MAX_DEGREE is refused before any series or Faber
        # polynomial is built; the bound itself is accepted
        store = fresh_store(monkeypatch)
        for D in (MAX_DEGREE + 1, 10**6):
            with pytest.raises(ValueError,
                               match=f"D={D} is above the supported bound {MAX_DEGREE}"):
                trace(P2, D, 7)
        assert store == {}
        assert trace(PrimeLevel(13), MAX_DEGREE, 3).residual < 1e-6

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
        counts = {d: len(enumerate_classes(level, d)) for d in ds}
        memo = TraceMemo(level)
        with TraceCache(path) as cache:
            for d in ds:
                rec = trace(level, 1, d, cache=cache, memo=memo)
                assert not rec.cached and rec.class_count == counts[d], d
                assert trace(level, 1, d, memo=memo) is rec  # memo hit
        cache = TraceCache(path)
        for d in ds:
            assert cache.get(p, 1, d).class_count is None
            hit = trace(level, 1, d, cache=cache)
            assert hit.cached and hit.class_count == counts[d], d

    def test_precision_override_respected(self):
        rec = trace(P2, 1, 7, ctx0=PrecisionContext(bits=640, terms=256))
        assert rec.bits >= 640 and rec.terms >= 256
        assert rec.value == -23

    def test_precision_failure_names_its_input(self, monkeypatch):
        # a kernel off by 1/2 moves t(4) = j_2*((-1+i)/2)/4 by 1/8 at every plan
        kernel = traces_mod.eta_hauptmodul

        def off_by_half(level, q, bits):
            re, im = kernel(level, q, bits)
            return re + (1 << (fixed_width(bits) - 1)), im

        monkeypatch.setattr(traces_mod, "eta_hauptmodul", off_by_half)
        with pytest.raises(PrecisionFailure) as info:
            trace(P2, 1, 4)
        ctx = plan_precision(P2, 4, enumerate_classes(P2, 4))
        attempts = info.value.attempts
        assert [a[:2] for a in attempts] == [
            (ctx.bits << i, ctx.terms << i) for i in range(MAX_RETRIES + 1)
        ]
        assert all(abs(r - 0.125) < 1e-9 for _, _, r in attempts)
        msg = str(info.value)
        assert msg.startswith("t_1(4) at p=2 (class count 1): ")
        for bits, terms, residual in attempts:
            assert f"bits={bits} terms={terms} residual={residual}" in msg


class TestSeriesSizing:
    """hauptmodul.faber_poly sizes the Hauptmodul and the Faber list in one place."""

    @pytest.mark.parametrize("p", [2, 13])
    def test_each_hauptmodul_build_is_a_larger_power_of_two(self, monkeypatch, p):
        level = PrimeLevel(p)
        orders = []
        build = hauptmodul_mod.build_hauptmodul
        monkeypatch.setattr(hauptmodul_mod, "build_hauptmodul",
                            lambda lv, N: orders.append(N) or build(lv, N))
        fresh_store(monkeypatch)
        for D, dmax in ((1, 300), (5, 30)):
            for d in range(1, dmax + 1):
                if is_admissible(d, level):
                    trace(level, D, d)
        assert orders and all(N & (N - 1) == 0 for N in orders)
        assert all(a < b for a, b in zip(orders, orders[1:]))
        # the series feeds only the Faber list: the Faber degree sizes it, the
        # plan's terms (up to 381 here) do not
        assert orders[0] >= 1 + 2
        assert orders == [4, 8]

    def test_faber_list_grows_to_exactly_the_degree(self, monkeypatch):
        # the level's Faber list is extended to D itself, not to the next
        # power of two: past 256 that would be the list to 512, ten times dearer
        store = fresh_store(monkeypatch)
        trace(P2, 15, 7)
        head = store[2][1]
        assert head == faber_polys(build_hauptmodul(P2, 64), 15)
        faber_poly(P2, 257)
        polys = store[2][1]
        assert len(polys) == 258 and polys[:16] == head


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


class TestTraceRecord:
    # a NamedTuple: read-only, copied with _replace, equal to the tuple of its fields

    @pytest.mark.parametrize("name", list(TraceRecord._fields) + ["other"])
    def test_fields_are_read_only(self, name):
        rec = TraceRecord(2, 1, 4, -26, 128, 72, "gkz")
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)

    def test_replace_copies_and_compares_as_a_tuple(self):
        rec = TraceRecord(2, 1, 4, -26, 128, 72, "gkz")
        assert rec == (2, 1, 4, -26, 128, 72, "gkz", None, None, False)
        hit = rec._replace(class_count=1, cached=True)
        assert hit.class_count == 1 and hit.cached and rec.class_count is None
        assert hit[:7] == rec[:7]


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

    def test_refusals_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^weight index k must be 0 or 1$"):
            CoeffTable(2, P2, 10)
        with pytest.raises(WindowError, match=re.escape("entry at n=16 outside window [1, 10]")):
            CoeffTable(0, P2, 10, {16: 1})
        with pytest.raises(ValueError, match=r"^entry at n=3 violates the plus condition$"):
            CoeffTable(0, P2, 10, {3: 1})

    def test_tables_without_entries_share_no_dict(self):
        a, b = CoeffTable(0, P2, 10), CoeffTable(1, P2, 10)
        assert a.entries == b.entries == {} and a.entries is not b.entries
        a.entries[4] = 1
        assert b.get(4) == 0 and CoeffTable(0, P2, 10).entries == {}


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

    def test_sparse_tables_match_the_dense_reference(self):
        # few entries, placed where the sparse step could miss one: the top of
        # the window, multiples of ell^2 and ell^4, and explicit zeros
        rng = random.Random(7)
        for k in (0, 1):
            for ell in (3, 5, 7):
                for p in (2, 3, 5, 7, 13):
                    if p == ell:
                        continue
                    level, ell2 = PrimeLevel(p), ell * ell
                    for _ in range(12):
                        n_max = rng.randint(ell2, 3000)
                        plus = [n for n in range(1, n_max + 1) if plus_condition(k, level, n)]
                        picks = rng.sample(plus, min(len(plus), rng.randint(0, 6)))
                        picks += plus[-2:]  # the top of the window
                        picks += [n for n in plus if n % ell2 == 0][:3]
                        picks += [n for n in plus if n % (ell2 * ell2) == 0][:2]
                        entries = {n: rng.randint(-50, 50) for n in picks}
                        for n in rng.sample(picks, min(len(picks), 3)):
                            entries[n] = 0
                        t = CoeffTable(k, level, n_max, entries)
                        out = hecke_apply(t, ell)
                        dense = {}
                        for n in range(1, n_max // ell2 + 1):
                            if plus_condition(k, level, n):
                                if val := generic_hecke(entries, k, ell, n):
                                    dense[n] = val
                        assert list(out.entries.items()) == list(dense.items()), (k, p, ell, n_max)
                        assert out.n_max == n_max // ell2

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

    def test_a_grid_charged_past_the_bound_computes_no_trace(self, monkeypatch):
        # each check is within the bound, the largest charged 9 * 999 * 8, but
        # the grid of D = 1, 4, 9, 16 and every admissible d <= 1000 is charged
        # 9 * (1 + 2 + 5 + 8) = 144 per unit of d, and its d up to 608 sum to 69844
        monkeypatch.setattr(traces_mod, "trace", lambda *args, **kw: pytest.fail("trace called"))
        ds = [d for d in range(1, 1001) if is_admissible(d, P2)]
        assert sum(ds[:ds.index(608)]) * 144 <= MAX_COST < sum(ds[:ds.index(608) + 1]) * 144
        with pytest.raises(ValueError, match=f"^the request is charged {144 * 69844} up to "
                                             f"d=608, above the supported bound {MAX_COST}$"):
            verify_coeff_identities(P2, 3, [1, 4, 9, 16], ds)

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
        [rep] = verify_recurrence(P2, 3, 1, [8], 1)
        assert rep["ok"] and rep["iterated_step_ok"]
        assert int(rep["lhs"]) == int(rep["rhs"]) == int(rep["iterated_step"])

    def test_n2_touches_d648(self):
        [rep] = verify_recurrence(P2, 3, 1, [8], 2)
        assert rep["ok"] and rep["iterated_step_ok"]

    def test_level_3_example(self):
        assert verify_recurrence(P3, 5, 1, [8], 1)[0]["ok"]

    def test_square_D_and_bad_n(self):
        with pytest.raises(ValueError):
            verify_recurrence(P2, 3, 2, [8], 1)
        with pytest.raises(ValueError):
            verify_recurrence(P2, 3, 1, [8], 0)

    def test_a_check_charged_past_the_bound_computes_no_trace(self, monkeypatch):
        # 9 * 1111111 is within MAX_DISC, but its traces have Faber degree 85:
        # charged 783 times a degree-1 trace there
        monkeypatch.setattr(traces_mod, "trace", lambda *args, **kw: pytest.fail("trace called"))
        # it is refused as a grid of one check; in a grid with d = 4 the sum passes
        # the bound at the same check
        msg = f"^the request is charged {{}} up to d=1111111, above the supported bound {MAX_COST}$"
        with pytest.raises(ValueError, match=msg.format(7829999217)):
            verify_recurrence(P2, 3, 7225, [1111111], 1)
        with pytest.raises(ValueError, match=msg.format(9 * (1 + 783) * (4 + 1111111))):
            verify_coeff_identities(P2, 3, [1, 7225], [4, 1111111])

    def test_reach_past_the_bounds(self):
        # refused before ell^(2n) is built and before any trace: 3^(2 10^8) has
        # about 10^8 digits
        with pytest.raises(ValueError, match=f"^ell=3, n=100000000: .* above the "
                                             f"supported bound {MAX_DISC}$"):
            verify_recurrence(P2, 3, 1, [7], 10**8)
        # 3^12 7 is within MAX_DISC, but B(3^12, 7) needs t_729(7)
        with pytest.raises(ValueError, match=f"ell=3, n=6, D=1: .* above the supported "
                                             f"bound {MAX_DEGREE}"):
            verify_recurrence(P2, 3, 1, [7], 6)
        with pytest.raises(ValueError, match=f"ell=3, n=1, D=1000000: .* above the "
                                             f"supported bound {MAX_DEGREE}"):
            verify_recurrence(P2, 3, 10**6, [7], 1)


class TestVerifyCongruence:
    def test_exact_lift_example(self):
        [rep] = verify_congruence(P2, 3, [8], 1)
        assert rep["ok"] and rep["congruence_ok"] and rep["exact_lift_ok"]
        assert int(rep["trace"]) == trace(P2, 1, 72).value
        assert int(rep["trace"]) % 3 == 0
        assert int(rep["trace"]) == 3 * int(rep["lift_value"])

    def test_ell_11_example(self):
        [rep] = verify_congruence(P2, 11, [7], 1)
        assert rep["ok"]
        assert int(rep["trace"]) % 11 == 0

    def test_non_split_gate(self):
        with pytest.raises(HypothesisViolation) as exc:
            verify_congruence(P2, 3, [7], 1)
        assert exc.value.reason == "non-split"

    def test_inadmissible_gate(self):
        with pytest.raises(HypothesisViolation) as exc:
            verify_congruence(P2, 3, [5], 1)
        assert exc.value.reason == "inadmissible"

    def test_reach_past_the_bounds(self):
        # refused before ell^(2n) is built and before any trace
        with pytest.raises(ValueError, match=f"^ell=11, n=10000000: .* above the "
                                             f"supported bound {MAX_DISC}$"):
            verify_congruence(P2, 11, [7], 10**7)
        # 263 splits in Q(sqrt(-7)) and 263^2 7 is within MAX_DISC, but the
        # exact lift B(263^2, 7) needs t_263(7)
        with pytest.raises(ValueError, match=f"ell=263, n=1, D=1: .* above the supported "
                                             f"bound {MAX_DEGREE}"):
            verify_congruence(P2, 263, [7], 1)


class TestVerifiersReadOnlyB:
    """Each verifier is a function of B alone: with no trace computable and
    TraceMemo.b a table, the reports are the ones that table implies."""

    # at ell = 3, (1/3) = (-8/3) = (-23/3) = 1, so the recurrence at n = 1 is
    # B(1, 9d) = 3 B(9, d) and the congruence t(9d) = -B(1, 9d) = 3 (-B(9, d))
    TABLE = {(1, 72): -30, (9, 8): -10, (1, 8): 7, (1, 207): 5, (9, 23): 2, (1, 23): 4}

    @pytest.fixture(autouse=True)
    def b_table(self, monkeypatch):
        read = []

        def b(memo, D, d):
            if D is None or d is None:
                return 0
            read.append((D, d))
            return self.TABLE[(D, d)]

        monkeypatch.setattr(traces_mod, "_class_sum",
                            lambda *args: pytest.fail("a verifier computed a trace"))
        monkeypatch.setattr(TraceMemo, "b", b)
        return read

    def test_congruence(self, b_table):
        assert verify_congruence(P2, 3, [8, 23], 1) == [
            {"kind": "congruence", "p": 2, "ell": 3, "d": 8, "n": 1, "trace": "30",
             "modulus": "3", "congruence_ok": True, "ok": True, "lift_value": "10",
             "exact_lift_ok": True},
            {"kind": "congruence", "p": 2, "ell": 3, "d": 23, "n": 1, "trace": "-5",
             "modulus": "3", "congruence_ok": False, "ok": False, "lift_value": "-2",
             "exact_lift_ok": False},
        ]
        assert b_table == [(1, 72), (9, 8), (1, 207), (9, 23)]

    def test_recurrence(self, b_table):
        assert verify_recurrence(P2, 3, 1, [8, 23], 1) == [
            {"kind": "recurrence", "p": 2, "ell": 3, "D": 1, "d": 8, "n": 1, "lhs": "-30",
             "rhs": "-30", "ok": True, "iterated_step": "-30", "iterated_step_ok": True},
            {"kind": "recurrence", "p": 2, "ell": 3, "D": 1, "d": 23, "n": 1, "lhs": "5",
             "rhs": "6", "ok": False, "iterated_step": "6", "iterated_step_ok": False},
        ]
        assert set(b_table) == set(self.TABLE)


def _read_up_to(last, ds):
    """ds, failing the test if it is read past `last`."""
    for d in ds:
        if d > last:
            pytest.fail(f"d={d} was read, past the first refused d={last}")
        yield d


class TestAdmission:
    # every table, grid and check is checked and charged by traces.admit before
    # its first trace

    def test_the_cost_bound_is_within_the_discriminant_bound(self):
        # so a check's charge, at least its discriminant ell^(2n) d, bounds the discriminant
        assert MAX_COST <= MAX_DISC

    @pytest.mark.parametrize("call, reason", [
        (lambda: verify_coeff_identities(P2, 3, [1], [7, 8, 5]), None),
        (lambda: verify_recurrence(P2, 3, 1, [7, 8, 5], 1), None),
        (lambda: verify_congruence(P2, 3, [8, 5], 1), "inadmissible"),
        (lambda: verify_congruence(P2, 3, [8, 7], 1), "non-split"),
    ], ids=["identities", "recurrence", "congruence-inadmissible", "congruence-non-split"])
    def test_a_bad_d_is_refused_before_the_first_trace(self, monkeypatch, call, reason):
        monkeypatch.setattr(traces_mod, "_class_sum", lambda *args: pytest.fail("trace computed"))
        with pytest.raises(HypothesisViolation if reason else InadmissibleDiscriminant) as exc:
            call()
        assert getattr(exc.value, "reason", None) == reason

    @pytest.mark.parametrize("call", [
        lambda: trace(P2, 1, 5),
        lambda: verify_coeff_identities(P2, 3, [1], [7, 5]),
        lambda: verify_recurrence(P2, 3, 1, [7, 5], 1),
        lambda: enumerate_classes(P2, 5),
        lambda: brute_force_labels(P2, 5),
    ], ids=["trace", "identities", "recurrence", "enumerate", "brute"])
    def test_one_wording_for_an_inadmissible_d(self, call):
        with pytest.raises(InadmissibleDiscriminant, match="^d=5 is inadmissible for p=2$"):
            call()

    @pytest.mark.parametrize("call, first, charge", [
        (lambda ds: verify_coeff_identities(P2, 3, [1, 4, 9, 16], ds), 608, 10057536),
        (lambda ds: verify_recurrence(P2, 3, 1, ds, 1), 2432, 10000080),
        (lambda ds: verify_congruence(P2, 3, (d for d in ds if kronecker(-d, 3) == 1),
                                      1), 4220, 10021977),
    ], ids=["identities", "recurrence", "congruence"])
    def test_a_grid_reads_no_d_past_the_first_refused(self, monkeypatch, call, first, charge):
        monkeypatch.setattr(traces_mod, "_class_sum", lambda *args: pytest.fail("trace computed"))
        ds = (d for d in range(1, 10**30) if is_admissible(d, P2))
        with pytest.raises(ValueError, match=f"^the request is charged {charge} up to d={first}, "
                                             f"above the supported bound {MAX_COST}$"):
            call(_read_up_to(first, ds))

    def test_a_grid_reads_no_D_past_the_first_refused(self, monkeypatch):
        # 3 * 86 is past MAX_DEGREE; with no D, no d is read
        monkeypatch.setattr(traces_mod, "_class_sum", lambda *args: pytest.fail("trace computed"))
        Ds = (m * m for m in range(1, 10**15))
        with pytest.raises(ValueError, match=f"^ell=3, n=1, D=7396: .* bound {MAX_DEGREE}$"):
            verify_coeff_identities(P2, 3, _read_up_to(7396, Ds), [7])
        assert verify_coeff_identities(P2, 3, [], _read_up_to(0, [7]))["checks"] == []


class TestTraceCache:
    def test_put_get_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            rec = trace(P2, 1, 4)
            cache.put(rec)
            got = cache.get(2, 1, 4)
        assert got.value == rec.value and got.bits == rec.bits

    def test_idempotent_put_single_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            rec = trace(P2, 1, 4)
            cache.put(rec)
            cache.put(rec)
        assert len(path.read_text().strip().splitlines()) == 1

    def test_puts_share_one_descriptor_opened_by_the_first_write(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        opened = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda *args: opened.append(args[0]) or real_open(*args))
        with TraceCache(path) as cache:
            assert opened == [] and not path.exists()
            for d in (4, 7, 8, 4):
                cache.put(trace(P2, 1, d))
            assert opened == [path]
        assert cache._fd is None
        assert len(path.read_text().splitlines()) == 3

    def test_read_only_use_never_opens_for_writing(self, tmp_path, monkeypatch):
        # a warm cache may be read-only: hits and repeated puts must not open it
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            cache.put(trace(P2, 1, 4))
        monkeypatch.setattr(os, "open", lambda *args: pytest.fail("opened for writing"))
        with TraceCache(path) as warm:
            hit = trace(P2, 1, 4, cache=warm)
            assert hit.cached
            warm.put(hit)

    def test_reload_marks_cached(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            cache.put(trace(P2, 1, 4))
        fresh = TraceCache(path)
        assert fresh.get(2, 1, 4).cached is True
        assert fresh.get(2, 1, 4).residual is None  # not stored, not measured

    @pytest.mark.parametrize("fields", [
        {"D": 0}, {"D": -1}, {"d": 2}, {"d": 0}, {"bits": 63}, {"terms": 0},
        {"p": 11}, {"method": "pell"},
    ])
    def test_put_refuses_a_record_the_loader_refuses(self, tmp_path, fields):
        # refused before the file is opened: a new path is not created, and
        # an existing file is left byte for byte
        rec = trace(P2, 1, 4)._replace(**fields)
        name = f"({rec.p}, {rec.D}, {rec.d})"
        with TraceCache(tmp_path / "new.jsonl") as cache:
            with pytest.raises(ValueError, match=re.escape(name)):
                cache.put(rec)
        assert not (tmp_path / "new.jsonl").exists()
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            cache.put(trace(P2, 1, 7))
        before = path.read_bytes()
        with TraceCache(path) as cache:
            with pytest.raises(ValueError, match=re.escape(name)):
                cache.put(rec)
        assert path.read_bytes() == before

    def test_conflicting_put_aborts(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            rec = trace(P2, 1, 4)
            cache.put(rec)
            with pytest.raises(CacheIntegrityError, match=r"c\.jsonl: conflicting values"):
                cache.put(rec._replace(value=rec.value + 1))

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
        # integers in a shape put never writes
        '{"p": "2", "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": "64", "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": -26, "bits": 128, "terms": 64, "method": "gkz"}',
        # well-typed, but no enumeration method or no supported level
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": null}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": ["gkz"]}',
        '{"p": 11, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        # well-typed, but values no put writes: D < 1, an inadmissible d,
        # bits < 64 or terms < 1
        '{"p": 2, "D": 0, "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": "-1", "d": 4, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 2, "t": "-26", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 13, "D": 1, "d": 0, "t": "0", "bits": 128, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": -3, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 63, "terms": 64, "method": "gkz"}',
        '{"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 0, "method": "gkz"}',
    ])
    def test_json_that_is_not_a_record_is_corrupt(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CacheIntegrityError, match=r"c\.jsonl:1: corrupt cache line"):
            TraceCache(path)

    def test_records_past_todays_bounds_still_load(self, tmp_path):
        # D above MAX_DEGREE and d above MAX_DISC: older versions wrote such lines
        path = tmp_path / "c.jsonl"
        big_d = MAX_DISC + 7
        path.write_text(
            json.dumps({"p": 2, "D": 300, "d": 4, "t": "5", "bits": 128, "terms": 64,
                        "method": "gkz"}) + "\n"
            + json.dumps({"p": 2, "D": 1, "d": big_d, "t": "6", "bits": 64, "terms": 1,
                          "method": "gkz"}) + "\n")
        cache = TraceCache(path)
        assert cache.get(2, 300, 4).value == 5 and cache.get(2, 1, big_d).value == 6

    def test_a_line_of_another_shape_names_its_fields(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"p": "2", "D": 1, "d": 4, "t": -26, "bits": 128, "terms": 64, '
                        '"method": "gkz"}\n')
        with pytest.raises(CacheIntegrityError, match=re.escape(
                "c.jsonl:1: corrupt cache line (p, D, d, t, bits, terms = ('2', 1, 4, -26, 128, "
                "64): need JSON integers and t a decimal string)")):
            TraceCache(path)

    def test_every_line_put_writes_loads_back_equal(self, tmp_path):
        # JSON integers for p, D, d, bits and terms and t as a decimal string:
        # the one shape the loader reads
        recs = [trace(level, 1, d) for level in map(PrimeLevel, SUPPORTED_LEVELS)
                for d in range(1, 101) if is_admissible(d, level)]
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            for rec in recs:
                cache.put(rec)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(recs)
        assert {(k, type(v)) for line in lines for k, v in line.items()} == {
            ("p", int), ("D", int), ("d", int), ("t", str), ("bits", int), ("terms", int),
            ("method", str)}
        loaded = TraceCache(path)
        assert [loaded.get(r.p, r.D, r.d) for r in recs] == [
            r._replace(class_count=None, residual=None, cached=True) for r in recs]

    def test_torn_last_line_is_skipped_then_removed(self, tmp_path):
        # a writer killed mid-line leaves an unterminated last line
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            for d in (4, 7):
                cache.put(trace(P2, 1, d))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.warns(UserWarning, match=r"c\.jsonl:2: skipping unterminated") as rec:
            torn = TraceCache(path)
        assert len(rec) == 1
        assert torn.stats()["records"] == 1 and torn.get(2, 1, 4).value == -26
        with torn:
            torn.put(trace(P2, 1, 7))
            torn.put(trace(P2, 1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = TraceCache(path)
        assert reloaded.stats()["records"] == 3
        assert path.read_text().endswith("\n")
        assert len(path.read_text().splitlines()) == 3

    def test_stale_torn_offset_keeps_another_writers_record(self, tmp_path):
        # two caches load the same torn file; the second to write must not cut
        # at its stale offset what the first appended after cutting the line
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            for d in (4, 7):
                cache.put(trace(P2, 1, d))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.warns(UserWarning, match="skipping unterminated"):
            a = TraceCache(path)
        with pytest.warns(UserWarning, match="skipping unterminated"):
            b = TraceCache(path)
        with a, b:
            a.put(trace(P2, 1, 8))
            b.put(trace(P2, 1, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = TraceCache(path)
        assert reloaded.stats()["records"] == 3
        assert all(reloaded.get(2, 1, d) is not None for d in (4, 8, 12))
        assert len(path.read_text().splitlines()) == 3

    @pytest.mark.parametrize("fragment", ['{"p": 2, "D": 1, "d": 9',
                                          '{"p": 2, "D": 1, "d": 9, "t": "' + "7" * 10000])
    def test_fragment_torn_after_load_is_cut_by_the_next_put(self, tmp_path, fragment):
        # the cache loads a whole file; another writer then dies mid-line
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            cache.put(trace(P2, 1, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = TraceCache(path)
        with path.open("a") as fh:
            fh.write(fragment)
        with cache:
            cache.put(trace(P2, 1, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = TraceCache(path)
        assert reloaded.stats()["records"] == 2
        assert [reloaded.get(2, 1, d).value for d in (4, 7)] == [-26, -23]
        assert len(path.read_text().splitlines()) == 2

    WRITER = (
        "import sys\n"
        "from moduli_traces.traces import TraceCache, TraceRecord\n"
        "cache = TraceCache(sys.argv[1])\n"
        "print('loaded', flush=True)\n"
        "sys.stdin.readline()\n"
        "with cache:\n"
        "    for D in range(int(sys.argv[2]), int(sys.argv[3])):\n"
        "        cache.put(TraceRecord(p=2, D=D, d=4, value=7 * D, bits=128, terms=72,\n"
        "                              method='gkz'))\n"
    )

    def test_two_processes_append_overlapping_keys(self, tmp_path):
        # both writers load the file, torn last line included, before either
        # writes; then they append 300 records each, 150 keys in common.  The
        # keys vary D at the admissible d = 4, so every line loads as a record
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            cache.put(TraceRecord(p=2, D=1000, d=4, value=7000, bits=128, terms=72,
                                  method="gkz"))
        with path.open("a") as fh:
            fh.write('{"p": 2, "D": 1, "d": 10')
        src = Path(traces_mod.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        writers = [
            subprocess.Popen([sys.executable, "-c", self.WRITER, str(path), lo, hi], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for lo, hi in (("1", "301"), ("151", "451"))
        ]
        try:
            for w in writers:
                assert w.stdout.readline() == "loaded\n"
            for w in writers:
                w.stdin.write("go\n")
                w.stdin.flush()
            for w in writers:
                w.communicate(timeout=60)
                assert w.returncode == 0
        finally:
            for w in writers:
                if w.poll() is None:
                    w.kill()
                    w.communicate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = TraceCache(path)  # a conflicting value would raise here
        assert merged.stats()["records"] == 451
        assert all(merged.get(2, D, 4).value == 7 * D for D in (*range(1, 451), 1000))

    def test_conflicting_lines_abort_on_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        a = {"p": 2, "D": 1, "d": 4, "t": "-26", "bits": 128, "terms": 72, "method": "gkz"}
        b = dict(a, t="-27")
        path.write_text(json.dumps(a) + "\n" + json.dumps(b) + "\n")
        with pytest.raises(CacheIntegrityError):
            TraceCache(path)

    def test_stats_and_verify(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            for d in (4, 7):
                cache.put(trace(P2, 1, d))
            cache.put(trace(P3, 1, 8))
        stats = cache.stats()
        assert stats["records"] == 3 and stats["by_level"] == {2: 2, 3: 1}
        report = cache.verify()
        assert report["ok"] and report["checked"] == 3

    def test_verify_ignores_a_poisoned_memo(self, tmp_path):
        # a wrong record in a memo reaches the cache file through trace(); verify
        # recomputes instead of reading the memo back, and reports it
        memo = TraceMemo(P2)
        rec = trace(P2, 1, 39, memo=memo)
        bad = memo.records[(1, 39)] = rec._replace(value=rec.value + 1)
        with TraceCache(tmp_path / "c.jsonl") as cache:
            assert trace(P2, 1, 39, cache=cache, memo=memo) is bad
        report = cache.verify()
        assert not report["ok"]
        assert report["mismatches"] == [
            {"p": 2, "D": 1, "d": 39, "cached": str(bad.value), "fresh": str(rec.value)}
        ]

    def test_verify_recomputes_poisoned_cm_values(self, tmp_path):
        # a wrong CM value in a memo makes trace() write a wrong record; verify
        # shares no memo with trace(), so it reports it.  The poisoned key
        # (2, 1, 3) carries the weight 12 of each of the forms (2, 1, 3) and
        # (2, -1, 3), so adding 1 to Re j there moves t(23) by 24
        memo = TraceMemo(P2)
        trace(P2, 1, 23, memo=memo)
        memo.records.clear()
        key = next(iter(memo.values))
        assert key[0] == (2, 1, 3)
        re, im = memo.values[key]
        memo.values[key] = (re + (12 << key[1]), im)
        with TraceCache(tmp_path / "c.jsonl") as cache:
            assert trace(P2, 1, 23, cache=cache, memo=memo).value == -70
        report = cache.verify()
        assert report["mismatches"] == [
            {"p": 2, "D": 1, "d": 23, "cached": "-70", "fresh": "-94"}
        ]

    def test_trace_uses_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            first = trace(P2, 1, 79, cache=cache)
        assert first.cached is False
        again = trace(P2, 1, 79, cache=TraceCache(path))
        assert again.cached is True and again.value == first.value

    def test_memo_hit_is_written_to_the_cache(self, tmp_path):
        path = tmp_path / "c.jsonl"
        memo = TraceMemo(P2)
        first = trace(P2, 1, 4, memo=memo)
        with TraceCache(path) as cache:
            again = trace(P2, 1, 4, cache=cache, memo=memo)
        assert again is first
        assert TraceCache(path).get(2, 1, 4).value == first.value
        assert len(path.read_text().splitlines()) == 1

    def test_cache_hit_is_not_written_back(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        with TraceCache(path) as cache:
            cache.put(trace(P2, 1, 4))
        cache = TraceCache(path)
        monkeypatch.setattr(cache, "put", lambda rec: pytest.fail("put of a cache hit"))
        assert trace(P2, 1, 4, cache=cache).cached is True
