"""Unit tests for high-precision CM evaluation and rounding certificates."""

from fractions import Fraction

import mpmath
import pytest

import oracles
from moduli_traces.arith import PrimeLevel, is_admissible
from moduli_traces.cm_eval import (
    MAX_RETRIES,
    TOL,
    PrecisionContext,
    PrecisionFailure,
    cm_point_q,
    fixed_width,
    horner_in_q,
    horner_poly,
    plan_precision,
    round_to_integer,
)
from moduli_traces.hauptmodul import build_hauptmodul, faber_polys
from moduli_traces.qforms import QuadForm, enumerate_classes
from moduli_traces.qseries import TruncatedLaurentSeries, WindowError
from moduli_traces.traces import trace

P2 = PrimeLevel(2)


def to_mpc(z, bits):
    return mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / 2 ** fixed_width(bits)


def eval_at(series, F, ctx):
    """The series summed at the CM point of F, through the fixed-point kernel."""
    z = horner_in_q(series, cm_point_q(F, ctx.bits), ctx.terms, ctx.bits)
    with mpmath.workprec(fixed_width(ctx.bits)):
        return to_mpc(z, ctx.bits)


class TestContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(bits=32)

    def test_escalate_doubles(self):
        ctx = PrecisionContext(bits=128, terms=64)
        up = ctx.escalate()
        assert up.bits == 256 and up.terms == 128


class TestEvalAtCM:
    def test_single_term_at_i(self):
        # series q^-1 at alpha = i is e^{2 pi}
        series = TruncatedLaurentSeries(-1, [1] + [0] * 40)
        ctx = PrecisionContext(bits=128, terms=30)
        val = eval_at(series, QuadForm(1, 0, 1), ctx)
        with mpmath.workprec(128):
            expect = mpmath.exp(2 * mpmath.pi)
            assert abs(val - expect) < mpmath.mpf(2) ** -100
        assert str(val.real)[:8] == "535.4916"

    def test_cm_point_on_negative_real_axis(self):
        # F = [2,2,1]: alpha = (-1+i)/2, so q = -e^{-pi} and q^-1 = -e^{pi}
        q, q_inv = cm_point_q(QuadForm(2, 2, 1), 128)
        with mpmath.workprec(256):
            assert abs(to_mpc(q, 128) + mpmath.exp(-mpmath.pi)) < mpmath.mpf(2) ** -100
            assert abs(to_mpc(q_inv, 128) + mpmath.exp(mpmath.pi)) < mpmath.mpf(2) ** -100

    def test_hauptmodul_singular_value(self):
        # j_2* at alpha = (-1+i)/2 is the algebraic integer -104 (the d=4
        # class is symmetric, so a single evaluation is already real)
        h = build_hauptmodul(P2, 120)
        ctx = PrecisionContext(bits=192, terms=100)
        val = eval_at(h.series, QuadForm(2, 2, 1), ctx)
        with mpmath.workprec(192):
            assert abs(val.imag) < mpmath.mpf(2) ** -96
            assert abs(val.real + 104) < 1e-30

    def test_window_contract(self):
        series = TruncatedLaurentSeries(-1, [1] * 10)
        with pytest.raises(WindowError):
            eval_at(series, QuadForm(1, 0, 1), PrecisionContext(bits=128, terms=50))

    def test_deterministic(self):
        h = build_hauptmodul(P2, 80)
        ctx = PrecisionContext(bits=192, terms=60)
        a = eval_at(h.series, QuadForm(2, 2, 1), ctx)
        b = eval_at(h.series, QuadForm(2, 2, 1), ctx)
        assert a == b

    def test_conjugate_beta_pairs(self):
        # d=15 at p=2 has betas {1, 3}; the beta-group sums are conjugates
        classes = enumerate_classes(P2, 15)
        assert {c.beta for c in classes} == {1, 3}
        h = build_hauptmodul(P2, 130)
        ctx = PrecisionContext(bits=192, terms=100)
        with mpmath.workprec(192):
            sums = {1: mpmath.mpc(0), 3: mpmath.mpc(0)}
            for c in classes:
                sums[c.beta] += eval_at(h.series, c.eval_form, ctx) / c.omega
            assert abs(sums[1] - mpmath.conj(sums[3])) < mpmath.mpf(2) ** -96
            assert abs((sums[1] + sums[3]).imag) < mpmath.mpf(2) ** -96

    def test_precision_doubling_stability(self):
        h = build_hauptmodul(P2, 300)
        for d in (4, 15, 23):
            for cl in enumerate_classes(P2, d):
                ctx = plan_precision(d, [cl])
                v1 = eval_at(h.series, cl.eval_form, ctx)
                v2 = eval_at(h.series, cl.eval_form, ctx.escalate())
                with mpmath.workprec(2 * ctx.bits):
                    assert abs(v1 - v2) < mpmath.mpf(2) ** (-ctx.bits // 2)


class TestFixedPointKernel:
    """The fixed-point kernel against the mpmath-object oracle."""

    @pytest.mark.parametrize("p", [2, 13])
    def test_cm_values_match_oracle(self, p):
        # every class with d <= 300, at its planned precision: the fixed-point
        # value agrees with the oracle to 2^-(bits-8), relative to max(1, |value|)
        level = PrimeLevel(p)
        series = build_hauptmodul(level, 1024).series
        checked = 0
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            classes = enumerate_classes(level, d)
            ctx = plan_precision(d, classes)
            for cl in classes:
                got = horner_in_q(series, cm_point_q(cl.eval_form, ctx.bits), ctx.terms, ctx.bits)
                q = oracles.cm_point_q(cl.eval_form, ctx.bits)
                ref = oracles.horner_in_q(series, q, ctx.terms, ctx.bits)
                with mpmath.workprec(fixed_width(ctx.bits)):
                    err = abs(to_mpc(got, ctx.bits) - ref) / max(1, abs(ref))
                    assert err <= mpmath.mpf(2) ** -(ctx.bits - 8), (d, cl.eval_form)
                checked += 1
        assert checked > 800

    def test_faber_horner_matches_oracle(self):
        h = build_hauptmodul(P2, 200)
        poly = faber_polys(h, 15)[15]
        classes = enumerate_classes(P2, 23)
        ctx = plan_precision(23, classes, degree=15)
        for cl in classes:
            x = horner_in_q(h.series, cm_point_q(cl.eval_form, ctx.bits), ctx.terms, ctx.bits)
            got = horner_poly(poly, x, ctx.bits)
            with mpmath.workprec(fixed_width(ctx.bits)):
                ref = oracles.horner_poly(poly, to_mpc(x, ctx.bits), fixed_width(ctx.bits))
                err = abs(to_mpc(got, ctx.bits) - ref) / max(1, abs(ref))
                assert err <= mpmath.mpf(2) ** -(ctx.bits - 8)

    @pytest.mark.parametrize("p", [2, 13])
    def test_traces_identical_to_oracle_and_stable_under_escalation(self, p):
        level = PrimeLevel(p)
        for D in (1, 5, 15):
            for d in range(1, 100):
                if not is_admissible(d, level):
                    continue
                value = trace(level, D, d, memo=False).value
                assert value == oracles.trace_value(p, D, d), (D, d)
                up = plan_precision(d, enumerate_classes(level, d), degree=D).escalate()
                assert trace(level, D, d, ctx0=up).value == value, (D, d)


class TestPlanPrecision:
    def test_d4_example(self):
        classes = enumerate_classes(P2, 4)
        ctx = plan_precision(4, classes)
        assert ctx.bits == 128

    def test_monotone_in_d(self):
        prev = 0
        for d in (4, 100, 400, 1600):
            ctx = plan_precision(d, enumerate_classes(P2, d))
            assert ctx.bits >= prev
            prev = ctx.bits

    def test_terms_grow_as_height_shrinks(self):
        # a min-height class list forces more series terms than a tall one
        tall = plan_precision(400, [enumerate_classes(P2, 400)[0]])
        classes = enumerate_classes(P2, 400)
        low = plan_precision(400, classes)
        assert low.terms >= tall.terms

    def test_respects_ctx0_floor(self):
        classes = enumerate_classes(P2, 4)
        ctx = plan_precision(4, classes, ctx0=PrecisionContext(bits=512, terms=300))
        assert ctx.bits >= 512 and ctx.terms >= 300

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            plan_precision(4, [])


class TestRoundToInteger:
    def test_near_integer(self):
        assert TOL == 1e-6  # the integrality gate never gets looser
        ctx = PrecisionContext(bits=128)
        rv = round_to_integer(Fraction("42.0000000001"), ctx)
        assert rv.value == 42 and rv.residual < 1e-9

    def test_half_integer_fails(self):
        ctx = PrecisionContext(bits=128)
        with pytest.raises(PrecisionFailure):
            round_to_integer(Fraction("41.5"), ctx)

    def test_escalation_path(self):
        # the recompute thunk converges to an integer once bits double
        ctx = PrecisionContext(bits=128, terms=8)
        calls = []

        def recompute(c):
            calls.append((c.bits, c.terms))
            return 7 + Fraction(1, 2**c.terms)

        rv = round_to_integer(Fraction("7.01"), ctx, recompute=recompute)
        assert rv.value == 7
        assert calls and calls[0] == (256, 16)

    def test_retry_budget_exhausted(self):
        ctx = PrecisionContext(bits=128)
        calls = []

        def stuck(c):
            calls.append(c.bits)
            return Fraction(1, 2)

        with pytest.raises(PrecisionFailure):
            round_to_integer(Fraction(1, 2), ctx, recompute=stuck)
        assert MAX_RETRIES == 4 and calls == [256, 512, 1024, 2048]
