"""Unit tests for high-precision CM evaluation and rounding certificates."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

import oracles
from moduli_traces import cm_eval
from moduli_traces.arith import PrimeLevel, is_admissible
from moduli_traces.cm_eval import (
    MAX_RETRIES,
    TOL,
    PrecisionContext,
    PrecisionFailure,
    cm_point_q,
    eta_hauptmodul,
    fixed_width,
    horner_in_q,
    horner_poly,
    plan_precision,
    round_to_integer,
)
from moduli_traces.hauptmodul import build_hauptmodul, faber_polys
from moduli_traces.qforms import enumerate_classes
from moduli_traces.qseries import TruncatedLaurentSeries, WindowError
from moduli_traces.traces import trace

P2 = PrimeLevel(2)


def to_mpc(z, bits):
    return mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1])) / 2 ** fixed_width(bits)


def assert_matches_oracle(level, series, F, *ctxs):
    """j_p* at F, from the eta kernel and from the Horner cross-check, agrees at
    each of ctxs with the oracle's Horner sum over series to 2^-(bits-8),
    relative to max(1, |value|).  The oracle runs once, at the last and largest
    plan, with fixed_width(bits) + 64 bits: it is at least as precise, and its
    longer tail checks the kernels' truncation at the smaller plans too."""
    top = ctxs[-1]
    prec = fixed_width(top.bits) + 64
    ref = oracles.horner_in_q(series, oracles.cm_point_q(F, prec), top.terms, prec)
    for ctx in ctxs:
        q = cm_point_q(F, ctx.bits)
        for got in (eta_hauptmodul(level, q, ctx.bits),
                    horner_in_q(series, q, ctx.terms, ctx.bits)):
            with mpmath.workprec(prec):
                err = abs(to_mpc(got, ctx.bits) - ref) / max(1, abs(ref))
                assert err <= mpmath.mpf(2) ** -(ctx.bits - 8), (ctx, F)


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

    def test_63_bits_refused_64_accepted(self):
        with pytest.raises(ValueError, match="^need at least 64 mantissa bits$"):
            PrecisionContext(bits=63)
        assert PrecisionContext(64) == PrecisionContext(bits=64, terms=64) == (64, 64)
        assert PrecisionContext() == (128, 64)

    @pytest.mark.parametrize("name", ["bits", "terms", "other"])
    def test_fields_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(PrecisionContext(), name, 256)

    def test_escalate_and_plan_build_contexts(self):
        up = PrecisionContext(128, 64).escalate()
        assert type(up) is PrecisionContext and up == (256, 128)
        classes = enumerate_classes(P2, 7)
        assert type(plan_precision(P2, 7, classes)) is PrecisionContext


class TestEvalAtCM:
    def test_single_term_at_i(self):
        # series q^-1 at alpha = i is e^{2 pi}
        series = TruncatedLaurentSeries(-1, [1] + [0] * 40)
        ctx = PrecisionContext(bits=128, terms=30)
        val = eval_at(series, (1, 0, 1), ctx)
        with mpmath.workprec(128):
            expect = mpmath.exp(2 * mpmath.pi)
            assert abs(val - expect) < mpmath.mpf(2) ** -100
        assert str(val.real)[:8] == "535.4916"

    def test_cm_point_on_negative_real_axis(self):
        # F = [2,2,1]: alpha = (-1+i)/2, so q = -e^{-pi} and q^-1 = -e^{pi}
        q, q_inv = cm_point_q((2, 2, 1), 128)
        with mpmath.workprec(256):
            assert abs(to_mpc(q, 128) + mpmath.exp(-mpmath.pi)) < mpmath.mpf(2) ** -100
            assert abs(to_mpc(q_inv, 128) + mpmath.exp(mpmath.pi)) < mpmath.mpf(2) ** -100

    def test_shared_constants_do_not_depend_on_call_history(self):
        # pi and ln 2, e^t and cos/sin are memoized per key; a value must be
        # the same whichever calls filled the memos before it
        F, bits = (6, 5, 5), 192  # d = 95, angle 5/6
        others = [cl.eval_form for d in (23, 95, 143) for cl in enumerate_classes(P2, d)]

        def fresh():
            cm_eval._pi_ln2_bucket.cache_clear()
            cm_eval._exp_t.cache_clear()
            cm_eval._cos_sin_pi.cache_clear()

        fresh()
        ref = cm_point_q(F, bits)
        fresh()
        for G in others:
            for b in (128, 160, 256, 320):
                cm_point_q(G, b)
        assert cm_point_q(F, bits) == ref
        fresh()
        cm_point_q((6, -7, 6), 4 * bits)  # angle -7/6 = 5/6 mod 2, a higher bucket
        assert cm_point_q(F, bits) == ref
        # b -> b + 2a (or b - 2a) moves the CM point by -1 (or +1): q is unchanged
        for G in ((6, 17, 16), (6, -7, 6)):
            assert G[1] ** 2 - 4 * G[0] * G[2] == -95 and cm_point_q(G, bits) == ref

    def test_forms_of_one_height_share_e_t(self):
        # (4, 0, 1) and (4, 4, 2) are forms of d = 16 with sqrt(d)/a = 1, the
        # second of content 2; e^t is keyed by d/a^2 in lowest terms, here 1/1,
        # so they share one entry, and with it the primitive part (2, 2, 1) of
        # (4, 4, 2), at d = 4, which has its CM point and its q to the bit
        cm_eval._exp_t.cache_clear()
        cm_point_q((4, 0, 1), 192)
        q = cm_point_q((4, 4, 2), 192)
        assert cm_eval._exp_t.cache_info().currsize == 1
        assert cm_point_q((2, 2, 1), 192) == q
        assert cm_eval._exp_t.cache_info()[:4] == (2, 1, 64, 1)  # hits, misses, maxsize, size

    def test_hauptmodul_singular_value(self):
        # j_2* at alpha = (-1+i)/2 is the algebraic integer -104 (the d=4
        # class is symmetric, so a single evaluation is already real)
        h = build_hauptmodul(P2, 120)
        ctx = PrecisionContext(bits=192, terms=100)
        val = eval_at(h.series, (2, 2, 1), ctx)
        eta = eta_hauptmodul(P2, cm_point_q((2, 2, 1), ctx.bits), ctx.bits)
        with mpmath.workprec(192):
            for v in (val, to_mpc(eta, ctx.bits)):
                assert abs(v.imag) < mpmath.mpf(2) ** -96
                assert abs(v.real + 104) < 1e-30

    def test_window_contract(self):
        series = TruncatedLaurentSeries(-1, [1] * 10)
        with pytest.raises(WindowError):
            eval_at(series, (1, 0, 1), PrecisionContext(bits=128, terms=50))

    def test_deterministic(self):
        h = build_hauptmodul(P2, 80)
        ctx = PrecisionContext(bits=192, terms=60)
        a = eval_at(h.series, (2, 2, 1), ctx)
        b = eval_at(h.series, (2, 2, 1), ctx)
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
                ctx = plan_precision(P2, d, [cl])
                v1 = eval_at(h.series, cl.eval_form, ctx)
                v2 = eval_at(h.series, cl.eval_form, ctx.escalate())
                with mpmath.workprec(2 * ctx.bits):
                    assert abs(v1 - v2) < mpmath.mpf(2) ** (-ctx.bits // 2)


def nearest(x, prec):
    """The raw mpf x as an int at prec fraction bits, rounded to nearest."""
    return (libmp.to_fixed(x, prec + 1) + 1) >> 1


def exp_prec(d, a, bits):
    """The precisions of e^t and of cos/sin in cm_point_q for a form [a, b, c] of
    discriminant -d, at a plan of bits bits."""
    prec = fixed_width(bits) + math.ceil(math.pi * math.sqrt(d) / (a * math.log(2))) + 16
    return prec, -(-prec // 64) * 64


def assert_exp_t_within_bound(d, a, prec):
    # the module docstring's bound: a relative 2^-(prec+16) plus 2 units for
    # e^t, and 2 units for e^-t, whose relative part is below one unit
    grow, decay = cm_eval._exp_t(d, a * a, prec)  # t = pi sqrt(d/a^2)
    ref_grow, ref_decay = (nearest(x, prec) for x in oracles.libmp_exp_t(d, a, prec + 64))
    assert abs(grow - ref_grow) <= 2 + (ref_grow >> (prec + 16)), (d, a, prec)
    assert abs(decay - ref_decay) <= 2, (d, a, prec)


class TestIntegerSeries:
    """pi, ln 2, e^t, cos/sin and q against mpmath, within the bounds the error
    model in the cm_eval docstring derives."""

    def test_pi_and_ln2(self):
        # off by less than 1 + 2^-14 units of 2^-P: at most 1 from the nearest
        for P in range(64, 4097):
            pi, ln2 = cm_eval._pi_ln2(P)
            assert abs(pi - nearest(libmp.mpf_pi(P + 32), P)) <= 1, P
            assert abs(ln2 - nearest(libmp.mpf_ln2(P + 32), P)) <= 1, P

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_exp_t_at_d_5000(self, p):
        for bits in (128, 1024, 4096):
            assert_exp_t_within_bound(5000, p, exp_prec(5000, p, bits)[0])

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_components_match_libmp(self, p):
        # every evaluation form of admissible d <= 300 at its plan and the plan's
        # first two escalations
        level = PrimeLevel(p)
        points = 0
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            classes = enumerate_classes(level, d)
            ctx = plan_precision(level, d, classes)
            for bits in (ctx.bits, 2 * ctx.bits, 4 * ctx.bits):
                for F in {cl.eval_form for cl in classes}:
                    a, b, _ = F
                    prec, cprec = exp_prec(d, a, bits)
                    assert_exp_t_within_bound(d, a, prec)
                    g = math.gcd(b, a)
                    num, den = b // g % (2 * a // g), a // g
                    cos_sin = cm_eval._cos_sin_pi(num, den, cprec)
                    ref = oracles.libmp_cos_sin_pi(num, den, cprec + 64)
                    for got, x in zip(cos_sin, ref):  # less than 1 + 2^-16 units
                        assert abs(got - nearest(x, cprec)) <= 1, (F, bits)
                    # q and q^-1: less than 1 + 2^-15 units of 2^-W per component
                    W, hi = fixed_width(bits), prec + 64
                    grow, decay = oracles.libmp_exp_t(d, a, hi)
                    cos_u, sin_u = oracles.libmp_cos_sin_pi(num, den, hi)
                    want = [[decay, cos_u], [decay, libmp.mpf_neg(sin_u)],
                            [grow, cos_u], [grow, sin_u]]
                    q, q_inv = cm_point_q(F, bits)
                    got = [*q, *q_inv]
                    for v, (x, y) in zip(got, want):
                        assert abs(v - nearest(libmp.mpf_mul(x, y, hi), W)) <= 1, (F, bits)
                    # the libmp kernel it replaced truncated the same products
                    old = oracles.libmp_cm_point_q(F, bits)
                    assert all(abs(u - v) <= 1 for u, v in zip(got, [*old[0], *old[1]]))
                    points += 1
        assert points > 500


class TestFixedPointKernel:
    """The fixed-point kernels against the mpmath-object oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_cm_values_match_oracle(self, p):
        # every class with d <= 300, at its planned precision and at the first
        # escalation: both kernels agree with the oracle to 2^-(bits-8),
        # relative to max(1, |value|)
        level = PrimeLevel(p)
        series = build_hauptmodul(level, 1024).series
        checked = 0
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            classes = enumerate_classes(level, d)
            ctx = plan_precision(level, d, classes)
            # every distinct evaluation form, mirrors included: a trace
            # evaluates only (a, |b|, c), so this checks (a, -|b|, c) on its own
            for form in {cl.eval_form for cl in classes}:
                assert_matches_oracle(level, series, form, ctx, ctx.escalate())
            checked += len(classes)
        assert checked > 800

    @pytest.mark.parametrize("p", [2, 13])
    def test_cm_values_match_oracle_at_escalated_precision(self, p):
        # every class with d <= 100 at the plans round_to_integer escalates to,
        # whose cos/sin precision buckets the planned precision never reaches
        level = PrimeLevel(p)
        series = build_hauptmodul(level, 1600).series
        for d in range(1, 101):
            if not is_admissible(d, level):
                continue
            classes = enumerate_classes(level, d)
            up = plan_precision(level, d, classes).escalate()
            for form in {cl.eval_form for cl in classes}:
                assert_matches_oracle(level, series, form, up, up.escalate())

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_mirror_forms_give_conjugate_values(self, p):
        # traces evaluate a form and its mirror (a, -b, c) once, at (a, |b|, c):
        # the CM point of the mirror is -conj(alpha) and j_p* has integer
        # coefficients, so at the planned bits the kernel's two values must
        # agree in Re and cancel in Im to 2^-bits max(|j|, 1)
        level = PrimeLevel(p)
        pairs = 0
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            classes = enumerate_classes(level, d)
            bits = plan_precision(level, d, classes).bits
            W = fixed_width(bits)
            for F in {cl.eval_form for cl in classes if cl.eval_form[1]}:
                re, im = eta_hauptmodul(level, cm_point_q(F, bits), bits)
                re2, im2 = eta_hauptmodul(level, cm_point_q((F[0], -F[1], F[2]), bits), bits)
                scale = max(math.isqrt(re * re + im * im), 1 << W)  # max(|j|, 1) 2^W
                assert abs(re - re2) << bits <= scale, (d, F)
                assert abs(im + im2) << bits <= scale, (d, F)
                pairs += 1
        assert pairs == {2: 581, 3: 555, 5: 525, 7: 535, 13: 582}[p]  # 2778 in all

    def test_faber_horner_matches_oracle(self):
        h = build_hauptmodul(P2, 200)
        poly = faber_polys(h, 15)[15]
        classes = enumerate_classes(P2, 23)
        ctx = plan_precision(P2, 23, classes, degree=15)
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
        for D in (1, 2, 3, 4, 5, 15):
            for d in range(1, 100):
                if not is_admissible(d, level):
                    continue
                value = trace(level, D, d).value
                assert value == oracles.trace_value(p, D, d), (D, d)
                up = plan_precision(level, d, enumerate_classes(level, d), degree=D).escalate()
                assert trace(level, D, d, ctx0=up).value == value, (D, d)


class TestPlanPrecision:
    def test_d4_example(self):
        classes = enumerate_classes(P2, 4)
        ctx = plan_precision(P2, 4, classes)
        assert ctx.bits == 128

    def test_monotone_in_d(self):
        prev = 0
        for d in (4, 100, 400, 1600):
            ctx = plan_precision(P2, d, enumerate_classes(P2, d))
            assert ctx.bits >= prev
            prev = ctx.bits

    def test_terms_grow_as_height_shrinks(self):
        # a min-height class list forces more series terms than a tall one
        tall = plan_precision(P2, 400, [enumerate_classes(P2, 400)[0]])
        classes = enumerate_classes(P2, 400)
        low = plan_precision(P2, 400, classes)
        assert low.terms >= tall.terms

    def test_respects_ctx0_floor(self):
        classes = enumerate_classes(P2, 4)
        ctx = plan_precision(P2, 4, classes, ctx0=PrecisionContext(bits=512, terms=300))
        assert ctx.bits >= 512 and ctx.terms >= 300

    def test_empty_classes_rejected(self):
        with pytest.raises(ValueError):
            plan_precision(P2, 4, [])


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


class TestIntegerPairCertificate:
    # a class sum is certified as the pair (S, 12 * 2^W), never as a Fraction

    @staticmethod
    def pairs():
        rng = random.Random(23)
        for _ in range(4000):
            W = rng.choice([0, 1, 7, 64, 160, 1000, 4000])
            den = rng.choice([1, 3, 12]) << W
            n = rng.randint(-2**rng.randint(1, 300), 2**rng.randint(1, 300))
            kind = rng.randrange(4)
            if kind == 0:  # an exact half, odd or even below it
                if den % 2:
                    den *= 2
                yield n * den + den // 2, den
            elif kind == 1:  # within a few units of an integer
                yield n * den + rng.randint(-3, 3), den
            elif kind == 2:  # anywhere
                yield n * den + rng.randrange(den), den
            else:  # a residual below the smallest float
                yield (n << 1200) + rng.choice([-1, 1]), 1 << 1200

    def test_nearest_matches_round_and_float_of_the_fraction(self):
        halves = 0
        for num, den in self.pairs():
            x = Fraction(num, den)
            n = round(x)
            got = cm_eval._nearest(num, den)
            assert got == (n, float(abs(x - n))), (num, den)
            assert type(got[1]) is float
            halves += x.denominator == 2
        assert halves > 500

    def test_a_ratio_and_a_fraction_certify_alike(self):
        ctx = PrecisionContext(bits=128)
        num, den = 42 * (12 << 160) + 5, 12 << 160
        pair = round_to_integer(cm_eval.Ratio(num, den), ctx)
        assert pair == round_to_integer(Fraction(num, den), ctx)
        assert pair.value == 42 and 0 < pair.residual < TOL
        with pytest.raises(PrecisionFailure):
            round_to_integer(cm_eval.Ratio(83 * 6 << 64, 12 << 64), ctx)
