"""Reference implementations the tests compare the fast paths against.

These evaluate in mpmath `mpc` objects at `bits` bits of floating-point
precision, as the package did before its fixed-point kernel: the same
precision plan, the same class weights and the same certificate, but
independent arithmetic.
"""

from __future__ import annotations

import mpmath

from moduli_traces.arith import PrimeLevel
from moduli_traces.cm_eval import PrecisionContext, plan_precision, round_to_integer
from moduli_traces.hauptmodul import build_hauptmodul, faber_polys
from moduli_traces.qforms import QuadForm, enumerate_classes
from moduli_traces.qseries import TruncatedLaurentSeries


def cm_point_q(F: QuadForm, bits: int) -> mpmath.mpc:
    """q = exp(2 pi i alpha_F) at the CM point alpha_F = (-b + i sqrt(d)) / (2a)."""
    with mpmath.workprec(bits):
        d = -F.disc
        alpha = (mpmath.mpc(-F.b, 0) + mpmath.sqrt(mpmath.mpf(d)) * 1j) / (2 * F.a)
        return mpmath.exp(2j * mpmath.pi * alpha)


def horner_in_q(
    series: TruncatedLaurentSeries, q: mpmath.mpc, terms: int, bits: int
) -> mpmath.mpc:
    with mpmath.workprec(bits):
        s = mpmath.mpc(0)
        for n in range(terms, series.v - 1, -1):
            s = s * q + series.coeff(n)
        return s * q ** series.v


def horner_poly(poly: list[int], x: mpmath.mpc, bits: int) -> mpmath.mpc:
    with mpmath.workprec(bits):
        s = mpmath.mpc(0)
        for c in reversed(poly):
            s = s * x + c
        return s


def trace_value(p: int, D: int, d: int, ctx0: PrecisionContext | None = None) -> int:
    """t_D^{(p)}(d) summed in mpc objects, certified by round_to_integer."""
    level = PrimeLevel(p)
    classes = enumerate_classes(level, d)
    ctx = plan_precision(d, classes, ctx0, degree=D)

    def compute(c: PrecisionContext):
        h = build_hauptmodul(level, c.terms + D + 2)
        poly = faber_polys(h, D)[D]
        with mpmath.workprec(c.bits):
            total = mpmath.mpf(0)
            for cl in classes:
                if cl.beta > p:
                    continue
                mult = 1 if (2 * cl.beta) % (2 * p) == 0 else 2
                x = horner_in_q(h.series, cm_point_q(cl.eval_form, c.bits), c.terms, c.bits)
                total += mpmath.mpf(mult) * horner_poly(poly, x, c.bits).real / cl.omega
            return total / 2

    return round_to_integer(compute(ctx), ctx, recompute=compute).value
