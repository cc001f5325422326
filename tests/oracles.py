"""Reference implementations the tests compare the fast paths against.

The CM references evaluate in mpmath `mpc` objects at `bits` bits of
floating-point precision, as the package did before its fixed-point kernel:
the same precision plan, the same class weights and the same certificate, but
independent arithmetic.  The Faber reference builds each Faber series by
greedy subtraction of exact series, independently of the recurrence in
`hauptmodul.faber_polys`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from moduli_traces.arith import PrimeLevel
from moduli_traces.cm_eval import PrecisionContext, plan_precision, round_to_integer
from moduli_traces.hauptmodul import Hauptmodul, build_hauptmodul, faber_polys
from moduli_traces.qforms import (
    QuadForm,
    _act_line,
    enumerate_classes,
    root_lines,
    sl2_stabilizer,
)
from moduli_traces.qseries import TruncatedLaurentSeries, WindowError


@dataclass
class FaberSeries:
    """j_{p,D} = P_D(j_p*) = q^{-D} + O(q), with the monic polynomial P_D."""

    p: PrimeLevel
    D: int
    series: TruncatedLaurentSeries
    poly: list[int] = field(repr=False)  # coefficients of P_D, X^0 first


@functools.lru_cache(maxsize=None)
def faber(h: Hauptmodul, D: int) -> FaberSeries:
    """Faber series of degree D, by greedy subtraction against lower degrees.

    Starting from (j_p*)^D, integer multiples of the already-built j_{p,D'}
    (D' < D) and of 1 are subtracted to kill the coefficients of
    q^{-D+1}, ..., q^0; this keeps every intermediate integral.
    """
    if D < 1:
        raise ValueError("Faber degree must be >= 1")
    if h.order <= D:
        raise WindowError(f"window order {h.order} too small for Faber degree {D}")
    cur = h.series ** D
    poly = [0] * (D + 1)
    poly[D] = 1
    for m in range(D - 1, 0, -1):
        c = cur.coeff(-m)
        if c:
            lower = faber(h, m)
            cur = cur - lower.series.scale(c)
            for i, a in enumerate(lower.poly):
                poly[i] -= c * a
    c0 = cur.coeff(0)
    if c0:
        cur = cur - c0
        poly[0] -= c0
    return FaberSeries(h.p, D, cur, poly)


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
            return Fraction(*mpmath.libmp.to_rational((total / 2)._mpf_))

    return round_to_integer(compute(ctx), ctx, recompute=compute).value


def line_orbits(R: QuadForm, p: PrimeLevel) -> list[tuple[tuple[int, int], int]]:
    """Orbits of the SL_2-stabilizer of R on its root lines, computed for every
    R (no shortcut for a trivial stabilizer): (least line, omega) pairs."""
    stab = sl2_stabilizer(R)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for line in root_lines(R, p):
        if line in seen:
            continue
        orbit = {_act_line(m, line, p.p) for m in stab}
        seen |= orbit
        orbits.append((min(orbit), len(stab) // len(orbit)))
    return orbits
