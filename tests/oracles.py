"""Reference implementations the tests compare the fast paths against.

The CM references evaluate in mpmath `mpc` objects at `bits` bits of
floating-point precision, as the package did before its fixed-point kernel:
the same precision plan, the same class weights and the same certificate, but
independent arithmetic.  The `libmp_*` references compute e^t, cos/sin and
the fixed-point q and q^-1 with mpmath's libmp, as `cm_eval.cm_point_q` did
before its integer series.  The Faber reference builds each Faber series by
greedy subtraction of exact series, independently of the recurrence in
`hauptmodul.faber_polys`, from the powers `series_pow` takes.  The form
references act on (a, b, c) triples through values of the form alone,
independently of the coefficient formulas of `qforms._act`.  The height
reference finds the least admissible vector by a box scan, as
`qforms.optimize_height` did before its Gauss reduction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from moduli_traces.arith import PrimeLevel
from mpmath import libmp

from moduli_traces.cm_eval import (
    PrecisionContext,
    fixed_width,
    plan_precision,
    round_to_integer,
)
from moduli_traces.hauptmodul import Hauptmodul, build_hauptmodul, faber_polys
from moduli_traces.qforms import (
    _canon_line,
    enumerate_classes,
    root_lines,
    sl2_stabilizer,
)
from moduli_traces.qseries import TruncatedLaurentSeries, WindowError, constant


def series_pow(s: TruncatedLaurentSeries, e: int) -> TruncatedLaurentSeries:
    """s^e by binary powering; e < 0 powers the inverse, e = 0 gives 1 on s's window."""
    if e < 0:
        return series_pow(s.inv(), -e)
    if e == 0:
        return constant(1, s.order - s.v)
    result = None
    while e:
        if e & 1:
            result = s if result is None else result * s
        e >>= 1
        if e:
            s = s * s
    return result


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
    cur = series_pow(h.series, D)
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


def cm_point_q(F: tuple[int, int, int], bits: int) -> mpmath.mpc:
    """q = exp(2 pi i alpha_F) at the CM point alpha_F = (-b + i sqrt(d)) / (2a)
    of F = (a, b, c), d = 4ac - b^2."""
    a, b, c = F
    with mpmath.workprec(bits):
        d = 4 * a * c - b * b
        alpha = (mpmath.mpc(-b, 0) + mpmath.sqrt(mpmath.mpf(d)) * 1j) / (2 * a)
        return mpmath.exp(2j * mpmath.pi * alpha)


def libmp_exp_t(d: int, a: int, prec: int):
    """(e^t, e^-t) for t = pi sqrt(d)/a, as raw mpf at prec bits."""
    sqrt_d = libmp.mpf_sqrt(libmp.from_int(d), prec)
    t = libmp.mpf_div(libmp.mpf_mul(libmp.mpf_pi(prec), sqrt_d, prec), libmp.from_int(a), prec)
    grow = libmp.mpf_exp(t, prec)
    return grow, libmp.mpf_div(libmp.fone, grow, prec)


def libmp_cos_sin_pi(num: int, den: int, prec: int):
    """(cos, sin)(pi num/den) as raw mpf at prec bits."""
    return libmp.mpf_cos_sin_pi(libmp.from_rational(num, den, prec, "n"), prec)


def libmp_cm_point_q(F: tuple[int, int, int], bits: int):
    """(q, q^-1) in W-bit fixed point at the CM point of F, from mpmath's libmp.

    The kernel `cm_eval.cm_point_q` used before it moved to integer series: e^t
    at prec = W + ceil(t/ln 2) + 16 bits, cos/sin at prec rounded up to 64, each
    product rounded once to 2^-W.
    """
    W = fixed_width(bits)
    a, b, c = F
    d = 4 * a * c - b * b
    prec = W + math.ceil(math.pi * math.sqrt(d) / (a * math.log(2))) + 16
    grow, decay = libmp_exp_t(d, a, prec)
    g = math.gcd(b, a)
    cos_u, sin_u = libmp_cos_sin_pi(b // g % (2 * a // g), a // g, -(-prec // 64) * 64)

    def fixed(r, x):
        return libmp.to_fixed(libmp.mpf_mul(r, x, prec), W)

    q = (fixed(decay, cos_u), -fixed(decay, sin_u))
    return q, (fixed(grow, cos_u), fixed(grow, sin_u))


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
    ctx = plan_precision(level, d, classes, ctx0, degree=D)

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


def line_orbits(R: tuple[int, int, int], p: PrimeLevel) -> list[tuple[tuple[int, int], int]]:
    """Orbits of the SL_2-stabilizer of the reduced form R = (a, b, c) on its
    root lines, computed for every R (no shortcut for a trivial stabilizer):
    (least line, omega) pairs."""
    stab = sl2_stabilizer(R)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for x, y in root_lines(R, p):
        if (x, y) in seen:
            continue
        orbit = {_canon_line(m11 * x + m12 * y, m21 * x + m22 * y, p.p)
                 for m11, m12, m21, m22 in stab}
        seen |= orbit
        orbits.append((min(orbit), len(stab) // len(orbit)))
    return orbits


def transform(F: tuple[int, int, int], M: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """F o M for M = (m11, m12, m21, m22), from three values of F: a' = F(m11, m21),
    c' = F(m12, m22), and b' = F(m11 + m12, m21 + m22) - a' - c', the polar form
    of F on the two columns."""
    a, b, c = F
    m11, m12, m21, m22 = M

    def value(x, y):
        return a * x * x + b * x * y + c * y * y

    a2, c2 = value(m11, m21), value(m12, m22)
    return (a2, value(m11 + m12, m21 + m22) - a2 - c2, c2)


def is_reduced(F: tuple[int, int, int]) -> bool:
    """-a < b <= a <= c, with b >= 0 when |b| = a or a = c."""
    a, b, c = F
    return -a < b <= a <= c and not ((abs(b) == a or a == c) and b < 0)


def short_vector_improvement(a: int, b: int, c: int, p: int) -> tuple[int, int] | None:
    """A vector (x, p*y), gcd(x, p*y) = 1, with F(x, p*y) < a for F = [a, b, c],
    if one exists: the least such value, the first in (y, x) order.

    Enumerates the auxiliary positive definite form G(x, y) = F(x, p*y)
    inside the exact box |y| <= sqrt(4 A m / disc'), returning the minimum.
    """
    A, B, C = a, b * p, c * p * p
    m = a  # strict improvement threshold
    det4 = 4 * A * C - B * B  # = p^2 * d > 0
    if det4 > 4 * A * (m - 1):  # only y = 0 is left, and x = +-1 gives a itself
        return None
    best = None
    best_val = m
    ymax = math.isqrt(4 * A * (m - 1) // det4)
    for y in range(-ymax, ymax + 1):
        # solve A x^2 + B x y + (C y^2 - m) < 0 for x
        disc = B * B * y * y - 4 * A * (C * y * y - m)
        if disc <= 0:
            continue
        r = math.isqrt(disc)
        xlo = (-B * y - r) // (2 * A) - 1
        xhi = (-B * y + r) // (2 * A) + 1
        for x in range(xlo, xhi + 1):
            if x == 0 and y == 0:
                continue
            if math.gcd(x, p * y) != 1:
                continue
            val = A * x * x + B * x * y + C * y * y
            if val < best_val:
                best_val = val
                best = (x, y)
    return best
