"""High-precision evaluation of j_p* at CM points, in fixed point.

The evaluation kernel works on W-bit fixed-point complex numbers: a pair
(re, im) of Python ints stands for (re + i im) 2^-W, with
W = bits + FIXED_GUARD_BITS for a precision plan of `bits` bits.  Python ints
carry every value, q and q^-1 (`cm_point_q`) included: pi, ln 2, exp and
cos/sin are integer series here, and no multiprecision library is imported.
e^t is shared per (d/a^2 in lowest terms, prec) and cos/sin(pi b/a) per
angle b/a mod 2 at prec rounded up to 64 bits, each a function of its key
alone.  A class sum leaves as the exact integer pair (S, 12 * 2^W), which
`round_to_integer` rounds with no further error.

`eta_hauptmodul` evaluates j_p* from its eta product: with
E(x) = prod (1 - x^n) summed by the pentagonal number theorem,
r = E(q)/E(q^p) and e = 24/(p-1), f_p = q^-1 r^e and j_p* = f_p + C/f_p + e,
where C q r^-e = C/f_p.  `horner_in_q` sums a q-series term by term; it is
the Horner cross-check of that kernel.

Error model for q and q^-1, in units of the last bit kept:
- pi = 16 atan(1/5) - 4 atan(1/239) and ln 2 = 2 atanh(1/3) are summed at
  B + 32 bits, B = P rounded up to a power of two, losing under 2 units of
  2^-(B+32) per term, and truncated to P bits: each is off by less than
  1 + 2^-14 units of 2^-P;
- e^t = 2^k e^r with t = k ln 2 + r and N/M = d/a^2 in lowest terms:
  t = pi isqrt(floor(N 4^P / M)) and r are off by less than
  sqrt(N/M) + k + 6 units of 2^-P (the isqrt and pi are each off by less
  than 1.01 units), at P = prec + s + 32 and s = isqrt(prec) // 2.  e^r is
  the Taylor series at r 2^-s, n terms of under 2 units each, squared s
  times, each squaring doubling the relative error.  So e^t and e^-t at prec
  bits are off by a relative 2^-(prec+16) plus 2 units, while
  sqrt(N/M) + k + 2n < 2^15;
- cos/sin(pi b/a): b/a = m/2 + f exactly, |f| <= 1/4, and e^{i pi |f|} goes
  the same way, by complex squarings (|e^{iy}| = 1 keeps the doubling), so
  cos and sin at prec' are off by less than 1 + 2^-16 units of 2^-prec';
- prec >= W + t/ln 2 + 16 and prec' >= prec, so q and q^-1, each product
  truncated once to 2^-W, are off by less than 1 + 2^-15 units per component.

Error model, for one class value P_D(j_p*(alpha)) at |q| < 1 (the largest |q|
over the fixture range is 0.658, at p=13, d=3, form (13, 7, 1)):
- each pentagonal walk, at x = q and at x = q^p, stops at the first power x^g
  within two units of 0 per component; the terms past it sum to at most
  2|x^g|/(1 - |x|), the size of the truncation errors;
- every multiply truncates once, and every complex divide floor-divides once,
  each off by less than 2^-W per component; about four multiplies per pair of
  pentagonal terms, a few for q^p and r^e;
- r^e carries e times the relative error of r, e <= 24, and C/f_p the same
  relative error as f_p;
- the factor q^-1 scales the absolute error of r^e by
  |q^-1| = e^{pi sqrt(d)/a}, so j_p* is off by a relative error of a few
  e 2^-W / |E(q^p)|; the error of q and q^-1 adds terms of that order;
- a value evaluated at a wider Wb >= W and floored to W (a verifier's
  `traces.TraceMemo` evaluates at W rounded up to a multiple of 64) carries
  the kernel's error at Wb, below its bound at W, plus under one unit of 2^-W
  per component from the shift;
- the Faber Horner scales the error of j_p* by |P_D'(x)|, about D |x|^{D-1},
  and adds one 2^-W per step.
`plan_precision` budgets for these: bits covers e^{2 pi D y_max} plus
_GUARD_BITS, so the error stays near 2^-(_GUARD_BITS + FIXED_GUARD_BITS)
times e D.

A form, its mirror (a, -b, c) and their multiples k (a, b, c) share one
evaluation.  The CM point of the mirror is -conj(alpha), where q is
conjugate, and j_p*(-conj(alpha)) is the conjugate of j_p*(alpha) because
j_p* has integer coefficients.  A class sum keeps only Re P_D(j), so
`traces._class_sum` evaluates (a, |b|, c) for both; the kernel's two values
agree in Re to within the error above.  A multiple k F of discriminant
-k^2 d has the CM point of F, and `cm_point_q` keys e^t by d/a^2 and
cos/sin by b/a, each in lowest terms, so it gives F and k F the same q to
the bit; `traces._class_sum` evaluates every form at its primitive part
(a, |b|, c)/gcd(a, b, c), so the traces at d and at f^2 d share the values
of their common CM points.

Correctness rests on an a-posteriori certificate: a sum counts once it lies
within TOL of an integer; one that does not is recomputed with doubled bits
and terms, up to MAX_RETRIES times, and no two plans are compared.  A class
sum is certified as the integer pair (S, 12 * 2^W), a `Ratio`: the nearest
integer n comes from one divmod, halves to even, and the residual
|S - n 12 * 2^W| / (12 * 2^W) from one correctly rounded int division, the
same n and float as round() and float() of the reduced fraction.  The
certificate, not the heuristic envelope |c_n| <= e^{4 pi sqrt(n/p)} that
sizes terms, is the correctness gate.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .arith import PrimeLevel
from .qforms import HeegnerClass
from .qseries import TruncatedLaurentSeries, WindowError

_GUARD_BITS = 96
_MIN_BITS = 128
FIXED_GUARD_BITS = 32
MAX_RETRIES = 4  # escalations round_to_integer tries before giving up
TOL = 1e-6  # largest rounding residual round_to_integer accepts

Fixed = tuple[int, int]  # (re, im): the complex number (re + i im) 2^-W


class PrecisionFailure(ArithmeticError):
    """A sum refused to round to an integer after all escalations.

    `attempts` holds (bits, terms, residual) for each plan tried, in order.
    """

    def __init__(self, message: str, attempts: tuple[tuple[int, int, float], ...] = ()):
        super().__init__(message)
        self.attempts = attempts


class PrecisionContext(NamedTuple("PrecisionContext", [("bits", int), ("terms", int)])):
    """Working precision plan for one evaluation batch."""

    __slots__ = ()

    def __new__(cls, bits: int = _MIN_BITS, terms: int = 64):
        if bits < 64:
            raise ValueError("need at least 64 mantissa bits")
        return super().__new__(cls, bits, terms)

    def escalate(self) -> "PrecisionContext":
        return PrecisionContext(2 * self.bits, 2 * self.terms)


class Ratio(NamedTuple):
    """The exact rational numerator / denominator, denominator > 0, not reduced."""

    numerator: int
    denominator: int


class RoundedValue(NamedTuple):
    """An integer certified by its rounding residual."""

    value: int
    residual: float
    bits_used: int
    terms_used: int


def fixed_width(bits: int) -> int:
    """The fixed-point width W used for a precision plan of `bits` bits."""
    return bits + FIXED_GUARD_BITS


@functools.lru_cache(maxsize=None)  # one entry per power of two in use
def _pi_ln2_bucket(B: int) -> tuple[int, int]:
    """(pi, ln 2) at B fraction bits, each summed at B + 32 bits and truncated:
    pi = 16 atan(1/5) - 4 atan(1/239) (Machin) and ln 2 = 2 atanh(1/3)."""

    def arc(n: int, sign: int) -> int:  # atan(1/n) for sign -1, atanh(1/n) for +1
        power = total = (1 << (B + 32)) // n
        k, n2, s = 3, n * n, sign
        while power:
            power //= n2
            total += s * (power // k)
            k, s = k + 2, s * sign
        return total

    return (16 * arc(5, -1) - 4 * arc(239, -1)) >> 32, arc(3, 1) >> 31


def _pi_ln2(P: int) -> tuple[int, int]:
    """(pi, ln 2) at P fraction bits, from the power-of-two bucket at or above P."""
    B = 1 << max(P - 1, 255).bit_length()
    pi, ln2 = _pi_ln2_bucket(B)
    return pi >> (B - P), ln2 >> (B - P)


def _exp_series(x: int, P: int, s: int, trig: bool) -> tuple[int, int]:
    """(cosh y, sinh y), or (cos y, sin y) when trig, for y = x 2^-s and x in [0, 1)
    at P fraction bits: the even and the odd Taylor terms, two per multiply by y^2
    and each off by under 2 units, up to the first zero term."""
    y2 = x * x >> (P + 2 * s)
    even = odd = 1 << P  # odd sums y^(2j) / (2j + 1)!, multiplied by y at the end
    a, n, sign = y2, 2, -1 if trig else 1
    flip = sign
    while a:
        a //= n
        even += flip * a
        a //= n + 1
        odd += flip * a
        a = a * y2 >> P
        n += 2
        flip *= sign
    return even, odd * x >> (P + s)


@functools.lru_cache(maxsize=64)
def _exp_t(N: int, M: int, prec: int) -> tuple[int, int]:
    """(e^t, e^-t) for t = pi sqrt(N/M), as ints at prec fraction bits.

    `cm_point_q` passes N/M = d/a^2 in lowest terms, so every form whose CM
    point has height sqrt(d)/(2a), whatever its b and its content, shares one
    entry.  t = k ln 2 + r with 0 <= r < ln 2; e^r is summed at r 2^-s and
    squared s times, at P = prec + s + 32 bits, and e^t = 2^k e^r.
    """
    s = math.isqrt(prec) // 2
    P = prec + s + 32
    pi, ln2 = _pi_ln2(P)
    k, r = divmod(pi * math.isqrt((N << 2 * P) // M) >> P, ln2)
    e = sum(_exp_series(r, P, s, False))  # cosh r + sinh r
    for _ in range(s):
        e = e * e >> P
    return e << k >> (P - prec), (1 << (P + prec)) // e >> k


@functools.lru_cache(maxsize=4096)
def _cos_sin_pi(num: int, den: int, prec: int) -> tuple[int, int]:
    """(cos, sin)(pi num/den) as ints at prec fraction bits, for 0 <= num/den < 2.

    num/den = m/2 + f exactly, with m = round(2 num/den) and |f| <= 1/4; e^{i pi |f|}
    is summed at pi |f| 2^-s and squared s times, at P = prec + s + 32 bits,
    then turned by i^m.
    """
    s = math.isqrt(prec) // 2
    P = prec + s + 32
    m = (4 * num + den) // (2 * den)
    f = 2 * num - m * den  # f = (num/den - m/2) * 2 den
    c, sn = _exp_series(_pi_ln2(P)[0] * abs(f) // (2 * den), P, s, True)
    for _ in range(s):
        c, sn = (c + sn) * (c - sn) >> P, c * sn >> (P - 1)
    c, sn = c >> (P - prec), (-sn if f < 0 else sn) >> (P - prec)
    return ((c, sn), (-sn, c), (-c, -sn), (sn, -c))[m % 4]


def cm_point_q(F: tuple[int, int, int], bits: int) -> tuple[Fixed, Fixed]:
    """(q, q^-1) in fixed point at the CM point alpha_F = (-b + i sqrt(d)) / (2a) of F = (a, b, c).

    With t = pi sqrt(d)/a and u = pi b/a, q = exp(2 pi i alpha_F) is
    e^-t (cos u - i sin u) and q^-1 = e^t (cos u + i sin u).  q^-1 is formed
    from e^t itself, not as conj(q)/|q|^2, which underflows to 0 at large
    heights.  Both are truncated once to 2^-W; e^t is evaluated with its
    t/ln 2 integer bits on top of W, once per (d/a^2 in lowest terms, prec);
    cos/sin u is evaluated once per angle b/a mod 2, at prec rounded up to 64
    bits.  Each key is a function of the CM point alone, so F and k F give the
    same (q, q^-1).
    """
    W = fixed_width(bits)
    a, b, c = F
    d = 4 * a * c - b * b
    h = math.gcd(d, a * a)
    N, M = d // h, a * a // h  # t = pi sqrt(N/M)
    prec = W + math.ceil(math.pi * math.sqrt(N / M) / math.log(2)) + 16
    grow, decay = _exp_t(N, M, prec)
    g = math.gcd(b, a)
    cprec = -(-prec // 64) * 64
    cos_u, sin_u = _cos_sin_pi(b // g % (2 * a // g), a // g, cprec)
    sh = prec + cprec - W
    q = ((decay * cos_u) >> sh, -((decay * sin_u) >> sh))
    return q, ((grow * cos_u) >> sh, (grow * sin_u) >> sh)


def horner_in_q(
    series: TruncatedLaurentSeries, q: tuple[Fixed, Fixed], terms: int, bits: int
) -> Fixed:
    """sum_{n=v}^{terms} c_n q^n in W-bit fixed point; q is (q, q^-1) from cm_point_q.

    The Horner cross-check of `eta_hauptmodul`, which traces use: `horner_poly`
    over c_v, ..., c_terms (off by at most (terms - v + 1) 2^-W, since |q| < 1),
    then |v| factors q^-1 (v < 0) or q (v > 0).
    """
    if series.order <= terms:
        raise WindowError(
            f"series window order {series.order} below requested terms {terms}"
        )
    W = fixed_width(bits)
    x, x_inv = q
    s = horner_poly(series.coeffs[: terms - series.v + 1], x, bits)
    f = x_inv if series.v < 0 else x
    for _ in range(abs(series.v)):
        s = _mul(s, f, W)
    return s


def _mul(x: Fixed, y: Fixed, W: int) -> Fixed:
    return (x[0] * y[0] - x[1] * y[1]) >> W, (x[0] * y[1] + x[1] * y[0]) >> W


def _div(x: Fixed, y: Fixed, W: int) -> Fixed:
    """x / y, floor-divided once per component."""
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) << W) // n, ((x[1] * y[0] - x[0] * y[1]) << W) // n


def _pow(x: Fixed, e: int, W: int) -> Fixed:
    """x^e for e >= 1, by binary powering."""
    r = None
    while True:
        if e & 1:
            r = x if r is None else _mul(r, x, W)
        e >>= 1
        if not e:
            return r
        x = _mul(x, x, W)


def _euler(x: Fixed, W: int) -> Fixed:
    """prod (1 - x^m) = 1 + sum_k (-1)^k (x^{k(3k-1)/2} + x^{k(3k+1)/2}), for |x| < 1.

    From x^{k(3k-1)/2} the walk multiplies by x^k, then by x^{2k+1} to reach
    x^{(k+1)(3k+2)/2}; it stops once a power lies within two units of 0.
    """
    # the multiplies are written out, as in horner_poly: this loop is the hot path
    xr, xi = x
    x2r, x2i = (xr * xr - xi * xi) >> W, (xr * xi) >> (W - 1)
    ar, ai = br, bi = xr, xi  # x^k and x^(2k-1)
    cr, ci = sr, si = 1 << W, 0  # the last power walked to, and the sum
    k = 1
    while True:
        cr, ci = (cr * br - ci * bi) >> W, (cr * bi + ci * br) >> W  # x^(k(3k-1)/2)
        if -2 <= cr <= 2 and -2 <= ci <= 2:
            return sr, si
        tr, ti = cr, ci
        cr, ci = (cr * ar - ci * ai) >> W, (cr * ai + ci * ar) >> W  # x^(k(3k+1)/2)
        tr, ti = tr + cr, ti + ci
        if k & 1:
            sr, si = sr - tr, si - ti
        else:
            sr, si = sr + tr, si + ti
        k += 1
        ar, ai = (ar * xr - ai * xi) >> W, (ar * xi + ai * xr) >> W
        br, bi = (br * x2r - bi * x2i) >> W, (br * x2i + bi * x2r) >> W


def eta_hauptmodul(level: PrimeLevel, q: tuple[Fixed, Fixed], bits: int) -> Fixed:
    """j_p* in W-bit fixed point from its eta product; q is (q, q^-1) from cm_point_q.

    r = E(q)/E(q^p), each pentagonal sum walked until its powers vanish,
    f_p = q^-1 r^e, and j_p* = f_p + C/f_p + e with e = level.eta_exponent and
    C = level.fricke_const; see the module docstring.
    """
    W = fixed_width(bits)
    x, x_inv = q
    r = _div(_euler(x, W), _euler(_pow(x, level.p, W), W), W)
    f = _mul(x_inv, _pow(r, level.eta_exponent, W), W)
    g = _div((level.fricke_const << W, 0), f, W)  # C/f_p = C q r^-e
    return f[0] + g[0] + (level.eta_exponent << W), f[1] + g[1]


def horner_poly(poly: list[int], x: Fixed, bits: int) -> Fixed:
    """The integer polynomial poly (X^0 first) at x, in W-bit fixed point.

    An error e in x becomes about |poly'(x)| e, plus 2^-W per step.
    """
    W = fixed_width(bits)
    xr, xi = x
    sr = si = 0
    for c in reversed(poly):
        sr, si = ((sr * xr - si * xi) >> W) + (c << W), (sr * xi + si * xr) >> W
    return sr, si


def plan_precision(
    level: PrimeLevel,
    d: int,
    classes: list[HeegnerClass],
    ctx0: PrecisionContext | None = None,
    degree: int = 1,
) -> PrecisionContext:
    """Pick (bits, terms) for summing a degree-`degree` Faber series over classes.

    bits covers the largest term magnitude e^{2 pi degree sqrt(d)/(2 a_min)}
    plus guard bits; terms n is chosen so the envelope tail
    e^{-2 pi y_min n} e^{4 pi sqrt(n/p)} drops below 2^{-bits}.  The eta kernel
    reads only bits: terms goes to the record, escalation and `horner_in_q`.
    """
    if not classes:
        raise ValueError("plan_precision needs a nonempty class list")
    ctx0 = ctx0 or PrecisionContext()
    p = level.p
    sqrt_d = math.sqrt(d)
    heights = [h.eval_form[0] for h in classes]
    y_max, y_min = sqrt_d / (2 * min(heights)), sqrt_d / (2 * max(heights))
    bits = math.ceil(2 * math.pi * degree * y_max / math.log(2)) + _GUARD_BITS
    bits = max(bits, ctx0.bits, _MIN_BITS)
    target = bits * math.log(2)
    n = 64
    for _ in range(8):
        n = math.ceil((target + 4 * math.pi * math.sqrt(n / p)) / (2 * math.pi * y_min))
    n = max(n + 8, ctx0.terms)
    return PrecisionContext(bits, n)


def _nearest(num: int, den: int) -> tuple[int, float]:
    """(n, |num/den - n|) for the integer n nearest num/den, den > 0, halves to
    even: round() and float(abs(...)) of the Fraction num/den, without its gcd."""
    n, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and n & 1):
        n, r = n + 1, r - den
    return n, abs(r) / den  # int / int rounds correctly, as float(Fraction) does


def round_to_integer(
    x: Ratio,
    ctx: PrecisionContext,
    recompute: Callable[[PrecisionContext], Ratio] | None = None,
) -> RoundedValue:
    """Nearest integer to the exact rational x, certified by its residual.

    x is a `Ratio` or any exact rational with int `numerator` and positive
    `denominator`, such as a `fractions.Fraction`.  The residual |x - n| is
    computed exactly and rounded once to a float; a residual above TOL
    escalates precision.  `recompute`, when given, is called with the
    escalated context and must return a fresh value of the same quantity.
    Exhausting MAX_RETRIES raises PrecisionFailure: that signals a bug or an
    inadequate model, never a value to be silently rounded.
    """
    attempts: list[tuple[int, int, float]] = []
    while True:
        n, residual = _nearest(x.numerator, x.denominator)
        if residual <= TOL:
            return RoundedValue(n, residual, ctx.bits, ctx.terms)
        attempts.append((ctx.bits, ctx.terms, residual))
        if recompute is None or len(attempts) > MAX_RETRIES:
            tried = ", ".join(f"bits={b} terms={t} residual={r}" for b, t, r in attempts)
            raise PrecisionFailure(
                f"residual above tolerance {TOL} after {len(attempts) - 1} "
                f"escalations: {tried}",
                tuple(attempts),
            )
        ctx = ctx.escalate()
        x = recompute(ctx)
