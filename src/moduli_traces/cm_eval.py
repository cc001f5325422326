"""High-precision evaluation of q-expansions at CM points, in fixed point.

The evaluation kernel works on W-bit fixed-point complex numbers: a pair
(re, im) of Python ints stands for (re + i im) 2^-W, with
W = bits + FIXED_GUARD_BITS for a precision plan of `bits` bits.  mpmath
appears only where q and q^-1 enter, once per CM point (`cm_point_q`), and is
imported there at the first CM point, so a process that only reads cached
traces never loads it; no mpf leaves the kernel.  A class sum leaves as an
exact rational, which `round_to_integer` rounds with no further error.

Error model, absolute, for one class value P_D(j(alpha)):
- the Horner sum over c_v, ..., c_terms is off by at most (terms - v + 1) 2^-W,
  because every step truncates once and |q| < 1 damps earlier errors;
- the factor q^-1 scales that error by |q^-1| = e^{pi sqrt(d)/a};
- the Faber Horner scales it by |P_D'(x)|, about D |x|^{D-1}, and adds one
  2^-W per step;
- rounding q and q^-1 to 2^-W adds errors of the same order.
`plan_precision` budgets for these: bits covers e^{2 pi D y_max} plus
_GUARD_BITS, so the error stays near 2^-(_GUARD_BITS + FIXED_GUARD_BITS)
times D (terms + 1).

Correctness rests on an a-posteriori certificate: a sum counts once it lies
within TOL of an integer; one that does not is recomputed with doubled bits
and terms, up to MAX_RETRIES times, and no two plans are compared.  Tail
planning uses the heuristic coefficient envelope |c_n| <= e^{4 pi sqrt(n/p)};
the certificate, not the envelope, is the correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .qforms import QuadForm, HeegnerClass
from .qseries import TruncatedLaurentSeries, WindowError

_GUARD_BITS = 96
_MIN_BITS = 128
FIXED_GUARD_BITS = 32
MAX_RETRIES = 4  # escalations round_to_integer tries before giving up
TOL = 1e-6  # largest rounding residual round_to_integer accepts

Fixed = tuple[int, int]  # (re, im): the complex number (re + i im) 2^-W


class PrecisionFailure(ArithmeticError):
    """A sum refused to round to an integer after all escalations."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision plan for one evaluation batch."""

    bits: int = _MIN_BITS
    terms: int = 64

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("need at least 64 mantissa bits")

    def escalate(self) -> "PrecisionContext":
        return replace(self, bits=2 * self.bits, terms=2 * self.terms)


@dataclass(frozen=True)
class RoundedValue:
    """An integer certified by its rounding residual."""

    value: int
    residual: float
    bits_used: int
    terms_used: int


def fixed_width(bits: int) -> int:
    """The fixed-point width W used for a precision plan of `bits` bits."""
    return bits + FIXED_GUARD_BITS


def cm_point_q(F: QuadForm, bits: int) -> tuple[Fixed, Fixed]:
    """(q, q^-1) in fixed point at the CM point alpha_F = (-b + i sqrt(d)) / (2a).

    With t = pi sqrt(d)/a and u = pi b/a, q = exp(2 pi i alpha_F) is
    e^-t (cos u - i sin u) and q^-1 = e^t (cos u + i sin u).  q^-1 is formed
    from e^t itself, not as conj(q)/|q|^2, which underflows to 0 at large
    heights.  Both are rounded once to 2^-W; e^t is evaluated with its
    t/ln 2 integer bits on top of W.
    """
    from mpmath import libmp  # at the first CM point; see the module docstring

    W = fixed_width(bits)
    a, b, d = F.a, F.b, -F.disc
    prec = W + math.ceil(math.pi * math.sqrt(d) / (a * math.log(2))) + 16
    sqrt_d = libmp.mpf_sqrt(libmp.from_int(d), prec)
    t = libmp.mpf_div(libmp.mpf_mul(libmp.mpf_pi(prec), sqrt_d, prec), libmp.from_int(a), prec)
    grow = libmp.mpf_exp(t, prec)
    decay = libmp.mpf_div(libmp.fone, grow, prec)
    cos_u, sin_u = libmp.mpf_cos_sin_pi(libmp.from_rational(b, a, prec, "n"), prec)

    def fixed(r, x):
        return libmp.to_fixed(libmp.mpf_mul(r, x, prec), W)

    q = (fixed(decay, cos_u), -fixed(decay, sin_u))
    return q, (fixed(grow, cos_u), fixed(grow, sin_u))


def horner_in_q(
    series: TruncatedLaurentSeries, q: tuple[Fixed, Fixed], terms: int, bits: int
) -> Fixed:
    """sum_{n=v}^{terms} c_n q^n in W-bit fixed point; q is (q, q^-1) from cm_point_q.

    Horner over c_terms, ..., c_v (off by at most (terms - v + 1) 2^-W), then
    |v| factors q^-1 (v < 0) or q (v > 0); see the module docstring.
    """
    if series.order <= terms:
        raise WindowError(
            f"series window order {series.order} below requested terms {terms}"
        )
    W = fixed_width(bits)
    (qr, qi), q_inv = q
    sr = si = 0
    for c in reversed(series.coeffs[: terms - series.v + 1]):
        sr, si = ((sr * qr - si * qi) >> W) + (c << W), (sr * qi + si * qr) >> W
    fr, fi = q_inv if series.v < 0 else (qr, qi)
    for _ in range(abs(series.v)):
        sr, si = (sr * fr - si * fi) >> W, (sr * fi + si * fr) >> W
    return sr, si


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
    d: int,
    classes: list[HeegnerClass],
    ctx0: PrecisionContext | None = None,
    degree: int = 1,
) -> PrecisionContext:
    """Pick (bits, terms) for summing a degree-`degree` Faber series over classes.

    bits covers the largest term magnitude e^{2 pi degree sqrt(d)/(2 a_min)}
    plus guard bits; terms n is chosen so the envelope tail
    e^{-2 pi y_min n} e^{4 pi sqrt(n/p)} drops below 2^{-bits}.
    """
    if not classes:
        raise ValueError("plan_precision needs a nonempty class list")
    ctx0 = ctx0 or PrecisionContext()
    p = classes[0].p.p
    sqrt_d = math.sqrt(d)
    ys = [sqrt_d / (2 * h.eval_form.a) for h in classes]
    y_max, y_min = max(ys), min(ys)
    bits = math.ceil(2 * math.pi * degree * y_max / math.log(2)) + _GUARD_BITS
    bits = max(bits, ctx0.bits, _MIN_BITS)
    target = bits * math.log(2)
    n = 64
    for _ in range(8):
        n = math.ceil((target + 4 * math.pi * math.sqrt(n / p)) / (2 * math.pi * y_min))
    n = max(n + 8, ctx0.terms)
    return replace(ctx0, bits=bits, terms=n)


def round_to_integer(
    x: Fraction,
    ctx: PrecisionContext,
    recompute: Callable[[PrecisionContext], Fraction] | None = None,
) -> RoundedValue:
    """Nearest integer to the exact rational x, certified by its residual.

    The residual |x - n| is computed exactly and rounded once to a float; a
    residual above TOL escalates precision.  `recompute`, when given, is
    called with the escalated context and must return a fresh value of the
    same quantity.  Exhausting MAX_RETRIES raises PrecisionFailure: that
    signals a bug or an inadequate model, never a value to be silently
    rounded.
    """
    attempts = 0
    while True:
        n = round(x)
        residual = float(abs(x - n))
        if residual <= TOL:
            return RoundedValue(n, residual, ctx.bits, ctx.terms)
        if recompute is None or attempts >= MAX_RETRIES:
            raise PrecisionFailure(
                f"residual {residual} above tolerance {TOL} after "
                f"{attempts} escalations (bits={ctx.bits}, terms={ctx.terms})"
            )
        ctx = ctx.escalate()
        x = recompute(ctx)
        attempts += 1
