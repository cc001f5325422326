"""Generalized traces, duality coefficients, the Hecke operator, and verifiers.

The trace t_D(d) is the stabilizer-weighted sum of the degree-D Faber
function over Gamma_0(p)*-classes of Heegner forms of discriminant -d.  It is
computed over Gamma_0(p)-classes and halved (index-2 mass identity), so
Fricke-fixed classes need no special casing.

Traces realize the weight-3/2 basis coefficients through the divisor-sum
relation t_m(d) = -sum_{n | m} n B(n^2, d), which Moebius inversion turns
into B(m^2, d) = -(1/m) sum_{n | m} mu(m/n) t_n(d).  Exact divisibility by m
is checked on every call, failing with ArithmeticError; the identity suite
then validates the realization against the Hecke action on coefficient tables.
"""

from __future__ import annotations

import fcntl
import json
import math
import operator
import os
import re
import warnings
from pathlib import Path
from typing import NamedTuple

from .arith import (
    SUPPORTED_LEVELS,
    PrimeLevel,
    divisors,
    is_admissible,
    is_small_prime,
    kronecker,
    moebius,
    splits,
)
from .cm_eval import (
    FIXED_GUARD_BITS,
    Fixed,
    PrecisionContext,
    PrecisionFailure,
    Ratio,
    cm_point_q,
    eta_hauptmodul,
    fixed_width,
    horner_poly,
    plan_precision,
    round_to_integer,
)
from .hauptmodul import faber_poly
from .qforms import (
    MAX_DISC,
    HeegnerClass,
    InadmissibleDiscriminant,
    class_count,
    enumerate_classes,
)
from .qseries import WindowError

# the largest Faber degree trace() accepts: P_D comes from the Faber list grown
# to exactly D, which at p=2 takes 0.8 s to D = 256, 1.3 s to 300 and 11 s to
# 512 on a 2-vCPU host, the time growing faster than D^3 (see README)
MAX_DEGREE = 256

# the largest charge of a request (README): d degree_cost(D) for a trace, d
# check_reach(ell, n, D) for a verify check, and the sum over its rows or checks,
# which `admit` alone takes, for a table or grid.  MAX_COST <= qforms.MAX_DISC and
# a check's discriminant ell^(2n) d is at most its charge, so no admitted check
# reaches past the discriminant bound.
MAX_COST = 10**7


def degree_cost(m: int) -> int:
    """m^(3/2), rounded down: what a trace of Faber degree m is charged per
    unit of d, in units of degree 1.  Measured at p=2 on a 2-vCPU host, a
    degree-85 trace took about 85, 85^1.3 and 85^1.6 times as long as a
    degree-1 trace at d near 300, 1200 and 4800, and with m^(3/2) the largest
    grids the bound admits run 2-11 s each (README)."""
    return math.isqrt(m**3)


class HypothesisViolation(ValueError):
    """A verifier input fails a theorem hypothesis; carries a named reason."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class CacheIntegrityError(RuntimeError):
    """Two computations disagree for the same cache key, or a cache line is corrupt."""


class TraceRecord(NamedTuple):
    """A certified integer trace with computation provenance."""

    p: int
    D: int
    d: int
    value: int
    bits: int
    terms: int
    method: str
    class_count: int | None = None  # None on a record as TraceCache loads it
    residual: float | None = None  # None when not measured here: a cache hit
    cached: bool = False


def _as_level(p) -> PrimeLevel:
    return p if isinstance(p, PrimeLevel) else PrimeLevel(p)


# ---------------------------------------------------------------------------
# per-call memo


class TraceMemo:
    """What the traces of one verifier call share, dropped with the call: per d
    the classes and the weights (`_weights`), so every Faber degree at d
    enumerates and weighs once; CM values per (primitive form, Wb), Wb being W
    rounded up to a multiple of `bucket`; records and B (`b`) per (D, d).
    trace() without a memo makes one with bucket 1, evaluated at W itself.
    Classes are keyed by d alone, so trace() refuses a memo of another level."""

    bucket = 64

    def __init__(self, p):
        self.level = _as_level(p)
        self.classes: dict[int, list[HeegnerClass]] = {}
        self.weights: dict[int, dict[tuple[int, int, int], int]] = {}
        self.values: dict[tuple, Fixed] = {}
        self.records: dict[tuple[int, int], TraceRecord] = {}
        self.b_coeffs: dict[tuple[int, int], int] = {}

    def b(self, D: int | None, d: int | None) -> int:
        """B(D, d), extended by convention to 0 at a non-integer index (None),
        looked up before `b_coeff` is called.  Every verifier reads its traces
        here."""
        if D is None or d is None:
            return 0
        if (D, d) not in self.b_coeffs:
            self.b_coeffs[(D, d)] = b_coeff(self.level, D, d, self)
        return self.b_coeffs[(D, d)]


# ---------------------------------------------------------------------------
# traces and duality coefficients


def _weights(level: PrimeLevel, d: int, classes: list[HeegnerClass]) -> dict[tuple[int, int, int], int]:
    """The weight of each CM point the traces at d sum, keyed by its primitive form.

    Classes are summed in conjugate beta-pairs (real parts, doubled off the
    symmetric roots), weighted 1/omega, and halved by the index-2 mass factor
    converting Gamma_0(p)-classes to Gamma_0(p)*-classes.  The weights
    mult/(2 omega), scaled by 12, are the integers 6 mult/omega for omega in
    {1, 2, 3}, summed per distinct form (a, |b|, c): Fricke pairs share an
    evaluation form, and a form and its mirror (a, -b, c) share one evaluation,
    because only Re P_D(j) is summed and j_p*(-conj(alpha)) is the conjugate of
    j_p*(alpha).  Each form is then keyed by (a, |b|, c)/gcd(a, b, c), which has
    its CM point; two forms of one d with one primitive part are equal, so this
    merges nothing, and the gcd is taken once per distinct form.
    """
    p = level.p
    weights: dict[tuple[int, int, int], int] = {}  # keyed by (a, |b|, c)
    for cl in classes:
        if cl.beta > p:
            continue
        if 6 % cl.omega:
            raise ArithmeticError(
                f"class {cl.sl2_rep} line {cl.line} of d={d} at "
                f"p={p} has stabilizer order {cl.omega}, not a divisor of 6"
            )
        mult = 1 if cl.beta % p == 0 else 2  # beta = -beta mod 2p
        a, b, c = cl.eval_form
        key = (a, abs(b), c)
        weights[key] = weights.get(key, 0) + 6 * mult // cl.omega
    primitive = {}
    for (a, b, c), w in weights.items():
        g = math.gcd(a, b, c)
        primitive[(a // g, b // g, c // g)] = w
    return primitive


def _class_sum(level: PrimeLevel, D: int, d: int, memo: TraceMemo,
               ctx0: PrecisionContext | None = None, method: str = "gkz") -> TraceRecord:
    """Sum P_D(j_p*) over the CM points of discriminant -d and certify the integer.

    P_D comes from `hauptmodul.faber_poly`, which alone keeps the level's
    series and Faber list between calls.  The sum is one fixed-point integer
    over memo.weights[d], from `_weights`, each CM point evaluated at its
    primitive form.  memo.values keys a value by
    (primitive form, Wb), so it is a function of its key alone: each point is
    evaluated once per width bucket Wb, W rounded up to a multiple of
    memo.bucket, and every plan whose W falls in the bucket reads it shifted
    down to W, whatever its d and Faber degree.
    """
    p = level.p
    classes, weights, values = memo.classes[d], memo.weights[d], memo.values
    ctx = plan_precision(level, d, classes, ctx0, degree=D)

    poly = faber_poly(level, D)

    def compute(c: PrecisionContext) -> Ratio:
        W = fixed_width(c.bits)
        Wb = -(-W // memo.bucket) * memo.bucket  # the width the values are evaluated at
        bits, shift = Wb - FIXED_GUARD_BITS, Wb - W
        total = 0
        for form, w in weights.items():
            key = (form, Wb)
            if key not in values:
                values[key] = eta_hauptmodul(level, cm_point_q(form, bits), bits)
            re, im = values[key]
            total += w * horner_poly(poly, (re >> shift, im >> shift), c.bits)[0]
        return Ratio(total, 12 << W)

    try:
        rounded = round_to_integer(compute(ctx), ctx, recompute=compute)
    except PrecisionFailure as exc:
        raise PrecisionFailure(
            f"t_{D}({d}) at p={p} (class count {len(classes)}): {exc}", exc.attempts
        ) from exc
    return TraceRecord(p=p, D=D, d=d, value=rounded.value, bits=rounded.bits_used,
                       terms=rounded.terms_used, method=method, class_count=len(classes),
                       residual=rounded.residual)


def trace(
    p,
    D: int,
    d: int,
    ctx0: PrecisionContext | None = None,
    method: str = "gkz",
    cache: "TraceCache | None" = None,
    memo: TraceMemo | None = None,
) -> TraceRecord:
    """The generalized trace t_D^{(p)}(d), certified as an exact integer.

    D, the charge d degree_cost(D) and the level of `memo` are checked before
    any work.  A call with ctx0 or a method other than "gkz" is an oracle
    request, run with no memo and no cache.  Every call is resolved in one
    order: `memo`, then `cache`, then `_class_sum`, whose record the memo
    keeps.  A memo hit and a computed record reach the one `cache.put`; a cache
    hit gets its class count and is not written back.  With no memo (None or
    False) a call shares nothing: its values are evaluated at W in a memo of
    its own.  Every call shares only the exact series and Faber polynomials,
    which `hauptmodul.faber_poly` alone sizes and keeps.
    """
    level = _as_level(p)
    if D < 1:
        raise ValueError("Faber degree D must be >= 1")
    if D > MAX_DEGREE:
        raise ValueError(f"Faber degree D={D} is above the supported bound {MAX_DEGREE}")
    if d * degree_cost(D) > MAX_COST:
        raise ValueError(f"d={d} is above the supported bound {MAX_COST // degree_cost(D)} "
                         f"at Faber degree D={D}: d degree_cost(D) must stay within {MAX_COST}")
    if memo and memo.level.p != level.p:
        raise ValueError(f"a TraceMemo of p={memo.level.p} was passed with a trace at p={level.p}")
    if not is_admissible(d, level):
        raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={level.p}")
    if ctx0 is not None or method != "gkz":
        memo, cache = None, None
    if not memo:
        memo = TraceMemo(level)
        memo.bucket = 1
    rec = memo.records.get((D, d))
    if rec is None and cache is not None:
        hit = cache.get(level.p, D, d)
        if hit is not None:
            return hit._replace(class_count=class_count(level, d))
    if rec is None:
        if d not in memo.classes:
            memo.classes[d] = enumerate_classes(level, d, method)
            memo.weights[d] = _weights(level, d, memo.classes[d])
        rec = memo.records[(D, d)] = _class_sum(level, D, d, memo, ctx0, method)
    if cache is not None:
        cache.put(rec)  # a memo record was computed here, never read from a cache
    return rec


def b_coeff(p, D: int, d: int, memo: TraceMemo | None = None) -> int:
    """B(D, d) for a perfect square D = m^2, via Moebius inversion of traces.

    The divisor-sum relation t_m(d) = -sum_{n | m} n B(n^2, d) inverts to
    m B(m^2, d) = -sum_{n | m} mu(m/n) t_n(d).  D = 1 reduces to the anchored
    duality B(1, d) = -t(d); for D > 1 the exact divisibility by m is part of
    the integrality certificate and failure raises instead of rounding.  The
    traces share `memo`, if one is given.
    """
    level = _as_level(p)
    m = check_square(D)
    acc = 0
    for n in divisors(m):
        mu = moebius(m // n)
        if mu:
            acc += mu * trace(level, n, d, memo=memo).value
    if acc % m:
        raise ArithmeticError(
            f"trace combination for B({D}, {d}) at p={level.p} is not divisible "
            f"by {m}: got {acc}"
        )
    return -(acc // m)


def a_coeff(p, D: int, d: int) -> int:
    """A(D, d) = -B(D, d): the dual weight-1/2 coefficient."""
    return -b_coeff(p, D, d)


# ---------------------------------------------------------------------------
# coefficient tables and the Hecke operator


def plus_condition(k: int, p: PrimeLevel, n: int) -> bool:
    """Kohnen plus condition for weight k + 1/2: (-1)^k n is a square mod 4p."""
    return (n if k % 2 == 0 else -n) % (4 * p.p) in p.square_roots


class CoeffTable(NamedTuple("CoeffTable", [("k", int), ("p", PrimeLevel), ("n_max", int),
                                            ("entries", dict[int, int])])):
    """Sparse Fourier coefficients of a plus-space object on window [1, n_max].

    entries defaults to a fresh empty dict for each table."""

    __slots__ = ()

    def __new__(cls, k: int, p: PrimeLevel, n_max: int, entries: dict[int, int] | None = None):
        if k not in (0, 1):
            raise ValueError("weight index k must be 0 or 1")
        entries = {} if entries is None else entries
        for n in entries:
            if not (1 <= n <= n_max):
                raise WindowError(f"entry at n={n} outside window [1, {n_max}]")
            if not plus_condition(k, p, n):
                raise ValueError(f"entry at n={n} violates the plus condition")
        return super().__new__(cls, k, p, n_max, entries)

    def get(self, n: int) -> int:
        return self.entries.get(n, 0)


def hecke_apply(t: CoeffTable, ell: int) -> CoeffTable:
    """T_{k+1/2,p}(ell^2) on a plus-space coefficient table.

    The rational prefactor ell_k = ell^{1-2k} (k <= 0) is folded into integer
    closed forms per weight:
        k = 0:  ell*a(ell^2 n) + (n/ell)*a(n) + a(n/ell^2)
        k = 1:  a(ell^2 n) + (-n/ell)*a(n) + ell*a(n/ell^2)
    with a(n/ell^2) := 0 when ell^2 does not divide n.  Output window is
    floor(n_max / ell^2).
    """
    check_ell(t.p, ell)
    ell2 = ell * ell
    out_max = t.n_max // ell2
    if out_max < 1:
        raise WindowError(
            f"input window {t.n_max} too small: need at least ell^2 = {ell2}"
        )
    # only an n with an entry at n, ell^2 n or n/ell^2 can have a nonzero value
    near = {n for m in t.entries for n in (m, ell2 * m, m // ell2 if m % ell2 == 0 else 0)
            if 1 <= n <= out_max}
    out: dict[int, int] = {}
    for n in sorted(near):
        if not plus_condition(t.k, t.p, n):
            continue
        a_up = t.get(ell2 * n)
        a_mid = t.get(n)
        a_down = t.get(n // ell2) if n % ell2 == 0 else 0
        if t.k == 0:
            val = ell * a_up + kronecker(n, ell) * a_mid + a_down
        else:
            val = a_up + kronecker(-n, ell) * a_mid + ell * a_down
        if val:
            out[n] = val
    return CoeffTable(t.k, t.p, out_max, out)


# ---------------------------------------------------------------------------
# identity verifiers


def check_ell(level: PrimeLevel, ell: int):
    """Raise HypothesisViolation unless ell is an odd prime other than p."""
    if ell % 2 == 0:
        raise HypothesisViolation("ell-even", f"ell={ell}, need an odd prime")
    if not is_small_prime(ell):
        raise HypothesisViolation("ell-not-prime", f"ell={ell}, need an odd prime")
    if ell == level.p:
        raise HypothesisViolation("ell-equals-p", f"ell=p={ell}")


def check_square(D: int) -> int:
    """The m >= 1 with D = m^2; ValueError unless D is a positive perfect square."""
    m = math.isqrt(max(D, 0))
    if D < 1 or m * m != D:
        raise ValueError(f"D={D} must be a positive perfect square")
    return m


def check_reach(ell: int, n: int, D: int = 1) -> int:
    """The charge per unit of d of a check at (n, D): ell^(2n) degree_cost(m)
    for D = m^2, at least that of each trace the check reads.  Raise ValueError
    unless n >= 1, D is a positive perfect square, ell^(2n) is within
    qforms.MAX_DISC and the Faber degree ell^n m within MAX_DEGREE.  ell^(2n)
    grows a factor of ell^2 at a time, so a large n stops within 8 steps
    (ell >= 3) and never builds it; past that check ell^n is below
    sqrt(MAX_DISC)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = check_square(D)
    unit = 1
    for _ in range(n):
        unit *= ell * ell
        if unit > MAX_DISC:
            raise ValueError(f"ell={ell}, n={n}: ell^(2n) is above the supported bound {MAX_DISC}")
    if ell**n * m > MAX_DEGREE:
        raise ValueError(f"ell={ell}, n={n}, D={D}: the Faber degree ell^n sqrt(D) "
                         f"is above the supported bound {MAX_DEGREE}")
    return unit * degree_cost(m)


def admit(items, charge, name: str = "d") -> tuple[list[int], int]:
    """The items, read in order, and the sum of their charges: the one place a
    charge is summed.  charge(item) checks the item and returns its charge; the
    first item at which the sum passes MAX_COST raises ValueError, and no item
    after it is read, so an unbounded ascending iterable of d stops there.  A
    table or verifier admits all of its d this way before its first trace."""
    admitted, total = [], 0
    for x in items:
        total += charge(x)
        if total > MAX_COST:
            raise ValueError(f"the request is charged {total} up to {name}={x}, above the "
                             f"supported bound {MAX_COST}")
        admitted.append(x)
    return admitted, total


def _admit_ds(level: PrimeLevel, ds, unit: int) -> list[int]:
    """The admissible ds of a grid whose checks are charged `unit` per unit of d."""
    def charge(d):
        if not is_admissible(d, level):
            raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={level.p}")
        return unit * d
    return admit(ds, charge)[0]


def _div_exact(n: int, m: int) -> int | None:
    return n // m if n % m == 0 else None


def _closed_and_step(B, ell: int, D: int, d: int) -> tuple[int, int]:
    """The closed form at (D, d) and the index-raising step's right side.

    closed = ell B(ell^2 D, d) + (D/ell) B(D, d) + B(D/ell^2, d), and the step
    identity predicts B(D, ell^2 d) = closed - ell B(D, d/ell^2) - (-d/ell) B(D, d).
    """
    ell2 = ell * ell
    closed = ell * B(ell2 * D, d) + kronecker(D, ell) * B(D, d) + B(_div_exact(D, ell2), d)
    step = closed - ell * B(D, _div_exact(d, ell2)) - kronecker(-d, ell) * B(D, d)
    return closed, step


def verify_coeff_identities(p, ell: int, D_list, d_list) -> dict:
    """Check B_ell(D,d) both ways, plus the index-raising step identity, at
    each D of D_list and d of d_list, two iterables read once each.

    Route (i) applies the weight-3/2 Hecke operator to the B-coefficient
    table and reads the q^d coefficient; route (ii) is the closed form
    ell B(ell^2 D, d) + (D/ell) B(D, d) + B(D/ell^2, d).  Their equality
    certifies the duality A_ell = -B_ell with A := -B.  A failure means
    "identification or implementation failure" and is reported, not raised.
    Every D, then every d, is checked and the grid charged (`admit`) before
    any trace; with no D no d is read.  The call's traces share one
    `TraceMemo`, so each B(D, d) is computed once per call.
    """
    level = _as_level(p)
    check_ell(level, ell)
    D_list, unit = admit(D_list, lambda D: check_reach(ell, 1, D), "D")
    d_list = _admit_ds(level, d_list, unit) if D_list else []
    ell2 = ell * ell
    B = TraceMemo(level).b
    checks = []
    for D in D_list:
        for d in d_list:
            # route (i): Hecke action on the coefficient table, read at q^d
            idx = {d, ell2 * d}
            down = _div_exact(d, ell2)
            if down is not None:
                idx.add(down)
            table = CoeffTable(1, level, ell2 * d, {n: b for n in idx if (b := B(D, n))})
            hecke_side = hecke_apply(table, ell).get(d)
            # route (ii), the three-term closed form, and the step identity:
            # B(D, ell^2 d) from data at d
            closed, rhs_step = _closed_and_step(B, ell, D, d)
            lhs_step = B(D, ell2 * d)
            checks.append(
                {
                    "D": D,
                    "d": d,
                    "hecke": str(hecke_side),
                    "closed": str(closed),
                    "duality_ok": hecke_side == closed,
                    "b_ell2d": str(lhs_step),
                    "step_rhs": str(rhs_step),
                    "step_ok": lhs_step == rhs_step,
                }
            )
    ok = all(c["duality_ok"] and c["step_ok"] for c in checks)
    return {"kind": "coeff-identities", "p": level.p, "ell": ell, "ok": ok, "checks": checks}


def verify_recurrence(p, ell: int, D: int, ds, n: int) -> list[dict]:
    """Check the n-step coefficient recurrence for B(D, ell^{2n} d) term by
    term at each d of the iterable ds, one report per d.

    For n = 1 the formula specializes exactly to the single-step identity
    (asserted by comparing both expression forms); for n = 2 it is also
    cross-checked against two iterated single-step applications.  Every d is
    checked and the grid charged (`admit`) before any trace, and the call's
    traces share one `TraceMemo`, so each B(D, d) is computed once.
    """
    level = _as_level(p)
    check_ell(level, ell)
    ds = _admit_ds(level, ds, check_reach(ell, n, D))
    B = TraceMemo(level).b
    return [_recurrence(B, level, ell, D, d, n) for d in ds]


def _recurrence(B, level: PrimeLevel, ell: int, D: int, d: int, n: int) -> dict:
    ell2 = ell * ell
    kD = kronecker(D, ell)
    kd = kronecker(-d, ell)

    lhs = B(D, ell ** (2 * n) * d)
    rhs = ell**n * B(ell ** (2 * n) * D, d)
    for t in range(n):
        w = kD ** (n - t - 1)
        rhs += w * (
            B(_div_exact(D, ell2), ell ** (2 * t) * d)
            - ell ** (t + 1) * B(ell ** (2 * t) * D, _div_exact(d, ell2))
        )
        rhs += w * (kD - kd) * ell**t * B(ell ** (2 * t) * D, d)

    # n = 1: the single step at d; n = 2: the single step at ell^2 d
    cross = _closed_and_step(B, ell, D, ell2 ** (n - 1) * d)[1] if n <= 2 else None
    report = {
        "kind": "recurrence",
        "p": level.p,
        "ell": ell,
        "D": D,
        "d": d,
        "n": n,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "ok": lhs == rhs,
    }
    if cross is not None:
        report["iterated_step"] = str(cross)
        report["iterated_step_ok"] = lhs == cross
        report["ok"] = report["ok"] and lhs == cross
    return report


def verify_congruence(p, ell: int, ds, n: int) -> list[dict]:
    """Check ell^n | t^{(p)}(ell^{2n} d) under the splitting hypothesis at each
    d of the iterable ds, one report per d.

    The hypothesis implies that ell does not divide d, so the stronger exact
    identity t^{(p)}(ell^{2n} d) = -ell^n B(ell^{2n}, d) is checked as well.
    Every d's admissibility and splitting are checked and the grid charged
    (`admit`) before any trace, and the call's traces share one `TraceMemo`,
    whose `b` is all the checks read.
    """
    level = _as_level(p)
    check_ell(level, ell)
    unit = check_reach(ell, n)

    def charge(d):
        if not is_admissible(d, level):
            raise HypothesisViolation("inadmissible", f"d={d} for p={level.p}")
        if not splits(ell, d):
            raise HypothesisViolation("non-split", f"ell={ell} does not split in Q(sqrt(-{d}))")
        return unit * d

    ds = admit(ds, charge)[0]
    B = TraceMemo(level).b
    return [_congruence(B, level, ell, d, n) for d in ds]


def _congruence(B, level: PrimeLevel, ell: int, d: int, n: int) -> dict:
    big = -B(1, ell ** (2 * n) * d)  # t(ell^(2n) d) = -B(1, ell^(2n) d)
    cong_ok = big % ell**n == 0
    lift = -B(ell ** (2 * n), d)
    exact_ok = big == ell**n * lift
    return {
        "kind": "congruence",
        "p": level.p,
        "ell": ell,
        "d": d,
        "n": n,
        "trace": str(big),
        "modulus": str(ell**n),
        "congruence_ok": cong_ok,
        "ok": cong_ok and exact_ok,
        "lift_value": str(lift),
        "exact_lift_ok": exact_ok,
    }


# ---------------------------------------------------------------------------
# persistent JSONL cache

_DECIMAL = re.compile(r"-?[0-9]+")
_METHODS = ("gkz", "brute")  # the enumeration methods of qforms.enumerate_classes
_LEVELS = {p: PrimeLevel(p) for p in SUPPORTED_LEVELS}
_INT_KEYS = ("p", "D", "d", "t", "bits", "terms")
_int_fields = operator.itemgetter(*_INT_KEYS)


def _check_fields(p: int, D: int, d: int, bits: int, terms: int, method) -> None:
    """Raise ValueError unless these are the fields of a computed record: what
    TraceCache loads and what it puts.  A D or d past today's bounds is a record
    of an older version, so it passes."""
    if method not in _METHODS:  # a tuple: an unhashable value is just absent
        why = f"method is {method!r}, not one of {_METHODS}"
    elif (level := _LEVELS.get(p)) is None:
        why = f"p is not one of {SUPPORTED_LEVELS}"
    elif D < 1 or not is_admissible(d, level) or bits < 64 or terms < 1:
        why = (f"bits={bits}, terms={terms}; need D >= 1, d admissible for p={p}, "
               "bits >= 64 and terms >= 1")
    else:
        return
    raise ValueError(f"(p, D, d) = ({p}, {D}, {d}): {why}")


def _cut_torn_line(fd: int):
    """Truncate the file after its last newline, if anything follows it."""
    cut = os.fstat(fd).st_size
    if not cut or os.pread(fd, 1, cut - 1) == b"\n":
        return
    while cut:
        start = max(cut - 4096, 0)
        nl = os.pread(fd, cut - start, start).rfind(b"\n")
        if nl >= 0:
            cut = start + nl + 1
            break
        cut = start
    os.ftruncate(fd, cut)


class TraceCache:
    """JSON Lines cache keyed by (p, D, d); puts are idempotent, conflicts abort.

    A record counts once its newline is written: an unterminated last line, left
    by a writer killed mid-line, is skipped on load.  Every put, under an
    exclusive flock, cuts whatever follows the file's last newline and then
    appends its line, so a fragment torn after this cache loaded is cut too, and
    two writers never cut each other's records.  put opens the file for appending
    at its first write, so a cache only read is never opened for writing;
    close() or a with block releases it.
    """

    def __init__(self, path):
        self.path = Path(path)
        # (p, D, d) -> (value, bits, terms, method): get builds the TraceRecord
        self._mem: dict[tuple[int, int, int], tuple[int, int, int, str]] = {}
        self._fd: int | None = None  # append descriptor, opened by the first write
        if self.path.exists():
            self._load()

    def _load(self):
        mem = self._mem
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):  # only the last line can lack one
                    warnings.warn(f"{self.path}:{lineno}: skipping unterminated last line")
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if type(obj) is not dict:
                        raise ValueError("not a JSON object")
                    p, D, d, t, bits, terms = _int_fields(obj)
                    # the one shape put writes (type, not isinstance: a bool is an int)
                    if not (type(p) is type(D) is type(d) is type(bits) is type(terms) is int
                            and type(t) is str and _DECIMAL.fullmatch(t)):
                        raise ValueError(f"{', '.join(_INT_KEYS)} = {_int_fields(obj)!r}: need "
                                         "JSON integers and t a decimal string")
                    t = int(t)
                    method = obj["method"]
                    _check_fields(p, D, d, bits, terms, method)
                except (KeyError, ValueError) as exc:
                    raise CacheIntegrityError(
                        f"{self.path}:{lineno}: corrupt cache line ({exc})"
                    ) from exc
                key = (p, D, d)
                prev = mem.get(key)
                if prev is not None and prev[0] != t:
                    raise CacheIntegrityError(
                        f"{self.path}:{lineno}: conflicting values for {key}: "
                        f"{prev[0]} vs {t}"
                    )
                mem[key] = (t, bits, terms, method)

    def get(self, p: int, D: int, d: int) -> TraceRecord | None:
        row = self._mem.get((p, D, d))
        return None if row is None else TraceRecord(p, D, d, *row, cached=True)

    def put(self, rec: TraceRecord):
        """Append rec unless its key is cached with the same value, which a
        different value contradicts (CacheIntegrityError).  A record the loader
        would refuse raises ValueError before the file is opened."""
        _check_fields(rec.p, rec.D, rec.d, rec.bits, rec.terms, rec.method)
        key = (rec.p, rec.D, rec.d)
        prev = self._mem.get(key)
        if prev is not None:
            if prev[0] != rec.value:
                raise CacheIntegrityError(
                    f"{self.path}: conflicting values for {key}: {prev[0]} vs {rec.value}"
                )
            return
        line = json.dumps(
            {
                "p": rec.p,
                "D": rec.D,
                "d": rec.d,
                "t": str(rec.value),
                "bits": rec.bits,
                "terms": rec.terms,
                "method": rec.method,
            }
        )
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        data = (line + "\n").encode()
        fcntl.flock(self._fd, fcntl.LOCK_EX)  # check, cut and append as one step
        try:
            _cut_torn_line(self._fd)
            if os.write(self._fd, data) != len(data):  # one write: a line is never split
                raise OSError(f"{self.path}: short write, the last line may be torn")
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        self._mem[key] = (rec.value, rec.bits, rec.terms, rec.method)

    def close(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "TraceCache":
        return self

    def __exit__(self, *exc):
        self.close()

    def stats(self) -> dict:
        by_p: dict[int, int] = {}
        for (p, _, _) in self._mem:
            by_p[p] = by_p.get(p, 0) + 1
        return {"path": str(self.path), "records": len(self._mem), "by_level": by_p}

    def verify(self) -> dict:
        """Recompute every cached trace and compare; returns a report.

        Each recomputation uses the record's own enumeration method and no
        memo, so it shares no classes, CM values or records with the call that
        computed the record.
        A record past today's bounds, which trace() refuses, is listed under
        "refused" with the reason and not counted as checked.
        """
        bad, refused = [], []
        items = list(self._mem.items())
        for (p, D, d), (value, _, _, method) in items:
            try:
                fresh = trace(p, D, d, method=method)
            except ValueError as exc:
                refused.append({"p": p, "D": D, "d": d, "reason": str(exc)})
                continue
            if fresh.value != value:
                bad.append({"p": p, "D": D, "d": d,
                            "cached": str(value), "fresh": str(fresh.value)})
        return {"kind": "cache-verify", "checked": len(items) - len(refused),
                "mismatches": bad, "refused": refused, "ok": not bad and not refused}
