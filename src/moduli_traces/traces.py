"""Generalized traces, duality coefficients, the Hecke operator, and verifiers.

The trace t_D(d) is the stabilizer-weighted sum of the degree-D Faber
function over Gamma_0(p)*-classes of Heegner forms of discriminant -d.  It is
computed over Gamma_0(p)-classes and halved (index-2 mass identity), so
Fricke-fixed classes need no special casing.

Traces realize the weight-3/2 basis coefficients through the divisor-sum
relation t_m(d) = -sum_{n | m} n B(n^2, d), which Moebius inversion turns
into B(m^2, d) = -(1/m) sum_{n | m} mu(m/n) t_n(d).  Exact divisibility by m
is asserted on every call; the identity suite then validates the realization
against the Hecke action on coefficient tables.
"""

from __future__ import annotations

import json
import math
import re
import threading
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

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
    Fixed,
    PrecisionContext,
    cm_point_q,
    fixed_width,
    horner_in_q,
    horner_poly,
    plan_precision,
    round_to_integer,
)
from .hauptmodul import Hauptmodul, build_hauptmodul, faber_polys
from .qforms import (
    HeegnerClass,
    InadmissibleDiscriminant,
    QuadForm,
    class_count,
    enumerate_classes,
)
from .qseries import WindowError


class HypothesisViolation(ValueError):
    """A verifier input fails a theorem hypothesis; carries a named reason."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class CacheIntegrityError(RuntimeError):
    """Two computations disagree for the same cache key, or a cache line is corrupt."""


@dataclass(frozen=True)
class TraceRecord:
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
# per-level computation state


class _LevelState:
    def __init__(self, level: PrimeLevel):
        self.level = level
        self.haupt: Hauptmodul | None = None
        self.polys: list[list[int]] = []
        self.classes_cache: dict[tuple[int, str], list[HeegnerClass]] = {}
        self.value_cache: dict[tuple, Fixed] = {}
        self.trace_cache: dict[tuple[int, int, str], TraceRecord] = {}
        self.lock = threading.RLock()

    def hauptmodul(self, min_order: int) -> Hauptmodul:
        with self.lock:
            if self.haupt is None or self.haupt.order < min_order:
                # the next power of two at or above min_order: the series is
                # exact, so growing it changes no value read from it
                self.haupt = build_hauptmodul(self.level, 1 << (min_order - 1).bit_length())
            return self.haupt

    def faber_poly(self, D: int) -> list[int]:
        with self.lock:
            if D >= len(self.polys):
                dmax = 1 << (D - 1).bit_length()
                self.polys = faber_polys(self.hauptmodul(dmax + 2), dmax)
            return self.polys[D]

    def classes(self, d: int, method: str) -> list[HeegnerClass]:
        with self.lock:
            key = (d, method)
            if key not in self.classes_cache:
                self.classes_cache[key] = enumerate_classes(self.level, d, method)
            return self.classes_cache[key]

    def cm_value(self, form, ctx: PrecisionContext, values: dict) -> Fixed:
        """j_p*(alpha_form) in fixed point at exactly (ctx.bits, ctx.terms),
        memoized in values: value_cache, or a dict private to one call."""
        key = (form.as_tuple(), fixed_width(ctx.bits), ctx.terms)
        with self.lock:
            if key not in values:
                h = self.hauptmodul(ctx.terms + 2)
                values[key] = horner_in_q(h.series, cm_point_q(form, ctx.bits), ctx.terms, ctx.bits)
            return values[key]


_STATES: dict[int, _LevelState] = {}
_STATES_LOCK = threading.Lock()


def _state(level: PrimeLevel) -> _LevelState:
    with _STATES_LOCK:
        if level.p not in _STATES:
            _STATES[level.p] = _LevelState(level)
        return _STATES[level.p]


def reset_state():
    """Drop all per-level caches (mainly for tests)."""
    with _STATES_LOCK:
        _STATES.clear()


# ---------------------------------------------------------------------------
# traces and duality coefficients


def trace(
    p,
    D: int,
    d: int,
    ctx0: PrecisionContext | None = None,
    method: str = "gkz",
    cache: "TraceCache | None" = None,
    memo: bool = True,
) -> TraceRecord:
    """The generalized trace t_D^{(p)}(d), certified as an exact integer.

    Classes are summed in conjugate beta-pairs (real parts, doubled off the
    symmetric roots), weighted 1/omega, and halved by the index-2 mass factor
    converting Gamma_0(p)-classes to Gamma_0(p)*-classes.  The sum is one
    fixed-point integer with the weights mult/(2 omega) scaled by 12, which
    makes them the integers 6 mult/omega for omega in {1, 2, 3}, summed per
    distinct evaluation form (Fricke pairs share one), so each is evaluated once.
    memo=False, like ctx0, reads and keeps no memoized classes, CM values or record.
    """
    level = _as_level(p)
    if D < 1:
        raise ValueError("Faber degree D must be >= 1")
    if not is_admissible(d, level):
        raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={level.p}")
    st = _state(level)
    key = (D, d, method)
    memo = memo and ctx0 is None
    if memo:
        with st.lock:
            rec = st.trace_cache.get(key)
        if rec is not None:
            if cache is not None:
                cache.put(rec)  # memo records are computed here, never cache hits
            return rec
    if cache is not None:
        hit = cache.get(level.p, D, d)
        if hit is not None:
            return replace(hit, class_count=class_count(level, d))

    classes = st.classes(d, method) if memo else enumerate_classes(level, d, method)
    values = st.value_cache if memo else {}
    ctx = plan_precision(d, classes, ctx0, degree=D)
    st.hauptmodul(ctx.terms + 2)  # at the CM order, before faber_poly asks for less
    poly = st.faber_poly(D)
    weights: dict[QuadForm, int] = {}
    for cl in classes:
        if cl.beta > level.p:
            continue
        if 6 % cl.omega:
            raise ArithmeticError(
                f"class {cl.sl2_rep.as_tuple()} line {cl.line} of d={d} at "
                f"p={level.p} has stabilizer order {cl.omega}, not a divisor of 6"
            )
        mult = 1 if cl.beta % level.p == 0 else 2  # beta = -beta mod 2p
        weights[cl.eval_form] = weights.get(cl.eval_form, 0) + 6 * mult // cl.omega

    def compute(c: PrecisionContext) -> Fraction:
        total = 0
        for form, w in weights.items():
            total += w * horner_poly(poly, st.cm_value(form, c, values), c.bits)[0]
        return Fraction(total, 12 << fixed_width(c.bits))

    rounded = round_to_integer(compute(ctx), ctx, recompute=compute)
    rec = TraceRecord(
        p=level.p,
        D=D,
        d=d,
        value=rounded.value,
        bits=rounded.bits_used,
        terms=rounded.terms_used,
        method=method,
        class_count=len(classes),
        residual=rounded.residual,
    )
    if memo:
        with st.lock:
            st.trace_cache[key] = rec
    if cache is not None:
        cache.put(rec)
    return rec


def b_coeff(p, D: int, d: int) -> int:
    """B(D, d) for a perfect square D = m^2, via Moebius inversion of traces.

    The divisor-sum relation t_m(d) = -sum_{n | m} n B(n^2, d) inverts to
    m B(m^2, d) = -sum_{n | m} mu(m/n) t_n(d).  D = 1 reduces to the anchored
    duality B(1, d) = -t(d); for D > 1 the exact divisibility by m is part of
    the integrality certificate and failure raises instead of rounding.
    """
    level = _as_level(p)
    m = check_square(D)
    acc = 0
    for n in divisors(m):
        mu = moebius(m // n)
        if mu:
            acc += mu * trace(level, n, d).value
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


@dataclass
class CoeffTable:
    """Sparse Fourier coefficients of a plus-space object on window [1, n_max]."""

    k: int
    p: PrimeLevel
    n_max: int
    entries: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.k not in (0, 1):
            raise ValueError("weight index k must be 0 or 1")
        for n in self.entries:
            if not (1 <= n <= self.n_max):
                raise WindowError(f"entry at n={n} outside window [1, {self.n_max}]")
            if not plus_condition(self.k, self.p, n):
                raise ValueError(f"entry at n={n} violates the plus condition")

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
    out: dict[int, int] = {}
    for n in range(1, out_max + 1):
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


def _b_or_zero(level: PrimeLevel, D, d) -> int:
    """B(D, d) extended by convention to 0 at non-integer indices."""
    if D is None or d is None:
        return 0
    return b_coeff(level, D, d)


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


def verify_coeff_identities(p, ell: int, D_list: list[int], d_list: list[int]) -> dict:
    """Check B_ell(D,d) both ways, plus the index-raising step identity.

    Route (i) applies the weight-3/2 Hecke operator to the B-coefficient
    table and reads the q^d coefficient; route (ii) is the closed form
    ell B(ell^2 D, d) + (D/ell) B(D, d) + B(D/ell^2, d).  Their equality
    certifies the duality A_ell = -B_ell with A := -B.  A failure means
    "identification or implementation failure" and is reported, not raised.
    """
    level = _as_level(p)
    check_ell(level, ell)
    ell2 = ell * ell
    checks = []
    for D in D_list:
        for d in d_list:
            if not is_admissible(d, level):
                raise InadmissibleDiscriminant(f"d={d} inadmissible for p={level.p}")
            B = lambda DD, dd: _b_or_zero(level, DD, dd)
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


def verify_recurrence(p, ell: int, D: int, d: int, n: int) -> dict:
    """Check the n-step coefficient recurrence for B(D, ell^{2n} d) term by term.

    For n = 1 the formula specializes exactly to the single-step identity
    (asserted by comparing both expression forms); for n = 2 it is also
    cross-checked against two iterated single-step applications.
    """
    level = _as_level(p)
    check_ell(level, ell)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_admissible(d, level):
        raise InadmissibleDiscriminant(f"d={d} inadmissible for p={level.p}")
    ell2 = ell * ell
    B = lambda DD, dd: _b_or_zero(level, DD, dd)
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


def verify_congruence(p, ell: int, d: int, n: int) -> dict:
    """Check ell^n | t^{(p)}(ell^{2n} d) under the splitting hypothesis.

    The hypothesis implies that ell does not divide d, so the stronger exact
    identity t^{(p)}(ell^{2n} d) = -ell^n B(ell^{2n}, d) is checked as well.
    """
    level = _as_level(p)
    check_ell(level, ell)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_admissible(d, level):
        raise HypothesisViolation("inadmissible", f"d={d} for p={level.p}")
    if not splits(ell, d):
        raise HypothesisViolation("non-split", f"ell={ell} does not split in Q(sqrt(-{d}))")
    big = trace(level, 1, ell ** (2 * n) * d)
    cong_ok = big.value % ell**n == 0
    lift = -b_coeff(level, ell ** (2 * n), d)
    exact_ok = big.value == ell**n * lift
    return {
        "kind": "congruence",
        "p": level.p,
        "ell": ell,
        "d": d,
        "n": n,
        "trace": str(big.value),
        "modulus": str(ell**n),
        "congruence_ok": cong_ok,
        "ok": cong_ok and exact_ok,
        "lift_value": str(lift),
        "exact_lift_ok": exact_ok,
    }


# ---------------------------------------------------------------------------
# persistent JSONL cache

_DECIMAL = re.compile(r"-?[0-9]+")
_METHODS = ("gkz", "brute")  # the enumeration methods of qforms.class_labels


def _int_field(obj: dict, key: str) -> int:
    """An integer field of a cache line: a JSON integer or a decimal-integer string."""
    v = obj[key]
    if type(v) is int:  # not isinstance: a bool is an int
        return v
    if type(v) is str and _DECIMAL.fullmatch(v):
        return int(v)
    raise ValueError(f"{key} is {v!r}, not an integer")


class TraceCache:
    """JSON Lines cache keyed by (p, D, d); puts are idempotent, conflicts abort.

    A record counts once its newline is written: an unterminated last line, left
    by a writer killed mid-line, is skipped on load and cut by the next put.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._mem: dict[tuple[int, int, int], TraceRecord] = {}
        self._lock = threading.Lock()
        self._torn_at: int | None = None  # byte offset of an unterminated last line
        if self.path.exists():
            self._load()

    def _load(self):
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):  # only the last line can lack one
                    self._torn_at = self.path.stat().st_size - len(line.encode())
                    warnings.warn(f"{self.path}:{lineno}: skipping unterminated last line")
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("not a JSON object")
                    p, D, d, t, bits, terms = (
                        _int_field(obj, k) for k in ("p", "D", "d", "t", "bits", "terms")
                    )
                    method = obj["method"]
                    if method not in _METHODS:  # a tuple: an unhashable value is just absent
                        raise ValueError(f"method is {method!r}, not one of {_METHODS}")
                    if p not in SUPPORTED_LEVELS:
                        raise ValueError(f"p is {p}, not one of {SUPPORTED_LEVELS}")
                    rec = TraceRecord(p=p, D=D, d=d, value=t, bits=bits, terms=terms,
                                      method=method, cached=True)
                except (KeyError, ValueError) as exc:
                    raise CacheIntegrityError(
                        f"{self.path}:{lineno}: corrupt cache line ({exc})"
                    ) from exc
                key = (rec.p, rec.D, rec.d)
                prev = self._mem.get(key)
                if prev is not None and prev.value != rec.value:
                    raise CacheIntegrityError(
                        f"{self.path}:{lineno}: conflicting values for {key}: "
                        f"{prev.value} vs {rec.value}"
                    )
                self._mem[key] = rec

    def get(self, p: int, D: int, d: int) -> TraceRecord | None:
        with self._lock:
            return self._mem.get((p, D, d))

    def put(self, rec: TraceRecord):
        key = (rec.p, rec.D, rec.d)
        with self._lock:
            prev = self._mem.get(key)
            if prev is not None:
                if prev.value != rec.value:
                    raise CacheIntegrityError(
                        f"conflicting values for {key}: {prev.value} vs {rec.value}"
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
            with self.path.open("a") as fh:
                if self._torn_at is not None:
                    fh.truncate(self._torn_at)
                    self._torn_at = None
                fh.write(line + "\n")
            self._mem[key] = rec

    def stats(self) -> dict:
        with self._lock:
            by_p: dict[int, int] = {}
            for (p, _, _) in self._mem:
                by_p[p] = by_p.get(p, 0) + 1
            return {"path": str(self.path), "records": len(self._mem), "by_level": by_p}

    def verify(self) -> dict:
        """Recompute every cached trace and compare; returns a report.

        Each recomputation uses the record's own enumeration method and
        memo=False: no classes, CM values or records from the in-process memo.
        """
        bad = []
        with self._lock:
            items = list(self._mem.values())
        for rec in items:
            fresh = trace(rec.p, rec.D, rec.d, method=rec.method, memo=False)
            if fresh.value != rec.value:
                bad.append({"p": rec.p, "D": rec.D, "d": rec.d,
                            "cached": str(rec.value), "fresh": str(fresh.value)})
        return {"kind": "cache-verify", "checked": len(items), "mismatches": bad,
                "ok": not bad}
