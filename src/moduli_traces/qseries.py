"""Exact truncated Laurent series over arbitrary-size integers.

A series is stored as a window of coefficients c_v, ..., c_{N-1} together
with the convention that every coefficient below v is exactly zero (all
series built here have known valuation).  Arithmetic follows the pessimistic
min-window rule: results carry the tightest truncation order derivable from
the operands.
"""

from __future__ import annotations

import json
from typing import Sequence

from .arith import PrimeLevel


class WindowError(ValueError):
    """Operand windows leave no derivable result window."""


class NonUnitLeadingCoefficient(ValueError):
    """Inversion requested for a series whose leading coefficient is not +-1."""


class TruncatedLaurentSeries:
    """Integer Laurent series c_v q^v + ... + c_{N-1} q^{N-1} + O(q^N)."""

    __slots__ = ("v", "coeffs")

    def __init__(self, v: int, coeffs: Sequence[int]):
        coeffs = list(coeffs)
        if not coeffs:
            raise WindowError("empty coefficient window")
        # strip leading zeros so that v is the valuation of a nonzero series
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs.pop(0)
            v += 1
        self.v = v
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        """Truncation order N: the series is known modulo O(q^N)."""
        return self.v + len(self.coeffs)

    def coeff(self, n: int) -> int:
        if n >= self.order:
            raise WindowError(f"coefficient of q^{n} outside window [{self.v}, {self.order})")
        if n < self.v:
            return 0
        return self.coeffs[n - self.v]

    def __eq__(self, other) -> bool:
        """Equality on the common window."""
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        hi = min(self.order, other.order)
        lo = min(self.v, other.v)
        if hi <= lo:
            raise WindowError("no common window to compare on")
        return all(self.coeff(n) == other.coeff(n) for n in range(lo, hi))

    def __repr__(self) -> str:
        parts = []
        for n in range(self.v, min(self.order, self.v + 6)):
            c = self.coeff(n)
            if c:
                parts.append(f"{c}*q^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"<series {body} + O(q^{self.order})>"

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "TruncatedLaurentSeries":
        return TruncatedLaurentSeries(self.v, [-c for c in self.coeffs])

    def __add__(self, other) -> "TruncatedLaurentSeries":
        if isinstance(other, int):
            other = constant(other, self.order)
        lo = min(self.v, other.v)
        hi = min(self.order, other.order)
        if hi <= lo:
            raise WindowError("addition result window is empty")
        return TruncatedLaurentSeries(
            lo, [self.coeff(n) + other.coeff(n) for n in range(lo, hi)]
        )

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other) -> "TruncatedLaurentSeries":
        if isinstance(other, int):
            other = constant(other, self.order)
        return self.__add__(-other)

    def scale(self, k: int) -> "TruncatedLaurentSeries":
        if k == 0:
            return TruncatedLaurentSeries(self.order - 1, [0])
        return TruncatedLaurentSeries(self.v, [k * c for c in self.coeffs])

    def shift(self, k: int) -> "TruncatedLaurentSeries":
        """Multiply by q^k."""
        return TruncatedLaurentSeries(self.v + k, self.coeffs)

    def truncate(self, order: int) -> "TruncatedLaurentSeries":
        if order <= self.v:
            raise WindowError("truncation below the window start")
        return TruncatedLaurentSeries(self.v, self.coeffs[: order - self.v])

    def nonzero_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.coeffs) if c]

    def __mul__(self, other) -> "TruncatedLaurentSeries":
        if isinstance(other, int):
            return self.scale(other)
        v = self.v + other.v
        order = min(self.order + other.v, other.order + self.v)
        if order <= v:
            raise WindowError("multiplication result window is empty")
        n = order - v
        out = [0] * n
        # iterate over the sparser factor's support
        a, b = self.coeffs, other.coeffs
        if len(self.nonzero_indices()) > len(other.nonzero_indices()):
            a, b = b, a
        a_nz = [(i, c) for i, c in enumerate(a) if c]
        for i, c in a_nz:
            if i >= n:
                break
            hi = min(len(b), n - i)
            for j in range(hi):
                bj = b[j]
                if bj:
                    out[i + j] += c * bj
        return TruncatedLaurentSeries(v, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "TruncatedLaurentSeries":
        """Multiplicative inverse; requires leading coefficient +-1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"leading coefficient {c0} is not a unit; this artifact never "
                "divides by non-monic series"
            )
        n = len(self.coeffs)
        src = self.coeffs
        nz = [i for i in range(1, n) if src[i]]
        out = [0] * n
        out[0] = c0
        for m in range(1, n):
            acc = 0
            for k in nz:
                if k > m:
                    break
                acc += src[k] * out[m - k]
            out[m] = -c0 * acc
        return TruncatedLaurentSeries(-self.v, out)

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"v": self.v, "N": self.order, "coeffs": [str(c) for c in self.coeffs]}
        )


def constant(c: int, order: int = 1) -> TruncatedLaurentSeries:
    """The constant series c + O(q^order)."""
    if order < 1:
        raise WindowError("constant series needs order >= 1")
    coeffs = [0] * order
    coeffs[0] = c
    return TruncatedLaurentSeries(0, coeffs) if c else TruncatedLaurentSeries(order - 1, [0])


def euler_product(N: int) -> TruncatedLaurentSeries:
    """prod_{n>=1} (1 - q^n) + O(q^N), by the pentagonal-number expansion."""
    if N < 1:
        raise WindowError("euler_product needs N >= 1")
    coeffs = [0] * N
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= N and g2 >= N:
            break
        s = -1 if k % 2 else 1
        if g1 < N:
            coeffs[g1] = s
        if g2 < N:
            coeffs[g2] = s
        k += 1
    return TruncatedLaurentSeries(0, coeffs)


def _rescale_variable(s: TruncatedLaurentSeries, p: int, order: int) -> TruncatedLaurentSeries:
    """Substitute q -> q^p (s must have valuation >= 0)."""
    coeffs = [0] * order
    for i, c in enumerate(s.coeffs):
        n = (s.v + i) * p
        if n >= order:
            break
        coeffs[n] = c
    return TruncatedLaurentSeries(0, coeffs)


def eta_quotient_f(p: PrimeLevel, N: int) -> TruncatedLaurentSeries:
    """f_p = q^{-1} prod (1-q^n)^e prod (1-q^{pn})^{-e}, e = 24/(p-1).

    The fractional eta prefactors q^{1/24} cancel in the quotient, so only
    integral exponents ever appear.  Window is [-1, N).
    """
    if N < 1:
        raise WindowError("eta_quotient_f needs N >= 1")
    e = p.eta_exponent
    inner = N + 1  # need coefficients up to q^N before the q^{-1} shift
    E = euler_product(inner)
    # repeated multiplication by the sparse pentagonal series beats binary
    # powering here: each pass costs O(N * #pentagonal numbers)
    A = E
    for _ in range(e - 1):
        A = A * E
    B = _rescale_variable(A, p.p, inner)
    f = A * B.inv()
    return f.truncate(inner).shift(-1)
