"""Hauptmoduls j_p* of Gamma_0(p)* and their Faber polynomials.

j_p* = f_p + p^{12/(p-1)}/f_p + 24/(p-1) with f_p the eta quotient of
`qseries.eta_quotient_f`; the Fricke relation makes the sum invariant under
the full group.  Faber series j_{p,D} = P_D(j_p*) are normalized to
q^{-D} + O(q).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import PrimeLevel
from .qseries import TruncatedLaurentSeries, eta_quotient_f, WindowError


class Hauptmodul:
    """Normalized Hauptmodul expansion q^{-1} + O(q) at level p."""

    def __init__(self, p: PrimeLevel, series: TruncatedLaurentSeries):
        if series.coeff(-1) != 1 or series.coeff(0) != 0:
            raise ValueError("Hauptmodul must be normalized q^{-1} + O(q)")
        self.p = p
        self.series = series
        self._faber: dict[int, FaberSeries] = {}

    @property
    def order(self) -> int:
        return self.series.order


@dataclass
class FaberSeries:
    """j_{p,D} = P_D(j_p*) = q^{-D} + O(q), with the monic polynomial P_D."""

    p: PrimeLevel
    D: int
    series: TruncatedLaurentSeries
    poly: list[int] = field(repr=False)  # coefficients of P_D, X^0 first


def build_hauptmodul(p: PrimeLevel, N: int) -> Hauptmodul:
    """The unique normalized Hauptmodul expansion with window [-1, N)."""
    if N < 2:
        raise WindowError("build_hauptmodul needs N >= 2")
    f = eta_quotient_f(p, N)
    j = f + f.inv().scale(p.fricke_const)
    c0 = j.coeff(0)
    j = j - c0
    # the additive constant is computed, then checked against theory
    if -c0 != p.eta_exponent:
        raise ArithmeticError(
            f"constant term {c0} of f_p + p^(12/(p-1))/f_p at p={p.p} is not "
            f"-24/(p-1) = {-p.eta_exponent}"
        )
    return Hauptmodul(p, j.truncate(N))


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
    if D in h._faber:
        return h._faber[D]
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
    fs = FaberSeries(h.p, D, cur, poly)
    h._faber[D] = fs
    return fs


def faber_polys(h: Hauptmodul, Dmax: int) -> list[list[int]]:
    """P_0 ... P_Dmax via the series-free convolution recurrence.

    With j = q^{-1} + sum b_m q^m and G(s) = s(j(s) - X), the logarithmic
    derivative of G yields

        P_D(X) = X P_{D-1}(X) - sum_{j=2}^{D-1} b_{j-1} P_{D-j}(X) - D b_{D-1},

    which needs only b_1, ..., b_{Dmax-1}.  Cross-checked against `faber`
    (the greedy series construction) in the test suite.
    """
    if h.order <= Dmax - 1:
        raise WindowError(f"need Hauptmodul coefficients up to q^{Dmax - 1}")
    b = [0] * max(Dmax, 2)
    for m in range(1, Dmax):
        b[m] = h.series.coeff(m)
    polys: list[list[int]] = [[1], [0, 1]]
    for D in range(2, Dmax + 1):
        prev = polys[D - 1]
        cur = [0] + list(prev)  # X * P_{D-1}
        for j in range(2, D):
            bj = b[j - 1]
            if bj:
                low = polys[D - j]
                for i, a in enumerate(low):
                    if a:
                        cur[i] -= bj * a
        cur[0] -= D * b[D - 1]
        polys.append(cur)
    return polys[: Dmax + 1]
