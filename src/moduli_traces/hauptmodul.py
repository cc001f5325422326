"""Hauptmoduls j_p* of Gamma_0(p)* and their Faber polynomials.

j_p* = f_p + p^{12/(p-1)}/f_p + 24/(p-1) with f_p the eta quotient of
`qseries.eta_quotient_f`; the Fricke relation makes the sum invariant under
the full group.  Faber series j_{p,D} = P_D(j_p*) are normalized to
q^{-D} + O(q).
"""

from __future__ import annotations

from .arith import PrimeLevel
from .qseries import TruncatedLaurentSeries, eta_quotient_f, WindowError


# the largest window build_hauptmodul accepts: at p=2 the series to N = 3052
# took 3.0 s and to 4096 7.5 s on a 2-vCPU host, the time growing faster than
# N^2 (see README)
MAX_ORDER = 4096


class Hauptmodul:
    """Normalized Hauptmodul expansion q^{-1} + O(q) at level p."""

    def __init__(self, p: PrimeLevel, series: TruncatedLaurentSeries):
        if series.coeff(-1) != 1 or series.coeff(0) != 0:
            raise ValueError("Hauptmodul must be normalized q^{-1} + O(q)")
        self.p = p
        self.series = series

    @property
    def order(self) -> int:
        return self.series.order


def build_hauptmodul(p: PrimeLevel, N: int) -> Hauptmodul:
    """The unique normalized Hauptmodul expansion with window [-1, N)."""
    if N < 2:
        raise WindowError("build_hauptmodul needs N >= 2")
    if N > MAX_ORDER:
        raise ValueError(f"Hauptmodul window N={N} is above the supported bound {MAX_ORDER}")
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


def faber_polys(h: Hauptmodul, Dmax: int, polys: list[list[int]] = ()) -> list[list[int]]:
    """P_0 ... P_Dmax via the series-free convolution recurrence.

    With j = q^{-1} + sum b_m q^m and G(s) = s(j(s) - X), the logarithmic
    derivative of G yields

        P_D(X) = X P_{D-1}(X) - sum_{j=2}^{D-1} b_{j-1} P_{D-j}(X) - D b_{D-1},

    which needs only b_1, ..., b_{Dmax-1}.  `polys`, a list P_0 ... P_k of the
    same level, is extended rather than recomputed; it is not modified.  The
    test suite cross-checks the recurrence against the greedy series
    construction in tests/oracles.py.
    """
    if h.order <= Dmax - 1:
        raise WindowError(f"need Hauptmodul coefficients up to q^{Dmax - 1}")
    b = [0] * max(Dmax, 2)
    for m in range(1, Dmax):
        b[m] = h.series.coeff(m)
    polys = list(polys) if len(polys) >= 2 else [[1], [0, 1]]
    for D in range(len(polys), Dmax + 1):
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
