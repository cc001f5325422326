"""Elementary exact number theory shared by the other modules."""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

# Levels with a single-eta-quotient Hauptmodul: primes p with (p-1) | 24.
SUPPORTED_LEVELS = (2, 3, 5, 7, 13)

# Genus-zero prime levels that exist but are out of scope here (their
# Hauptmoduls are not a single eta quotient).
UNSUPPORTED_GENUS_ZERO_PRIMES = (11, 17, 19, 23, 29, 31, 41, 47, 59, 71)


class UnsupportedLevel(ValueError):
    """Raised for prime levels outside {2, 3, 5, 7, 13}."""


class PrimeLevel(NamedTuple("PrimeLevel", [("p", int), ("eta_exponent", int), ("fricke_const", int),
                                            ("square_roots", Mapping[int, frozenset[int]])])):
    """A prime p with (p-1) | 24, plus the constants of its eta quotient.

    eta_exponent is 24/(p-1), the exponent in f_p = (eta(t)/eta(pt))^exp;
    fricke_const is p^(12/(p-1)), the constant of the Fricke relation
    f_p(-1/(pt)) = fricke_const / f_p(t).  square_roots maps each square r
    mod 4p to the frozenset of beta mod 2p with beta^2 = r (mod 4p).  Built
    from p alone, and hashed by p: square_roots is a read-only mapping.
    """

    __slots__ = ()

    def __new__(cls, p: int):
        if p not in SUPPORTED_LEVELS:
            raise UnsupportedLevel(
                f"level {p} not supported: need a prime p with (p-1) | 24, "
                f"i.e. p in {SUPPORTED_LEVELS}; the remaining genus-zero primes "
                f"{UNSUPPORTED_GENUS_ZERO_PRIMES} are out of scope"
            )
        roots: dict[int, set[int]] = {}
        for b in range(2 * p):  # (b + 2p)^2 = b^2 (mod 4p)
            roots.setdefault(b * b % (4 * p), set()).add(b)
        return super().__new__(cls, p, 24 // (p - 1), p ** (12 // (p - 1)),
                               MappingProxyType({r: frozenset(bs) for r, bs in roots.items()}))

    def __hash__(self):
        return hash(self.p)


def is_small_prime(n: int) -> bool:
    """Trial-division primality check for n < 10^12; ValueError at or above it."""
    if n >= 10**12:  # trial divisors then stay below 10^6
        raise ValueError(f"{n} is too large for the trial-division primality check "
                         "(need n < 10^12)")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol, n odd positive.
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), totally extended to all integer pairs."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out twos
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    return sign * _jacobi(a, n)


def sqrt_classes(d: int, p: PrimeLevel) -> frozenset[int]:
    """All residues beta mod 2p with beta^2 = -d (mod 4p).

    Empty iff d is not admissible for level p.
    """
    if d < 1:
        return frozenset()
    return p.square_roots.get(-d % (4 * p.p), frozenset())


def is_admissible(d: int, p: PrimeLevel) -> bool:
    """True iff d >= 1 and -d is a square mod 4p."""
    return d >= 1 and -d % (4 * p.p) in p.square_roots


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    """Moebius function mu(n) by trial factorization."""
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    mu = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            mu = -mu
        f += 1
    if n > 1:
        mu = -mu
    return mu


def splits(ell: int, d: int) -> bool:
    """True iff the odd prime ell splits in Q(sqrt(-d))."""
    if ell == 2 or not is_small_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")
    return kronecker(-d, ell) == 1
