"""Binary quadratic forms, Heegner classes, and height-optimized evaluation forms.

A Heegner class at level p and discriminant -d is a Gamma_0(p)-class of forms
[a, b, c] with p | a.  Inside one SL_2-class with reduced representative R,
these Gamma_0(p)-classes correspond to orbits of the SL_2-stabilizer of R on
the projective root lines {l in P^1(F_p) : R(l) = 0 mod p}; the stabilizer
order of the line is the class weight omega.  For p not dividing d there are
two root lines carrying the two square roots +-beta of -d mod 4p, recovering
the Gross-Kohnen-Zagier labels (SL_2-class, beta); for p | content(R) all
p + 1 lines are roots and the beta label alone under-counts.  A direct
brute-force scan over forms implements the same partition independently and
serves as the oracle in the tests.

A form is an (a, b, c) int triple throughout, and a matrix an
(m11, m12, m21, m22) int quadruple; `_act` alone applies one to the other.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import PrimeLevel, is_admissible, kronecker, sqrt_classes


# The largest d any enumeration accepts.  A p=2 trace just below it takes about
# two minutes, and the time grows faster than d: a larger d, such as the
# ell^(2n) d of a verifier with a large ell, would run until killed.
MAX_DISC = 10**7


class NotPositiveDefinite(ValueError):
    pass


class InadmissibleDiscriminant(ValueError):
    pass


class HeegnerClass(NamedTuple):
    """One Gamma_0(p)-class of Q_{d,p}: label plus an optimized evaluation form.

    `sl2_rep` is the reduced SL_2 representative and `eval_form` the form the
    class is evaluated at, both (a, b, c) int triples.  `line` is the canonical
    representative of the stabilizer orbit of root lines attached to the class
    (in the frame of sl2_rep); `omega` is the stabilizer order of that line,
    i.e. the number of stabilizers of the class in +-Gamma_0(p)/+-1.  The label
    (sl2_rep, line) identifies the class, so records sort by (beta, sl2_rep,
    line) as tuples.
    """

    beta: int
    sl2_rep: tuple[int, int, int]
    line: tuple[int, int]
    eval_form: tuple[int, int, int]
    omega: int

    @property
    def label(self) -> tuple[tuple[int, int, int], tuple[int, int]]:
        return (self.sl2_rep, self.line)


def _act(F: tuple[int, int, int], M: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """F o M, the right action of the determinant-1 matrix M = [[m11, m12],
    [m21, m22]] on the form F = (a, b, c)."""
    a, b, c = F
    m11, m12, m21, m22 = M
    return (a * m11 * m11 + b * m11 * m21 + c * m21 * m21,
            2 * a * m11 * m12 + b * (m11 * m22 + m12 * m21) + 2 * c * m21 * m22,
            a * m12 * m12 + b * m12 * m22 + c * m22 * m22)


def _gauss(a: int, b: int, c: int) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """The Gauss reduction loop for a positive definite (a, b, c): the reduced
    form R and the matrix M with (a, b, c) o M = R, unchecked."""
    m11, m12, m21, m22 = 1, 0, 0, 1
    while True:
        # translate b into (-a, a]; floor division puts b + 2ak there directly
        if b > a or b <= -a:
            k = (a - b) // (2 * a)
            c = c + b * k + a * k * k
            b = b + 2 * a * k
            m12, m22 = m12 + k * m11, m22 + k * m21
        if a > c:
            a, b, c = c, -b, a
            m11, m12 = m12, -m11
            m21, m22 = m22, -m21
            continue
        if a == c and b < 0:
            b = -b
            m11, m12 = m12, -m11
            m21, m22 = m22, -m21
            continue
        return (a, b, c), (m11, m12, m21, m22)


def reduce_sl2(F: tuple[int, int, int]) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """Gauss reduction of the form F = (a, b, c): the unique reduced
    SL_2-representative R and the matrix M with F o M = R.
    NotPositiveDefinite unless a > 0 and b^2 - 4ac < 0."""
    a, b, c = F
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise NotPositiveDefinite(f"[{a},{b},{c}] is not positive definite")
    R, M = _gauss(a, b, c)
    a, b, c = R
    m11, m12, m21, m22 = M
    # reduced: -a < b <= a <= c, and b >= 0 when a = c
    if (_act(F, M) != R or m11 * m22 - m12 * m21 != 1
            or not (-a < b <= a <= c) or (a == c and b < 0)):
        raise ArithmeticError(
            f"reduction of {F} produced {R} with matrix {M}, "
            f"which is not a reduced equivalent form"
        )
    return R, M


def _reduced_triples(d: int):
    """(a, b, c) with b >= 0 for each reduced form of discriminant -d; the
    reduced forms are these and [a, -b, c] for each with 0 < b < a < c.
    ValueError for d above MAX_DISC."""
    if d > MAX_DISC:
        raise ValueError(f"d={d} is above the supported bound {MAX_DISC}")
    if d % 4 not in (0, 3):
        raise InadmissibleDiscriminant(f"-{d} is not 0 or 1 mod 4")
    bmax = math.isqrt(d // 3)
    for b in range(d % 2, bmax + 1, 2):
        m4 = b * b + d
        if m4 % 4:
            continue
        m = m4 // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                yield a, b, m // a
            a += 1


def class_reps(d: int) -> list[tuple[int, int, int]]:
    """All reduced forms of discriminant -d (imprimitive forms included), as
    sorted (a, b, c) triples."""
    reps = []
    for a, b, c in _reduced_triples(d):
        reps.append((a, b, c))
        if 0 < b < a < c:
            reps.append((a, -b, c))
    return sorted(reps)


def _least_admissible_vector(a: int, b: int, c: int, p: int) -> tuple[int, int] | None:
    """The vector (x, y) with gcd(x, p*y) = 1 at which G(x, y) = F(x, p*y),
    for F = [a, b, c], takes its least value, the first in (y, x) order among
    ties, if that value is below a; else None.  See `optimize_height`."""
    (A, B, C), (m11, m12, m21, m22) = _gauss(a, b * p, c * p * p)
    best = None
    # G at e1, e2, e1 + e2 and e1 - e2 of the reduced basis, each the image of
    # a primitive vector under M, so admissible exactly when p does not divide x
    for val, x, y in ((A, m11, m21), (C, m12, m22), (A + B + C, m11 + m12, m21 + m22),
                      (A - B + C, m11 - m12, m21 - m22)):
        if val >= a or x % p == 0:
            continue
        if y > 0 or (y == 0 and x > 0):  # of +-v, the first in (y, x) order
            x, y = -x, -y
        if best is None or (val, y, x) < best:
            best = (val, y, x)
    return None if best is None else (best[2], best[1])


def _complete_gamma0(x: int, py: int) -> tuple[int, int, int, int]:
    """Complete the primitive column (x, py) to a determinant-1 matrix."""
    g = math.gcd(x, py)
    if g != 1:
        raise ValueError(f"column ({x}, {py}) is not primitive: gcd is {g}")
    if py == 0:  # then x = +-1
        return (x, 0, 0, x)
    w = pow(x, -1, py)
    return (x, (x * w - 1) // py, py, w)


def optimize_height(F: tuple[int, int, int], p: PrimeLevel) -> tuple[int, int, int]:
    """Lower the leading coefficient of F = (a, b, c), p | a, by Gamma_0(p) moves
    and Fricke flips.

    The leading coefficients of the Gamma_0(p)-class of F are the values of F
    at its admissible vectors (x, p*y), gcd(x, p*y) = 1, the first columns of
    Gamma_0(p): the values of G(x, y) = F(x, p*y) at the primitive (x, y) with
    p not dividing x.  One Gauss reduction of G gives a basis e1, e2 in which
    G is [A, B, C], |B| <= A <= C, and every minimal admissible vector is one
    of +-e1, +-e2 and +-(e1 +- e2).  If p does not divide x at e1, the least
    value of G is A, taken only at +-e1, at +-e2 when A = C and at
    +-(e1 - sgn(B) e2) when |B| = A = C.  Otherwise the admissible vectors are
    the primitive (u e1 + v e2) with p not dividing v, and a reduced G is at
    least C wherever v != 0, with equality only at +-e2 and, when |B| = A, at
    +-(e1 - sgn(B) e2).  Of the minimal admissible vectors the first in
    (y, x) order is taken: least y, then least x.

    If its value is below a, the form moves there by the Gamma_0(p) matrix
    completing (x, p*y), which reaches the least a of the Gamma_0(p)-class, so
    the next step is the Fricke flip [a, b, c] -> [p c, -b, a/p], taken only
    when p c < a, after which the search runs again; b is normalized into
    (-a, a] before each step.  Terminates: a strictly decreases through
    positive integers.  The result has the least a of its own
    Gamma_0(p)-class, but not always the least of the Gamma_0(p)*-orbit: the
    Fricke image's Gamma_0(p)-minimum can have a smaller a although p c >= a.
    That happens in 80, 202 and 889 classes at p = 5, 7 and 13 (ROADMAP, open
    item 3).  ValueError unless p | a.
    """
    pp = p.p
    a, b, c = F
    if a % pp:
        raise ValueError("optimize_height needs p | a")
    search = True
    while True:
        k = (a - b) // (2 * a)  # translate b into (-a, a] (translations stay in Gamma_0(p))
        b, c = b + 2 * a * k, c + b * k + a * k * k
        if search and (vec := _least_admissible_vector(a, b, c, pp)) is not None:
            a, b, c = _act((a, b, c), _complete_gamma0(vec[0], pp * vec[1]))
            search = False
            continue
        if pp * c < a:
            a, b, c = pp * c, -b, a // pp
            search = True
            continue
        break
    if a % pp:
        raise ArithmeticError(f"optimized form {(a, b, c)} has p={pp} not dividing a")
    return (a, b, c)


def sl2_stabilizer(R: tuple[int, int, int]) -> list[tuple[int, int, int, int]]:
    """The stabilizer of the reduced form R = (a, b, c) in PSL_2(Z), as matrices
    (including the identity).

    Nontrivial exactly for multiples of x^2 + xy + y^2 (order 3) and of
    x^2 + y^2 (order 2); for reduced R those are [k, k, k] and [k, 0, k].
    """
    a, b, c = R
    if a == b == c:
        return [(1, 0, 0, 1), (0, 1, -1, -1), (-1, -1, 1, 0)]
    if a == c and b == 0:
        return [(1, 0, 0, 1), (0, -1, 1, 0)]
    return [(1, 0, 0, 1)]


def _canon_line(x: int, y: int, p: int) -> tuple[int, int]:
    """Canonical representative of the projective line (x : y) over F_p."""
    x %= p
    y %= p
    if y:
        inv = pow(y, p - 2, p)
        return ((x * inv) % p, 1)
    if x == 0:
        raise ValueError("(0, 0) is not a projective point")
    return (1, 0)


def _orbit_label(stab: list[tuple[int, int, int, int]], line: tuple[int, int],
                 p: int) -> tuple[tuple[int, int], int]:
    """(least line of the stab-orbit of line, omega = |stab| / |orbit|)."""
    x, y = line
    orbit = {_canon_line(m11 * x + m12 * y, m21 * x + m22 * y, p) for m11, m12, m21, m22 in stab}
    return min(orbit), len(stab) // len(orbit)


def root_lines(R: tuple[int, int, int], p: PrimeLevel) -> list[tuple[int, int]]:
    """All lines l in P^1(F_p) with R(l) = 0 mod p, for R = (a, b, c)."""
    pp, (a, b, c) = p.p, R
    out = [(t, 1) for t in range(pp) if (a * t * t + b * t + c) % pp == 0]
    if a % pp == 0:
        out.append((1, 0))
    return out


def _class_lines(p: PrimeLevel, d: int):
    """(reduced SL_2 rep, root line orbit, omega) for each Gamma_0(p)-class of
    Q_{d,p}: the root-line walk of `enumerate_classes`.

    A rep with a trivial stabilizer has one class per root line, and so has its
    mirror [a, -b, c], whose root lines are (-t : 1) and (1 : 0); only
    [k, k, k] and [k, 0, k] need the orbits of their stabilizer, each at its
    least line with omega = |stabilizer| / |orbit|.
    """
    pp = p.p
    for R in _reduced_triples(d):
        a, b, c = R
        lines = root_lines(R, p)
        if a == b == c or (a == c and b == 0):
            stab = sl2_stabilizer(R)
            for line, omega in dict.fromkeys(_orbit_label(stab, line, pp) for line in lines):
                yield R, line, omega
            continue
        for line in lines:
            yield R, line, 1
        if 0 < b < a < c:
            for x, y in lines:
                yield (a, -b, c), ((-x % pp, 1) if y else (1, 0)), 1


def class_count(p: PrimeLevel, d: int) -> int:
    """The number of Gamma_0(p)-classes of Q_{d,p}, len(enumerate_classes(p, d))
    for admissible d, from one walk over the reduced forms that builds no line
    and no class: a form with p | gcd(a, b, c) has p + 1 root lines and any
    other 1 + (-d/p), and a form with 0 < b < a < c counts twice, for its
    mirror.  Only [k, k, k] and [k, 0, k] count the orbits of their lines."""
    pp, n = p.p, 0
    plain = 1 + kronecker(-d, pp)
    for R in _reduced_triples(d):
        a, b, c = R
        if a == b == c or (a == c and b == 0):
            n += len({_orbit_label(sl2_stabilizer(R), line, pp) for line in root_lines(R, p)})
        else:
            lines = pp + 1 if a % pp == b % pp == c % pp == 0 else plain
            n += 2 * lines if 0 < b < a < c else lines
    return n


def _lift(R: tuple[int, int, int], line: tuple[int, int], pp: int) -> tuple[int, int, int]:
    """The form R o M with p | a that represents the Gamma_0(p)-class of a root
    line of R: M has determinant 1 and first column (x0, 1) or (1, 0), namely
    [[x0, x0 - 1], [1, 1]] for the line (x0 : 1), x0 != 0, [[0, -1], [1, 0]]
    for (0 : 1) and the identity for (1 : 0).  ValueError for a line that is
    not a root line."""
    x0, y0 = line
    M = (1, 0, 0, 1) if y0 == 0 else (x0, x0 - 1, 1, 1) if x0 else (0, -1, 1, 0)
    F = _act(R, M)
    if F[0] % pp:
        raise ValueError(f"{line} is not a root line of {R} mod p={pp}")
    return F


def brute_force_labels(
    p: PrimeLevel, d: int
) -> list[tuple[tuple[int, int, int], tuple[int, int], int, tuple[int, int, int]]]:
    """All labels (reduced SL_2 class, line orbit) of Q_{d,p}, by direct scan.

    Scans every form [a, b, c] with p | a up to an a-bound that provably sees
    one witness per label: completing a root-line column (x0, y0), x0 < p,
    y0 in {0, 1}, against the reduced representative [a0, b0, c0] yields
    a = a0 x0^2 + b0 x0 y0 + c0 y0^2 <= p^2 a0 + c0 <= p^2 sqrt(d/3) + (d+1)/4.
    The line label of a scanned form is the column (1, 0) pulled back through
    its reduction matrix, canonicalized within its stabilizer orbit.  Returns
    (SL_2 label, line label, omega, witness) tuples, one witness triple per
    label.  Used as the independent oracle for `enumerate_classes`.
    """
    if not is_admissible(d, p):
        raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={p.p}")
    pp = p.p
    amax = pp * pp * (math.isqrt(d // 3) + 1) + (d + 1) // 4
    roots = sqrt_classes(d, p)
    seen: dict[tuple, tuple[int, tuple[int, int, int]]] = {}
    for a in range(pp, amax + 1, pp):
        for b in range(-a + 1, a + 1):
            if b % (2 * pp) not in roots:
                continue
            num = b * b + d
            if num % (4 * a):
                continue
            form = (a, b, num // (4 * a))
            R, m = reduce_sl2(form)
            # form's distinguished column (1, 0), pulled back to the R-frame
            # through the inverse reduction matrix
            line, omega = _orbit_label(sl2_stabilizer(R), _canon_line(m[3], -m[2], pp), pp)
            seen.setdefault((R, line), (omega, form))
    return [
        (lab[0], lab[1], omega, form)
        for lab, (omega, form) in sorted(seen.items())
    ]


def enumerate_classes(p: PrimeLevel, d: int, method: str = "gkz") -> list[HeegnerClass]:
    """One HeegnerClass per Gamma_0(p)-class of Q_{d,p}, sorted by (beta, SL_2
    rep, line).

    method="gkz" lifts each root line of the walk to a form with p | a;
    method="brute" takes the witnesses of `brute_force_labels`, an independent
    cross-check.  Either form is height-optimized into the evaluation form,
    and beta is its b mod 2p before optimization.
    """
    if not is_admissible(d, p):
        raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={p.p}")
    pp = p.p
    if method == "gkz":
        labels = [(R, line, omega, _lift(R, line, pp)) for R, line, omega in _class_lines(p, d)]
    elif method == "brute":
        labels = brute_force_labels(p, d)
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    classes = [HeegnerClass(F[1] % (2 * pp), R, line, optimize_height(F, p), omega)
               for R, line, omega, F in labels]
    classes.sort()
    return classes
