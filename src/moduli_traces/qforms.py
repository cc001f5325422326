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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import PrimeLevel, sqrt_classes, is_admissible


class NotPositiveDefinite(ValueError):
    pass


class InadmissibleDiscriminant(ValueError):
    pass


@dataclass(frozen=True)
class QuadForm:
    """Positive definite integral binary form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.disc >= 0:
            raise NotPositiveDefinite(f"[{self.a},{self.b},{self.c}] is not positive definite")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, m11: int, m12: int, m21: int, m22: int) -> "QuadForm":
        """Right action by the unimodular matrix [[m11, m12], [m21, m22]]."""
        if m11 * m22 - m12 * m21 != 1:
            raise ValueError("transformation matrix must have determinant 1")
        a2 = self.value(m11, m21)
        c2 = self.value(m12, m22)
        b2 = 2 * self.a * m11 * m12 + self.b * (m11 * m22 + m12 * m21) + 2 * self.c * m21 * m22
        return QuadForm(a2, b2, c2)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class HeegnerClass:
    """One Gamma_0(p)-class of Q_{d,p}: label plus an optimized evaluation form.

    `line` is the canonical representative of the stabilizer orbit of root
    lines attached to the class (in the frame of the reduced SL_2
    representative); `omega` is the stabilizer order of that line, i.e. the
    number of stabilizers of the class in +-Gamma_0(p)/+-1.
    """

    p: PrimeLevel
    d: int
    beta: int
    sl2_rep: QuadForm
    line: tuple[int, int]
    eval_form: QuadForm
    omega: int

    @property
    def label(self) -> tuple[tuple[int, int, int], tuple[int, int]]:
        return (self.sl2_rep.as_tuple(), self.line)


def reduce_sl2(Q: QuadForm) -> tuple[QuadForm, tuple[int, int, int, int]]:
    """Gauss reduction: the unique reduced SL_2-representative and the matrix M
    with Q o M = reduced."""
    a, b, c = Q.a, Q.b, Q.c
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
        break
    R = QuadForm(a, b, c)
    if Q.transform(m11, m12, m21, m22) != R or not R.is_reduced():
        raise ArithmeticError(
            f"reduction of {Q.as_tuple()} produced {R.as_tuple()} with matrix "
            f"{(m11, m12, m21, m22)}, which is not a reduced equivalent form"
        )
    return R, (m11, m12, m21, m22)


def class_reps(d: int) -> list[QuadForm]:
    """All reduced forms of discriminant -d (imprimitive forms included)."""
    if d % 4 not in (0, 3):
        raise InadmissibleDiscriminant(f"-{d} is not 0 or 1 mod 4")
    reps = []
    bmax = math.isqrt(d // 3)
    for b in range(d % 2, bmax + 1, 2):
        m4 = b * b + d
        if m4 % 4:
            continue
        m = m4 // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                reps.append(QuadForm(a, b, c))
                if 0 < b < a < c:
                    reps.append(QuadForm(a, -b, c))
            a += 1
    reps.sort(key=QuadForm.as_tuple)
    return reps


def _short_vector_improvement(F: QuadForm, p: int) -> tuple[int, int] | None:
    """A vector (x, p*y), gcd(x, p*y) = 1, with F(x, p*y) < F.a, if one exists.

    Enumerates the auxiliary positive definite form G(x, y) = F(x, p*y)
    inside the exact box |y| <= sqrt(4 A m / disc'), returning the minimum.
    """
    a, b, c = F.a, F.b, F.c
    A, B, C = a, b * p, c * p * p
    m = a  # strict improvement threshold
    det4 = 4 * A * C - B * B  # = p^2 * d > 0
    best = None
    best_val = m
    ymax = math.isqrt(4 * A * (m - 1) // det4) if det4 <= 4 * A * (m - 1) else 0
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


def _complete_gamma0(x: int, py: int) -> tuple[int, int, int, int]:
    """Complete the primitive column (x, py) to a determinant-1 matrix."""
    g = math.gcd(x, py)
    if g != 1:
        raise ValueError(f"column ({x}, {py}) is not primitive: gcd is {g}")
    if py == 0:  # then x = +-1
        return (x, 0, 0, x)
    w = pow(x, -1, py)
    return (x, (x * w - 1) // py, py, w)


def optimize_height(F: QuadForm, p: PrimeLevel) -> QuadForm:
    """Minimize the leading coefficient within the Gamma_0(p)*-orbit of F.

    Alternates short-vector improvements (Gamma_0(p) moves) with the Fricke
    flip [a, b, c] -> [p c, -b, a/p] while either strictly decreases a, then
    normalizes b into (-a, a].  Terminates: a strictly decreases through
    positive integers.
    """
    pp = p.p
    if F.a % pp:
        raise ValueError("optimize_height needs p | a")

    def normalize_b(G: QuadForm) -> QuadForm:
        # translate b into (-a, a] (translations stay in Gamma_0(p))
        k = (G.a - G.b) // (2 * G.a)
        return G.transform(1, k, 0, 1) if k else G

    while True:
        F = normalize_b(F)
        vec = _short_vector_improvement(F, pp)
        if vec is not None:
            x, y = vec
            F = F.transform(*_complete_gamma0(x, pp * y))
            continue
        if pp * F.c < F.a:
            F = QuadForm(pp * F.c, -F.b, F.a // pp)
            continue
        break
    if F.a % pp:
        raise ArithmeticError(f"optimized form {F.as_tuple()} has p={pp} not dividing a")
    return F


def sl2_stabilizer(R: QuadForm) -> list[tuple[int, int, int, int]]:
    """The stabilizer of R in PSL_2(Z), as matrices (including the identity).

    Nontrivial exactly for multiples of x^2 + xy + y^2 (order 3) and of
    x^2 + y^2 (order 2); for reduced R those are [k, k, k] and [k, 0, k].
    """
    a, b, c = R.a, R.b, R.c
    if a == b == c:
        u = (0, 1, -1, -1)
        u2 = (-1, -1, 1, 0)
        return [(1, 0, 0, 1), u, u2]
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


def _act_line(m: tuple[int, int, int, int], line: tuple[int, int], p: int) -> tuple[int, int]:
    m11, m12, m21, m22 = m
    x, y = line
    return _canon_line(m11 * x + m12 * y, m21 * x + m22 * y, p)


def root_lines(R: QuadForm, p: PrimeLevel) -> list[tuple[int, int]]:
    """All lines l in P^1(F_p) with R(l) = 0 mod p."""
    pp, a, b, c = p.p, R.a, R.b, R.c
    out = [(t, 1) for t in range(pp) if (a * t * t + b * t + c) % pp == 0]
    if a % pp == 0:
        out.append((1, 0))
    return out


def _line_orbits(R: QuadForm, p: PrimeLevel) -> list[tuple[tuple[int, int], int]]:
    """Orbits of the SL_2-stabilizer of R on its root lines.

    Returns (canonical orbit representative, omega) pairs, where omega is
    the order of the line stabilizer = |Stab(R)| / |orbit|.
    """
    stab = sl2_stabilizer(R)
    lines = root_lines(R, p)
    if len(stab) == 1:  # root_lines are canonical, so each is its own orbit
        return [(line, 1) for line in lines]
    seen: set[tuple[int, int]] = set()
    orbits = []
    for line in lines:
        if line in seen:
            continue
        orbit = {_act_line(m, line, p.p) for m in stab}
        seen |= orbit
        orbits.append((min(orbit), len(stab) // len(orbit)))
    return orbits


def class_count(p: PrimeLevel, d: int) -> int:
    """len(class_labels(p, d)) for admissible d, without building the class forms."""
    return sum(len(_line_orbits(R, p)) for R in class_reps(d))


def _complete_line(line: tuple[int, int]) -> tuple[int, int, int, int]:
    """A determinant-1 matrix whose first column reduces to the line mod p."""
    x0, y0 = line
    if y0 == 0:
        return (1, 0, 0, 1)
    return (x0, x0 - 1, y0, y0) if x0 else (0, -1, 1, 0)


def class_from_line(
    R: QuadForm, line: tuple[int, int], p: PrimeLevel
) -> QuadForm:
    """The form R o M, p | a, representing the Gamma_0(p)-class of the line."""
    F = R.transform(*_complete_line(line))
    if F.a % p.p:
        raise ValueError(f"{line} is not a root line of {R.as_tuple()} mod p={p.p}")
    return F


def brute_force_labels(
    p: PrimeLevel, d: int
) -> list[tuple[tuple[int, int, int], tuple[int, int], int, QuadForm]]:
    """All labels (reduced SL_2 class, line orbit) of Q_{d,p}, by direct scan.

    Scans every form [a, b, c] with p | a up to an a-bound that provably sees
    one witness per label: completing a root-line column (x0, y0), x0 < p,
    y0 in {0, 1}, against the reduced representative [a0, b0, c0] yields
    a = a0 x0^2 + b0 x0 y0 + c0 y0^2 <= p^2 a0 + c0 <= p^2 sqrt(d/3) + (d+1)/4.
    The line label of a scanned form is the column (1, 0) pulled back through
    its reduction matrix, canonicalized within its stabilizer orbit.  Returns
    (SL_2 label, line label, omega, witness) tuples, one witness per label.
    Used as the independent oracle for `enumerate_classes`.
    """
    if not is_admissible(d, p):
        raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={p.p}")
    pp = p.p
    amax = pp * pp * (math.isqrt(d // 3) + 1) + (d + 1) // 4
    roots = sqrt_classes(d, p)
    seen: dict[tuple, tuple[int, QuadForm]] = {}
    for a in range(pp, amax + 1, pp):
        for b in range(-a + 1, a + 1):
            if b % (2 * pp) not in roots:
                continue
            num = b * b + d
            if num % (4 * a):
                continue
            form = QuadForm(a, b, num // (4 * a))
            R, m = reduce_sl2(form)
            # form's distinguished column (1, 0), pulled back to the R-frame
            # through the inverse reduction matrix
            line = _canon_line(m[3], -m[2], pp)
            stab = sl2_stabilizer(R)
            orbit = {_act_line(s, line, pp) for s in stab}
            label = (R.as_tuple(), min(orbit))
            if label not in seen:
                seen[label] = (len(stab) // len(orbit), form)
    return [
        (lab[0], lab[1], omega, form)
        for lab, (omega, form) in sorted(seen.items())
    ]


def class_labels(p: PrimeLevel, d: int, method: str = "gkz") -> list[tuple]:
    """One (SL_2 rep, line, omega, form with p | a) per Gamma_0(p)-class of Q_{d,p}.

    method="gkz" constructs labels from reduced SL_2 representatives and
    their root-line orbits; method="brute" scans forms directly and partitions
    them by the same invariant, serving as an independent cross-check.
    """
    if not is_admissible(d, p):
        raise InadmissibleDiscriminant(f"d={d} is inadmissible for p={p.p}")
    if method == "gkz":
        return [
            (rep, line, omega, class_from_line(rep, line, p))
            for rep in class_reps(d)
            for line, omega in _line_orbits(rep, p)
        ]
    if method == "brute":
        return [
            (QuadForm(*rep_t), line, omega, form)
            for rep_t, line, omega, form in brute_force_labels(p, d)
        ]
    raise ValueError(f"unknown enumeration method {method!r}")


def enumerate_classes(p: PrimeLevel, d: int, method: str = "gkz") -> list[HeegnerClass]:
    """One HeegnerClass per Gamma_0(p)-class of Q_{d,p}: class_labels with
    height-optimized evaluation forms, sorted by (beta, SL_2 rep, line)."""
    classes = [
        HeegnerClass(
            p=p,
            d=d,
            beta=form.b % (2 * p.p),
            sl2_rep=rep,
            line=line,
            eval_form=optimize_height(form, p),
            omega=omega,
        )
        for rep, line, omega, form in class_labels(p, d, method)
    ]
    classes.sort(key=lambda h: (h.beta, h.sl2_rep.as_tuple(), h.line))
    return classes
