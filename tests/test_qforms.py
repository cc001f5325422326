"""Unit tests for quadratic forms, Heegner class enumeration, and heights."""

import hashlib
import math
import random

import pytest

from moduli_traces.arith import SUPPORTED_LEVELS, PrimeLevel, is_admissible, sqrt_classes
import oracles
from moduli_traces.qforms import (
    MAX_DISC,
    HeegnerClass,
    InadmissibleDiscriminant,
    NotPositiveDefinite,
    _act,
    _class_lines,
    _complete_gamma0,
    _least_admissible_vector,
    _lift,
    _reduced_triples,
    brute_force_labels,
    class_count,
    class_reps,
    enumerate_classes,
    optimize_height,
    reduce_sl2,
    root_lines,
    sl2_stabilizer,
)
from moduli_traces.traces import trace

P2 = PrimeLevel(2)
P3 = PrimeLevel(3)

# sha256 over repr((p, d, beta, sl2_rep, line, eval_form, omega)) of every
# class record, for d <= 300 at each supported level in order
RECORDS_SHA256 = "485a9458079cfd9d0a45932e77b2b42abea835d8bcaee3b626f84a9c05a24245"


def disc(F):
    a, b, c = F
    return b * b - 4 * a * c


class TestAct:
    def test_transform_preserves_disc(self):
        # _act against the reference transform, for random determinant-1
        # matrices and forms of either sign
        rng = random.Random(11)
        for _ in range(200):
            F = (rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10))
            x, py = rng.randint(-20, 20), rng.randint(-20, 20)
            if math.gcd(x, py) != 1:
                continue
            M = _complete_gamma0(x, py)
            assert _act(F, M) == oracles.transform(F, M)
            assert disc(_act(F, M)) == disc(F)


class TestReduceSL2:
    @pytest.mark.parametrize(
        "form,expect",
        [((2, 2, 1), (1, 0, 1)), ((1, 0, 1), (1, 0, 1)), ((6, -1, 1), (1, 1, 6))],
    )
    def test_examples(self, form, expect):
        R, _ = reduce_sl2(form)
        assert R == expect

    @pytest.mark.parametrize("form", [(1, 5, 1), (-1, 0, -1), (0, 1, 3), (0, 0, 1), (1, 2, 1)])
    def test_rejects_indefinite(self, form):
        # an indefinite form, a negative definite one, a = 0 and a zero
        # discriminant are all refused
        with pytest.raises(NotPositiveDefinite):
            reduce_sl2(form)

    def test_matrix_witnesses_reduction(self):
        rng = random.Random(12)
        for _ in range(300):
            d = rng.choice([3, 4, 7, 8, 23, 47, 108])
            base = rng.choice(class_reps(d))
            k = rng.randint(-4, 4)
            F = oracles.transform(oracles.transform(base, (1, k, 0, 1)), (0, -1, 1, 0))
            R, m = reduce_sl2(F)
            assert oracles.transform(F, m) == R
            assert m[0] * m[3] - m[1] * m[2] == 1
            assert oracles.is_reduced(R)
            assert disc(R) == disc(F)

    def test_idempotent_on_class(self):
        # all reduced representatives reduce to themselves
        for d in (3, 4, 23, 40, 108):
            for rep in class_reps(d):
                R, m = reduce_sl2(rep)
                assert R == rep and m == (1, 0, 0, 1)


class TestClassReps:
    def test_examples(self):
        assert class_reps(4) == [(1, 0, 1)]
        assert class_reps(3) == [(1, 1, 1)]
        assert class_reps(23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]

    def test_imprimitive_forms_included(self):
        assert (2, 2, 2) in class_reps(12)
        assert (2, 0, 2) in class_reps(16)

    def test_known_class_counts(self):
        # form class numbers h(-d), imprimitive classes included
        expected = {3: 1, 4: 1, 7: 1, 8: 1, 11: 1, 12: 2, 15: 2, 16: 2, 20: 2, 23: 3}
        for d, h in expected.items():
            assert len(class_reps(d)) == h, d

    def test_rejects_bad_residues(self):
        for d in (1, 2, 5, 6):
            with pytest.raises(InadmissibleDiscriminant):
                class_reps(d)

    def test_discriminant_bound(self):
        # d = MAX_DISC + 7 is admissible at p=2; nothing past the bound is enumerated
        big = MAX_DISC + 7
        assert is_admissible(big, P2)
        for call in (lambda: class_count(P2, big), lambda: enumerate_classes(P2, big),
                     lambda: trace(P2, 1, big)):
            with pytest.raises(ValueError, match=f"d={big} is above the supported bound {MAX_DISC}"):
                call()
        assert next(_reduced_triples(MAX_DISC)) == (1, 0, MAX_DISC // 4)

    def test_all_reduced_with_right_disc(self):
        for d in range(3, 120):
            if d % 4 not in (0, 3):
                continue
            for rep in class_reps(d):
                assert oracles.is_reduced(rep) and disc(rep) == -d


class TestHeegnerLift:
    """The Heegner lift of a class: _lift on its SL_2 rep and root line."""

    def test_examples(self):
        assert _lift((1, 1, 6), (0, 1), 2) == (6, -1, 1)
        assert _lift((1, 0, 1), (1, 1), 2) == (2, 2, 1)
        assert _lift((2, 1, 3), (1, 0), 2) == (2, 1, 3)

    def test_lift_is_the_matrix_transform(self):
        # _lift equals R o M, by the reference transform, for its completing matrix M
        for R in ((1, 1, 6), (2, -1, 3), (3, 2, 7), (5, 4, 9)):
            for x0 in range(1, 14):
                F = oracles.transform(R, (x0, x0 - 1, 1, 1))
                assert _lift(R, (x0, 1), 1) == F
            assert _lift(R, (0, 1), 1) == oracles.transform(R, (0, -1, 1, 0))
            assert _lift(R, (1, 0), 1) == R

    def test_round_trip_to_sl2_class(self):
        # every class of every level and admissible d < 80, p | d included
        checked = 0
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 80):
                if not is_admissible(d, level):
                    continue
                for c in enumerate_classes(level, d):
                    F = _lift(c.sl2_rep, c.line, p)
                    assert F[0] % p == 0, (p, d, c.label)
                    assert F[1] % (2 * p) == c.beta, (p, d, c.label)
                    R, m = reduce_sl2(F)
                    assert R == c.sl2_rep and oracles.transform(F, m) == R, (p, d, c.label)
                    checked += 1
        assert checked > 500

    def test_rejects_non_root_line(self):
        # x^2 + y^2 vanishes mod 2 only on the line (1 : 1)
        assert root_lines((1, 0, 1), P2) == [(1, 1)]
        for line in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="not a root line"):
                _lift((1, 0, 1), line, 2)


class TestOptimizeHeight:
    def test_examples(self):
        assert optimize_height((6, -1, 1), P2) == (2, 1, 3)
        assert optimize_height((2, 2, 1), P2) == (2, 2, 1)

    def test_fricke_flip_only_when_it_pays_at_once(self):
        # The beta=11 class of (1, 1, 9) at p=13, d=35 keeps a = 39: p c >= a
        # there, so no flip is taken, although the other classes of d = 35
        # reach a = 13.  The Gamma_0(13)* minimum is not sought (ROADMAP item 3).
        cls = enumerate_classes(PrimeLevel(13), 35)
        (c,) = [c for c in cls if c.beta == 11 and c.sl2_rep == (1, 1, 9)]
        assert c.eval_form == (39, 37, 9)
        assert {cl.eval_form[0] for cl in cls if cl is not c} == {13}

    def test_invariants_on_grid(self):
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 60):
                if not is_admissible(d, level):
                    continue
                for cl in enumerate_classes(level, d):
                    a, b, c = cl.eval_form
                    assert a % p == 0
                    assert disc(cl.eval_form) == -d
                    assert -a < b <= a  # b normalized
                    # height floor: optimized a never exceeds p * sqrt(d/3)
                    # by much; assert the soft bound Im(alpha) >= sqrt(3)/(2p)
                    assert math.sqrt(d) / (2 * a) >= math.sqrt(3) / (2 * p) - 1e-12

    def test_beta_preserved_up_to_sign(self):
        # Gamma_0(p) moves fix b mod 2p; each Fricke flip negates it
        for p, d in ((2, 23), (3, 23), (5, 19), (7, 47), (13, 43)):
            level = PrimeLevel(p)
            for cl in enumerate_classes(level, d):
                b = cl.eval_form[1] % (2 * p)
                assert b in {cl.beta, (2 * p - cl.beta) % (2 * p)}

    def test_requires_divisible_leading(self):
        with pytest.raises(ValueError):
            optimize_height((1, 0, 1), P2)

    def test_complete_gamma0_rejects_non_primitive_column(self):
        x, m12, py, m22 = _complete_gamma0(3, 4)
        assert (x, py) == (3, 4) and 3 * m22 - m12 * 4 == 1
        with pytest.raises(ValueError):
            _complete_gamma0(4, 6)

    @pytest.mark.parametrize("x,py", [(1, 0), (-1, 0), (3, -4), (-3, -4), (-5, 26), (1, -2)])
    def test_complete_gamma0_keeps_column_with_determinant_1(self, x, py):
        a, b, c, d = _complete_gamma0(x, py)
        assert (a, c) == (x, py) and a * d - b * c == 1


def box_scan_height(F, p):
    """optimize_height as it was with the box scan: a search at every form it
    visits, after a move too, where the reduction-based search must agree."""
    a, b, c = F
    while True:
        k = (a - b) // (2 * a)
        b, c = b + 2 * a * k, c + b * k + a * k * k
        vec = oracles.short_vector_improvement(a, b, c, p)
        assert _least_admissible_vector(a, b, c, p) == vec, (F, (a, b, c), p)
        if vec is not None:
            a, b, c = _act((a, b, c), _complete_gamma0(vec[0], p * vec[1]))
        elif p * c < a:
            a, b, c = p * c, -b, a // p
        else:
            return (a, b, c)


class TestHeightSearch:
    # the Gauss-reduction search of optimize_height against the box scan

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_matches_the_box_scan_on_every_form_visited(self, p):
        level = PrimeLevel(p)
        for d in range(1, 1001):
            if is_admissible(d, level):
                for R, line, _ in _class_lines(level, d):
                    F = _lift(R, line, p)
                    assert optimize_height(F, level) == box_scan_height(F, p), (p, d, F)

    @pytest.mark.parametrize("p, F, shape, vec", [
        # reduced G = [A, 0, A]: four minimal vectors
        (2, (10, -6, 1), "square", (-1, -2)),
        (3, (18, 18, 5), "square", (1, -1)),
        (5, (10, 6, 1), "square", (1, -1)),
        (13, (26, 10, 1), "square", (2, -1)),
        # reduced G = [A, A, A]: four or six minimal vectors
        (2, (12, 6, 1), "hexagonal", (1, -2)),
        (3, (21, -9, 1), "hexagonal", (-2, -3)),
        (5, (75, -45, 7), "hexagonal", (-3, -2)),
        (7, (21, 9, 1), "hexagonal", (3, -2)),
        (13, (39, -33, 7), "hexagonal", (-11, -2)),
    ])
    def test_ties_take_the_first_vector_in_y_x_order(self, p, F, shape, vec):
        a, b, c = F
        (A, B, C), _ = reduce_sl2((a, b * p, c * p * p))
        assert (A == C and B == 0) if shape == "square" else (B == A == C)
        g = lambda x, y: a * x * x + b * x * p * y + c * p * p * y * y
        least = g(*vec)
        ties = [(x, y) for y in range(-9, 10) for x in range(-30, 31)
                if math.gcd(x, p * y) == 1 and g(x, y) == least]
        assert len(ties) >= 4 and ties[0] == vec
        assert _least_admissible_vector(a, b, c, p) == vec
        assert oracles.short_vector_improvement(a, b, c, p) == vec

    def test_matches_the_box_scan_on_small_forms(self):
        # every positive definite [a, b, c] with p | a <= 60, -a < b <= a, c <= 40
        for p in SUPPORTED_LEVELS:
            for a in range(p, 61, p):
                for b in range(1 - a, a + 1):
                    for c in range(b * b // (4 * a) + 1, 41):
                        assert (_least_admissible_vector(a, b, c, p)
                                == oracles.short_vector_improvement(a, b, c, p)), (p, a, b, c)


class TestStabilizersAndLines:
    def test_stabilizer_orders(self):
        assert len(sl2_stabilizer((1, 1, 1))) == 3
        assert len(sl2_stabilizer((2, 2, 2))) == 3
        assert len(sl2_stabilizer((1, 0, 1))) == 2
        assert len(sl2_stabilizer((3, 0, 3))) == 2
        assert len(sl2_stabilizer((1, 1, 6))) == 1

    def test_stabilizer_elements_fix_form(self):
        for form in ((1, 1, 1), (1, 0, 1), (2, 2, 2)):
            for m in sl2_stabilizer(form):
                assert oracles.transform(form, m) == form

    def test_root_lines(self):
        # p does not divide content: exactly two lines
        assert len(root_lines((1, 1, 6), P2)) == 2
        # p divides the content: all p + 1 lines are roots
        assert len(root_lines((2, 2, 14), P2)) == 3
        assert len(root_lines((3, 3, 3), P3)) == 4


class TestEnumerateClasses:
    def test_d4_single_symmetric_class(self):
        cls = enumerate_classes(P2, 4)
        assert len(cls) == 1
        c = cls[0]
        assert c == HeegnerClass(beta=2, sl2_rep=(1, 0, 1), line=(1, 1),
                                 eval_form=(2, 2, 1), omega=2)
        assert c.label == ((1, 0, 1), (1, 1))

    def test_d3_level3_triple_stabilizer(self):
        cls = enumerate_classes(P3, 3)
        assert len(cls) == 1
        assert cls[0].omega == 3 and cls[0].sl2_rep == (1, 1, 1)

    def test_d23_six_trivial_classes(self):
        cls = enumerate_classes(P2, 23)
        assert len(cls) == 6
        assert all(c.omega == 1 for c in cls)
        assert sorted(c.beta for c in cls) == [1, 1, 1, 3, 3, 3]

    def test_content_divisible_by_p_splits_lines(self):
        # [2,2,14] has 3 root lines mod 2, all in distinct Gamma_0(2)-classes
        cls = enumerate_classes(P2, 108)
        assert len(cls) == 8
        from_2214 = [c for c in cls if c.sl2_rep == (2, 2, 14)]
        assert len(from_2214) == 3

    def test_nontrivial_omega_beyond_small_d(self):
        # the line fixed by the order-2 stabilizer of [2,0,2] has omega = 2
        cls = enumerate_classes(P2, 16)
        assert sorted((c.sl2_rep, c.omega) for c in cls) == [
            ((1, 0, 4), 1),
            ((2, 0, 2), 1),
            ((2, 0, 2), 2),
        ]
        # and the order-3 stabilizer of [2,2,2] survives at d = 12, p = 3
        cls12 = enumerate_classes(P3, 12)
        assert sorted(c.omega for c in cls12) == [1, 3]

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleDiscriminant):
            enumerate_classes(P2, 5)
        with pytest.raises(ValueError):
            enumerate_classes(P2, 4, method="magic")

    def test_sorted_canonically(self):
        for d in (23, 108, 16):
            cls = enumerate_classes(P2, d)
            keys = [(c.beta, c.sl2_rep, c.line) for c in cls]
            assert keys == sorted(keys)

    def test_counts_from_arithmetic(self):
        # trace-table's two counts: every beta with beta^2 = -d mod 4p labels
        # the class [p, beta, (beta^2 + d)/4p], and there is one label per class
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 301):
                if not is_admissible(d, level):
                    continue
                classes = enumerate_classes(level, d)
                assert len(sqrt_classes(d, level)) == len({c.beta for c in classes}), (p, d)
                assert len({c.label for c in classes}) == len(classes), (p, d)

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_class_count_is_the_number_of_labels(self, p):
        # d <= 300 includes reps with p | content and the stabilizer reps
        # [k, k, k] at d = 3k^2 and [k, 0, k] at d = 4k^2
        level = PrimeLevel(p)
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            for method in ("gkz", "brute"):
                n = len(enumerate_classes(level, d, method))
                assert class_count(level, d) == n, (p, d, method)

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_class_count_from_arithmetic_to_3000(self, p):
        # p + 1 root lines when p | content, 1 + (-d/p) otherwise, doubled for
        # a mirrored form: d <= 3000 reaches content p^2 and both stabilizer shapes
        level = PrimeLevel(p)
        for d in range(1, 3001):
            if is_admissible(d, level):
                assert class_count(level, d) == len(enumerate_classes(level, d)), (p, d)

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_line_orbits_match_the_full_orbit_computation(self, p):
        # the root-line walk, with its mirror and trivial-stabilizer shortcuts,
        # against the stabilizer orbits of every reduced form's root lines
        level = PrimeLevel(p)
        reps = set()
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            reps_d = class_reps(d)
            full = sorted((R, line, omega) for R in reps_d
                          for line, omega in oracles.line_orbits(R, level))
            assert sorted(_class_lines(level, d)) == full, (p, d)
            reps.update(reps_d)
        assert {len(sl2_stabilizer(R)) for R in reps} == {1, 2, 3}
        # p | content needs d >= 3 p^2
        assert any(a % p == b % p == c % p == 0 for a, b, c in reps) == (3 * p * p <= 300)

    def test_class_labels_are_the_unoptimized_classes(self):
        # beta is b mod 2p of the lifted (gkz) or witness (brute) form, which
        # both reduce to the class's SL_2 rep
        lifted = [(R, line, omega, _lift(R, line, 2)) for R, line, omega in _class_lines(P2, 108)]
        for method, forms in (("gkz", lifted), ("brute", brute_force_labels(P2, 108))):
            labels = sorted((form[1] % 4, rep, line, omega) for rep, line, omega, form in forms)
            classes = [(c.beta, c.sl2_rep, c.line, c.omega)
                       for c in enumerate_classes(P2, 108, method)]
            assert labels == classes
        with pytest.raises(InadmissibleDiscriminant):
            enumerate_classes(P2, 5, method="brute")

    def test_records_are_pinned(self):
        # every record of every admissible d <= 300 at the five levels, as the
        # dataclass enumeration produced them before the int-tuple kernel: the
        # evaluation forms fix each trace's planned bits and terms and the
        # `classes` output
        digest = hashlib.sha256()
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 301):
                if is_admissible(d, level):
                    for c in enumerate_classes(level, d):
                        digest.update(repr((p, d) + tuple(c)).encode())
        assert digest.hexdigest() == RECORDS_SHA256


class TestBruteForceOracle:
    def test_d23_label_set_matches(self):
        gkz = {c.label + (c.omega,) for c in enumerate_classes(P2, 23)}
        brute = {(rep, line, omega) for rep, line, omega, _ in brute_force_labels(P2, 23)}
        assert gkz == brute

    def test_level3_d3_beta(self):
        labels = brute_force_labels(P3, 3)
        assert len(labels) == 1
        assert all(w[1] % 6 == 3 for *_, w in labels)

    def test_no_duplicate_labels(self):
        for p, d in ((2, 108), (3, 36), (5, 100)):
            labels = brute_force_labels(PrimeLevel(p), d)
            keys = [(rep, line) for rep, line, *_ in labels]
            assert len(keys) == len(set(keys))

    def test_oracle_equivalence_spot_grid(self):
        # the full d <= 200 sweep lives in the acceptance suite
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 60):
                if not is_admissible(d, level):
                    continue
                gkz = {c.label + (c.omega,) for c in enumerate_classes(level, d)}
                brute = {
                    (rep, line, omega)
                    for rep, line, omega, _ in brute_force_labels(level, d)
                }
                assert gkz == brute, (p, d)

    def test_brute_method_agrees_fully(self):
        for d in (16, 23, 108):
            a = enumerate_classes(P2, d, method="gkz")
            b = enumerate_classes(P2, d, method="brute")
            assert [(c.label, c.omega, c.eval_form) for c in a] == [
                (c.label, c.omega, c.eval_form) for c in b
            ]
