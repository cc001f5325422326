"""Unit tests for quadratic forms, Heegner class enumeration, and heights."""

import math
import random

import pytest

from moduli_traces.arith import SUPPORTED_LEVELS, PrimeLevel, is_admissible, sqrt_classes
import oracles
from moduli_traces.qforms import (
    HeegnerClass,
    InadmissibleDiscriminant,
    NotPositiveDefinite,
    QuadForm,
    _complete_gamma0,
    _line_orbits,
    brute_force_labels,
    class_count,
    class_from_line,
    class_labels,
    class_reps,
    enumerate_classes,
    optimize_height,
    reduce_sl2,
    root_lines,
    sl2_stabilizer,
)

P2 = PrimeLevel(2)
P3 = PrimeLevel(3)


class TestQuadForm:
    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            QuadForm(1, 5, 1)
        with pytest.raises(NotPositiveDefinite):
            QuadForm(-1, 0, -1)

    def test_transform_preserves_disc(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.randint(1, 10)
            b = rng.randint(-10, 10)
            c = (b * b + rng.randint(1, 40) * 4) // (4 * a) + abs(b) + 1
            F = QuadForm(a, b, c)
            if F.disc >= 0:
                continue
            k = rng.randint(-3, 3)
            assert F.transform(1, k, 0, 1).disc == F.disc
            assert F.transform(0, -1, 1, 0).disc == F.disc

    def test_transform_requires_det_one(self):
        with pytest.raises(ValueError):
            QuadForm(1, 0, 1).transform(2, 0, 0, 1)


class TestReduceSL2:
    @pytest.mark.parametrize(
        "form,expect",
        [((2, 2, 1), (1, 0, 1)), ((1, 0, 1), (1, 0, 1)), ((6, -1, 1), (1, 1, 6))],
    )
    def test_examples(self, form, expect):
        R, _ = reduce_sl2(QuadForm(*form))
        assert R.as_tuple() == expect

    def test_matrix_witnesses_reduction(self):
        rng = random.Random(12)
        for _ in range(300):
            d = rng.choice([3, 4, 7, 8, 23, 47, 108])
            base = rng.choice(class_reps(d))
            k = rng.randint(-4, 4)
            F = base.transform(1, k, 0, 1).transform(0, -1, 1, 0)
            R, m = reduce_sl2(F)
            assert F.transform(*m) == R
            assert R.is_reduced()
            assert R.disc == F.disc

    def test_idempotent_on_class(self):
        # all reduced representatives reduce to themselves
        for d in (3, 4, 23, 40, 108):
            for rep in class_reps(d):
                R, m = reduce_sl2(rep)
                assert R == rep and m == (1, 0, 0, 1)


class TestClassReps:
    def test_examples(self):
        assert [f.as_tuple() for f in class_reps(4)] == [(1, 0, 1)]
        assert [f.as_tuple() for f in class_reps(3)] == [(1, 1, 1)]
        assert {f.as_tuple() for f in class_reps(23)} == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}

    def test_imprimitive_forms_included(self):
        assert QuadForm(2, 2, 2).as_tuple() in {f.as_tuple() for f in class_reps(12)}
        assert QuadForm(2, 0, 2).as_tuple() in {f.as_tuple() for f in class_reps(16)}

    def test_known_class_counts(self):
        # form class numbers h(-d), imprimitive classes included
        expected = {3: 1, 4: 1, 7: 1, 8: 1, 11: 1, 12: 2, 15: 2, 16: 2, 20: 2, 23: 3}
        for d, h in expected.items():
            assert len(class_reps(d)) == h, d

    def test_rejects_bad_residues(self):
        for d in (1, 2, 5, 6):
            with pytest.raises(InadmissibleDiscriminant):
                class_reps(d)

    def test_all_reduced_with_right_disc(self):
        for d in range(3, 120):
            if d % 4 not in (0, 3):
                continue
            for rep in class_reps(d):
                assert rep.is_reduced() and rep.disc == -d


class TestHeegnerLift:
    """The Heegner lift of a class: class_from_line on its SL_2 rep and root line."""

    def test_examples(self):
        assert class_from_line(QuadForm(1, 1, 6), (0, 1), P2).as_tuple() == (6, -1, 1)
        assert class_from_line(QuadForm(1, 0, 1), (1, 1), P2).as_tuple() == (2, 2, 1)

    def test_round_trip_to_sl2_class(self):
        # every class of every level and admissible d < 80, p | d included
        checked = 0
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 80):
                if not is_admissible(d, level):
                    continue
                for c in enumerate_classes(level, d):
                    F = class_from_line(c.sl2_rep, c.line, level)
                    assert F.a % p == 0, (p, d, c.label)
                    assert F.b % (2 * p) == c.beta, (p, d, c.label)
                    assert reduce_sl2(F)[0] == c.sl2_rep, (p, d, c.label)
                    checked += 1
        assert checked > 500

    def test_rejects_non_root_line(self):
        # x^2 + y^2 vanishes mod 2 only on the line (1 : 1)
        assert root_lines(QuadForm(1, 0, 1), P2) == [(1, 1)]
        for line in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError):
                class_from_line(QuadForm(1, 0, 1), line, P2)


class TestOptimizeHeight:
    def test_examples(self):
        assert optimize_height(QuadForm(6, -1, 1), P2).as_tuple() == (2, 1, 3)
        assert optimize_height(QuadForm(2, 2, 1), P2).as_tuple() == (2, 2, 1)

    def test_invariants_on_grid(self):
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 60):
                if not is_admissible(d, level):
                    continue
                for cl in enumerate_classes(level, d):
                    F = cl.eval_form
                    assert F.a % p == 0
                    assert F.disc == -d
                    assert -F.a < F.b <= F.a  # b normalized
                    # height floor: optimized a never exceeds p * sqrt(d/3)
                    # by much; assert the soft bound Im(alpha) >= sqrt(3)/(2p)
                    assert math.sqrt(d) / (2 * F.a) >= math.sqrt(3) / (2 * p) - 1e-12

    def test_beta_preserved_up_to_sign(self):
        # Gamma_0(p) moves fix b mod 2p; each Fricke flip negates it
        for p, d in ((2, 23), (3, 23), (5, 19), (7, 47), (13, 43)):
            level = PrimeLevel(p)
            for cl in enumerate_classes(level, d):
                b = cl.eval_form.b % (2 * p)
                assert b in {cl.beta, (2 * p - cl.beta) % (2 * p)}

    def test_requires_divisible_leading(self):
        with pytest.raises(ValueError):
            optimize_height(QuadForm(1, 0, 1), P2)

    def test_complete_gamma0_rejects_non_primitive_column(self):
        x, m12, py, m22 = _complete_gamma0(3, 4)
        assert (x, py) == (3, 4) and 3 * m22 - m12 * 4 == 1
        with pytest.raises(ValueError):
            _complete_gamma0(4, 6)

    @pytest.mark.parametrize("x,py", [(1, 0), (-1, 0), (3, -4), (-3, -4), (-5, 26), (1, -2)])
    def test_complete_gamma0_keeps_column_with_determinant_1(self, x, py):
        a, b, c, d = _complete_gamma0(x, py)
        assert (a, c) == (x, py) and a * d - b * c == 1


class TestStabilizersAndLines:
    def test_stabilizer_orders(self):
        assert len(sl2_stabilizer(QuadForm(1, 1, 1))) == 3
        assert len(sl2_stabilizer(QuadForm(2, 2, 2))) == 3
        assert len(sl2_stabilizer(QuadForm(1, 0, 1))) == 2
        assert len(sl2_stabilizer(QuadForm(3, 0, 3))) == 2
        assert len(sl2_stabilizer(QuadForm(1, 1, 6))) == 1

    def test_stabilizer_elements_fix_form(self):
        for form in (QuadForm(1, 1, 1), QuadForm(1, 0, 1), QuadForm(2, 2, 2)):
            for m in sl2_stabilizer(form):
                assert form.transform(*m) == form

    def test_root_lines(self):
        # p does not divide content: exactly two lines
        assert len(root_lines(QuadForm(1, 1, 6), P2)) == 2
        # p divides the content: all p + 1 lines are roots
        assert len(root_lines(QuadForm(2, 2, 14), P2)) == 3
        assert len(root_lines(QuadForm(3, 3, 3), P3)) == 4


class TestEnumerateClasses:
    def test_d4_single_symmetric_class(self):
        cls = enumerate_classes(P2, 4)
        assert len(cls) == 1
        c = cls[0]
        assert c.beta == 2 and c.sl2_rep.as_tuple() == (1, 0, 1) and c.omega == 2
        assert c.eval_form.as_tuple() == (2, 2, 1)

    def test_d3_level3_triple_stabilizer(self):
        cls = enumerate_classes(P3, 3)
        assert len(cls) == 1
        assert cls[0].omega == 3 and cls[0].sl2_rep.as_tuple() == (1, 1, 1)

    def test_d23_six_trivial_classes(self):
        cls = enumerate_classes(P2, 23)
        assert len(cls) == 6
        assert all(c.omega == 1 for c in cls)
        assert sorted(c.beta for c in cls) == [1, 1, 1, 3, 3, 3]

    def test_content_divisible_by_p_splits_lines(self):
        # [2,2,14] has 3 root lines mod 2, all in distinct Gamma_0(2)-classes
        cls = enumerate_classes(P2, 108)
        assert len(cls) == 8
        from_2214 = [c for c in cls if c.sl2_rep.as_tuple() == (2, 2, 14)]
        assert len(from_2214) == 3

    def test_nontrivial_omega_beyond_small_d(self):
        # the line fixed by the order-2 stabilizer of [2,0,2] has omega = 2
        cls = enumerate_classes(P2, 16)
        assert sorted((c.sl2_rep.as_tuple(), c.omega) for c in cls) == [
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
            keys = [(c.beta, c.sl2_rep.as_tuple(), c.line) for c in cls]
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
                assert len(class_labels(level, d)) == len(classes), (p, d)

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_class_count_is_the_number_of_labels(self, p):
        # d <= 300 includes reps with p | content and the stabilizer reps
        # [k, k, k] at d = 3k^2 and [k, 0, k] at d = 4k^2
        level = PrimeLevel(p)
        for d in range(1, 301):
            if not is_admissible(d, level):
                continue
            for method in ("gkz", "brute"):
                assert class_count(level, d) == len(class_labels(level, d, method)), (p, d, method)

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_line_orbits_match_the_full_orbit_computation(self, p):
        level = PrimeLevel(p)
        reps = {R for d in range(1, 301) if is_admissible(d, level) for R in class_reps(d)}
        assert {len(sl2_stabilizer(R)) for R in reps} == {1, 2, 3}
        # p | content needs d >= 3 p^2
        assert any(R.a % p == R.b % p == R.c % p == 0 for R in reps) == (3 * p * p <= 300)
        for R in reps:
            assert _line_orbits(R, level) == oracles.line_orbits(R, level), (p, R)

    def test_class_labels_are_the_unoptimized_classes(self):
        for method in ("gkz", "brute"):
            labels = sorted(
                (form.b % 4, rep.as_tuple(), line, omega)
                for rep, line, omega, form in class_labels(P2, 108, method)
            )
            classes = [(c.beta, c.sl2_rep.as_tuple(), c.line, c.omega)
                       for c in enumerate_classes(P2, 108, method)]
            assert labels == classes
        with pytest.raises(InadmissibleDiscriminant):
            class_labels(P2, 5)


class TestBruteForceOracle:
    def test_d23_label_set_matches(self):
        gkz = {c.label + (c.omega,) for c in enumerate_classes(P2, 23)}
        brute = {(rep, line, omega) for rep, line, omega, _ in brute_force_labels(P2, 23)}
        assert gkz == brute

    def test_level3_d3_beta(self):
        labels = brute_force_labels(P3, 3)
        assert len(labels) == 1
        assert all(w.b % 6 == 3 for *_, w in labels)

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
