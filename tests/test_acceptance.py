"""Acceptance suite: the seven end-to-end criteria, one test each.

Each test prints a single CRITERION n: PASS line on success; a failure
surfaces as an ordinary assertion error (and the line is not printed).
"""

import time

from moduli_traces.arith import PrimeLevel, SUPPORTED_LEVELS, is_admissible, splits
from moduli_traces.cm_eval import PrecisionContext
from moduli_traces.hauptmodul import build_hauptmodul
from moduli_traces.qforms import brute_force_labels, enumerate_classes
from moduli_traces.traces import (
    CoeffTable,
    HypothesisViolation,
    hecke_apply,
    plus_condition,
    trace,
    verify_coeff_identities,
    verify_congruence,
    verify_recurrence,
)


def test_criterion_1_hauptmodul_self_consistency():
    start = time.monotonic()
    for p in SUPPORTED_LEVELS:
        level = PrimeLevel(p)
        small = build_hauptmodul(level, 256)
        big = build_hauptmodul(level, 512)
        assert small.series == big.series.truncate(small.order), p
        assert small.series.coeff(-1) == 1 and small.series.coeff(0) == 0, p
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    print(f"CRITERION 1: PASS - Hauptmodul windows 256/512 agree, normalized, "
          f"all 5 levels ({elapsed:.1f}s)")


def test_criterion_2_class_enumeration_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for p in SUPPORTED_LEVELS:
        level = PrimeLevel(p)
        for d in range(1, 201):
            if not is_admissible(d, level):
                continue
            gkz = {(c.sl2_rep, c.line, c.omega)
                   for c in enumerate_classes(level, d, method="gkz")}
            brute = {(rep, line, omega)
                     for rep, line, omega, _ in brute_force_labels(level, d)}
            assert gkz == brute, (p, d)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    print(f"CRITERION 2: PASS - GKZ and brute-force label sets equal on "
          f"{checked} (p, d) pairs, d <= 200 ({elapsed:.1f}s)")


def test_criterion_3_integrality_and_stability():
    start = time.monotonic()
    checked = 0
    for p in SUPPORTED_LEVELS:
        level = PrimeLevel(p)
        for d in range(1, 101):
            if not is_admissible(d, level):
                continue
            for D in (1, 4):
                rec = trace(level, D, d)
                assert rec.residual < 1e-6, (p, D, d, rec.residual)
                doubled = trace(level, D, d,
                                ctx0=PrecisionContext(bits=2 * rec.bits, terms=2 * rec.terms))
                brute = trace(level, D, d, method="brute")
                assert rec.value == doubled.value == brute.value, (p, D, d)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"criterion 3 took {elapsed:.1f}s"
    print(f"CRITERION 3: PASS - {checked} traces integral and stable under "
          f"precision doubling and brute recomputation ({elapsed:.1f}s)")


def test_criterion_4_identity_suite():
    start = time.monotonic()
    D_list = [1, 4, 9, 16]
    total = 0
    kronecker_zero = 0
    for p, ells in ((2, (3, 5)), (3, (5,))):
        level = PrimeLevel(p)
        d_list = [d for d in range(1, 61) if is_admissible(d, level)]
        for ell in ells:
            report = verify_coeff_identities(level, ell, D_list, d_list)
            assert report["ok"], (p, ell, [c for c in report["checks"]
                                           if not (c["duality_ok"] and c["step_ok"])])
            total += len(report["checks"])
            kronecker_zero += sum(1 for c in report["checks"] if c["d"] % ell == 0)
    assert kronecker_zero >= 3  # the (-d/ell) = 0 branch is exercised
    elapsed = time.monotonic() - start
    print(f"CRITERION 4: PASS - duality and composition identities exact on "
          f"{total} (D, d) tuples, {kronecker_zero} with ell | d ({elapsed:.1f}s)")


def test_criterion_5_recurrence():
    start = time.monotonic()
    count = 0
    for p, ell in ((2, 3), (3, 5)):
        level = PrimeLevel(p)
        ds = [d for d in range(1, 100) if is_admissible(d, level)][:10]
        for n in (1, 2):
            for d in ds:
                report = verify_recurrence(level, ell, 1, d, n)
                assert report["ok"], (p, ell, d, n, report)
                assert report["iterated_step_ok"], (p, ell, d, n)
                count += 1
    # the named deep tuple: p=2, ell=3, d=8, n=2 reaches discriminant 648
    assert verify_recurrence(PrimeLevel(2), 3, 1, 8, 2)["ok"]
    elapsed = time.monotonic() - start
    assert elapsed < 900, f"criterion 5 took {elapsed:.1f}s"
    print(f"CRITERION 5: PASS - n-step recurrence exact on {count} tuples, "
          f"n in {{1, 2}}, including (p=2, ell=3, d=8, n=2) ({elapsed:.1f}s)")


def test_criterion_6_congruence_theorem():
    start = time.monotonic()
    sample = [(2, 3, 8), (2, 11, 7), (2, 5, 8), (3, 5, 8), (5, 3, 11), (7, 3, 3), (13, 3, 4)]
    passed, gated = 0, 0
    for p, ell, d in sample:
        level = PrimeLevel(p)
        try:
            report = verify_congruence(level, ell, d, 1)
        except HypothesisViolation as exc:
            # tuples that fail the splitting hypothesis must be rejected by
            # the gate, not silently passed through
            assert exc.reason == "non-split" and not splits(ell, d), (p, ell, d)
            gated += 1
            continue
        assert report["ok"], (p, ell, d, report)
        if d % ell:
            assert report["exact_lift_ok"], (p, ell, d)
        passed += 1
    # n = 2 on two hypothesis-satisfying tuples
    for p, ell, d in ((2, 3, 8), (5, 3, 11)):
        report = verify_congruence(PrimeLevel(p), ell, d, 2)
        assert report["ok"] and report["exact_lift_ok"], (p, ell, d)
    # ell | d tuple, outside the hypothesis: the congruence still holds
    assert trace(PrimeLevel(7), 1, 27).value % 3 == 0
    elapsed = time.monotonic() - start
    print(f"CRITERION 6: PASS - congruence + exact lift on {passed} split tuples "
          f"(n=1) and 2 tuples at n=2; {gated} non-split tuples gated ({elapsed:.1f}s)")


def test_criterion_7_hecke_unit_suite():
    import random
    from fractions import Fraction

    from moduli_traces.arith import kronecker
    from moduli_traces.qseries import WindowError

    start = time.monotonic()

    def generic(entries, k, ell, n):
        ell_k = Fraction(ell) ** (1 - 2 * k) if k <= 0 else Fraction(1)
        sign = 1 if k % 2 == 0 else -1
        down = entries.get(n // (ell * ell), 0) if n % (ell * ell) == 0 else 0
        val = ell_k * (
            entries.get(ell * ell * n, 0)
            + kronecker(sign * n, ell) * Fraction(ell) ** (k - 1) * entries.get(n, 0)
            + Fraction(ell) ** (2 * k - 1) * down
        )
        assert val.denominator == 1
        return int(val)

    rng = random.Random(20260823)
    # closed forms vs the generic rational formula
    for _ in range(100):
        k = rng.choice([0, 1])
        level = PrimeLevel(rng.choice(SUPPORTED_LEVELS))
        ell = rng.choice([e for e in (3, 5, 7) if e != level.p])
        n_max = rng.randint(ell * ell, 500)
        entries = {n: rng.randint(-99, 99) for n in range(1, n_max + 1)
                   if plus_condition(k, level, n) and rng.random() < 0.4}
        table = CoeffTable(k, level, n_max, entries)
        out = hecke_apply(table, ell)
        for n in range(1, out.n_max + 1):
            if plus_condition(k, level, n):
                assert out.get(n) == generic(entries, k, ell, n), (k, level.p, ell, n)
    # plus-space closure on 10^3 random tables
    for _ in range(1000):
        k = rng.choice([0, 1])
        level = PrimeLevel(rng.choice(SUPPORTED_LEVELS))
        ell = rng.choice([e for e in (3, 5, 7) if e != level.p])
        n_max = rng.randint(ell * ell, 150)
        entries = {n: rng.randint(-9, 9) for n in range(1, n_max + 1)
                   if plus_condition(k, level, n) and rng.random() < 0.6}
        out = hecke_apply(CoeffTable(k, level, n_max, entries), ell)
        assert all(plus_condition(k, level, n) for n in out.entries)
    # window contract
    try:
        hecke_apply(CoeffTable(1, PrimeLevel(2), 8, {7: 1}), 5)
        raise AssertionError("undersized window accepted")
    except WindowError:
        pass
    elapsed = time.monotonic() - start
    print(f"CRITERION 7: PASS - Hecke closed forms match the generic formula, "
          f"plus-space closure on 1000 random tables ({elapsed:.1f}s)")
