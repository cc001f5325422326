"""Unit tests for the elementary number-theory layer."""

import random

import pytest

from moduli_traces.arith import (
    SUPPORTED_LEVELS,
    UNSUPPORTED_GENUS_ZERO_PRIMES,
    PrimeLevel,
    UnsupportedLevel,
    divisors,
    is_admissible,
    is_small_prime,
    kronecker,
    moebius,
    splits,
    sqrt_classes,
)
from moduli_traces.traces import plus_condition


class TestPrimeLevel:
    def test_supported_set(self):
        assert SUPPORTED_LEVELS == (2, 3, 5, 7, 13)
        for p in SUPPORTED_LEVELS:
            assert (p - 1) in (1, 2, 4, 6, 12) and 24 % (p - 1) == 0

    @pytest.mark.parametrize("p,exp,const", [(2, 24, 4096), (3, 12, 729), (5, 6, 125), (7, 4, 49), (13, 2, 13)])
    def test_eta_constants(self, p, exp, const):
        level = PrimeLevel(p)
        assert level.eta_exponent == exp
        assert level.fricke_const == const

    @pytest.mark.parametrize("p", [11, 17, 23, 4, 1, 0, -3])
    def test_rejects_out_of_scope(self, p):
        with pytest.raises(UnsupportedLevel):
            PrimeLevel(p)

    def test_error_names_out_of_scope_primes(self):
        with pytest.raises(UnsupportedLevel) as exc:
            PrimeLevel(11)
        msg = str(exc.value)
        assert str(SUPPORTED_LEVELS) in msg
        assert str(UNSUPPORTED_GENUS_ZERO_PRIMES) in msg


class TestPrimeLevelRecord:
    # a NamedTuple built from p alone, hashed and compared as the frozen record was

    def test_equal_levels_hash_alike(self):
        assert PrimeLevel(2) == PrimeLevel(2) and PrimeLevel(2) != PrimeLevel(3)
        assert hash(PrimeLevel(2)) == hash(PrimeLevel(2))
        assert {PrimeLevel(13): 1}[PrimeLevel(13)] == 1

    @pytest.mark.parametrize("name", ["p", "eta_exponent", "fricke_const", "square_roots", "other"])
    def test_fields_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(PrimeLevel(5), name, 1)

    def test_square_roots_are_read_only(self):
        with pytest.raises(TypeError):
            PrimeLevel(5).square_roots[1] = frozenset()

    def test_unpacks_as_its_fields(self):
        p, exp, const, roots = PrimeLevel(7)
        assert (p, exp, const) == (7, 4, 49) and roots == PrimeLevel(7).square_roots

    def test_unsupported_message_is_unchanged(self):
        with pytest.raises(UnsupportedLevel) as exc:
            PrimeLevel(11)
        assert str(exc.value) == (
            "level 11 not supported: need a prime p with (p-1) | 24, i.e. p in "
            "(2, 3, 5, 7, 13); the remaining genus-zero primes "
            "(11, 17, 19, 23, 29, 31, 41, 47, 59, 71) are out of scope")


class TestKronecker:
    def test_known_values(self):
        assert kronecker(-7, 11) == 1
        assert kronecker(-8, 3) == 1
        assert kronecker(-7, 3) == -1
        assert kronecker(-9, 3) == 0
        # (a/2) rule
        assert kronecker(7, 2) == 1
        assert kronecker(3, 2) == -1
        assert kronecker(4, 2) == 0
        # (a/-1) and n = 0 extensions
        assert kronecker(-3, -1) == -1
        assert kronecker(3, -1) == 1
        assert kronecker(1, 0) == 1
        assert kronecker(-1, 0) == 1
        assert kronecker(5, 0) == 0

    def test_legendre_agreement_on_odd_primes(self):
        # Euler criterion oracle for odd prime moduli
        for ell in (3, 5, 7, 11, 13, 17):
            for a in range(-30, 30):
                euler = pow(a % ell, (ell - 1) // 2, ell)
                expect = 0 if a % ell == 0 else (1 if euler == 1 else -1)
                assert kronecker(a, ell) == expect, (a, ell)

    def test_multiplicative_in_top_argument(self):
        rng = random.Random(20260823)
        for _ in range(10_000):
            a = rng.randint(-200, 200)
            b = rng.randint(-200, 200)
            n = rng.randint(-60, 60)
            if n < 0 and a * b == 0:
                # (0/n) = 1 for n = -1 breaks multiplicativity by convention
                continue
            assert kronecker(a, n) * kronecker(b, n) == kronecker(a * b, n)


class TestSqrtClasses:
    def test_examples(self):
        assert sqrt_classes(4, PrimeLevel(2)) == frozenset({2})
        assert sqrt_classes(3, PrimeLevel(3)) == frozenset({3})
        assert sqrt_classes(23, PrimeLevel(2)) == frozenset({1, 3})
        assert sqrt_classes(5, PrimeLevel(2)) == frozenset()

    def test_negation_closure(self):
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 200):
                betas = sqrt_classes(d, level)
                for beta in betas:
                    assert (2 * p - beta) % (2 * p) in betas

    @pytest.mark.parametrize("p", SUPPORTED_LEVELS)
    def test_table_matches_direct_scan(self, p):
        level, m = PrimeLevel(p), 4 * p
        for n in range(-8 * p, 8 * p):
            betas = frozenset(b for b in range(2 * p) if (b * b + n) % m == 0)
            assert sqrt_classes(n, level) == (betas if n >= 1 else frozenset())
            assert is_admissible(n, level) == (n >= 1 and bool(betas))
            for k in (0, 1):
                square = any((b * b - (-1) ** k * n) % m == 0 for b in range(m))
                assert plus_condition(k, level, n) == square

    def test_defining_congruence(self):
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            for d in range(1, 120):
                for beta in sqrt_classes(d, level):
                    assert (beta * beta + d) % (4 * p) == 0


class TestAdmissibility:
    def test_examples(self):
        p2 = PrimeLevel(2)
        assert is_admissible(4, p2)
        assert is_admissible(7, p2)
        assert not is_admissible(5, p2)
        assert not is_admissible(0, p2)
        assert not is_admissible(-4, p2)

    def test_mod_8_pattern_at_level_2(self):
        p2 = PrimeLevel(2)
        good = {d for d in range(1, 64) if is_admissible(d, p2)}
        assert good == {d for d in range(1, 64) if (-d) % 8 in (0, 1, 4)}


class TestSplits:
    def test_examples(self):
        assert splits(11, 7)
        assert splits(3, 8)
        assert not splits(3, 7)
        assert not splits(3, 3)  # ramified, kronecker = 0

    @pytest.mark.parametrize("ell", [2, 4, 9, 15, 1])
    def test_rejects_non_odd_prime(self, ell):
        with pytest.raises(ValueError):
            splits(ell, 7)

    def test_square_scaling_invariance(self):
        rng = random.Random(7)
        for _ in range(500):
            ell = rng.choice([3, 5, 7, 11, 13])
            d = rng.randint(1, 400)
            m = rng.randint(1, 20)
            if m % ell == 0:
                continue
            assert splits(ell, d) == splits(ell, d * m * m)


class TestDivisorsMoebius:
    def test_divisors(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        with pytest.raises(ValueError):
            divisors(0)

    def test_moebius_values(self):
        expect = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1, 210: 1}
        for n, mu in expect.items():
            assert moebius(n) == mu
        with pytest.raises(ValueError):
            moebius(0)

    def test_moebius_summatory_identity(self):
        for n in range(1, 300):
            total = sum(moebius(k) for k in divisors(n))
            assert total == (1 if n == 1 else 0)


class TestMisc:
    def test_plus_condition_mod_8(self):
        p2 = PrimeLevel(2)
        assert plus_condition(0, p2, 1)
        assert plus_condition(0, p2, 4)
        assert not plus_condition(0, p2, 3)
        assert not plus_condition(0, p2, -1)  # -1 = 7 mod 8

    def test_is_small_prime(self):
        assert is_small_prime(2)
        assert is_small_prime(3)
        assert is_small_prime(101)
        assert not is_small_prime(1)
        assert not is_small_prime(0)
        assert not is_small_prime(91)  # 7 * 13

    def test_is_small_prime_is_exact_below_10_to_12(self):
        assert not is_small_prime(999983**2)  # the largest prime below 10^6, squared
        assert is_small_prime(10**12 - 11)
        for n in (10**12, 1000003**2):  # 1000003^2 = 1000006000009 is composite
            with pytest.raises(ValueError, match="10\\^12"):
                is_small_prime(n)
