"""Unit tests for exact truncated Laurent series and eta quotients."""

import json
import random

import pytest

from oracles import series_pow
from moduli_traces.arith import SUPPORTED_LEVELS, PrimeLevel
from moduli_traces.qseries import (
    NonUnitLeadingCoefficient,
    TruncatedLaurentSeries,
    WindowError,
    constant,
    eta_quotient_f,
    euler_product,
)


def S(v, coeffs):
    return TruncatedLaurentSeries(v, coeffs)


def from_json(text):
    """Read back the to_json payload, as a consumer of `hauptmodul --format json` would."""
    obj = json.loads(text)
    return S(obj["v"], [int(c) for c in obj["coeffs"]])


def _random_series(rng, unit=False):
    v = rng.randint(-3, 3)
    n = rng.randint(1, 8)
    coeffs = [rng.randint(-9, 9) for _ in range(n)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    elif coeffs[0] == 0:
        coeffs[0] = 1
    return S(v, coeffs)


class TestBasics:
    def test_window_accessors(self):
        s = S(-1, [1, 0, 4372, 96256])
        assert s.v == -1 and s.order == 3
        assert s.coeff(-1) == 1 and s.coeff(1) == 4372
        assert s.coeff(-5) == 0  # below valuation: exactly zero
        with pytest.raises(WindowError):
            s.coeff(3)  # outside the known window

    def test_leading_zero_stripping(self):
        s = S(-2, [0, 0, 5, 1])
        assert s.v == 0 and s.coeffs == [5, 1]

    def test_empty_window_rejected(self):
        with pytest.raises(WindowError):
            S(0, [])


class TestMul:
    def test_difference_of_squares(self):
        # windows padded so the min-window rule keeps q^2 observable
        left = S(-1, [1, 0, 1, 0, 0])  # q^-1 + q
        right = S(-1, [1, 0, -1, 0, 0])  # q^-1 - q
        prod = left * right
        assert prod.coeff(-2) == 1 and prod.coeff(0) == 0 and prod.coeff(2) == -1

    def test_multiplicative_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            s = _random_series(rng)
            one = constant(1, s.order - s.v)
            assert s * one == s

    def test_geometric_telescoping(self):
        one_minus_q = S(0, [1, -1] + [0] * 8)  # exact up to O(q^10)
        geom = S(0, [1] * 10)
        prod = one_minus_q * geom
        assert prod.order == 10
        assert prod.coeff(0) == 1
        assert all(prod.coeff(n) == 0 for n in range(1, prod.order))

    def test_min_window_rule(self):
        a = S(-1, [1] * 5)  # window [-1, 4)
        b = S(0, [1] * 3)  # window [0, 3)
        assert (a * b).order == min(4 + 0, 3 + (-1))


class TestInvPow:
    def test_inv_geometric(self):
        s = S(-1, [1, -1, 0, 0, 0])  # q^-1 (1 - q)
        t = s.inv().truncate(4)
        # q (1 + q + q^2 + ...)
        assert t.v == 1 and all(t.coeff(n) == 1 for n in range(1, 4))

    def test_inv_identity(self):
        one = constant(1, 6)
        assert one.inv() == one

    def test_inv_defining_property(self):
        rng = random.Random(2)
        for _ in range(100):
            s = _random_series(rng, unit=True)
            prod = s * s.inv()
            assert prod.coeff(0) == 1
            assert all(prod.coeff(n) == 0 for n in range(1, prod.order))

    def test_inv_requires_unit(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            S(0, [2, 1]).inv()

    def test_pow(self):
        s = S(0, [1, -1, 0, 0])
        assert series_pow(s, 0).coeff(0) == 1
        sq = series_pow(s, 2)
        assert [sq.coeff(n) for n in range(3)] == [1, -2, 1]

    def test_pow_exponent_law(self):
        rng = random.Random(3)
        for _ in range(30):
            s = _random_series(rng, unit=True)
            assert series_pow(series_pow(s, 3), 2) == series_pow(s, 6)

    def test_negative_pow(self):
        s = S(0, [1, 1, 0, 0, 0])
        assert series_pow(s, -1) == s.inv()


class TestRingAxioms:
    def test_random_small_series(self):
        rng = random.Random(4)
        for _ in range(1000):
            a = _random_series(rng)
            b = _random_series(rng)
            c = _random_series(rng)
            assert a * b == b * a
            try:
                left = (a * b) * c
                right = a * (b * c)
            except WindowError:
                continue
            assert left == right
            # distributivity on the common window
            try:
                assert a * (b + c) == a * b + a * c
            except WindowError:
                pass


class TestEulerProduct:
    def test_first_coefficients(self):
        e = euler_product(8)
        assert [e.coeff(n) for n in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_q12_coefficient(self):
        assert euler_product(16).coeff(12) == -1

    def test_pentagonal_sparsity(self):
        # generalized pentagonal numbers below 1000: g=0 plus k(3k+-1)/2 for
        # k = 1..25 (k=26 gives 1001), so 51 nonzero coefficients
        e = euler_product(1000)
        assert sum(1 for c in e.coeffs if c) == 51

    def test_against_direct_product(self):
        N = 200
        direct = constant(1, N)
        for n in range(1, N):
            direct = direct * S(0, [1] + [0] * (n - 1) + [-1] + [0] * (N - n - 1))
            direct = direct.truncate(N)
        assert euler_product(N) == direct


class TestEtaQuotient:
    def test_level_2_expansion(self):
        f = eta_quotient_f(PrimeLevel(2), 4)
        assert [f.coeff(n) for n in range(-1, 3)] == [1, -24, 276, -2048]

    def test_level_13_expansion(self):
        f = eta_quotient_f(PrimeLevel(13), 4)
        assert [f.coeff(n) for n in range(-1, 3)] == [1, -2, -1, 2]

    def test_constant_term_all_levels(self):
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            f = eta_quotient_f(level, 3)
            assert f.v == -1 and f.coeff(-1) == 1
            assert f.coeff(0) == -24 // (p - 1)

    def test_truncation_stability(self):
        for p in SUPPORTED_LEVELS:
            level = PrimeLevel(p)
            small = eta_quotient_f(level, 40)
            big = eta_quotient_f(level, 80)
            assert small == big.truncate(small.order)


class TestSerialization:
    def test_json_schema_and_round_trip(self):
        s = S(-1, [1, 0, 4372, 2**80])
        obj = json.loads(s.to_json())
        assert set(obj) == {"v", "N", "coeffs"}
        assert obj["v"] == -1 and obj["N"] == s.order
        assert all(isinstance(c, str) for c in obj["coeffs"])
        t = from_json(s.to_json())
        assert t == s and t.v == s.v and t.order == s.order

    def test_big_integers_survive(self):
        s = S(0, [10**40, -(10**41)])
        t = from_json(s.to_json())
        assert t.coeff(0) == 10**40 and t.coeff(1) == -(10**41)


class TestHelpers:
    def test_constant(self):
        assert constant(5, 3).coeff(0) == 5
        with pytest.raises(WindowError):
            constant(1, 0)
