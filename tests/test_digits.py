import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import valuata.digits as digits
from valuata.digits import (
    _MR_WITNESSES_PSI13,
    U64_MAX,
    DigitExpansion,
    KernelRangeError,
    _doubling_carries,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    digit_sum,
    expand,
    is_prime,
    kummer_carries,
    popcount_valuation,
    vp_factorial,
)
from valuata.theorems import _FAST_N_MAX

PRIMES = [2, 3, 5, 7, 11, 13]

primes_st = st.sampled_from(PRIMES)

# Sinclair's seven Miller-Rabin witnesses decide every n < 2**64 (proven
# against Feitsma and Galway's list of base-2 strong pseudoprimes); they are
# the reference is_prime's Baillie-PSW test is checked against.
SINCLAIR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def sinclair_is_prime(n: int) -> bool:
    """Primality of n < 2**64: trial division to 61, then Sinclair's witnesses."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in SINCLAIR_WITNESSES:
        a %= n
        if a == 0:  # n divides the witness, which then says nothing
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit: int) -> bytearray:
    """sieve(limit)[n] is 1 exactly when n < limit is prime."""
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def no_factor_to_61(n: int) -> bool:
    return all(n % p for p in range(2, 62))


def floor_sum_valuation(n: int, p: int) -> int:
    """Independent oracle for the factorial valuation: sum of floor(n / p**k)."""
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


class TestIsPrime:
    def test_small(self):
        assert [p for p in range(60) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
        ]

    def test_carmichael_and_large(self):
        assert not is_prime(561)
        assert not is_prime(2**61)
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**19 - 1))

    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base 2..37; psi_13 = 1287836182261 * 2575672364521 to 2..41.
    PSI12 = 318665857834031151167461
    PSI13 = 3317044064679887385961981
    # The least strong pseudoprimes to the first 1, 2, ..., 9 prime bases.
    STRONG_PSEUDOPRIMES = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051,
    )
    PRIMES_64 = (
        2**61 - 1, 2**62 - 57, 2**63 - 25, 2**63 - 165,
        2**64 - 59, 2**64 - 83, 2**64 - 95, 2**64 - 179, 2**64 - 363,
    )

    def test_strong_pseudoprimes_rejected(self):
        for n in self.STRONG_PSEUDOPRIMES + (self.PSI12,):
            assert not is_prime.__wrapped__(n), n
        assert self.PSI12 == 399165290221 * 798330580441
        assert _strong_probable_prime(self.PSI12, _MR_WITNESSES_PSI13[:12])

    def test_beyond_psi13_raises(self):
        assert self.PSI13 == 1287836182261 * 2575672364521
        for n in (self.PSI13, self.PSI13 + 1, self.PSI13 + 2, 2**89 - 1, 10**30):
            with pytest.raises(KernelRangeError, match="primality"):
                is_prime(n)

    def test_64_bit_primes_accepted(self):
        for n in self.PRIMES_64:
            assert is_prime.__wrapped__(n), n

    def test_primes_past_64_bits(self):
        # The primes 2..41 decide [2**64, psi_13): the first prime past 2**64,
        # the last three below psi_13, and a product of two ~2**40 primes.
        for n in (2**64 + 13, 3317044064679887385961783, 3317044064679887385961801,
                  3317044064679887385961813):
            assert is_prime(n), n
        q, r = 2**40 - 87, 2**41 - 21
        assert is_prime(q) and is_prime(r) and not is_prime(q * r)
        assert not is_prime(self.PSI13 - 2) and not is_prime(2**64 + 1)

    def test_matches_sieve_below_100000(self):
        # Covers the cofactors below 67**2 that trial division leaves prime
        # and every Baillie-PSW decision from there to 10**5.
        limit = 100_000
        flags = sieve(limit)
        assert [n for n in range(limit) if is_prime.__wrapped__(n)] == [
            n for n in range(limit) if flags[n]
        ]

    def test_primes_dividing_a_witness_accepted(self):
        # The reference skips the witness they divide; the other six decide.
        for n in (73, 193, 407521, 299210837):
            assert is_prime.__wrapped__(n) and sinclair_is_prime(n)

    def test_witness_sets_agree_on_64_bit_odds(self):
        rng = random.Random(7)
        sample = []
        while len(sample) < 3000:
            n = rng.getrandbits(64) | (1 << 63) | 1
            if no_factor_to_61(n):
                sample.append(n)
        found = 0
        for n in sample:
            prime = is_prime.__wrapped__(n)
            assert prime == sinclair_is_prime(n), n
            assert prime == _strong_probable_prime(n, _MR_WITNESSES_PSI13), n
            found += prime
        assert found > 30  # the sample holds primes, not only composites

    # The strong Lucas pseudoprimes below 140,000 (Selfridge's parameters,
    # OEIS A217255) that have no prime factor up to 61.
    LUCAS_PSEUDOPRIMES = (
        10877, 16109, 22499, 24569, 25199, 40309, 58519, 75077, 97439, 100127,
        113573, 115639, 130139,
    )
    # Strong pseudoprimes to base 2 (OEIS A001262); only the last has no
    # prime factor up to 61.
    BASE_2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 3825123056546413051)

    def test_lucas_half_accepts_exactly_its_pseudoprimes(self):
        limit = 140_000
        flags = sieve(limit)
        accepted = [
            n for n in range(67, limit, 2)
            if no_factor_to_61(n) and _strong_lucas_probable_prime(n)
        ]
        assert [n for n in accepted if not flags[n]] == list(self.LUCAS_PSEUDOPRIMES)
        assert [n for n in accepted if flags[n]] == [
            n for n in range(67, limit, 2) if flags[n]
        ]
        for n in self.LUCAS_PSEUDOPRIMES:
            assert not _strong_probable_prime(n, (2,)), n
            assert not is_prime.__wrapped__(n), n

    def test_base_2_half_accepts_its_pseudoprimes(self):
        for n in self.BASE_2_PSEUDOPRIMES:
            assert _strong_probable_prime(n, (2,)), n
            assert not is_prime.__wrapped__(n), n
        assert not _strong_lucas_probable_prime(self.BASE_2_PSEUDOPRIMES[-1])
        # Every base-2 strong pseudoprime below 10**6 with no factor up to 61
        # is left to the Lucas half, which rejects it.
        limit = 10**6
        flags = sieve(limit)
        left = [
            n for n in range(67 * 67, limit, 2)
            if not flags[n] and no_factor_to_61(n) and _strong_probable_prime(n, (2,))
        ]
        assert len(left) > 10
        for n in left:
            assert not _strong_lucas_probable_prime(n), n
            assert not is_prime.__wrapped__(n), n

    def test_cold_64_bit_prime_costs_one_strong_and_one_lucas_test(self, monkeypatch):
        calls = []
        strong, lucas = _strong_probable_prime, _strong_lucas_probable_prime
        monkeypatch.setattr(
            digits, "_strong_probable_prime", lambda n, w: calls.append(w) or strong(n, w)
        )
        monkeypatch.setattr(
            digits, "_strong_lucas_probable_prime", lambda n: calls.append("lucas") or lucas(n)
        )
        for n in self.PRIMES_64:
            calls.clear()
            assert is_prime.__wrapped__(n), n
            assert calls == [(2,), "lucas"], n
        calls.clear()
        # Below 67**2 trial division alone decides.
        assert [n for n in range(67 * 67) if is_prime.__wrapped__(n)] == [
            n for n in range(67 * 67) if sinclair_is_prime(n)
        ]
        assert calls == []


class TestExpand:
    def test_worked_base3(self):
        e = expand(2023, 3)
        assert e.digits == (1, 2, 2, 2, 0, 2, 2)
        assert str(e) == "(2202221)_3"
        assert e.value == 2023

    def test_worked_base11(self):
        e = expand(2023, 11)
        assert e.digits == (10, 7, 5, 1)
        assert str(e) == "(157A)_11"
        assert e.value == 2023

    def test_zero(self):
        assert expand(0, 5).digits == (0,)
        assert expand(0, 5).value == 0

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError):
            expand(10, 4)
        with pytest.raises(ValueError):
            DigitExpansion(6, (1,))

    def test_out_of_range_inputs(self):
        with pytest.raises(ValueError):
            expand(U64_MAX + 1, 3)
        with pytest.raises(ValueError):
            expand(-1, 3)

    def test_invalid_digit_vectors(self):
        with pytest.raises(ValueError):
            DigitExpansion(3, (3,))
        with pytest.raises(ValueError):
            DigitExpansion(3, (1, 0))
        with pytest.raises(ValueError):
            DigitExpansion(3, ())

    @given(st.integers(0, U64_MAX), primes_st)
    def test_round_trip(self, n, p):
        e = expand(n, p)
        assert e.value == n
        assert all(0 <= d < p for d in e.digits)
        assert e.digits[-1] != 0 or n == 0


class TestDigitSum:
    def test_worked_values(self):
        assert digit_sum(2023, 3) == 11
        assert digit_sum(2023, 11) == 23

    @pytest.mark.parametrize("p", PRIMES)
    def test_single_digit(self, p):
        for n in range(p):
            assert digit_sum(n, p) == n

    @given(st.integers(0, U64_MAX), primes_st)
    def test_matches_expansion_and_bound(self, n, p):
        assert digit_sum(n, p) == expand(n, p).digit_sum() <= max(n, 1)


class TestVpFactorial:
    def test_nine_factorial(self):
        # 9! contains 3, 6, 9 contributing 1 + 1 + 2 threes.
        assert vp_factorial(9, 3) == 4

    def test_zero(self):
        for p in PRIMES:
            assert vp_factorial(0, p) == 0

    def test_worked_value_against_floor_sum(self):
        assert vp_factorial(2023, 3) == (2023 - 11) // 2 == 1006
        assert floor_sum_valuation(2023, 3) == 1006

    @pytest.mark.parametrize("p", PRIMES)
    def test_floor_sum_sweep(self, p):
        for n in range(3000):
            assert vp_factorial(n, p) == floor_sum_valuation(n, p)

    @given(st.integers(0, 10**5), primes_st)
    def test_floor_sum_property(self, n, p):
        assert vp_factorial(n, p) == floor_sum_valuation(n, p)


class TestKummerCarries:
    def test_worked_values(self):
        assert kummer_carries(2023, 2023, 3) == 5
        assert kummer_carries(2023, 2023, 11) == 3

    @pytest.mark.parametrize("p", PRIMES)
    def test_adding_zero(self, p):
        for n in (0, 1, 7, 10**9):
            assert kummer_carries(n, 0, p) == 0
            assert kummer_carries(0, n, p) == 0

    @given(st.integers(0, 10**4), st.integers(0, 10**4), primes_st)
    def test_matches_factorial_valuations(self, a, b, p):
        expected = vp_factorial(a + b, p) - vp_factorial(a, p) - vp_factorial(b, p)
        assert kummer_carries(a, b, p) == expected

    @given(st.integers(0, 10**4), primes_st)
    def test_central_carry_digit_sum_identity(self, n, p):
        # (p-1) * carries(n, n) = 2 s_p(n) - s_p(2n)
        assert (p - 1) * kummer_carries(n, n, p) == 2 * digit_sum(n, p) - digit_sum(2 * n, p)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            kummer_carries(U64_MAX, 1, 3)


def legendre_central_valuation(n: int, p: int) -> int:
    """v_p(C(2n, n)) by Legendre's formula: sum over i of floor(2n / p**i) - 2 floor(n / p**i)."""
    total = 0
    q = p
    while q <= 2 * n:
        total += 2 * n // q - 2 * (n // q)
        q *= p
    return total


class TestDoublingCarries:
    """The predictors' unchecked kernel against Legendre's formula and the checked kernel."""

    PRIMES = (2, 3, 5, 7, 11, 97, 2**31 - 1, 2**61 - 1, 2**64 - 59)

    @staticmethod
    def inputs(p: int) -> list[int]:
        edges = [0, 1, _FAST_N_MAX, (p + 1) // 2 - 1, (p + 1) // 2]  # the last two: first carry
        q = p
        while q <= _FAST_N_MAX:
            edges += [q - 1, q]
            q *= p
        rng = random.Random(p)
        seeded = [rng.getrandbits(rng.randint(1, 63)) for _ in range(2000)]
        return [n for n in edges if n <= _FAST_N_MAX] + seeded

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_legendre(self, p):
        assert is_prime(p)
        for n in self.inputs(p):
            expected = legendre_central_valuation(n, p)
            assert _doubling_carries(n, p) == expected, (n, p)
            assert kummer_carries(n, n, p) == expected, (n, p)

    def test_worked_values(self):
        assert _doubling_carries(2023, 3) == 5
        assert _doubling_carries(2023, 11) == 3
        assert _doubling_carries(2**61 - 2, 2**61 - 1) == 1


class TestPopcountValuation:
    def test_trivial_and_small(self):
        assert popcount_valuation(0) == 0
        assert popcount_valuation(3) == 2
        # matches the exact central binomial: C(6, 3) = 20 = 2**2 * 5
        v = 0
        value = math.comb(6, 3)
        while value % 2 == 0:
            v += 1
            value //= 2
        assert v == 2

    def test_worked_value(self):
        assert popcount_valuation(2023) == 9
        assert popcount_valuation(2023) == len([d for d in expand(2023, 2).digits if d])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount_valuation(-1)

    @given(st.integers(0, 10**5))
    def test_equals_binary_digit_sum(self, n):
        assert popcount_valuation(n) == digit_sum(n, 2)

    @given(st.integers(0, 10**4))
    def test_equals_complement_of_factorial_valuation(self, n):
        assert popcount_valuation(n) == n - vp_factorial(n, 2)
