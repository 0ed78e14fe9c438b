import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valuata.valuation as valuation
from valuata.digits import U64_MAX, KernelRangeError, is_prime
from valuata.sequences import DomainError
from valuata.valuation import (
    INFINITE,
    Factorization,
    InvalidBaseError,
    ZeroInputError,
    factorize,
    omega,
    vp_binomial_fast,
    vp_int,
)

PRIMES = [2, 3, 5, 7, 11]


class TestInfinite:
    def test_ordering_against_ints(self):
        assert INFINITE >= 0 and INFINITE > 10**100
        assert not INFINITE < 5 and not INFINITE <= 5
        assert 5 < INFINITE and 5 <= INFINITE
        assert not 5 >= INFINITE
        for other in (1.5, "x"):
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    compare(INFINITE, other)
                with pytest.raises(TypeError):
                    compare(other, INFINITE)

    def test_equality(self):
        assert INFINITE == INFINITE
        assert INFINITE != 7
        assert INFINITE <= INFINITE and INFINITE >= INFINITE

    def test_prints_as_inf(self):
        assert str(INFINITE) == f"{INFINITE}" == "inf"
        assert repr(INFINITE) == "INFINITE"

    def test_pickle_preserves_identity(self):
        import pickle

        assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE
        assert pickle.loads(pickle.dumps((INFINITE, 3)))[0] is INFINITE


class TestVpInt:
    def test_examples(self):
        assert vp_int(20, 2) == 2
        assert vp_int(1, 7) == 0
        assert vp_int(0, 7) is INFINITE

    def test_sign_ignored(self):
        assert vp_int(-24, 2) == 3

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 64, 200])
    def test_pure_powers(self, p, k):
        assert vp_int(p**k, p) == k
        assert vp_int(7 * p**k if p != 7 else 11 * p**k, p) == k

    @given(st.integers(0, 300), st.sampled_from(PRIMES), st.integers(1, 10**6))
    def test_stripping(self, k, p, m):
        if m % p == 0:
            m += 1
        assert vp_int(m * p**k, p) == k

    def test_composite_base_rejected(self):
        for p in (10, 4, 1, 0, -3, 65535, (2**31 - 1) * 65537):
            for y in (100, 0, p**40):
                with pytest.raises(ValueError, match="^base must be prime"):
                    vp_int(y, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 97, 65537, 2**31 - 1, 2**61 - 1])
    def test_matches_naive_stripping_around_the_digit_power(self, p):
        # k: the largest power of p below one int digit, or 1 once p itself is not.
        k = 1
        while p ** (k + 1) < 2**sys.int_info.bits_per_digit:
            k += 1
        rng = random.Random(p)
        for v in (0, k - 1, k, k + 1, 2 * k, 4 * k + 3, 20 * k + 3):
            for m in (1, p - 1, rng.getrandbits(64), rng.getrandbits(3000)):
                if m % p == 0:
                    m += 1
                for y in (m * p**v, -m * p**v):
                    assert vp_int(y, p) == _naive_vp(y, p) == v, (p, v, m)
        assert vp_int(0, p) is INFINITE


def _naive_vp(y: int, p: int) -> int:
    y, v = abs(y), 0
    while y % p == 0:
        y //= p
        v += 1
    return v


class TestFactorize:
    def test_worked_example(self):
        f = factorize(99)
        assert f.factors == ((3, 2), (11, 1)) and f.sign == 1
        assert factorize(37 + 62) == f

    def test_negative(self):
        f = factorize(-2)
        assert f.sign == -1 and f.factors == ((2, 1),)
        assert f.value() == -2

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            factorize(0)

    def test_units(self):
        assert factorize(1) == Factorization(1, ())
        assert factorize(-1) == Factorization(-1, ())

    def test_large_semiprime(self):
        p, q = 2**31 - 1, 2**19 - 1  # both prime, both beyond trial division
        f = factorize(p * q)
        assert f.factors == ((q, 1), (p, 1))

    def test_large_prime_power(self):
        p = 1_000_003
        f = factorize(p * p * p)
        assert f.factors == ((p, 3),)

    def test_near_u64(self):
        n = 2**64 - 59  # prime
        assert factorize(n).factors == ((n, 1),)
        with pytest.raises(ValueError):
            factorize(2**64)

    @staticmethod
    def _long_trial_division(n, primes):
        """({p: e} for the primes in `primes` dividing n, the cofactor left).

        Stops once p * p exceeds the cofactor, which is then 1 or prime.
        """
        found = {}
        for p in primes:
            if p * p > n:
                break
            while n % p == 0:
                found[p] = found.get(p, 0) + 1
                n //= p
        return found, n

    def test_matches_long_trial_division(self):
        # Trial division by every prime to 10**6, written out here; a
        # cofactor it leaves below 10**12 is prime, a larger one has only
        # prime factors above 10**6, which factorize must find.
        limit = 10**6
        sieve = bytearray([1]) * limit
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        trial_primes = [p for p in range(2, limit) if sieve[p]]
        rng = random.Random(2023)

        def prime(bits):
            while True:
                n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
                if is_prime(n):
                    return n

        sample = [prime(64) for _ in range(6)]
        sample += [prime(32) * prime(32) for _ in range(3)]
        sample += [prime(20) * prime(20) * prime(20) for _ in range(3)]  # factors near 2**16..10**6
        sample += [prime(17) ** 2 * prime(28) for _ in range(2)]
        for _ in range(6):
            n = 1
            while n.bit_length() < 46:
                n *= rng.choice((2, 3, 5, 7, 11, 13, 101, 997, 65521, 65537))
            sample.append(n)
        # The edges of the gcd screen of the primes below 2**8: its last
        # prime, the next, and products across the edge.
        sample += [251, 257, 257**2, 251 * 257, 2**56 * 251, 65521 * 65537]
        for n in sample:
            f = factorize.__wrapped__(n)
            expected, rest = self._long_trial_division(n, trial_primes)
            if rest < limit**2:
                if rest > 1:
                    expected[rest] = expected.get(rest, 0) + 1
                assert f == Factorization(1, tuple(sorted(expected.items()))), n
            else:
                large = [(p, e) for p, e in f.factors if p > limit]
                assert [(p, e) for p, e in f.factors if p <= limit] == sorted(expected.items()), n
                assert math.prod(p**e for p, e in large) == rest, n
            assert f.value() == n and all(is_prime(p) for p in f.primes()), n
        with pytest.raises(KernelRangeError):
            factorize(2**63 * 251)

    def test_cold_64_bit_prime_is_certified_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(valuation, "is_prime", lambda n: calls.append(n) or is_prime(n))

        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(valuation, "_pollard_rho", no_rho)
        for n in (2**61 - 1, 2**62 - 57, 2**63 - 25, 2**64 - 59, 2**64 - 363):
            calls.clear()
            assert factorize.__wrapped__(n).factors == ((n, 1),)
            assert calls == [n]

    @staticmethod
    def _check(n, expected):
        f = factorize.__wrapped__(n)
        assert f.value() == n and all(is_prime(p) for p in f.primes()), n
        assert f == Factorization(1, tuple(sorted(expected.items()))), n

    @staticmethod
    def _primes_past_trial_limit(rng):
        """The primes past the gcd screen up to 2**12 and a seeded sample to 2**16."""
        low = [p for p in range(valuation._SCREEN_PRIMES[-1] + 1, 2**12) if is_prime(p)]
        high = [p for p in range(2**12, 2**16) if is_prime(p)]
        return low + rng.sample(high, 200)

    def test_prime_powers_past_trial_limit(self):
        # Prime powers leave the screen as composite cofactors that rho
        # has to split; every p**k < 2**64, alone and times 2.
        for p in self._primes_past_trial_limit(random.Random(41)):
            k, q = 1, p
            while q <= U64_MAX:
                self._check(q, {p: k})
                if 2 * q <= U64_MAX:
                    self._check(2 * q, {2: 1, p: k})
                k, q = k + 1, q * p

    def test_products_past_trial_limit(self):
        rng = random.Random(43)
        primes = self._primes_past_trial_limit(rng)
        for size in (2, 3):
            for _ in range(1500):
                chosen = [rng.choice(primes) for _ in range(size)]
                expected = {}
                for p in chosen:
                    expected[p] = expected.get(p, 0) + 1
                self._check(math.prod(chosen), expected)

    @given(st.integers(-(2**48), 2**48).filter(lambda x: x != 0))
    @settings(max_examples=60, deadline=None)
    def test_reconstructs(self, x):
        f = factorize(x)
        assert f.value() == x
        assert all(e >= 1 for _, e in f.factors)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)


class TestOmega:
    def test_worked_example(self):
        c = math.comb(4046, 2023)
        assert omega(99, c) == 2  # min(floor(5/2), floor(3/1))
        assert omega(99, 4047 * c) == 3  # min(floor(6/2), floor(3/1))

    def test_invalid_bases(self):
        for x in (0, 1, -1):
            with pytest.raises(InvalidBaseError):
                omega(x, 5)

    def test_zero_target(self):
        assert omega(99, 0) is INFINITE

    @given(
        st.integers(2, 10**6),
        st.integers(-(10**18), 10**18).filter(lambda y: y != 0),
    )
    @settings(max_examples=80, deadline=None)
    def test_divides_and_is_maximal(self, x, y):
        w = omega(x, y)
        assert y % x**w == 0
        assert y % x ** (w + 1) != 0

    @given(
        st.integers(2, 10**4),
        st.integers(-(10**12), 10**12).filter(lambda y: y != 0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_conventions(self, x, y):
        assert omega(x, y) == omega(-x, y) == omega(x, -y) == omega(-x, -y)

    @given(st.sampled_from(PRIMES + [101, 65537]), st.integers(1, 10**18))
    @settings(max_examples=60, deadline=None)
    def test_prime_base_matches_vp(self, p, y):
        assert omega(p, y) == vp_int(y, p)


class TestVpBinomialFast:
    def test_worked_values(self):
        assert vp_binomial_fast(4046, 2023, 3) == 5
        assert vp_binomial_fast(4046, 2023, 11) == 3

    def test_edges(self):
        for p in PRIMES:
            assert vp_binomial_fast(17, 0, p) == 0
            assert vp_binomial_fast(17, 17, p) == 0
        with pytest.raises(ValueError):
            vp_binomial_fast(3, 4, 2)

    def test_errors_name_the_binomial_arguments(self):
        with pytest.raises(DomainError, match=r"^need 0 <= k <= n, got n=3, k=4$"):
            vp_binomial_fast(3, 4, 2)
        with pytest.raises(DomainError, match=r"^need 0 <= k <= n, got n=3, k=-1$"):
            vp_binomial_fast(3, -1, 2)
        with pytest.raises(KernelRangeError, match=r"^n exceeds the 64-bit kernel range: 300000000000000000000$"):
            vp_binomial_fast(3 * 10**20, 10**20, 3)

    @pytest.mark.parametrize("p", PRIMES)
    def test_small_sweep_against_exact(self, p):
        for n in range(0, 121):
            for k in range(n + 1):
                assert vp_binomial_fast(n, k, p) == vp_int(math.comb(n, k), p)

    @given(st.integers(0, 3000), st.data(), st.sampled_from(PRIMES))
    @settings(max_examples=120, deadline=None)
    def test_sampled_against_exact(self, n, data, p):
        k = data.draw(st.integers(0, n))
        assert vp_binomial_fast(n, k, p) == vp_int(math.comb(n, k), p)

    def test_huge_inputs_stay_fast(self):
        assert vp_binomial_fast(10**18, 5 * 10**17, 3) >= 0
