"""Exact divisibility queries on explicit integers.

`vp_int` strips prime powers from arbitrary-precision values, `factorize`
handles machine-scale bases, and `omega` combines the two: the highest
power of a general base x dividing y is the minimum over primes p | x of
floor(v_p(y) / v_p(x)).  These are the oracle counterparts of the digit
kernels in `digits`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Union

from .digits import U64_MAX, KernelRangeError, is_prime, kummer_carries, _require_prime, _require_u64
from .sequences import DomainError


class ZeroInputError(ValueError):
    """Raised when an operation requires a nonzero argument."""


class InvalidBaseError(ValueError):
    """Raised when a divisibility base is 0 or a unit."""


def _restore_infinite() -> "_InfiniteValuation":
    return INFINITE


@total_ordering
class _InfiniteValuation:
    """Valuation of zero: compares above every integer and prints as `inf`.  Singleton."""

    __slots__ = ()

    def __reduce__(self):
        # Unpickling must hand back the singleton, or identity checks break
        # when reports cross process boundaries.
        return (_restore_infinite, ())

    def __repr__(self) -> str:
        return "INFINITE"

    def __str__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("valuata.INFINITE")

    def __lt__(self, other: object) -> bool:
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented


INFINITE = _InfiniteValuation()

# Finite valuations are plain ints; only the valuation of 0 is INFINITE.
Valuation = Union[int, _InfiniteValuation]


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * product(p**e) reconstructs the input."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


# One CPython int digit: a remainder by a divisor below it takes one pass
# over the dividend and builds no quotient.
_DIGIT = 1 << sys.int_info.bits_per_digit


@lru_cache(maxsize=4096)
def _digit_power(p: int) -> tuple[int, int]:
    """(p**k, k) for the largest k with p**k below one int digit, or (p, 1) past it; p must be prime."""
    _require_prime(p)
    power, k = p, 1
    while power * p < _DIGIT:
        power *= p
        k += 1
    return power, k


def vp_int(y: int, p: int) -> Valuation:
    """Exponent of the prime p in y (sign ignored); INFINITE for y = 0.

    At p = 2 it reads the lowest set bit.  Otherwise one remainder by p**k,
    the largest power of p below one int digit, decides v_p(y) < k.  When
    p**k divides y, stripping goes on from y // p**k with v = k: it strips
    the squares p**(2k), p**(4k), ... while they divide.  The first that
    does not leaves a remainder r of the same valuation, below that square,
    and the powers p**(k * 2**i) are then tried on r from the largest down,
    each step keeping the valuation and leaving r below the next power.
    Only the first remainder, the division by p**k and the stripping pass
    over y, one each, so no y costs more passes than stripping p, p**2,
    p**4, ... from it does.
    """
    digit_power, k = _digit_power(p)
    if y == 0:
        return INFINITE
    if p == 2:
        return (y & -y).bit_length() - 1
    v = 0
    r = y % digit_power
    if not r:
        y //= digit_power
        v = k
        powers = [digit_power]  # p**(k * 2**i)
        while True:
            square = powers[-1] * powers[-1]
            q, r = divmod(y, square)
            if r:
                break
            y = q
            v += k << len(powers)
            powers.append(square)
        for i in range(len(powers) - 1, -1, -1):
            q, rem = divmod(r, powers[i])
            if rem:
                r = rem
            else:
                r = q
                v += k << i
    while r % p == 0:
        r //= p
        v += 1
    return v


def _pollard_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant).

    Deterministic: parameters are tried in a fixed order, so repeated runs
    factor identically.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for n < 2**64


# The primes below 2**8, screened with one gcd against their product; past
# them the cofactor goes to is_prime and rho.  One gcd shows that a 64-bit
# prime has no factor there, where trial division to 2**8 takes 86 steps.
_SCREEN_PRIMES = tuple(p for p in range(2, 2**8) if is_prime(p))
_SCREEN_PRODUCT = math.prod(_SCREEN_PRIMES)
# A cofactor with no prime factor in the screen is prime below the square of
# 257, the first prime past it.
_SCREEN_CLEAR = 257**2


@lru_cache(maxsize=4096)
def factorize(x: int) -> Factorization:
    """Complete signed prime factorization of x, |x| at most 2**64 - 1.

    One gcd with the product of the primes below 2**8 names the ones that
    divide x, and only those are stripped.  A cofactor below 257**2 is then
    prime; any other is certified prime by is_prime (Baillie-PSW, exact
    below 2**64) or split by Pollard-Brent rho, and the parts are treated
    the same way.  A cold 64-bit prime costs about 45 us, nearly all of it
    in is_prime; a semiprime of two 32-bit primes still spends tens of
    milliseconds in rho.
    """
    if x == 0:
        raise ZeroInputError("cannot factorize 0")
    sign = 1 if x > 0 else -1
    n = abs(x)
    if n > U64_MAX:
        raise KernelRangeError(f"|x| exceeds the 64-bit base range: {x}")
    counts: dict[int, int] = {}
    g = math.gcd(n, _SCREEN_PRODUCT)
    for p in _SCREEN_PRIMES:
        if p * p > g:
            # g is 1 or, squarefree with no prime factor below p, a prime;
            # a cofactor n equal to it is counted below, unstripped.
            if g == 1 or g == n:
                break
            p = g
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
    if n < _SCREEN_CLEAR:
        if n > 1:
            counts[n] = 1
    else:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                counts[m] = counts.get(m, 0) + 1
            else:
                f = _pollard_rho(m)
                stack.append(f)
                stack.append(m // f)
    return Factorization(sign, tuple(sorted(counts.items())))


def omega(x: int, y: int) -> Valuation:
    """Highest k with x**k dividing y; INFINITE when y = 0.

    Signs are ignored on both arguments: divisibility by powers of a
    negative base only alternates sign.  x must not be 0 or a unit.
    """
    if x in (0, 1, -1):
        raise InvalidBaseError(f"base must not be 0 or a unit, got {x}")
    if y == 0:
        return INFINITE
    return min(vp_int(y, p) // e for p, e in factorize(abs(x)).factors)


def check_binomial(n: int, k: int) -> None:
    """Raise DomainError unless 0 <= k <= n, the binomials C(n, k) that queries take."""
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")


def vp_binomial_fast(n: int, k: int, p: int) -> int:
    """Exponent of p in C(n, k) by carry counting; never builds the binomial.

    Takes 0 <= k <= n <= 2**64 - 1 (DomainError, then KernelRangeError).
    """
    check_binomial(n, k)
    _require_u64(n, "n")
    return kummer_carries(k, n - k, p)
