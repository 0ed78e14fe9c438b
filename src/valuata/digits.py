"""Base-p digit kernels: expansions, digit sums, factorial valuations, carries.

Everything here runs on machine-scale naturals (at most 2**64 - 1) and never
builds a large integer, which is what makes the predictor paths cheap no
matter how astronomically large the factorials or binomials they describe
would be.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

U64_MAX = 2**64 - 1

_SMALL_PRIMES = frozenset((
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
))
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)
# Every n below 67**2 with no prime factor up to 61 is prime.
_SMALL_PRIMES_CLEAR = 67 * 67

# Past 2**64 the first k prime bases decide every n below psi_k, the least
# strong pseudoprime to all of them: psi_12 = 318665857834031151167461
# passes the primes 2..37, so the primes 2..41 are needed up to psi_13.
_MR_WITNESSES_PSI13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test for every n below psi_13 (about 3.3e24).

    n <= 61 is looked up; a larger n is screened by one gcd with the
    product of the primes to 61, and one below 67**2 that passes is prime.
    Up to 2**64 - 1 the Baillie-PSW test decides: one strong probable-prime
    test to base 2 and one strong Lucas test with Selfridge's parameters
    (Baillie & Wagstaff, Lucas pseudoprimes, Math. Comp. 35, 1980), whose
    ladder runs on V_2k / Q**k = V_k(1/Q - 2, 1).  It has no pseudoprime
    below 2**64: Gilchrist checked it against Feitsma and Galway's list of
    every base-2 strong pseudoprime there.  A cold 64-bit prime costs about
    40 us (two shared cores, Python 3.11.7).  From 2**64 up to
    psi_13 = 3317044064679887385961981 the thirteen prime bases 2..41
    decide, since Baillie-PSW is not proven there.  n >= psi_13 raises
    KernelRangeError: no test here is proven for it.
    """
    if n >= _PSI13:
        raise KernelRangeError(f"primality is decided only below {_PSI13}, got {n}")
    if n <= 61:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return False
    if n < _SMALL_PRIMES_CLEAR:
        return True
    if n <= U64_MAX:
        return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)
    return _strong_probable_prime(n, _MR_WITNESSES_PSI13)


def _strong_probable_prime(n: int, witnesses: tuple[int, ...]) -> bool:
    """Whether odd n, above every witness, passes the Miller-Rabin test to each."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Whether odd n > 61 with no prime factor up to 61 is a strong Lucas probable prime.

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.  A perfect square has no
    such D and is rejected first.  With n + 1 = d * 2**s, d = 2a + 1, n
    passes when U_d = 0 or V_(d * 2**r) = 0 mod n for some r < s.

    The ladder runs on W_k = V_2k / Q**k, which is V_k(P', 1) with
    P' = 1/Q - 2 mod n, so each bit costs two products: W_2k = W_k**2 - 2
    and W_(2k+1) = W_k W_(k+1) - P'.  Since V_(2a+2) - Q V_2a = D U_d and
    V_(2a+2) + Q V_2a = V_d, and D and Q are units mod n, U_d = 0 exactly
    when W_(a+1) = W_a and V_d = 0 exactly when W_(a+1) + W_a = 0; for
    r >= 1, V_(d * 2**r) = 0 exactly when W_(d * 2**(r-1)) = 0.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # Q is a unit mod n: an odd prime q of Q is below |D|, so a D tried
    # before, of absolute value q (or 9 for q = 3), had (D/n) = 0 if q | n.
    P = (pow(Q, -1, n) - 2) % n
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    w, w1 = 2, P  # W_0, W_1; then W_a, W_(a+1)
    for bit in bin(d >> 1)[2:]:
        if bit == "1":  # k -> 2k + 1
            w, w1 = (w * w1 - P) % n, (w1 * w1 - 2) % n
        else:  # k -> 2k
            w, w1 = (w * w - 2) % n, (w * w1 - P) % n
    if w == w1 or (w + w1) % n == 0:
        return True
    w = (w * w1 - P) % n  # W_d
    for _ in range(s - 1):
        if w == 0:
            return True
        w = (w * w - 2) % n
    return False


class KernelRangeError(ValueError):
    """An argument outside the range a kernel decides exactly.

    The digit kernels and `factorize` take 0..2**64 - 1; `is_prime` takes
    every n below psi_13 (about 3.3e24).
    """


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"base must be prime, got {p}")


def _require_u64(n: int, what: str) -> None:
    if n < 0:
        raise KernelRangeError(f"{what} must be non-negative, got {n}")
    if n > U64_MAX:
        raise KernelRangeError(f"{what} exceeds the 64-bit kernel range: {n}")


@dataclass(frozen=True)
class DigitExpansion:
    """Base-p expansion of a natural number, least-significant digit first."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_prime(self.base)
        if not self.digits:
            raise ValueError("digits must be non-empty; zero is (0,)")
        if any(d < 0 or d >= self.base for d in self.digits):
            raise ValueError(f"digits out of range for base {self.base}: {self.digits}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("trailing zero digit")

    @property
    def value(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.base + d
        return total

    def digit_sum(self) -> int:
        return sum(self.digits)

    def __str__(self) -> str:
        # Conventional most-significant-first rendering, e.g. (157A)_11.
        alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        if self.base <= 36:
            body = "".join(alphabet[d] for d in reversed(self.digits))
        else:
            body = ".".join(str(d) for d in reversed(self.digits))
        return f"({body})_{self.base}"


def expand(n: int, p: int) -> DigitExpansion:
    """Unique base-p expansion of n; round-trips through `.value`."""
    _require_u64(n, "n")
    _require_prime(p)
    if n == 0:
        return DigitExpansion(p, (0,))
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return DigitExpansion(p, tuple(digits))


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    _require_u64(n, "n")
    _require_prime(p)
    total = 0
    while n:
        total += n % p
        n //= p
    return total


def vp_factorial(n: int, p: int) -> int:
    """Exponent of the prime p in n!, via the digit-sum closed form.

    Equals the usual floor-sum over powers of p, but costs one digit scan.
    """
    return (n - digit_sum(n, p)) // (p - 1)


def kummer_carries(a: int, b: int, p: int) -> int:
    """Number of carries when adding a and b in base p.

    This equals the exponent of p in the binomial coefficient
    C(a + b, a), so it prices a binomial valuation at one digit scan.
    """
    _require_u64(a, "a")
    _require_u64(b, "b")
    _require_u64(a + b, "a + b")
    _require_prime(p)
    carries = 0
    carry = 0
    while a or b or carry:
        carry = 1 if a % p + b % p + carry >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def _doubling_carries(n: int, p: int) -> int:
    """Carries of n + n in base p, so v_p(C(2n, n)); unchecked, for the odd-prime predictors and the cor1 oracle.

    One division step per base-p digit of n and no range or primality
    check: the caller guarantees n >= 0 and a prime p (the predictors keep
    n below 2**63).  A negative n never ends the loop.  The public
    `kummer_carries` is the checked form of the same count.
    """
    carries = carry = 0
    while n:
        d = n % p
        n //= p
        if d + d + carry >= p:
            carries += 1
            carry = 1
        else:
            carry = 0
    return carries


def popcount_valuation(n: int) -> int:
    """Count of 1-bits of n; equals the exponent of 2 in C(2n, n)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n.bit_count()
