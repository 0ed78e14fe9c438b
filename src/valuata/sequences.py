"""Exact big-integer generators for the binomial-sum family.

The central object is the weighted power sum

    B(n, m, a, b) = sum_k C(n, k)**m * a**(n-k) * b**k

together with its relatives: central Delannoy and Schroder numbers,
Franel numbers, Catalan and Fuss-Catalan numbers, generalized central
trinomial coefficients, generalized Motzkin numbers, central multinomial
coefficients and integer Legendre polynomial values.  Everything is
computed in exact integer arithmetic; every division but one is checked
to be exact and raises IntegralityError otherwise (which would signal an
implementation bug, not a mathematical possibility).  The exception is
the half row of binomials in eval_B, for speed (see there).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, count, islice
from math import comb
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from fractions import Fraction


class DomainError(ValueError):
    """An index or parameter outside a sequence's domain."""


class IntegralityError(ArithmeticError):
    """An exact division left a remainder."""


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise IntegralityError(f"{what}: {_operand(num)} is not divisible by {_operand(den)}")
    return q


def _operand(x: int) -> str:
    """x itself when short, else its size: a value may be millions of digits long, past int-to-str's limit."""
    return str(x) if x.bit_length() <= 256 else f"a {x.bit_length()}-bit number"


def _check_reach(n: int, what: str) -> None:
    """A DomainError for an index from sys.maxsize on, where islice, and with it the value streams, stops.

    The defining sums eval_T and eval_M keep the same reach.
    """
    if n >= sys.maxsize:
        raise DomainError(f"index {n} is past the oracle's reach: {what} end at sys.maxsize - 1")


def _balanced_product(factors: list[int]) -> int:
    """The product of `factors`, multiplied in a balanced tree.

    Keeping the operands of similar size is much cheaper than growing one
    product factor by factor.
    """
    while len(factors) > 1:
        paired = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return math.prod(factors)


# ---------------------------------------------------------------------------
# Single binomial coefficients
# ---------------------------------------------------------------------------


def binomial(n: int, k: int) -> int:
    """C(n, k), exactly: 0 for k > n, ValueError for negative n or k, as math.comb.

    math.comb divides its partial products by schoolbook long division,
    which grows as the square of min(k, n - k), while the prime-power
    product (_binomial_by_primes) grows with n.  The two cost about the
    same where min(k, n - k)**2 = 200 n on CPython 3.11 (the table in
    CHANGES.md), so math.comb takes the pairs up to that line.
    """
    if n < 0 or k < 0 or k > n:
        return comb(n, k)  # math.comb's ValueError, or 0
    k = min(k, n - k)
    if k > sys.maxsize:
        raise DomainError(f"C({n}, {k}) is past the oracle's reach: min(k, n - k) exceeds sys.maxsize = {sys.maxsize}")
    if k * k <= 200 * n:
        return comb(n, k)
    if n > 2 * sys.maxsize:
        raise DomainError(
            f"C({n}, {k}) is past the oracle's reach: its prime sieve of (n + 1) // 2 bytes cannot be sized "
            f"past sys.maxsize = {sys.maxsize}"
        )
    return _binomial_by_primes(n, k)


def _binomial_by_primes(n: int, k: int) -> int:
    """C(n, k) for 0 < k <= n/2 as the product of its prime powers (Goetgheluck,
    "Computing binomial coefficients", Amer. Math. Monthly 94, 1987).

    The exponent of p is Legendre's sum over q = p, p**2, ... <= n of
    floor(n/q) - floor(k/q) - floor((n-k)/q).  Above sqrt(n) only q = p
    counts, so the exponent is 0 or 1, and every prime in (n-k, n] has
    exponent 1.  Every prime power is at most n, so the factors are folded
    into chunks of a fixed count, about 2048 bits each, as they come; the
    chunks are then multiplied in a balanced tree.  Only the sieve, n/2
    bytes, and the chunks are held.
    """
    j = n - k
    root = math.isqrt(n)
    sieve = _odd_sieve(n)
    small = (p**e for p in chain((2,), _odd_primes(sieve, 2, root)) if (e := _legendre_exponent(n, k, p)))
    middle = (p for p in _odd_primes(sieve, root, j) if n // p - k // p - j // p)
    factors = chain(small, middle, _odd_primes(sieve, j, n))
    group = 2048 // n.bit_length()
    # Every factor is at least 2, so only an empty group has product 1.
    return _balanced_product(list(iter(lambda: math.prod(islice(factors, group)), 1)))


def _odd_sieve(n: int) -> bytearray:
    """Sieve of Eratosthenes over the odd numbers: entry i is 1 when 2i + 1 <= n is prime."""
    sieve = bytearray(b"\x01" * ((n + 1) // 2))  # not bytearray([1]) * m: failing, it can print a SystemError
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return sieve


def _odd_primes(sieve: bytearray, lo: int, hi: int) -> Iterator[int]:
    """The odd primes in (lo, hi], read lazily off an odd-only sieve."""
    start = (lo + 1) // 2
    return compress(range(2 * start + 1, hi + 1, 2), memoryview(sieve)[start : (hi + 1) // 2])


def _legendre_exponent(n: int, k: int, p: int) -> int:
    """The exponent of p in C(n, k), by Legendre's formula."""
    e, q = 0, p
    while q <= n:
        e += n // q - k // q - (n - k) // q
        q *= p
    return e


def eval_B(n: int, m: int, a: int, b: int) -> int:
    """Exact value of sum_k C(n, k)**m * a**(n-k) * b**k, for n >= 0 and m >= 0.

    The terms k and n - k pair up: for k < n/2 they add up to
    C(n, k)**m * (ab)**k * (a**(n-2k) + b**(n-2k)), and an even n adds the
    middle term C(n, n/2)**m * (ab)**(n/2).  The sum runs in Horner form
    over ab, from the middle of the half row down, with one large product
    per pair; a**(n-2k) and b**(n-2k) are running products, so only a few
    values are held at a time.

    The half row divides with a bare //, the one unchecked division in
    this module: each quotient is the binomial C(n, k - 1), so every step
    is exact once the first value, C(n, n//2), is right.  Checking each
    step through _exact_div cost the m = 3..5 oracle queries about 3% (an
    inline divmod, about 1.2%).
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if m < 0:
        raise DomainError(f"m must be non-negative, got {m}")
    # C(n, n//2), then C(n, k - 1) = C(n, k) * k / (n - k + 1) down to C(n, 0).
    row = accumulate(range(n // 2, 0, -1), lambda c, k: c * k // (n - k + 1), initial=binomial(n, n // 2))
    ab, aa, bb = a * b, a * a, b * b
    if n % 2:
        apow, bpow, total = a, b, 0
    else:
        apow, bpow, total = aa, bb, next(row) ** m
    for c in row:
        total = total * ab + c**m * (apow + bpow)
        apow *= aa
        bpow *= bb
    return total


def eval_B_via_trinomial(n: int, a: int, b: int) -> int:
    """The m = 2 sum in its folded form:

    sum_{k <= n/2} C(n, k) * C(n-k, k) * (ab)**k * (a+b)**(n-2k).

    Must agree with eval_B(n, 2, a, b); the two routes share no code.
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    ab, s = a * b, a + b
    total = 0
    for k in range(n // 2 + 1):
        total += comb(n, k) * comb(n - k, k) * ab**k * s ** (n - 2 * k)
    return total


def eval_B_via_macmahon(n: int, a: int, b: int) -> int:
    """The m = 3 sum in its folded (MacMahon) form:

    sum_{k <= n/2} C(n, 2k) * C(2k, k) * C(n+k, k) * (ab)**k * (a+b)**(n-2k).
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    ab, s = a * b, a + b
    total = 0
    for k in range(n // 2 + 1):
        total += comb(n, 2 * k) * comb(2 * k, k) * comb(n + k, k) * ab**k * s ** (n - 2 * k)
    return total


def eval_T(n: int, a: int, b: int) -> int:
    """Generalized central trinomial coefficient:

    sum_{k <= n/2} C(n, k) * C(n-k, k) * a**k * b**(n-2k),

    the coefficient of x**n in (x**2 + b*x + a)**n.  b**(n-2k) is
    b**(n%2) * (b**2)**(n//2 - k), so the sum runs in Horner form over
    b**2, with a running power of a: only a few values are held at a time.
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    _check_reach(n, "defining sums")
    bb, total = b * b, 0
    apow = 1
    c_n2k = 1  # C(n, 2k), advanced two columns per step
    c_2kk = 1  # C(2k, k)
    for k in range(n // 2 + 1):
        total = total * bb + c_n2k * c_2kk * apow
        c_n2k = _exact_div(c_n2k * (n - 2 * k), 2 * k + 1, "eval_T")  # C(n, 2k+1)
        c_n2k = _exact_div(c_n2k * (n - 2 * k - 1), 2 * k + 2, "eval_T")
        c_2kk = _exact_div(c_2kk * (4 * k + 2), k + 1, "eval_T")
        apow *= a
    return total * b ** (n % 2)


def eval_M(n: int, a: int, b: int) -> int:
    """Generalized Motzkin number:

    sum_{k <= n/2} C(n, 2k) * Catalan(k) * a**k * b**(n-2k),

    in Horner form over b**2, as eval_T.
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    _check_reach(n, "defining sums")
    bb, total = b * b, 0
    apow = 1
    c_n2k = 1  # C(n, 2k)
    cat = 1  # Catalan(k)
    for k in range(n // 2 + 1):
        total = total * bb + c_n2k * cat * apow
        c_n2k = _exact_div(c_n2k * (n - 2 * k), 2 * k + 1, "eval_M")  # C(n, 2k+1)
        c_n2k = _exact_div(c_n2k * (n - 2 * k - 1), 2 * k + 2, "eval_M")
        cat = _exact_div(cat * (4 * k + 2), k + 2, "eval_M")
        apow *= a
    return total * b ** (n % 2)


def central_binomial(n: int) -> int:
    """C(2n, n)."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    return binomial(2 * n, n)


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1)."""
    return _exact_div(central_binomial(n), n + 1, "catalan")


def franel(n: int) -> int:
    """sum_k C(n, k)**3."""
    return eval_B(n, 3, 1, 1)


def fuss_catalan(n: int, k: int) -> int:
    """C(kn, n) / ((k-1)n + 1); an integer for every k >= 2."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if k < 2:
        raise DomainError(f"k must be at least 2, got {k}")
    return _exact_div(binomial(k * n, n), (k - 1) * n + 1, "fuss_catalan")


# ---------------------------------------------------------------------------
# Value streams: y_start, y_start+1, ... of one recurrence, two values held at a time
# ---------------------------------------------------------------------------

# A stream started at index _JUMP_FROM or later reaches it by chunks of
# _JUMP steps; below it, plain steps are faster (the table in CHANGES.md).
_JUMP = 64
_JUMP_FROM = 1792

_Step = Callable[[int], tuple[int, int, int]]


def _started(
    values: Callable[[int, int, int], Iterator[int]],
    start: int,
    initial: tuple[int, int, int],
    step: _Step | None = None,
    what: str = "",
) -> Iterator[int | None]:
    """The stream `values(*initial)` started at index `start`.

    `values(j, y_{j-1}, y_j)` yields y_j, y_{j+1}, ..., one step of the
    recurrence c(i) y_{i+1} = alpha(i) y_i + beta(i) y_{i-1} at a time,
    and `step(i)` is (alpha(i), beta(i), c(i)).  From _JUMP_FROM on, a
    stream with a `step` jumps to `start` (_jump); otherwise it steps from
    j and drops the values before `start`.  An index below j is undefined
    and yields None.
    """
    if start < 0:
        raise DomainError(f"start must be non-negative, got {start}")
    j, prev, cur = initial
    if start < j:
        return chain((None,) * (j - start), values(j, prev, cur))
    if step is None or start < _JUMP_FROM:
        return islice(values(j, prev, cur), start - j, None)
    return values(start, *_jump(step, j, prev, cur, start, what))


def _jump(step: _Step, j: int, prev: int, cur: int, start: int, what: str) -> tuple[int, int]:
    """(y_{start-1}, y_start) from (y_{j-1}, y_j), by chunks of _JUMP steps.

    The step at i is the integer matrix [[alpha(i), beta(i)], [c(i), 0]]
    applied to (y_i, y_{i-1}): it gives c(i) * (y_{i+1}, y_i).  A chunk
    multiplies its step matrices into one, whose entries stay short (about
    a thousand bits at i = 8000), applies that to the state and divides
    both components by the product of its c(i), each division checked
    exact.  The product's bottom row is c(i) times its top row before the
    last step, so the chunk keeps its last two top rows, (p, q) and
    (p_, q_), which follow the recurrence itself.

    A plain step divides a long value by a one-digit one at every index,
    which costs several times multiplying it by that digit; a chunk
    divides twice per _JUMP indices.
    """
    while j < start:
        stop = min(j + _JUMP, start)
        p, q, p_, q_, c_, den = 1, 0, 0, 1, 1, 1  # the identity, whose bottom row is c_ * (p_, q_)
        for i in range(j, stop):
            alpha, beta, c = step(i)
            beta *= c_
            p, q, p_, q_ = alpha * p + beta * p_, alpha * q + beta * q_, p, q
            den *= c_
            c_ = c
        # den is the product of c(j), ..., c(stop-2): the last step's c(stop-1) cancels in y_{stop-1}.
        prev, cur = _exact_div(p_ * cur + q_ * prev, den, what), _exact_div(p * cur + q * prev, den * c_, what)
        j = stop
    return prev, cur


def trinomial_values(a: int, b: int, start: int = 0) -> Iterator[int]:
    """T_start(a, b), T_start+1(a, b), ... by the recurrence

    (n+1) T_{n+1} = (2n+1) b T_n - n (b**2 - 4a) T_{n-1},   T_0 = 1, T_1 = b.
    """
    disc = b * b - 4 * a

    def values(n: int, prev: int, cur: int) -> Iterator[int]:
        for n in count(n):
            yield cur
            prev, cur = cur, _exact_div((2 * n + 1) * b * cur - n * disc * prev, n + 1, "trinomial")

    return _started(values, start, (0, 0, 1), lambda n: ((2 * n + 1) * b, -n * disc, n + 1), "trinomial")


def motzkin_values(a: int, b: int, start: int = 0) -> Iterator[int]:
    """M_start(a, b), M_start+1(a, b), ... by the recurrence

    (n+3) M_{n+1} = (2n+3) b M_n + (4a - b**2) n M_{n-1},   M_0 = 1, M_1 = b.
    """
    disc = 4 * a - b * b

    def values(n: int, prev: int, cur: int) -> Iterator[int]:
        for n in count(n):
            yield cur
            prev, cur = cur, _exact_div((2 * n + 3) * b * cur + disc * n * prev, n + 3, "motzkin")

    return _started(values, start, (0, 0, 1), lambda n: ((2 * n + 3) * b, disc * n, n + 3), "motzkin")


def franel_values(start: int = 0) -> Iterator[int]:
    """Franel numbers f_start, f_start+1, ... by the recurrence

    (n+1)**2 f_{n+1} = (7n**2 + 7n + 2) f_n + 8 n**2 f_{n-1},   f_0 = 1, f_1 = 2.
    """

    def values(n: int, prev: int, cur: int) -> Iterator[int]:
        for n in count(n):
            yield cur
            prev, cur = cur, _exact_div((7 * n * n + 7 * n + 2) * cur + 8 * n * n * prev, (n + 1) ** 2, "franel")

    # No jumps: the step divides by (n+1)**2, about twice the bits of the
    # other streams' divisors, so a chunk's two long divisions and four
    # long products cost what its 64 steps do (the table in CHANGES.md).
    return _started(values, start, (0, 0, 1))


def schroder_large_values(start: int = 0) -> Iterator[int | None]:
    """S_start, S_start+1, ... by the recurrence

    (n+1) S_n = 3(2n-1) S_{n-1} - (n-2) S_{n-2},   S_0 = 1, S_1 = 2;

    index 0 is undefined and yields None.
    """

    def values(n: int, prev: int, cur: int) -> Iterator[int]:
        # The step from S_{n-1} to S_n, as the recurrence reads.
        for n in count(n + 1):
            yield cur
            prev, cur = cur, _exact_div(3 * (2 * n - 1) * cur - (n - 2) * prev, n + 1, "schroder_large")

    return _started(values, start, (1, 1, 2), lambda n: (3 * (2 * n + 1), 1 - n, n + 2), "schroder_large")


def fuss_catalan_values(k: int, start: int = 0) -> Iterator[int]:
    """Fuss-Catalan numbers F_j = C(kj, j) / ((k-1)j + 1) for j = start, start + 1, ... by

    F_{j+1} = k (kj+1)...(kj+k-1) F_j / (((k-1)j+2)...((k-1)j+k)),   the first one from fuss_catalan.

    For 1 <= j < k the two runs share the factors kj+1..(k-1)j+k, which
    cancel, so a step multiplies at most min(j, k - 1) factors of each run;
    F_1 = F_0 = 1.  At k = 2 these are the Catalan numbers.
    """
    if start < 0:
        raise DomainError(f"start must be non-negative, got {start}")
    if k < 2:
        raise DomainError(f"k must be at least 2, got {k}")

    def values() -> Iterator[int]:
        cur = fuss_catalan(start, k)
        for j in count(start):
            yield cur
            if j:
                num = k * math.prod(range(max(k * j + 1, (k - 1) * j + k + 1), k * j + k))
                den = math.prod(range((k - 1) * j + 2, min((k - 1) * j + k + 1, k * j + 1)))
                cur = _exact_div(cur * num, den, "fuss_catalan")

    return values()


def delannoy_values(start: int = 0) -> Iterator[int]:
    """Central Delannoy numbers D_start, D_start+1, ...: the trinomial stream at (ab, a+b) = (2, 3), so

    (n+1) D_{n+1} = 3(2n+1) D_n - n D_{n-1},   D_0 = 1, D_1 = 3.
    """
    return trinomial_values(2, 3, start)


def square_sum_values(a: int, b: int, start: int = 0) -> Iterator[int]:
    """B(start, 2, a, b), B(start+1, 2, a, b), ...: as B(n, 2, a, b) = T_n(ab, a+b), the trinomial stream there."""
    return trinomial_values(a * b, a + b, start)


def legendre_values(x: int, start: int = 0) -> Iterator[int]:
    """P_start(x), P_start+1(x), ... at odd x: the square-sum stream at ((x-1)/2, (x+1)/2)."""
    if x % 2 == 0:
        raise DomainError(f"x must be odd for an integer value, got {x}")
    return square_sum_values((x - 1) // 2, (x + 1) // 2, start)


def hexagonal_values(start: int = 0) -> Iterator[int]:
    """Restricted hexagonal numbers from index start: the Motzkin stream at (1, 3)."""
    return motzkin_values(1, 3, start)


def schroder_little_values(start: int = 0) -> Iterator[int | None]:
    """s_start, s_start+1, ...: the large stream halved; index 0 is undefined and yields None."""
    return (s if s is None else _exact_div(s, 2, "schroder_little") for s in schroder_large_values(start))


def stream_slice(
    values: Callable[..., Iterator[int | None]], lo: int, stop: int, *params: int
) -> Iterator[int | None]:
    """Elements lo..stop-1 of the stream `values(*params)`, which starts at lo.

    An index past the streams' reach is a DomainError, raised before the stream starts.
    """
    _check_reach(stop - 1, "value streams")
    return islice(values(*params, start=lo), stop - lo)


def schroder_large(n: int) -> int:
    """Large Schroder number S_n = (-D_{n-1} + 6 D_n - D_{n+1}) / 2, n >= 1."""
    if n < 1:
        raise DomainError(f"large Schroder numbers start at index 1, got {n}")
    d_prev, d, d_next = stream_slice(delannoy_values, n - 1, n + 2)
    return _exact_div(-d_prev + 6 * d - d_next, 2, "schroder_large")


def schroder_little(n: int) -> int:
    """Little Schroder number s_n = S_n / 2, n >= 1."""
    if n < 1:
        raise DomainError(f"little Schroder numbers start at index 1, got {n}")
    return _exact_div(schroder_large(n), 2, "schroder_little")


def central_multinomial(n: int, p: int) -> int:
    """(pn)! / (n!)**p, the number of ways to deal pn cards into p equal hands."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if p < 2:
        raise DomainError(f"p must be at least 2, got {p}")
    return _exact_div(math.factorial(p * n), math.factorial(n) ** p, "central_multinomial")


def central_multinomial_product(n: int, p: int) -> int:
    """The same number built the other way: product_{k=2..p} C(kn, n)."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if p < 2:
        raise DomainError(f"p must be at least 2, got {p}")
    return _balanced_product([binomial(k * n, n) for k in range(2, p + 1)])


def central_multinomial_values(p: int, start: int = 0) -> Iterator[int]:
    """Central multinomials M_n = (pn)! / (n!)**p for n = start, start + 1, ... by

    M_{n+1} = (pn+1)...(pn+p) M_n / (n+1)**p,   the first one, and the checks of start and p, from
    central_multinomial_product on the first next.  At p = 2 these are the central binomials C(2n, n).
    """
    cur = central_multinomial_product(start, p)
    for n in count(start):
        yield cur
        num, den = math.perm(p * n + p, p) * cur, (n + 1) ** p
        cur, rem = divmod(num, den)
        if rem:  # the failure text is built only here, so a step costs one divmod
            _exact_div(num, den, f"central_multinomial at n={n + 1}, p={p}")


def legendre(n: int, x: int) -> int:
    """Integer Legendre polynomial value P_n(x) for odd x.

    Uses P_n(x) = B(n, 2, (x-1)/2, (x+1)/2); for even x the value need
    not be an integer, so even x is rejected (see legendre_rational).
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if x % 2 == 0:
        raise DomainError(f"x must be odd for an integer value, got {x}")
    return eval_B(n, 2, (x - 1) // 2, (x + 1) // 2)


def legendre_rational(n: int, x: int) -> Fraction:
    """P_n(x) by the explicit square-binomial representation

    (1 / 2**n) * sum_k C(n, k)**2 * (x+1)**k * (x-1)**(n-k),

    evaluated in exact rational arithmetic so that even x is testable.
    The sum runs in Horner form over x + 1, from the term k = n down, with
    (x-1)**(n-k) a running product; C(n, k) = C(n, n-k) runs up from k = n.
    """
    from fractions import Fraction  # imported here: it loads decimal too

    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    total, c, low = 0, 1, 1  # and C(n, j), (x-1)**j for j = n - k
    for j in range(n + 1):
        total = total * (x + 1) + c * c * low
        low *= x - 1
        c = _exact_div(c * (n - j), j + 1, "legendre_rational")
    return Fraction(total, 2**n)


def bsum_range_values(m: int, a: int, b: int, start: int = 0) -> Iterator[int]:
    """B(start, m, a, b), B(start+1, m, a, b), ...: the square-sum stream at m = 2, eval_B at each index otherwise."""
    return square_sum_values(a, b, start) if m == 2 else (eval_B(n, m, a, b) for n in count(start))


def half_rows() -> Iterator[list[int]]:
    """The half rows C(n, 0..n//2) of Pascal's triangle for n = 0, 1, 2, ..., each built by addition from the last."""
    row = [1]
    for n in count():
        if n:
            # The half row of n - 1, extended by C(n-1, n/2) = C(n-1, n/2 - 1) when n is even.
            prev = row + row[-1:] if n % 2 == 0 else row
            row = [1, *map(operator.add, prev, prev[1:])]
        yield row


def check_congruence(n: int, m: int, a: int, b: int) -> bool:
    """Whether B(n, m, a, b) is congruent to a**n * B(n, m, 1, -1) mod (a+b).

    Requires coprime a, b with a + b nonzero; the congruence is a theorem,
    so this is always True, as tier-1 criterion 9 asserts.
    """
    if math.gcd(a, b) != 1:
        raise DomainError(f"a and b must be coprime, got {a}, {b}")
    if a + b == 0:
        raise DomainError("a + b must be nonzero")
    diff = eval_B(n, m, a, b) - a**n * eval_B(n, m, 1, -1)
    return diff % (a + b) == 0


@dataclass(frozen=True)
class SequenceDef:
    """A named integer sequence: the CLI-facing registry entry.

    `values(*params, start=0)` streams y_start, y_start+1, ..., with None
    below `min_index`; ranges and single values alike read it.
    """

    name: str
    params: tuple[str, ...]
    min_index: int
    values: Callable[..., Iterator[int | None]]

    def check_index(self, n: int) -> None:
        """The DomainError that `seq` and `omega` give an index below min_index."""
        if n < self.min_index:
            raise DomainError(f"{self.name} starts at index {self.min_index}, got {n}")

    def value(self, n: int, *params: int) -> int:
        """y_n, the first element of the stream started at n; only a few values are held at a time."""
        self.check_index(n)
        return next(stream_slice(self.values, n, n + 1, *params))


SEQUENCES: dict[str, SequenceDef] = {
    s.name: s
    for s in (
        SequenceDef("delannoy", (), 0, delannoy_values),
        SequenceDef("schroder", (), 1, schroder_large_values),
        SequenceDef("little-schroder", (), 1, schroder_little_values),
        SequenceDef("catalan", (), 0, partial(fuss_catalan_values, 2)),
        SequenceDef("central-binomial", (), 0, partial(central_multinomial_values, 2)),
        SequenceDef("franel", (), 0, franel_values),
        SequenceDef("hexagonal", (), 0, hexagonal_values),
        SequenceDef("fuss-catalan", ("k",), 0, fuss_catalan_values),
        SequenceDef("multinomial", ("p",), 0, central_multinomial_values),
        SequenceDef("trinomial", ("a", "b"), 0, trinomial_values),
        SequenceDef("motzkin", ("a", "b"), 0, motzkin_values),
        SequenceDef("legendre", ("x",), 0, legendre_values),
        SequenceDef("bsum", ("m", "a", "b"), 0, bsum_range_values),
    )
}
