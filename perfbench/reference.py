"""Arithmetic the benchmark checks the program against.

Nothing here imports `valuata`.  Valuations of factorials and binomials
come from Legendre's formula, sequence values are rebuilt by sums or
recurrences written out below, and bases are factored with sympy (loaded
only when a check runs, after the timed rounds, so that it never counts
towards the workload's memory).
"""

from __future__ import annotations

from math import comb

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits: int) -> int:
    """A uniformly drawn prime with exactly `bits` bits."""
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


_FACTOR_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}


def factor(x: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of |x| as ((p, e), ...), by sympy."""
    x = abs(x)
    if x not in _FACTOR_CACHE:
        from sympy import factorint

        _FACTOR_CACHE[x] = tuple(sorted(factorint(x).items()))
    return _FACTOR_CACHE[x]


# --- valuations by Legendre's formula


def vp_factorial(m: int, p: int) -> int:
    """Exponent of p in m!, as the sum of floor(m / p**i)."""
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def vp_small(m: int, p: int) -> int:
    """Exponent of p in a nonzero integer, by repeated division."""
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def vp_binomial(n: int, k: int, p: int) -> int:
    return vp_factorial(n, p) - vp_factorial(k, p) - vp_factorial(n - k, p)


def vp_central(n: int, p: int) -> int:
    """Exponent of p in C(2n, n)."""
    return vp_binomial(2 * n, n, p)


def vp_catalan(n: int, p: int) -> int:
    return vp_central(n, p) - vp_small(n + 1, p)


def digit_sum(n: int, p: int) -> int:
    total = 0
    while n:
        n, d = divmod(n, p)
        total += d
    return total


def omega_by(x: int, vp_of) -> int:
    """min over p**e || x of vp_of(p) // e."""
    return min(vp_of(p) // e for p, e in factor(x))


def omega_value(x: int, y: int) -> int:
    """Highest k with x**k | y, for y != 0, by repeated division."""
    return omega_by(x, lambda p: vp_small(y, p))


def exact_power(x: int, y: int, k: int) -> bool:
    """True when x**k divides y and x**(k+1) does not."""
    x, y = abs(x), abs(y)
    if y == 0 or k < 0:
        return False
    return y % x**k == 0 and y % x ** (k + 1) != 0


# --- the claims of the paper, in terms of the valuations above
#
# Each closed form is min over p**e || X of floor(v / e) with
#   v = v_p(core(n))                      for the even member, and
#   v = v_p(2n+1) + v_p(core(n)), plus 1  for the odd member,
# where core is C(2n, n) or Catalan(n).  The prime-power cases (v_2, v_3)
# are the same formula with X = p.


def closed_form(x: int, n: int, parity: str, core) -> int:
    if parity == "even":
        return omega_by(x, lambda p: core(n, p))
    return 1 + omega_by(x, lambda p: vp_small(2 * n + 1, p) + core(n, p))


def schroder_form(n: int, parity: str) -> int:
    """v_3 S_{2n+1} (odd) and v_3 S_{2n+2} (even) by the thm4 claim."""
    if parity == "odd":
        return vp_catalan(n, 3)
    return 1 + vp_small(2 * n + 1, 3) + vp_catalan(n, 3)


def catalan_shift_form(n: int, parity: str) -> int:
    """v_2 Catalan(2n+1) (odd) and v_2 Catalan(2n+2) (even)."""
    return vp_catalan(n, 2) + (parity == "even")


# --- sequence values, rebuilt without the package


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"reference recurrence left a remainder: {num} / {den}")
    return q


def bsum(n: int, m: int, a: int, b: int) -> int:
    """sum_k C(n, k)**m a**(n-k) b**k; the m = 2 case by its recurrence."""
    if m != 2:
        return sum(comb(n, k) ** m * a ** (n - k) * b**k for k in range(n + 1))
    # (k+1) B_{k+1} = (2k+1)(a+b) B_k - k (b-a)**2 B_{k-1}
    prev, cur = 1, a + b
    if n == 0:
        return prev
    s, d2 = a + b, (b - a) ** 2
    for k in range(1, n):
        prev, cur = cur, _exact((2 * k + 1) * s * cur - k * d2 * prev, k + 1)
    return cur


def trinomial(n: int, a: int, b: int) -> int:
    """Coefficient of x**n in (x**2 + b x + a)**n, by its recurrence."""
    prev, cur = 1, b
    if n == 0:
        return prev
    d = b * b - 4 * a
    for k in range(1, n):
        prev, cur = cur, _exact((2 * k + 1) * b * cur - k * d * prev, k + 1)
    return cur


def motzkin(n: int, a: int, b: int) -> int:
    """sum_k C(n, 2k) Catalan(k) a**k b**(n-2k), by its recurrence."""
    prev, cur = 1, b
    if n == 0:
        return prev
    d = 4 * a - b * b
    for k in range(1, n):
        prev, cur = cur, _exact((2 * k + 3) * b * cur + d * k * prev, k + 3)
    return cur


def franel(n: int) -> int:
    prev, cur = 1, 2
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, _exact((7 * k * k + 7 * k + 2) * cur + 8 * k * k * prev, (k + 1) ** 2)
    return cur


def legendre(n: int, x: int) -> int:
    """P_n(x) by Bonnet's recurrence; an integer for odd x."""
    prev, cur = 1, x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, _exact((2 * k + 1) * x * cur - k * prev, k + 1)
    return cur


def _delannoy_terms(n: int):
    """C(n, k) C(n+k, k) for k = 0..n, each from the one before."""
    t = 1
    for k in range(n + 1):
        yield k, t
        t = t * (n - k) * (n + k + 1) // ((k + 1) * (k + 1))


def delannoy(n: int) -> int:
    return sum(t for _, t in _delannoy_terms(n))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def schroder(n: int) -> int:
    """Large Schroder number: sum_k C(n, k) C(n+k, k) / (k+1)."""
    return sum(_exact(t, k + 1) for k, t in _delannoy_terms(n))


def multinomial(n: int, p: int) -> int:
    """(pn)! / (n!)**p as the product of C(kn, n), k = 2..p."""
    out = 1
    for k in range(2, p + 1):
        out *= comb(k * n, n)
    return out


SEQUENCES = {
    "delannoy": delannoy,
    "schroder": schroder,
    "little-schroder": lambda n: schroder(n) // 2,
    "catalan": catalan,
    "central-binomial": lambda n: comb(2 * n, n),
    "franel": franel,
    "hexagonal": lambda n: motzkin(n, 1, 3),
    "fuss-catalan": lambda n, k: comb(k * n, n) // ((k - 1) * n + 1),
    "multinomial": multinomial,
    "trinomial": trinomial,
    "motzkin": motzkin,
    "legendre": legendre,
    "bsum": bsum,
}
