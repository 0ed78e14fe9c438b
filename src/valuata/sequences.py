"""Exact big-integer generators for the binomial-sum family.

The central object is the weighted power sum

    B(n, m, a, b) = sum_k C(n, k)**m * a**(n-k) * b**k

together with its relatives: central Delannoy and Schroder numbers,
Franel numbers, Catalan and Fuss-Catalan numbers, generalized central
trinomial coefficients, generalized Motzkin numbers, central multinomial
coefficients and integer Legendre polynomial values.  Everything is
computed in exact integer arithmetic; any division performed is checked
to be exact and raises IntegralityError otherwise (which would signal an
implementation bug, not a mathematical possibility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable


class DomainError(ValueError):
    """An index or parameter outside a sequence's domain."""


class IntegralityError(ArithmeticError):
    """An exact division left a remainder."""


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise IntegralityError(f"{what}: {num} is not divisible by {den}")
    return q


def _powers(x: int, n: int) -> list[int]:
    """[x**0, x**1, ..., x**n] with the 0**0 = 1 convention."""
    out = [1] * (n + 1)
    for i in range(1, n + 1):
        out[i] = out[i - 1] * x
    return out


@dataclass(frozen=True)
class SumParams:
    """Parameter tuple (n, m, a, b) of the weighted power sum."""

    n: int
    m: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DomainError(f"n must be non-negative, got {self.n}")
        if self.m < 2:
            raise DomainError(f"m must be at least 2, got {self.m}")

    def hypotheses_ok(self) -> bool:
        """True when the divisibility theorems apply: coprime a, b and a+b not 0 or a unit."""
        return math.gcd(self.a, self.b) == 1 and self.a + self.b not in (0, 1, -1)


def eval_B(n: int, m: int, a: int, b: int) -> int:
    """Exact value of sum_k C(n, k)**m * a**(n-k) * b**k."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    apow = _powers(a, n)
    bpow = _powers(b, n)
    total = 0
    c = 1
    for k in range(n + 1):
        total += c**m * apow[n - k] * bpow[k]
        c = c * (n - k) // (k + 1)
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

    the coefficient of x**n in (x**2 + b*x + a)**n.
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    bpow = _powers(b, n)
    total = 0
    apow = 1
    c_n2k = 1  # C(n, 2k), advanced two columns per step
    c_2kk = 1  # C(2k, k)
    for k in range(n // 2 + 1):
        total += c_n2k * c_2kk * apow * bpow[n - 2 * k]
        c_n2k = c_n2k * (n - 2 * k) // (2 * k + 1) * (n - 2 * k - 1) // (2 * k + 2)
        c_2kk = c_2kk * (4 * k + 2) // (k + 1)
        apow *= a
    return total


def eval_M(n: int, a: int, b: int) -> int:
    """Generalized Motzkin number:

    sum_{k <= n/2} C(n, 2k) * Catalan(k) * a**k * b**(n-2k).
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    bpow = _powers(b, n)
    total = 0
    apow = 1
    c_n2k = 1  # C(n, 2k)
    cat = 1  # Catalan(k)
    for k in range(n // 2 + 1):
        total += c_n2k * cat * apow * bpow[n - 2 * k]
        c_n2k = c_n2k * (n - 2 * k) // (2 * k + 1) * (n - 2 * k - 1) // (2 * k + 2)
        cat = cat * (4 * k + 2) // (k + 2)
        apow *= a
    return total


def central_binomial(n: int) -> int:
    """C(2n, n)."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    return comb(2 * n, n)


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1)."""
    return _exact_div(central_binomial(n), n + 1, "catalan")


def franel(n: int) -> int:
    """sum_k C(n, k)**3."""
    return eval_B(n, 3, 1, 1)


def hexagonal(n: int) -> int:
    """Restricted hexagonal number: the generalized Motzkin value at (1, 3)."""
    return eval_M(n, 1, 3)


def fuss_catalan(n: int, k: int) -> int:
    """C(kn, n) / ((k-1)n + 1); an integer for every k >= 2."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if k < 2:
        raise DomainError(f"k must be at least 2, got {k}")
    return _exact_div(comb(k * n, n), (k - 1) * n + 1, "fuss_catalan")


# ---------------------------------------------------------------------------
# Recurrence tables: [y_0, ..., y_n_max] in one exact-division pass
# ---------------------------------------------------------------------------


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max}")


def table_value(table: Callable[..., list[int]], n: int, *params: int) -> int:
    """y_n read off `table(n, *params)`, a single value built by its recurrence."""
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    return table(n, *params)[n]


def trinomial_table(n_max: int, a: int, b: int) -> list[int]:
    """T_n(a, b) for n = 0..n_max by the recurrence

    (n+1) T_{n+1} = (2n+1) b T_n - n (b**2 - 4a) T_{n-1},   T_0 = 1, T_1 = b.
    """
    _check_n_max(n_max)
    disc = b * b - 4 * a
    table = [1, b]
    for n in range(1, n_max):
        num = (2 * n + 1) * b * table[n] - n * disc * table[n - 1]
        table.append(_exact_div(num, n + 1, "trinomial"))
    return table[: n_max + 1]


def bsum2_table(n_max: int, a: int, b: int) -> list[int]:
    """B(n, 2, a, b) for n = 0..n_max: the trinomial table at (ab, a+b), so

    (n+1) B_{n+1} = (2n+1)(a+b) B_n - n (b-a)**2 B_{n-1},   B_0 = 1, B_1 = a + b.
    """
    return trinomial_table(n_max, a * b, a + b)


def motzkin_table(n_max: int, a: int, b: int) -> list[int]:
    """M_n(a, b) for n = 0..n_max by the recurrence

    (n+3) M_{n+1} = (2n+3) b M_n + (4a - b**2) n M_{n-1},   M_0 = 1, M_1 = b.
    """
    _check_n_max(n_max)
    disc = 4 * a - b * b
    table = [1, b]
    for n in range(1, n_max):
        num = (2 * n + 3) * b * table[n] + disc * n * table[n - 1]
        table.append(_exact_div(num, n + 3, "motzkin"))
    return table[: n_max + 1]


def delannoy_table(n_max: int) -> list[int]:
    """Central Delannoy numbers D_0..D_n_max, the bsum2 table at (1, 2):

    (n+1) D_{n+1} = 3(2n+1) D_n - n D_{n-1},   D_0 = 1, D_1 = 3.
    """
    return bsum2_table(n_max, 1, 2)


def delannoy(n: int) -> int:
    """Central Delannoy number D_n."""
    return table_value(delannoy_table, n)


def legendre_table(n_max: int, x: int) -> list[int]:
    """P_n(x) for n = 0..n_max at odd x: the bsum2 table at ((x-1)/2, (x+1)/2)."""
    if x % 2 == 0:
        raise DomainError(f"x must be odd for an integer value, got {x}")
    return bsum2_table(n_max, (x - 1) // 2, (x + 1) // 2)


def franel_table(n_max: int) -> list[int]:
    """Franel numbers f_0..f_n_max by the recurrence

    (n+1)**2 f_{n+1} = (7n**2 + 7n + 2) f_n + 8 n**2 f_{n-1},   f_0 = 1, f_1 = 2.
    """
    _check_n_max(n_max)
    table = [1, 2]
    for n in range(1, n_max):
        num = (7 * n * n + 7 * n + 2) * table[n] + 8 * n * n * table[n - 1]
        table.append(_exact_div(num, (n + 1) ** 2, "franel"))
    return table[: n_max + 1]


def hexagonal_table(n_max: int) -> list[int]:
    """Restricted hexagonal numbers: the Motzkin table at (1, 3)."""
    return motzkin_table(n_max, 1, 3)


def catalan_table(n_max: int) -> list[int]:
    """Catalan numbers C_0..C_n_max by C_{k+1} = 2(2k+1) C_k / (k+2)."""
    _check_n_max(n_max)
    table = [1]
    for k in range(n_max):
        table.append(_exact_div(2 * (2 * k + 1) * table[k], k + 2, "catalan"))
    return table


def schroder_large(n: int, _dt: list[int] | None = None) -> int:
    """Large Schroder number S_n = (-D_{n-1} + 6 D_n - D_{n+1}) / 2, n >= 1."""
    if n < 1:
        raise DomainError(f"large Schroder numbers start at index 1, got {n}")
    dt = _dt if _dt is not None else delannoy_table(n + 1)
    return _exact_div(-dt[n - 1] + 6 * dt[n] - dt[n + 1], 2, "schroder_large")


def schroder_little(n: int, _dt: list[int] | None = None) -> int:
    """Little Schroder number s_n = S_n / 2, n >= 1."""
    return _exact_div(schroder_large(n, _dt), 2, "schroder_little")


def schroder_large_table(n_max: int) -> list[int | None]:
    """[None, S_1, ..., S_n_max]; index 0 is undefined."""
    dt = delannoy_table(n_max + 1)
    out: list[int | None] = [None]
    out.extend(schroder_large(n, dt) for n in range(1, n_max + 1))
    return out


def schroder_little_table(n_max: int) -> list[int | None]:
    """[None, s_1, ..., s_n_max]; index 0 is undefined."""
    dt = delannoy_table(n_max + 1)
    out: list[int | None] = [None]
    out.extend(schroder_little(n, dt) for n in range(1, n_max + 1))
    return out


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
    # Multiplying in a balanced tree keeps the operands of similar size,
    # which is much cheaper than growing one product factor by factor.
    factors = [comb(k * n, n) for k in range(2, p + 1)]
    while len(factors) > 1:
        paired = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0]


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
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    total = 0
    c = 1
    for k in range(n + 1):
        total += c * c * (x + 1) ** k * (x - 1) ** (n - k)
        c = c * (n - k) // (k + 1)
    return Fraction(total, 2**n)


def bsum(n: int, m: int, a: int, b: int) -> int:
    """B(n, m, a, b); the square sum (m = 2) is read from its recurrence table."""
    if m != 2:
        return eval_B(n, m, a, b)
    return table_value(bsum2_table, n, a, b)


def check_congruence(n: int, m: int, a: int, b: int) -> bool:
    """Whether B(n, m, a, b) is congruent to a**n * B(n, m, 1, -1) mod (a+b).

    Requires coprime a, b with a + b nonzero; the congruence is a theorem,
    so the harness asserts this is always True.
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

    `table(n_max, *params)` builds [y_0, ..., y_n_max] in one pass, for
    sequences that have a recurrence; it starts at index 0, with None
    below `min_index`.
    """

    name: str
    fn: Callable[..., int]
    params: tuple[str, ...]
    min_index: int
    description: str
    table: Callable[..., list[int]] | None = None

    def value(self, n: int, *params: int) -> int:
        """y_n, read off the recurrence table when there is one.

        A sequence that starts past index 0 (Schroder) takes `fn`, which
        already reads one Delannoy table and skips the values below n.
        """
        if self.table is None or self.min_index:
            return self.fn(n, *params)
        return table_value(self.table, n, *params)


SEQUENCES: dict[str, SequenceDef] = {
    s.name: s
    for s in (
        SequenceDef("delannoy", delannoy, (), 0, "central Delannoy numbers", delannoy_table),
        SequenceDef("schroder", schroder_large, (), 1, "large Schroder numbers", schroder_large_table),
        SequenceDef(
            "little-schroder", schroder_little, (), 1, "little Schroder numbers", schroder_little_table
        ),
        SequenceDef("catalan", catalan, (), 0, "Catalan numbers"),
        SequenceDef("central-binomial", central_binomial, (), 0, "central binomial coefficients"),
        SequenceDef("franel", franel, (), 0, "Franel numbers", franel_table),
        SequenceDef("hexagonal", hexagonal, (), 0, "restricted hexagonal numbers", hexagonal_table),
        SequenceDef("fuss-catalan", fuss_catalan, ("k",), 0, "Fuss-Catalan numbers C(kn,n)/((k-1)n+1)"),
        SequenceDef("multinomial", central_multinomial, ("p",), 0, "central multinomial coefficients (pn)!/(n!)^p"),
        SequenceDef(
            "trinomial", eval_T, ("a", "b"), 0, "generalized central trinomial coefficients", trinomial_table
        ),
        SequenceDef("motzkin", eval_M, ("a", "b"), 0, "generalized Motzkin numbers", motzkin_table),
        SequenceDef("legendre", legendre, ("x",), 0, "Legendre polynomial values at odd x", legendre_table),
        SequenceDef("bsum", bsum, ("m", "a", "b"), 0, "weighted power sums B(n,m,a,b)"),
    )
}
