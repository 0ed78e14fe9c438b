"""The auxiliary two-index family behind the higher-power divisibility bounds.

For the weighted power sum B these are

    M(n, j, t; a, b) = C(n-j, j) * sum_v C(n-2j, v) * C(n, j+v)**t
                                         * a**(n-j-v) * b**(j+v)

for n >= 0, 0 <= j <= n/2 and t >= 0.  Raising t by one is a binomial-weighted
combination of the family at the previous level, which is what lets a
common divisor of the whole j-range propagate to every higher t and to
the power sums themselves.  Closed forms exist at t = 0, 1, 2.
"""

from __future__ import annotations

from math import comb

from .sequences import eval_B


class WitnessFailure(Exception):
    """The claimed common divisor misses some member of the family."""

    def __init__(self, j: int, value: int, q: int):
        super().__init__(f"divisor {q} does not divide the j={j} member {value}")
        self.j = j


def _binom(n: int, k: int) -> int:
    """C(n, k) with the zero-outside-range convention."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _check_index(n: int, j: int, t: int) -> None:
    if n < 0:
        raise IndexError(f"n must be non-negative, got {n}")
    if t < 0:
        raise IndexError(f"t must be non-negative, got {t}")
    if not 0 <= j <= n // 2:
        raise IndexError(f"j must lie in [0, {n // 2}] for n={n}, got {j}")


def msum_B(n: int, j: int, t: int, a: int, b: int) -> int:
    """M(n, j, t; a, b) for the weighted power sum, by direct summation."""
    _check_index(n, j, t)
    total = 0
    for v in range(n - 2 * j + 1):
        k = j + v
        total += comb(n - 2 * j, v) * comb(n, k) ** t * a ** (n - k) * b**k
    return comb(n - j, j) * total


def msum_recurrence_step(n: int, j: int, t: int, a: int, b: int) -> int:
    """M(n, j, t+1; a, b) assembled from level t:

    C(n, j) * sum_{u <= (n-2j)/2} C(n-j, u) * M(n, j+u, t; a, b).

    Must equal msum_B(n, j, t+1, a, b).
    """
    _check_index(n, j, t)
    total = 0
    for u in range((n - 2 * j) // 2 + 1):
        total += comb(n - j, u) * msum_B(n, j + u, t, a, b)
    return comb(n, j) * total


def msum_closed_t0(n: int, j: int, a: int, b: int) -> int:
    """Closed form at t = 0:  C(n-j, j) * (ab)**j * (a+b)**(n-2j)."""
    _check_index(n, j, 0)
    return comb(n - j, j) * (a * b) ** j * (a + b) ** (n - 2 * j)


def msum_closed_t1(n: int, j: int, a: int, b: int) -> int:
    """Closed form at t = 1:

    C(n, j) * sum_{k <= (n-2j)/2} C(n-j, k) * C(n-j-k, j+k)
                                 * (ab)**(j+k) * (a+b)**(n-2j-2k).

    At j = 0 this is the folded form of the m = 2 power sum.
    """
    _check_index(n, j, 0)
    ab, s = a * b, a + b
    total = 0
    for k in range((n - 2 * j) // 2 + 1):
        total += (
            comb(n - j, k) * _binom(n - j - k, j + k) * ab ** (j + k) * s ** (n - 2 * j - 2 * k)
        )
    return comb(n, j) * total


def msum_closed_t2(n: int, j: int, a: int, b: int) -> int:
    """Closed form at t = 2:

    C(n, j) * sum_{l <= n/2} C(n, 2l) * C(2l, l) * C(n+l-j, n)
                            * (ab)**l * (a+b)**(n-2l).

    At j = 0 this reduces to MacMahon's identity for the m = 3 power sum.
    """
    _check_index(n, j, 0)
    ab, s = a * b, a + b
    total = 0
    for l in range(n // 2 + 1):
        total += (
            comb(n, 2 * l) * comb(2 * l, l) * _binom(n + l - j, n) * ab**l * s ** (n - 2 * l)
        )
    return comb(n, j) * total


def divisibility_propagation_witness(
    n: int, a: int, b: int, q: int, t_prime: int, levels: int = 2, orders: int = 3
) -> bool:
    """Verify that q divides every M(n, j, t'; a, b), then spot-check the payoff.

    The premise is checked for all j up to n/2; the first miss raises
    WitnessFailure(j).  When it holds, divisibility is additionally
    verified at t'+1 .. t'+levels for every j, and for the power sums of
    order t'+1 .. t'+orders, all of which the propagation guarantees; a
    failure there would be an implementation bug and raises
    ArithmeticError.
    """
    _check_index(n, 0, t_prime)
    if q == 0:
        raise ValueError("divisor q must be nonzero")
    half = n // 2
    for j in range(half + 1):
        value = msum_B(n, j, t_prime, a, b)
        if value % q:
            raise WitnessFailure(j, value, q)
    for t in range(t_prime + 1, t_prime + levels + 1):
        for j in range(half + 1):
            if msum_B(n, j, t, a, b) % q:
                raise ArithmeticError(
                    f"propagation failed at level t={t}, j={j}: implementation bug"
                )
    for m in range(t_prime + 1, t_prime + orders + 1):
        if m >= 1 and eval_B(n, m, a, b) % q:
            raise ArithmeticError(f"propagation failed for the order-{m} sum")
    return True
