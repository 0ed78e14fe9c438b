"""Closed-form valuation predictors and the oracle-comparison harness.

Each predictor answers "to what power does x divide this sequence value"
using only digit kernels and machine arithmetic: it never materializes
the (possibly enormous) sequence value itself.  The harness recomputes
the same answer from the exact big integer and compares.  Exact claims
demand equality; bound claims demand the stated inequality; any other
outcome is a violation, reported as data rather than raised.

Hypothesis checking lives in the predictors: called outside its
hypotheses a predictor raises HypothesisViolation instead of returning a
number that the underlying statement does not back.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from math import comb
from operator import attrgetter
from typing import Callable, Iterable

from .digits import (
    U64_MAX,
    digit_sum,
    is_prime,
    kummer_carries,
    popcount_valuation,
)
from .sequences import (
    bsum2_table,
    catalan_table,
    central_multinomial_product,
    delannoy_table,
    eval_B,
    franel_table,
    hexagonal_table,
    legendre_table,
    motzkin_table,
    trinomial_table,
    IntegralityError,
)
from .valuation import INFINITE, Valuation, factorize, omega, vp_int

PARITIES = ("even", "odd")

_FAST_N_MAX = (U64_MAX - 1) // 2  # keeps 2n + 1 inside the digit kernels


class HypothesisViolation(ValueError):
    """A predictor was invoked outside the hypotheses of its claim."""


def _check_parity(parity: str) -> None:
    if parity not in PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _check_fast_n(n: int) -> None:
    if n < 0:
        raise HypothesisViolation(f"n must be non-negative, got {n}")
    if n > _FAST_N_MAX:
        raise HypothesisViolation(f"n exceeds the machine fast-path range: {n}")


def _vp_machine(m: int, p: int) -> int:
    """Exponent of p in a positive machine integer, by direct division."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _omega_fast(x: int, vp_of_y: Callable[[int], int]) -> int:
    """min over p**e || x of vp_of_y(p) // e, with x factorized once."""
    return min(vp_of_y(p) // e for p, e in factorize(abs(x)).factors)


def _vp_central_binomial(n: int, p: int) -> int:
    return kummer_carries(n, n, p)


def _vp_catalan(n: int, p: int) -> int:
    return kummer_carries(n, n, p) - _vp_machine(n + 1, p)


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def predict_bsum_omega(n: int, parity: str, a: int, b: int) -> int:
    """Exact power of a+b dividing the square sum B(2n, 2, a, b) / B(2n+1, 2, a, b).

    Even index: the power of a+b in C(2n, n).
    Odd index: one more than the power of a+b in (2n+1) * C(2n, n).
    Hypotheses: gcd(a, b) = 1 and a + b not 0 or a unit.
    """
    _check_parity(parity)
    _check_fast_n(n)
    if math.gcd(a, b) != 1:
        raise HypothesisViolation(f"a and b must be coprime, got {a}, {b}")
    s = a + b
    if s in (0, 1, -1):
        raise HypothesisViolation(f"a + b must not be 0 or a unit, got {s}")
    if abs(s) > U64_MAX:
        raise HypothesisViolation(f"|a + b| exceeds the machine fast-path range: {s}")
    if parity == "even":
        return _omega_fast(s, lambda p: _vp_central_binomial(n, p))
    return 1 + _omega_fast(s, lambda p: _vp_machine(2 * n + 1, p) + _vp_central_binomial(n, p))


def predict_bsum_omega_bound(n: int, parity: str, a: int, b: int) -> int:
    """Lower bound on the power of a+b dividing B(2n, m, a, b) for any m >= 2.

    The bound is the exact m = 2 answer; for m > 2 divisibility can only
    improve, so the oracle must report at least this much.
    """
    return predict_bsum_omega(n, parity, a, b)


def predict_central_binomial_v2(n: int, parity: str) -> int:
    """Exact power of 2 in C(4n, 2n) (even) or C(4n+2, 2n+1) (odd).

    Both reduce to the 1-bit count of n: the doubled central binomial
    keeps the same 2-adic valuation, the odd neighbour gains exactly one.
    """
    _check_parity(parity)
    _check_fast_n(n)
    bits = popcount_valuation(n)
    return bits if parity == "even" else 1 + bits


def predict_franel_v2_bound(n: int, parity: str) -> int:
    """Lower bound on the power of 2 dividing the Franel number f_2n / f_2n+1."""
    _check_parity(parity)
    _check_fast_n(n)
    bits = popcount_valuation(n)
    return bits if parity == "even" else 1 + bits


def predict_delannoy_v3(n: int, parity: str) -> int:
    """Exact power of 3 in the central Delannoy number D_2n / D_2n+1."""
    _check_parity(parity)
    _check_fast_n(n)
    if parity == "even":
        return _vp_central_binomial(n, 3)
    return 1 + _vp_machine(2 * n + 1, 3) + _vp_central_binomial(n, 3)


def predict_schroder_v3(n: int, parity: str) -> int:
    """Exact power of 3 in the large Schroder number S_2n+1 (odd) / S_2n+2 (even).

    The same closed form holds for the little Schroder numbers, whose
    3-adic valuation coincides with the large ones'.
    """
    _check_parity(parity)
    _check_fast_n(n)
    if parity == "odd":
        return _vp_catalan(n, 3)
    return 1 + _vp_machine(2 * n + 1, 3) + _vp_catalan(n, 3)


def predict_legendre_omega(n: int, parity: str, x: int) -> int:
    """Exact power of an odd x (not a unit) dividing P_2n(x) / P_2n+1(x)."""
    _check_parity(parity)
    _check_fast_n(n)
    if x % 2 == 0:
        raise HypothesisViolation(f"x must be odd, got {x}")
    if x in (1, -1):
        raise HypothesisViolation("x must not be a unit")
    if abs(x) > U64_MAX:
        raise HypothesisViolation(f"|x| exceeds the machine fast-path range: {x}")
    if parity == "even":
        return _omega_fast(x, lambda p: _vp_central_binomial(n, p))
    return 1 + _omega_fast(x, lambda p: _vp_machine(2 * n + 1, p) + _vp_central_binomial(n, p))


def predict_trinomial_omega(n: int, parity: str, a: int, b: int) -> int:
    """Exact power of b dividing the trinomial coefficient T_2n(a, b) / T_2n+1(a, b).

    Hypotheses: gcd(a, b) = 1 and b not 0 or a unit.
    """
    _check_parity(parity)
    _check_fast_n(n)
    if math.gcd(a, b) != 1:
        raise HypothesisViolation(f"a and b must be coprime, got {a}, {b}")
    if b in (0, 1, -1):
        raise HypothesisViolation(f"b must not be 0 or a unit, got {b}")
    if abs(b) > U64_MAX:
        raise HypothesisViolation(f"|b| exceeds the machine fast-path range: {b}")
    if parity == "even":
        return _omega_fast(b, lambda p: _vp_central_binomial(n, p))
    return 1 + _omega_fast(b, lambda p: _vp_machine(2 * n + 1, p) + _vp_central_binomial(n, p))


def predict_motzkin_omega(n: int, parity: str, a: int, b: int) -> int:
    """Exact power of b dividing the Motzkin value M_2n(a, b) / M_2n+1(a, b).

    Same hypotheses as the trinomial case; the Catalan number replaces
    the central binomial coefficient.
    """
    _check_parity(parity)
    _check_fast_n(n)
    if math.gcd(a, b) != 1:
        raise HypothesisViolation(f"a and b must be coprime, got {a}, {b}")
    if b in (0, 1, -1):
        raise HypothesisViolation(f"b must not be 0 or a unit, got {b}")
    if abs(b) > U64_MAX:
        raise HypothesisViolation(f"|b| exceeds the machine fast-path range: {b}")
    if parity == "even":
        return _omega_fast(b, lambda p: _vp_catalan(n, p))
    return 1 + _omega_fast(b, lambda p: _vp_machine(2 * n + 1, p) + _vp_catalan(n, p))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

VERDICT_EXACT = "exact"
VERDICT_BOUND = "bound_holds"
VERDICT_VIOLATION = "violation"

KIND_EXACT = "exact"
KIND_LOWER = "lower"  # oracle >= predicted
KIND_UPPER = "upper"  # oracle <= predicted


@dataclass(frozen=True)
class TheoremReport:
    """One verified claim instance: predicted vs oracle plus the verdict."""

    claim: str
    instance: tuple[tuple[str, object], ...]
    predicted: int
    oracle: Valuation
    kind: str = KIND_EXACT

    @property
    def verdict(self) -> str:
        if self.kind == KIND_EXACT:
            return VERDICT_EXACT if self.oracle == self.predicted else VERDICT_VIOLATION
        if self.kind == KIND_LOWER:
            return VERDICT_BOUND if self.oracle >= self.predicted else VERDICT_VIOLATION
        if self.kind == KIND_UPPER:
            return VERDICT_BOUND if self.oracle <= self.predicted else VERDICT_VIOLATION
        raise ValueError(f"unknown claim kind {self.kind!r}")

    @property
    def slack(self) -> int | None:
        """Unused room in a bound claim (None for exact claims and infinite oracles)."""
        if self.kind == KIND_EXACT or self.oracle is INFINITE:
            return None
        if self.kind == KIND_LOWER:
            return self.oracle - self.predicted
        return self.predicted - self.oracle

    def to_json_obj(self) -> dict:
        return {
            "claim": self.claim,
            "instance": dict(self.instance),
            "predicted": self.predicted,
            "oracle": "inf" if self.oracle is INFINITE else self.oracle,
            "verdict": self.verdict,
            "slack": self.slack,
        }

    def to_json_line(self) -> str:
        """The bytes of json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))."""
        instance = dict(self.instance)
        fields = ",".join(f"{_json_str(k)}:{_json_scalar(instance[k])}" for k in sorted(instance))
        oracle = '"inf"' if self.oracle is INFINITE else _json_scalar(self.oracle)
        slack = self.slack
        return (
            f'{{"claim":{_json_str(self.claim)},"instance":{{{fields}}},"oracle":{oracle},'
            f'"predicted":{_json_scalar(self.predicted)},'
            f'"slack":{"null" if slack is None else _json_scalar(slack)},'
            f'"verdict":{_json_str(self.verdict)}}}'
        )


def _json_scalar(value) -> str:
    if type(value) is int:
        return str(value)
    if type(value) is str:
        return _json_str(value)
    return json.dumps(value)


# ---------------------------------------------------------------------------
# Claim sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarnessGrid:
    """Sweep ranges; n_max = None lets each claim use its default."""

    n_max: int | None = None
    ab_max: int = 25
    m_values: tuple[int, ...] = (3, 4, 5)
    a_values: tuple[int, ...] = (1, -1, 2, -2, 3, -3, 4, -4, 5)
    b_values: tuple[int, ...] = (2, -2, 3, -3, 5, -5, 6)
    x_values: tuple[int, ...] = (3, -3, 5, -5, 9, -9, 15)
    prime_min: int = 2
    prime_max: int = 97
    exact_max: int = 3000


_DEFAULT_N_MAX = {
    "thm1": 200,
    "thm2": 60,
    "cor1": 1000,
    "cor2": 300,
    "thm3": 1000,
    "thm4": 1000,
    "cor3": 300,
    "thm5": 300,
    "thm6": 300,
    "lemma1": 500,
    "remarks": 300,
}

_BLOCK = 512


def coprime_pairs(ab_max: int) -> list[tuple[int, int]]:
    """All (a, b) with 1 <= a <= b <= ab_max, gcd(a, b) = 1."""
    return [
        (a, b)
        for b in range(1, ab_max + 1)
        for a in range(1, b + 1)
        if math.gcd(a, b) == 1
    ]


def _signed_pairs(a_values: Iterable[int], b_values: Iterable[int]) -> list[tuple[int, int]]:
    return [
        (a, b)
        for b in b_values
        for a in a_values
        if b not in (0, 1, -1) and math.gcd(a, b) == 1
    ]


def _blocks(n_max: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _BLOCK - 1, n_max)) for lo in range(0, n_max + 1, _BLOCK)]


def _n_max(grid: HarnessGrid, runner: str) -> int:
    return grid.n_max if grid.n_max is not None else _DEFAULT_N_MAX[runner]


# --- thm1 / thm2: powers of a+b in the square and higher-order sums


def _items_thm1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "thm1")
    return [{"a": a, "b": b, "n_max": n} for a, b in coprime_pairs(grid.ab_max)]


def _run_thm1(a: int, b: int, n_max: int) -> list[TheoremReport]:
    out = []
    s = a + b
    if s in (0, 1, -1):
        return out
    table = bsum2_table(2 * n_max + 1, a, b)
    for n in range(n_max + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_bsum_omega(n, parity, a, b)
            oracle = omega(s, table[idx])
            out.append(
                TheoremReport(
                    "thm1",
                    (("n", n), ("parity", parity), ("a", a), ("b", b)),
                    predicted,
                    oracle,
                    KIND_EXACT,
                )
            )
    return out


def _items_thm2(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "thm2")
    return [
        {"a": a, "b": b, "n_max": n, "m_values": grid.m_values}
        for a, b in coprime_pairs(grid.ab_max)
    ]


def _run_thm2(a: int, b: int, n_max: int, m_values: tuple[int, ...]) -> list[TheoremReport]:
    out = []
    s = a + b
    if s in (0, 1, -1):
        return out
    for n in range(n_max + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            bound = predict_bsum_omega_bound(n, parity, a, b)
            for m in m_values:
                oracle = omega(s, eval_B(idx, m, a, b))
                out.append(
                    TheoremReport(
                        "thm2",
                        (("n", n), ("parity", parity), ("m", m), ("a", a), ("b", b)),
                        bound,
                        oracle,
                        KIND_LOWER,
                    )
                )
    return out


# --- cor1: powers of 2 in doubled central binomials, plus the popcount form


def _items_cor1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "cor1")
    return [
        {"n_lo": lo, "n_hi": hi, "exact_max": grid.exact_max} for lo, hi in _blocks(n)
    ]


def _run_cor1(n_lo: int, n_hi: int, exact_max: int) -> list[TheoremReport]:
    out = []
    for n in range(n_lo, n_hi + 1):
        for parity in PARITIES:
            half = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_central_binomial_v2(n, parity)
            if half <= exact_max:
                oracle = vp_int(comb(2 * half, half), 2)
            else:
                oracle = kummer_carries(half, half, 2)
            out.append(
                TheoremReport(
                    "cor1",
                    (("n", n), ("parity", parity)),
                    predicted,
                    oracle,
                    KIND_EXACT,
                )
            )
        predicted = popcount_valuation(n)
        if n <= exact_max:
            oracle = vp_int(comb(2 * n, n), 2)
        else:
            oracle = kummer_carries(n, n, 2)
        out.append(TheoremReport("popcount", (("n", n),), predicted, oracle, KIND_EXACT))
    return out


# --- cor2: 2-adic lower bounds for Franel numbers


def _items_cor2(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "cor2")
    return [{"n_lo": lo, "n_hi": hi} for lo, hi in _blocks(n)]


def _run_cor2(n_lo: int, n_hi: int) -> list[TheoremReport]:
    table = franel_table(2 * n_hi + 1)
    out = []
    for n in range(n_lo, n_hi + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            bound = predict_franel_v2_bound(n, parity)
            oracle = vp_int(table[idx], 2)
            out.append(
                TheoremReport(
                    "cor2", (("n", n), ("parity", parity)), bound, oracle, KIND_LOWER
                )
            )
    return out


# --- thm3: 3-adic valuation of central Delannoy numbers


def _items_thm3(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "thm3")
    return [{"n_lo": lo, "n_hi": hi} for lo, hi in _blocks(n)]


def _run_thm3(n_lo: int, n_hi: int) -> list[TheoremReport]:
    table = delannoy_table(2 * n_hi + 1)
    out = []
    for n in range(n_lo, n_hi + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_delannoy_v3(n, parity)
            oracle = vp_int(table[idx], 3)
            out.append(
                TheoremReport(
                    "thm3", (("n", n), ("parity", parity)), predicted, oracle, KIND_EXACT
                )
            )
    return out


# --- thm4: 3-adic valuation of Schroder numbers (indices start at 1)


def _items_thm4(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "thm4")
    return [{"n_lo": lo, "n_hi": hi} for lo, hi in _blocks(n)]


def _run_thm4(n_lo: int, n_hi: int) -> list[TheoremReport]:
    # S_idx for idx in [2*n_lo+1, 2*n_hi+2]; the little numbers are S/2.
    dt = delannoy_table(2 * n_hi + 3)
    out = []
    for n in range(n_lo, n_hi + 1):
        for parity in PARITIES:
            idx = 2 * n + 1 if parity == "odd" else 2 * n + 2
            big, r1 = divmod(-dt[idx - 1] + 6 * dt[idx] - dt[idx + 1], 2)
            little, r2 = divmod(big, 2)
            if r1 or r2:
                raise IntegralityError(f"Schroder construction failed at index {idx}")
            predicted = predict_schroder_v3(n, parity)
            out.append(
                TheoremReport(
                    "thm4", (("n", n), ("parity", parity)), predicted, vp_int(big, 3), KIND_EXACT
                )
            )
            out.append(
                TheoremReport(
                    "little-schroder",
                    (("n", n), ("parity", parity)),
                    predicted,
                    vp_int(little, 3),
                    KIND_EXACT,
                )
            )
    return out


# --- cor3: powers of the evaluation point in Legendre values


def _items_cor3(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "cor3")
    return [{"x": x, "n_max": n} for x in grid.x_values if x % 2 and x not in (1, -1)]


def _run_cor3(x: int, n_max: int) -> list[TheoremReport]:
    table = legendre_table(2 * n_max + 1, x)
    out = []
    for n in range(n_max + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_legendre_omega(n, parity, x)
            oracle = omega(x, table[idx])
            out.append(
                TheoremReport(
                    "cor3",
                    (("n", n), ("parity", parity), ("x", x)),
                    predicted,
                    oracle,
                    KIND_EXACT,
                )
            )
    return out


# --- thm5 / thm6: powers of b in trinomial and Motzkin values


def _items_thm5(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "thm5")
    return [{"a": a, "b": b, "n_max": n} for a, b in _signed_pairs(grid.a_values, grid.b_values)]


def _run_thm5(a: int, b: int, n_max: int) -> list[TheoremReport]:
    table = trinomial_table(2 * n_max + 1, a, b)
    out = []
    for n in range(n_max + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_trinomial_omega(n, parity, a, b)
            oracle = omega(b, table[idx])
            out.append(
                TheoremReport(
                    "thm5",
                    (("n", n), ("parity", parity), ("a", a), ("b", b)),
                    predicted,
                    oracle,
                    KIND_EXACT,
                )
            )
    return out


def _items_thm6(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "thm6")
    return [{"a": a, "b": b, "n_max": n} for a, b in _signed_pairs(grid.a_values, grid.b_values)]


def _run_thm6(a: int, b: int, n_max: int) -> list[TheoremReport]:
    table = motzkin_table(2 * n_max + 1, a, b)
    out = []
    for n in range(n_max + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_motzkin_omega(n, parity, a, b)
            oracle = omega(b, table[idx])
            out.append(
                TheoremReport(
                    "thm6",
                    (("n", n), ("parity", parity), ("a", a), ("b", b)),
                    predicted,
                    oracle,
                    KIND_EXACT,
                )
            )
    return out


# --- lemma1 family: factor bounds and central multinomial valuations


def _items_lemma1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "lemma1")
    return [{"p": p, "n_max": n} for p in range(grid.prime_min, grid.prime_max + 1) if is_prime(p)]


def _run_lemma1(p: int, n_max: int) -> list[TheoremReport]:
    out = []
    multinomial = 1  # (pn)! / (n!)**p, maintained incrementally over n
    for n in range(n_max + 1):
        if n:
            block = 1
            for i in range(p * (n - 1) + 1, p * n + 1):
                block *= i
            q, r = divmod(multinomial * block, n**p)
            if r:
                raise IntegralityError(f"multinomial update failed at n={n}, p={p}")
            multinomial = q
        if central_multinomial_product(n, p) != multinomial:
            raise IntegralityError(
                f"multinomial forms disagree at n={n}, p={p}"
            )
        central = comb(2 * n, n)
        out.append(
            TheoremReport(
                "lemma1",
                (("n", n), ("p", p)),
                n,
                vp_int((2 * n + 1) * central, p),
                KIND_UPPER,
            )
        )
        vp_multinomial = vp_int(multinomial, p)
        out.append(
            TheoremReport(
                "multinomial-valuation",
                (("n", n), ("p", p)),
                digit_sum(n, p),
                vp_multinomial,
                KIND_EXACT,
            )
        )
        out.append(
            TheoremReport(
                "multinomial-bound", (("n", n), ("p", p)), n, vp_multinomial, KIND_UPPER
            )
        )
        if p > 2:
            shifted = 1
            for k in range(2, p):
                shifted *= k * n + 1
            out.append(
                TheoremReport(
                    "shifted-product-bound",
                    (("n", n), ("p", p)),
                    n,
                    vp_int(shifted * central, p),
                    KIND_UPPER,
                )
            )
    return out


# --- remarks: hexagonal numbers and the doubled Catalan indices


def _items_remarks(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, "remarks")
    return [{"n_lo": lo, "n_hi": hi} for lo, hi in _blocks(n)]


def _run_remarks(n_lo: int, n_hi: int) -> list[TheoremReport]:
    hexagonals = hexagonal_table(2 * n_hi + 1)
    catalans = catalan_table(2 * n_hi + 2)
    out = []
    for n in range(n_lo, n_hi + 1):
        for parity in PARITIES:
            idx = 2 * n if parity == "even" else 2 * n + 1
            predicted = predict_motzkin_omega(n, parity, 1, 3)
            out.append(
                TheoremReport(
                    "hexagonal",
                    (("n", n), ("parity", parity)),
                    predicted,
                    vp_int(hexagonals[idx], 3),
                    KIND_EXACT,
                )
            )
            # Catalan numbers at doubled indices: C_{2n+1} keeps the power
            # of two of C_n, C_{2n+2} gains exactly one.
            vc = _vp_catalan(n, 2)
            shift = 2 * n + 1 if parity == "odd" else 2 * n + 2
            predicted = vc if parity == "odd" else 1 + vc
            out.append(
                TheoremReport(
                    "catalan-shift",
                    (("n", n), ("parity", parity)),
                    predicted,
                    vp_int(catalans[shift], 2),
                    KIND_EXACT,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Runner registry and the harness
# ---------------------------------------------------------------------------


def check_remarks(n_max: int) -> list[TheoremReport]:
    """Sweep the hexagonal 3-adic and Catalan index-doubling 2-adic claims."""
    return _run_remarks(0, n_max)


def check_lemma1(n_max: int, primes: Iterable[int]) -> list[TheoremReport]:
    """Sweep the factor bound and the central multinomial valuation claims."""
    out: list[TheoremReport] = []
    for p in primes:
        out.extend(_run_lemma1(p, n_max))
    return out


@dataclass(frozen=True)
class ClaimRunner:
    name: str
    claims: tuple[str, ...]
    description: str
    items: Callable[[HarnessGrid], list[dict]]
    run: Callable[..., list[TheoremReport]]


RUNNERS: dict[str, ClaimRunner] = {
    r.name: r
    for r in (
        ClaimRunner(
            "thm1",
            ("thm1",),
            "power of a+b in the square sum equals that of the central binomial",
            _items_thm1,
            _run_thm1,
        ),
        ClaimRunner(
            "thm2",
            ("thm2",),
            "the square-sum power of a+b lower-bounds every higher-order sum",
            _items_thm2,
            _run_thm2,
        ),
        ClaimRunner(
            "cor1",
            ("cor1", "popcount"),
            "2-adic valuation of doubled central binomials; equals the 1-bit count",
            _items_cor1,
            _run_cor1,
        ),
        ClaimRunner(
            "cor2",
            ("cor2",),
            "2-adic lower bounds for Franel numbers",
            _items_cor2,
            _run_cor2,
        ),
        ClaimRunner(
            "thm3",
            ("thm3",),
            "3-adic valuation of central Delannoy numbers",
            _items_thm3,
            _run_thm3,
        ),
        ClaimRunner(
            "thm4",
            ("thm4", "little-schroder"),
            "3-adic valuation of large and little Schroder numbers",
            _items_thm4,
            _run_thm4,
        ),
        ClaimRunner(
            "cor3",
            ("cor3",),
            "power of an odd x dividing the Legendre value P_n(x)",
            _items_cor3,
            _run_cor3,
        ),
        ClaimRunner(
            "thm5",
            ("thm5",),
            "power of b dividing generalized central trinomial coefficients",
            _items_thm5,
            _run_thm5,
        ),
        ClaimRunner(
            "thm6",
            ("thm6",),
            "power of b dividing generalized Motzkin numbers",
            _items_thm6,
            _run_thm6,
        ),
        ClaimRunner(
            "lemma1",
            ("lemma1", "multinomial-valuation", "multinomial-bound", "shifted-product-bound"),
            "factor bounds and central multinomial valuations",
            _items_lemma1,
            _run_lemma1,
        ),
        ClaimRunner(
            "remarks",
            ("hexagonal", "catalan-shift"),
            "3-adic hexagonal valuations and 2-adic Catalan index doubling",
            _items_remarks,
            _run_remarks,
        ),
    )
}

SELECTOR_ALIASES = {
    "remark2": "cor1",
    "popcount": "cor1",
    "schroder": "thm4",
    "delannoy": "thm3",
    "franel": "cor2",
    "legendre": "cor3",
    "trinomial": "thm5",
    "motzkin": "thm6",
}


def resolve_selectors(names: Iterable[str]) -> list[str]:
    """Normalize user-facing claim selectors to runner names, keeping order."""
    out: list[str] = []
    for name in names:
        key = name.lower()
        if key == "all":
            for runner in RUNNERS:
                if runner not in out:
                    out.append(runner)
            continue
        key = SELECTOR_ALIASES.get(key, key)
        if key not in RUNNERS:
            raise KeyError(f"unknown claim selector {name!r}")
        if key not in out:
            out.append(key)
    return out


@dataclass
class HarnessResult:
    reports: list[TheoremReport] = field(default_factory=list)

    @property
    def violations(self) -> list[TheoremReport]:
        return [r for r in self.reports if r.verdict == VERDICT_VIOLATION]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.reports:
            bucket = out.setdefault(r.claim, {"checked": 0, "violations": 0})
            bucket["checked"] += 1
            if r.verdict == VERDICT_VIOLATION:
                bucket["violations"] += 1
        return out


# Within one claim every instance has the same keys and value types, so
# the instance tuples compare field by field.
_report_order = attrgetter("claim", "instance")
# Workers send reports as their constructor arguments: pickling and
# rebuilding these tuples takes under half the time that pickling the
# dataclass instances does.
_report_args = attrgetter("claim", "instance", "predicted", "oracle", "kind")


def _run_item(runner_name: str, kwargs: dict) -> list[TheoremReport]:
    return RUNNERS[runner_name].run(**kwargs)


def _violates(batch: list[TheoremReport]) -> bool:
    return any(r.verdict == VERDICT_VIOLATION for r in batch)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _place(k: int) -> None:
    """Move this process onto the k-th usable CPU, then allow every CPU again.

    A forked child starts on its parent's CPU and tends to stay there; the
    brief single-CPU mask spreads the processes without pinning them.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    try:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, mask)
    except OSError:  # placement is only a hint
        pass


def _claim_items(work: list, counter, fail_fast: bool) -> list[tuple[int, list[TheoremReport]]]:
    """Run items taken in index order from the shared counter until none are left."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(work):
            return done
        batch = _run_item(*work[i])
        done.append((i, batch))
        if fail_fast and _violates(batch):
            _stop_claims(counter, len(work))


def _stop_claims(counter, n_items: int) -> None:
    with counter.get_lock():
        counter.value = n_items


def _worker(k: int, work: list, counter, fail_fast: bool, conn) -> None:
    _place(k)
    try:
        done = _claim_items(work, counter, fail_fast)
        result = [(i, list(map(_report_args, batch))) for i, batch in done]
    except Exception as exc:
        _stop_claims(counter, len(work))
        result = exc
    conn.send(result)
    conn.close()


def _start_worker(ctx, k: int, work: list, counter, fail_fast: bool):
    """Fork the k-th worker; returns it with the read end of its result pipe."""
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_worker, args=(k, work, counter, fail_fast, writer))
    proc.start()
    writer.close()
    return proc, reader


def _reap(proc, reader):
    """The worker's result, or None if it exited without sending one."""
    try:
        result = reader.recv()
    except EOFError:
        result = None
    reader.close()
    proc.join()
    return result


def _run_forked(work: list, workers: int, fail_fast: bool) -> list[list[TheoremReport] | None]:
    """Run `work` in this process and `workers` forked ones; batches in work order.

    Items are claimed in index order, so every item before a claimed one has
    been claimed too and runs to completion.  Every worker is joined before
    this returns or raises.
    """
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 0)
    children = []
    _place(0)
    try:
        for k in range(1, workers + 1):
            children.append(_start_worker(ctx, k, work, counter, fail_fast))
        done = _claim_items(work, counter, fail_fast)
    except BaseException:
        _stop_claims(counter, len(work))
        for proc, reader in children:
            _reap(proc, reader)
        raise
    error = None
    for proc, reader in children:
        result = _reap(proc, reader)
        if result is None:
            error = error or RuntimeError(
                f"a harness worker exited with code {proc.exitcode} without a result"
            )
        elif isinstance(result, BaseException):
            error = error or result
        else:
            done.extend((i, [TheoremReport(*args) for args in batch]) for i, batch in result)
    if error is not None:
        raise error
    batches: list[list[TheoremReport] | None] = [None] * len(work)
    for i, batch in done:
        batches[i] = batch
    return batches


def run_harness(
    selectors: Iterable[str] = ("all",),
    grid: HarnessGrid | None = None,
    jobs: int = 1,
    fail_fast: bool = False,
) -> HarnessResult:
    """Sweep the selected claims over their grids and report every instance.

    Deterministic: reports are sorted by claim and instance, so the output
    is identical regardless of job count.  Violations are data in the
    result, not exceptions.  With fail_fast the sweep keeps the work items
    up to and including the first one, in work order, that reports a
    violation, at any job count.

    jobs > 1 forks min(jobs, work items, usable CPUs) - 1 workers; this
    process works too.  Items are handed out in order from a shared
    counter.  An exception raised by an item is raised here.
    """
    grid = grid or HarnessGrid()
    runner_names = resolve_selectors(selectors)
    work = [(name, kw) for name in runner_names for kw in RUNNERS[name].items(grid)]
    workers = min(jobs, len(work), _usable_cpus()) - 1
    if workers < 1 or "fork" not in multiprocessing.get_all_start_methods():
        batches = (_run_item(name, kw) for name, kw in work)
    else:
        batches = _run_forked(work, workers, fail_fast)
    reports: list[TheoremReport] = []
    for batch in batches:
        reports.extend(batch)
        if fail_fast and _violates(batch):
            break
    reports.sort(key=_report_order)
    return HarnessResult(reports)
