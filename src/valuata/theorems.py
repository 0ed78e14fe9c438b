"""Closed-form valuation predictors, the claim table and the oracle-comparison harness.

Each predictor answers "to what power does x divide this sequence value"
using only digit kernels and machine arithmetic: it never materializes
the (possibly enormous) sequence value itself.  The harness recomputes
the same answer from the exact big integer and compares.  Exact claims
demand equality; bound claims demand the stated inequality; any other
outcome is a violation, reported as data rather than raised.

Most claims share one shape: at index i = 2n + r + offset (r = 0 or 1),

    omega_x(Y_i) = r + omega_x((2n+1)**r * core(n)),

with core(n) = C(2n, n) or Catalan(n), or at least that for a lower-bound
claim.  `CLAIMS` lists them, each with its shape as data: every entry
builds its predictor from it, one generic runner sweeps them and the CLI
derives its fast routes from them.  thm2, cor1 and lemma1 keep their own
runners: thm2 sums B(i, m, a, b) for all its orders at once from rows
shared across the sweep and bounds each with thm1's prediction, past
`exact_max` the cor1 oracle is a digit kernel, not a sequence value, and
lemma1 compares two constructions of the central multinomial coefficient
at checkpoints.

Hypothesis checking lives in the predictors: called outside its
hypotheses a predictor raises HypothesisViolation instead of returning a
number that the underlying statement does not back.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator

from .digits import (
    U64_MAX,
    _doubling_carries,
    digit_sum,
    is_prime,
    popcount_valuation,
)
from .sequences import (
    central_multinomial_product,
    central_multinomial_values,
    delannoy_values,
    franel_values,
    fuss_catalan_values,
    half_rows,
    hexagonal_values,
    legendre_values,
    motzkin_values,
    schroder_large_values,
    square_sum_values,
    trinomial_values,
    IntegralityError,
)
from . import harness
from .harness import (
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    HarnessResult,
    ReportBatch,
    TheoremReport,
)
from .valuation import factorize, omega, vp_int

PARITIES = ("even", "odd")

_FAST_N_MAX = (U64_MAX - 1) // 2  # keeps 2n + 1 inside the digit kernels


class HypothesisViolation(ValueError):
    """A predictor was invoked outside the hypotheses of its claim."""


def _check_instance(n: int, parity: str) -> None:
    if parity not in PARITIES:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if n < 0:
        raise HypothesisViolation(f"n must be non-negative, got {n}")
    if n > _FAST_N_MAX:
        raise HypothesisViolation(f"n exceeds the machine fast-path range: {n}")


def _check_weights(a: int, b: int, what: str, x: int) -> int:
    """x, once a, b are coprime weights and x, named `what`, is not 0 or a unit and fits the kernels."""
    if math.gcd(a, b) != 1:
        raise HypothesisViolation(f"a and b must be coprime, got {a}, {b}")
    if x in (0, 1, -1):
        raise HypothesisViolation(f"{what} must not be 0 or a unit, got {x}")
    if abs(x) > U64_MAX:
        raise HypothesisViolation(f"|{what}| exceeds the machine fast-path range: {x}")
    return x


def _check_odd(x: int) -> int:
    """x, once it is odd, not a unit and fits the kernels."""
    if x % 2 == 0:
        raise HypothesisViolation(f"x must be odd, got {x}")
    if x in (1, -1):
        raise HypothesisViolation("x must not be a unit")
    if abs(x) > U64_MAX:
        raise HypothesisViolation(f"|x| exceeds the machine fast-path range: {x}")
    return x


def _vp_machine(m: int, p: int) -> int:
    """Exponent of p in a positive machine integer, by direct division."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _core_vp(n: int, r: int, p: int, catalan: bool) -> int:
    """v_p((2n+1)**r * core(n)), core(n) = Catalan(n) if `catalan`, else C(2n, n); for the predictors and --explain.

    Unchecked: n has passed `_check_instance`, and p is a certified prime.
    """
    if p == 2:
        v = n.bit_count()  # the carries of n + n; and 2n + 1 is odd
    else:
        v = _doubling_carries(n, p)
        if r:
            v += _vp_machine(2 * n + 1, p)
    if catalan:
        v -= _vp_machine(n + 1, p)
    return v


def _shape_predictor(claim: Claim) -> Callable[..., int]:
    """r + omega_x((2n+1)**r * core(n)) for `claim`, after the checks of n and the parity, then of the base.

    A claim without parameters has a fixed prime base: one `_core_vp` call.
    """
    odd_r = PARITIES[claim.index(0, 1) % 2]  # the parity of the indices with r = 1
    base, catalan = claim.base, claim.catalan
    if not claim.params:
        p = base()

        def predict(n, parity):
            _check_instance(n, parity)
            r = parity == odd_r
            return r + _core_vp(n, r, p, catalan)

        return predict

    def predict(n, parity, *params):
        _check_instance(n, parity)
        x = base(*params)
        r = parity == odd_r
        best = None
        for p, e in factorize(abs(x)).factors:
            v = _core_vp(n, r, p, catalan) // e
            if best is None or v < best:
                best = v
        return r + best

    return predict


def _shape_column(claim: Claim) -> Callable[..., list[int]]:
    """The predicted column of `claim` for n = n_lo..n_hi, both parities of each n, even parity first.

    Equal to `[claim.predict(n, parity, *params) for n in range(n_lo, n_hi
    + 1) for parity in PARITIES]`, errors included: the checks of n_lo, then
    of the base, then of the first n past the kernels, if any, stand in for
    the per-call checks.  One carry scan per n and prime answers both
    parities: r = 1 adds v_p(2n + 1).
    """
    even_r = claim.index(0, 0) % 2  # the r of the even index of each n
    base, catalan = claim.base, claim.catalan

    def column(n_lo, n_hi, *params):
        ns = range(n_lo, n_hi + 1)
        if not ns:
            return []
        _check_instance(n_lo, PARITIES[0])
        x = base(*params)
        _check_instance(min(n_hi, _FAST_N_MAX + 1), PARITIES[0])  # n_hi, or the first n past the kernels
        r0 = r1 = None  # min over the primes so far of v_p(core(n)) // e and of v_p((2n+1) core(n)) // e
        for p, e in factorize(abs(x)).factors:
            v0, v1 = [], []
            for n in ns:
                if p == 2:
                    v = w = n.bit_count()  # the carries of n + n; and 2n + 1 is odd
                else:
                    v = _doubling_carries(n, p)
                    w = v + _vp_machine(2 * n + 1, p)
                if catalan:
                    c = _vp_machine(n + 1, p)
                    v, w = v - c, w - c
                v0.append(v // e)
                v1.append(w // e)
            r0 = v0 if r0 is None else list(map(min, r0, v0))
            r1 = v1 if r1 is None else list(map(min, r1, v1))
        r1 = [v + 1 for v in r1]
        out = [0] * (2 * len(ns))
        out[even_r::2], out[1 - even_r::2] = r0, r1
        return out

    return column


# ---------------------------------------------------------------------------
# The claim table
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


def coprime_pairs(ab_max: int) -> list[tuple[int, int]]:
    """All (a, b) with 1 <= a <= b <= ab_max, gcd(a, b) = 1."""
    return [
        (a, b)
        for b in range(1, ab_max + 1)
        for a in range(1, b + 1)
        if math.gcd(a, b) == 1
    ]


# The axes below sweep each grid value once, at its first occurrence.


def _signed_pairs(grid: HarnessGrid) -> list[tuple[int, int]]:
    return [
        (a, b)
        for b in dict.fromkeys(grid.b_values)
        for a in dict.fromkeys(grid.a_values)
        if b not in (0, 1, -1) and math.gcd(a, b) == 1
    ]


def _odd_points(grid: HarnessGrid) -> list[tuple[int]]:
    return [(x,) for x in dict.fromkeys(grid.x_values) if x % 2 and x not in (1, -1)]


@dataclass(frozen=True)
class Claim:
    """One claim of the shape omega_x(Y_i) = r + omega_x((2n+1)**r * core(n)), i = 2n + r + offset.

    The shape is data: `base(*params)` is x, and it raises
    HypothesisViolation outside the claim's hypotheses on its parameters (a
    claim without parameters has a fixed prime base); `catalan` says whether
    core(n) is Catalan(n) rather than C(2n, n), and `offset` places the
    index.  `predict(n, parity, *params)`, where parity is that of i, is the
    predictor built from those fields at construction, and `column(n_lo,
    n_hi, *params)` its answers for a block of n, in batch row order (see
    `_shape_column`).  `values(*params)` is the oracle: the stream Y_0, Y_1,
    ... of exact integers, divided by `divisor`.  `axis(grid)` lists the
    parameter tuples a table sweep covers; claims without parameters sweep
    n in blocks instead.  `sequence` names the `omega` target that the claim
    answers on the CLI fast route.
    """

    name: str
    sequence: str | None
    values: Callable[..., Iterator]
    params: tuple[str, ...]
    base: Callable[..., int]
    catalan: bool
    offset: int
    kind: str
    axis: Callable[[HarnessGrid], list[tuple]] | None
    n_max: int
    divisor: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "predict", _shape_predictor(self))
        object.__setattr__(self, "column", _shape_column(self))

    def index(self, n: int, r: int) -> int:
        """The index i = 2n + r + offset of the sequence value at (n, r)."""
        return 2 * n + r + self.offset

    def locate(self, i: int) -> tuple[int, int]:
        """(n, r) with index(n, r) = i, for an index on the fast route."""
        n, r = divmod(i - self.offset, 2)
        if n < 0:
            raise HypothesisViolation(f"{self.name} starts at index {self.offset}, got {i}")
        if n > _FAST_N_MAX:
            raise HypothesisViolation(f"n exceeds the machine fast-path range: {i}")
        return n, r


CLAIMS: dict[str, Claim] = {
    c.name: c
    for c in (
        # name, sequence, values, params, base, catalan, offset, kind, axis, n_max
        Claim("thm1", "bsum", square_sum_values, ("a", "b"),
              lambda a, b: _check_weights(a, b, "a + b", a + b), False, 0, KIND_EXACT,
              lambda grid: coprime_pairs(grid.ab_max), 200),
        Claim("cor2", None, franel_values, (), lambda: 2, False, 0, KIND_LOWER, None, 300),
        Claim("thm3", "delannoy", delannoy_values, (), lambda: 3, False, 0, KIND_EXACT, None, 1000),
        Claim("thm4", "schroder", schroder_large_values, (), lambda: 3, True, 1, KIND_EXACT, None, 1000),
        Claim("little-schroder", "little-schroder", schroder_large_values, (), lambda: 3, True, 1, KIND_EXACT, None,
              1000, divisor=2),
        Claim("cor3", "legendre", legendre_values, ("x",), _check_odd, False, 0, KIND_EXACT, _odd_points, 300),
        Claim("thm5", "trinomial", trinomial_values, ("a", "b"), lambda a, b: _check_weights(a, b, "b", b), False, 0,
              KIND_EXACT, _signed_pairs, 300),
        Claim("thm6", "motzkin", motzkin_values, ("a", "b"), lambda a, b: _check_weights(a, b, "b", b), True, 0,
              KIND_EXACT, _signed_pairs, 300),
        Claim("hexagonal", "hexagonal", hexagonal_values, (), lambda: 3, True, 0, KIND_EXACT, None, 300),
        Claim("catalan-shift", None, functools.partial(fuss_catalan_values, 2), (), lambda: 2, True, 1, KIND_EXACT,
              None, 300),
    )
}


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------


def _predictor_of(claim: str) -> Callable[[Callable], Callable[..., int]]:
    """Make the decorated def CLAIMS[claim].predict, lending it only the def's name, signature and statement."""
    return lambda stub: functools.update_wrapper(CLAIMS[claim].predict, stub)


@_predictor_of("thm1")
def predict_bsum_omega(n: int, parity: str, a: int, b: int) -> int:
    """Exact power of a+b dividing the square sum B(2n, 2, a, b) / B(2n+1, 2, a, b).

    Even index: the power of a+b in C(2n, n).
    Odd index: one more than the power of a+b in (2n+1) * C(2n, n).
    Hypotheses: gcd(a, b) = 1 and a + b not 0 or a unit.  For m > 2 the
    same number is a lower bound on the power of a+b in B(2n, m, a, b).
    """


@_predictor_of("cor2")
def predict_central_binomial_v2(n: int, parity: str) -> int:
    """Exact power of 2 in C(4n, 2n) (even) or C(4n+2, 2n+1) (odd).

    Both reduce to the 1-bit count of n: the doubled central binomial
    keeps the same 2-adic valuation, the odd neighbour gains exactly one.
    The same number lower-bounds the power of 2 in the Franel numbers
    f_2n / f_2n+1.
    """


@_predictor_of("thm3")
def predict_delannoy_v3(n: int, parity: str) -> int:
    """Exact power of 3 in the central Delannoy number D_2n / D_2n+1."""


@_predictor_of("thm4")
def predict_schroder_v3(n: int, parity: str) -> int:
    """Exact power of 3 in the large Schroder number S_2n+1 (odd) / S_2n+2 (even).

    The same closed form holds for the little Schroder numbers, whose
    3-adic valuation coincides with the large ones'.
    """


@_predictor_of("cor3")
def predict_legendre_omega(n: int, parity: str, x: int) -> int:
    """Exact power of an odd x (not a unit) dividing P_2n(x) / P_2n+1(x)."""


@_predictor_of("thm5")
def predict_trinomial_omega(n: int, parity: str, a: int, b: int) -> int:
    """Exact power of b dividing the trinomial coefficient T_2n(a, b) / T_2n+1(a, b).

    Hypotheses: gcd(a, b) = 1 and b not 0 or a unit.
    """


@_predictor_of("thm6")
def predict_motzkin_omega(n: int, parity: str, a: int, b: int) -> int:
    """Exact power of b dividing the Motzkin value M_2n(a, b) / M_2n+1(a, b).

    Same hypotheses as the trinomial case; the Catalan number replaces
    the central binomial coefficient.
    """


# ---------------------------------------------------------------------------
# Claim sweeps
# ---------------------------------------------------------------------------

_BLOCK = 512


def _blocks(n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _BLOCK - 1, n_hi)) for lo in range(n_lo, n_hi + 1, _BLOCK)]


def _n_max(grid: HarnessGrid, default: int) -> int:
    return grid.n_max if grid.n_max is not None else default


def _table_items(names: tuple[str, ...], grid: HarnessGrid) -> list[dict]:
    """One item per parameter tuple, or, for claims without parameters, blocks of n that share one stream table.

    Forked workers inherit the table with the items, so each process
    resumes the streams where its own last block stopped.
    """
    claim = CLAIMS[names[0]]
    n = _n_max(grid, claim.n_max)
    if claim.axis is None:
        streams: dict = {}
        return [{"n_lo": lo, "n_hi": hi, "streams": streams} for lo, hi in _blocks(0, n)]
    return [{**dict(zip(claim.params, values)), "n_lo": 0, "n_hi": n} for values in claim.axis(grid)]


def _stream_block(streams: dict, values: Callable[..., Iterator], args: tuple, lo: int, hi: int) -> list:
    """Elements lo..hi - 1 of the stream `values(*args)`.

    `streams` maps a stream function to the index its stream yields next
    and the stream itself; a stream it does not hold starts at 0.  One
    table serves one parameter tuple and its blocks in increasing order,
    so a block behind its stream raises ValueError.  A stream is taken out
    of `streams` while it is read, so a block that raises leaves none behind.
    """
    start, stream = streams.pop(values, None) or (0, values(*args))
    if lo < start:
        raise ValueError(f"a block at index {lo} lies behind its stream, at index {start}")
    block = list(islice(stream, lo - start, hi - start))
    streams[values] = (hi, stream)
    return block


def _even_first(values: list, odd_start: bool) -> list:
    """`values`, an even count of them at consecutive indices, with each pair swapped if the first index is odd."""
    if not odd_start:
        return values
    out = values[:]
    out[::2], out[1::2] = values[1::2], values[::2]
    return out


def _run_table(
    names: tuple[str, ...], n_lo: int, n_hi: int, streams: dict | None = None, **params
) -> list[ReportBatch]:
    """One batch per claim of `names`, which share their parameters, for n = n_lo..n_hi.

    The n run as blocks of _BLOCK values, in order, that resume their
    streams from `streams` (a table of their own if None), so an item holds
    one block's values at a time.  In a block each claim reads its stream's
    values at the indices of the block's n by `_stream_block`, the even
    index of each n first; claims with the same stream build them once, and
    claims of the same shape share one predicted column.  A prime base
    takes vp_int directly.
    """
    streams = {} if streams is None else streams
    columns = {name: ([], []) for name in names}
    for block_lo, block_hi in _blocks(n_lo, n_hi):
        blocks: dict = {}
        predictions: dict = {}
        for name in names:
            claim = CLAIMS[name]
            args = tuple(params[k] for k in claim.params)
            lo, stop = claim.index(block_lo, 0), claim.index(block_hi, 1) + 1
            key = (claim.values, claim.offset)
            if key not in blocks:
                blocks[key] = _stream_block(streams, claim.values, args, lo, stop)
            ys = _even_first(blocks[key], lo % 2)
            if claim.divisor != 1:
                quotients = []
                for i, y in zip(_even_first(list(range(lo, stop)), lo % 2), ys):
                    q, rem = divmod(y, claim.divisor)
                    if rem:
                        raise IntegralityError(f"{name} construction failed at index {i}")
                    quotients.append(q)
                ys = quotients
            x = claim.base(*args)
            shape = (x, claim.catalan, claim.offset)
            if shape not in predictions:
                predictions[shape] = claim.column(block_lo, block_hi, *args)
            predicted, oracle = columns[name]
            predicted += predictions[shape]
            oracle += map(vp_int, ys, repeat(abs(x))) if is_prime(abs(x)) else map(omega, repeat(x), ys)
    ns = range(n_lo, n_hi + 1)
    return [
        ReportBatch(name, CLAIMS[name].kind, tuple((k, params[k]) for k in CLAIMS[name].params), ns, PARITIES, *cols)
        for name, cols in columns.items()
    ]


# --- thm2: B(i, m, a, b) for every order m, one item per (a, b)

# The powered half rows that the items of one thm2 sweep share stop joining
# their table at this many bits; each item builds the rows past it for
# itself, one row at a time.  The default grid's table takes 0.76 MB of int
# objects, and --n-max 200 --m-set 3,4,5,6 fills the cap with 17.4 MB.
_ROW_TABLE_BITS = 1 << 27


def _items_thm2(grid: HarnessGrid) -> list[dict]:
    """One item per coprime pair (a, b), for all orders of the grid; the items share one table of powered rows."""
    orders = tuple(dict.fromkeys(grid.m_values))
    if not orders:
        return []
    n, rows = _n_max(grid, 60), {}
    return [{"a": a, "b": b, "orders": orders, "n_hi": n, "rows": rows} for a, b in coprime_pairs(grid.ab_max)]


def _powered_rows(table: dict, orders: tuple[int, ...], stop: int) -> Iterator[tuple[list[int], ...]]:
    """For i = 0..stop - 1, the half row C(i, 0..i//2) raised to each order of `orders`.

    `table` keeps, per tuple of orders, the rows built so far and their
    size in bits (an upper bound).  A row past the table joins it while the
    table stays under _ROW_TABLE_BITS.
    """
    entry = table.setdefault(orders, [[], 0])
    shared = entry[0]
    yield from islice(shared, stop)
    for i, row in enumerate(islice(half_rows(), len(shared), stop), len(shared)):
        powered = tuple([c**m for c in row] for m in orders)
        if len(shared) == i and entry[1] < _ROW_TABLE_BITS:
            shared.append(powered)
            entry[1] += len(row) * sum(r[-1].bit_length() for r in powered)  # the middle term is the largest
        yield powered


def _run_thm2(a: int, b: int, orders: tuple[int, ...], n_hi: int, rows: dict | None = None) -> list[ReportBatch]:
    """One thm2 batch per order m of `orders` at (a, b), for n = 0..n_hi, that is for indices i = 0..2 n_hi + 1.

    Each value is the defining sum, term by term: B(i, m, a, b) =
    sum_k C(i, k)**m * w_k over k = 0..i//2, with the paired weights
    w_k = (ab)**k * (a**(i-2k) + b**(i-2k)), and (ab)**(i/2) alone for the
    middle term of an even i.  The weights do not depend on m: each index
    builds them once, as a**i + b**i followed by ab times those of index
    i - 2.  The powered rows depend on neither a nor b: they come from
    `rows`, a table that the items of one sweep share (a table of their own
    if None; see `_powered_rows`).  The predicted column is thm1's
    square-sum prediction: it does not depend on m either and is built once.
    """
    claim, rows = CLAIMS["thm1"], {} if rows is None else rows
    x = abs(claim.base(a, b))
    predicted = claim.column(0, n_hi, a, b)
    prime, mul = is_prime(x), operator.mul
    oracles = [[] for _ in orders]
    ab, apow, bpow = a * b, a, b
    weights = [[1], [a + b]]  # those of the last even and the last odd index
    for i, powered in enumerate(_powered_rows(rows, orders, 2 * n_hi + 2)):
        if i > 1:
            apow, bpow = apow * a, bpow * b
            weights[i % 2] = [apow + bpow, *map(ab.__mul__, weights[i % 2])]
        w = weights[i % 2]
        for oracle, row in zip(oracles, powered):
            y = sum(map(mul, row, w))
            oracle.append(vp_int(y, x) if prime else omega(x, y))
    ns = range(n_hi + 1)
    return [
        ReportBatch("thm2", KIND_LOWER, (("m", m), ("a", a), ("b", b)), ns, PARITIES, predicted, oracle)
        for m, oracle in zip(orders, oracles)
    ]


# --- cor1: powers of 2 in doubled central binomials, plus the popcount form


def _items_cor1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, 1000)
    return [
        {"n_lo": lo, "n_hi": hi, "exact_max": grid.exact_max} for lo, hi in _blocks(0, n)
    ]


def _run_cor1(n_lo: int, n_hi: int, exact_max: int) -> list[ReportBatch]:
    """Up to exact_max the oracle is v_2 of C(2h, h) from its stream: h = 2n, 2n + 1 for cor1, h = n for popcount.

    Past exact_max it is the carries of h + h, unchecked.  cor1's predicted column is cor2's: both claims predict
    v_2 of C(4n, 2n) and C(4n + 2, 2n + 1).
    """
    predicted = CLAIMS["cor2"].column(n_lo, n_hi)
    doubled, single = central_multinomial_values(2, 2 * n_lo), central_multinomial_values(2, n_lo)
    ns = range(n_lo, n_hi + 1)
    oracle, popcounts, central_vp = [], [], []
    for n in ns:
        for half in (2 * n, 2 * n + 1):
            oracle.append(vp_int(next(doubled), 2) if half <= exact_max else _doubling_carries(half, 2))
        popcounts.append(popcount_valuation(n))
        central_vp.append(vp_int(next(single), 2) if n <= exact_max else _doubling_carries(n, 2))
    return [
        ReportBatch("cor1", KIND_EXACT, (), ns, PARITIES, predicted, oracle),
        ReportBatch("popcount", KIND_EXACT, (), ns, (), popcounts, central_vp),
    ]


# --- lemma1 family: factor bounds and central multinomial valuations


def _items_lemma1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, 500)
    return [{"p": p, "n_max": n} for p in range(grid.prime_min, grid.prime_max + 1) if is_prime(p)]


def _run_lemma1(p: int, n_max: int) -> list[ReportBatch]:
    """lemma1's family for p at n = 0..n_max, from the streams of (pn)! / (n!)**p and C(2n, n).

    Every step of the multinomial stream is an exact division, its
    remainder checked.  The stream starts from the product form, which is
    rebuilt only at each power of two and at n_max: a value gone wrong at
    some n stays wrong at n_max unless a later step cancels the error.
    (Comparing the two forms' step ratios would check an identity: the
    product form's ratio telescopes to the stream's step.)
    """
    checkpoints = {n_max, *(1 << k for k in range(n_max.bit_length()))}
    ns = range(n_max + 1)
    central_vp, digit_sums, multinomial_vp, shifted_vp = [], [], [], []
    for n, central, multinomial in zip(ns, central_multinomial_values(2), central_multinomial_values(p)):
        if n in checkpoints and central_multinomial_product(n, p) != multinomial:
            raise IntegralityError(
                f"multinomial forms disagree at n={n}, p={p}"
            )
        central_vp.append(vp_int((2 * n + 1) * central, p))
        digit_sums.append(digit_sum(n, p))
        multinomial_vp.append(vp_int(multinomial, p))
        if p > 2:
            shifted = 1
            for k in range(2, p):
                shifted *= k * n + 1
            shifted_vp.append(vp_int(shifted * central, p))
    params = (("p", p),)
    out = [
        ReportBatch("lemma1", KIND_UPPER, params, ns, (), list(ns), central_vp),
        ReportBatch("multinomial-valuation", KIND_EXACT, params, ns, (), digit_sums, multinomial_vp),
        ReportBatch("multinomial-bound", KIND_UPPER, params, ns, (), list(ns), multinomial_vp),
    ]
    if p > 2:
        out.append(ReportBatch("shifted-product-bound", KIND_UPPER, params, ns, (), list(ns), shifted_vp))
    return out


# ---------------------------------------------------------------------------
# Runner registry and the harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimRunner:
    """Sweeps `claims`: `items(grid)` lists work items, `run(**item)` returns one ReportBatch per claim."""

    claims: tuple[str, ...]
    items: Callable[[HarnessGrid], list[dict]]
    run: Callable[..., list[ReportBatch]]


def _table_runner(*claims: str) -> ClaimRunner:
    """A runner that sweeps `claims` of CLAIMS with the generic table runner."""
    return ClaimRunner(claims, functools.partial(_table_items, claims), functools.partial(_run_table, claims))


RUNNERS: dict[str, ClaimRunner] = {
    "thm1": _table_runner("thm1"),
    "thm2": ClaimRunner(("thm2",), _items_thm2, _run_thm2),
    "cor1": ClaimRunner(("cor1", "popcount"), _items_cor1, _run_cor1),
    "cor2": _table_runner("cor2"),
    "thm3": _table_runner("thm3"),
    "thm4": _table_runner("thm4", "little-schroder"),
    "cor3": _table_runner("cor3"),
    "thm5": _table_runner("thm5"),
    "thm6": _table_runner("thm6"),
    "lemma1": ClaimRunner(
        ("lemma1", "multinomial-valuation", "multinomial-bound", "shifted-product-bound"),
        _items_lemma1,
        _run_lemma1,
    ),
    "remarks": _table_runner("hexagonal", "catalan-shift"),
}

# Selector -> the runner that sweeps it: the paper's names for cor1 and cor2,
# then every claim a runner reports, the sequence of each table claim, and
# the runner names themselves.
_SELECTORS = {
    "remark2": "cor1",
    "franel": "cor2",
    **{claim: name for name, runner in RUNNERS.items() for claim in runner.claims},
    **{
        CLAIMS[claim].sequence: name
        for name, runner in RUNNERS.items()
        for claim in runner.claims
        if claim in CLAIMS and CLAIMS[claim].sequence
    },
    **{name: name for name in RUNNERS},
}


class SelectionError(ValueError):
    """A sweep request that names no runner, or gives a selected runner nothing to check."""


def resolve_selectors(names: str | Iterable[str]) -> list[str]:
    """Runner names for user-facing claim selectors, in order of first mention.

    A selector is "all", a runner name, a claim that a runner reports or the
    sequence of a table claim, in any case.  Selecting a claim selects its
    whole runner.  A single string is one selector, and the empty string none.
    """
    if isinstance(names, str):
        names = (names,) if names else ()
    out: list[str] = []
    for name in names:
        key = name.lower()
        if key == "all":
            out.extend(runner for runner in RUNNERS if runner not in out)
            continue
        if key not in _SELECTORS:
            raise SelectionError(f"unknown claim selector {name!r}")
        if _SELECTORS[key] not in out:
            out.append(_SELECTORS[key])
    return out


def run_harness(
    selectors: str | Iterable[str] = ("all",),
    grid: HarnessGrid | None = None,
    jobs: int = 1,
    fail_fast: bool = False,
) -> HarnessResult:
    """Sweep the selected claims over their grids and report every instance.

    Lists the work items of each selected runner, in order, and runs them
    with `harness.run_work`: the result's reports come sorted by claim and
    instance, so the output is identical at any job count, whether or not
    the sweep forked; with fail_fast the sweep keeps the items up to and including
    the first one, in work order, that reports a violation.  Violations are
    data in the result, not exceptions; an exception raised by an item is
    raised here.  Selectors that name no runner, or a selected runner
    without work items, raise SelectionError.

    The blocks of a claim without parameters share one stream table (see
    `_stream_block`), which the sweep drops when it returns.
    """
    names = resolve_selectors(selectors)
    if not names:
        raise SelectionError("no claim selected")
    grid = grid or HarnessGrid()
    work = []
    for name in names:
        runner = RUNNERS[name]
        items = runner.items(grid)
        if not items:
            raise SelectionError(f"the grid gives {name} nothing to check")
        work += [(runner.run, kw) for kw in items]
    return harness.run_work(work, jobs, fail_fast)
