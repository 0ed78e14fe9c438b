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
derives its fast routes from them.  cor1 and lemma1 keep their own
runners: past `exact_max` the cor1 oracle is a digit kernel, not a
sequence value, and lemma1 compares two constructions of the central
multinomial coefficient at checkpoints.

Hypothesis checking lives in the predictors: called outside its
hypotheses a predictor raises HypothesisViolation instead of returning a
number that the underlying statement does not back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator

from .digits import (
    U64_MAX,
    _doubling_carries,
    digit_sum,
    is_prime,
    kummer_carries,
    popcount_valuation,
)
from .sequences import (
    bsum_values,
    catalan_values,
    central_binomial_values,
    central_multinomial_product,
    delannoy_values,
    franel_values,
    hexagonal_values,
    legendre_values,
    motzkin_values,
    schroder_large_values,
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


def _orders_and_pairs(grid: HarnessGrid) -> list[tuple[int, int, int]]:
    return [(m, a, b) for a, b in coprime_pairs(grid.ab_max) for m in dict.fromkeys(grid.m_values)]


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
    predictor built from those fields at construction.  `values(*params)`
    is the oracle: the stream Y_0, Y_1, ... of exact integers, divided by
    `divisor`.  `axis(grid)` lists the parameter tuples a sweep covers;
    claims without parameters sweep n in blocks instead.  `sequence` names
    the `omega` target that the claim answers on the CLI fast route.
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
        Claim("thm1", "bsum", lambda a, b: trinomial_values(a * b, a + b), ("a", "b"),
              lambda a, b: _check_weights(a, b, "a + b", a + b), False, 0, KIND_EXACT,
              lambda grid: coprime_pairs(grid.ab_max), 200),
        Claim("thm2", None, bsum_values, ("m", "a", "b"), lambda m, a, b: _check_weights(a, b, "a + b", a + b), False,
              0, KIND_LOWER, _orders_and_pairs, 60),
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
        Claim("catalan-shift", None, catalan_values, (), lambda: 2, True, 1, KIND_EXACT, None, 300),
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


def _run_table(
    names: tuple[str, ...], n_lo: int, n_hi: int, streams: dict | None = None, **params
) -> list[ReportBatch]:
    """One batch per claim of `names`, which share their parameters, for n = n_lo..n_hi.

    The n run as blocks of _BLOCK values, in order, that resume their
    streams from `streams` (a table of their own if None), so an item holds
    one block's values at a time.  In a block each claim reads its stream's
    values at the indices of the block's n, the even index of each n first,
    by `_stream_block`; claims with the same stream build them once, and
    claims of the same shape share their predictor's answer at each index.
    A prime base takes vp_int directly.
    """
    streams = {} if streams is None else streams
    columns = {name: ([], []) for name in names}
    for block_lo, block_hi in _blocks(n_lo, n_hi):
        ns = range(block_lo, block_hi + 1)
        blocks: dict = {}
        predictions: dict = {}
        for name in names:
            claim = CLAIMS[name]
            args = tuple(params[k] for k in claim.params)
            lo = claim.index(block_lo, 0)
            key = (claim.values, claim.offset)
            if key not in blocks:
                blocks[key] = _stream_block(streams, claim.values, args, lo, claim.index(block_hi, 1) + 1)
            rs = sorted((0, 1), key=lambda r: claim.index(0, r) % 2)  # the even index first
            indices = [claim.index(n, r) for n in ns for r in rs]
            ys = [blocks[key][i - lo] for i in indices]
            if claim.divisor != 1:
                for j, (i, y) in enumerate(zip(indices, ys)):
                    ys[j], rem = divmod(y, claim.divisor)
                    if rem:
                        raise IntegralityError(f"{name} construction failed at index {i}")
            x = claim.base(*args)
            shape = (x, claim.catalan, claim.offset)
            if shape not in predictions:
                predictions[shape] = [claim.predict(n, PARITIES[r], *args) for n in ns for r in (0, 1)]
            predicted, oracle = columns[name]
            predicted += predictions[shape]
            oracle += map(vp_int, ys, repeat(abs(x))) if is_prime(abs(x)) else map(omega, repeat(x), ys)
    ns = range(n_lo, n_hi + 1)
    return [
        ReportBatch(name, CLAIMS[name].kind, tuple((k, params[k]) for k in CLAIMS[name].params), ns, PARITIES, *cols)
        for name, cols in columns.items()
    ]


# --- cor1: powers of 2 in doubled central binomials, plus the popcount form


def _items_cor1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, 1000)
    return [
        {"n_lo": lo, "n_hi": hi, "exact_max": grid.exact_max} for lo, hi in _blocks(0, n)
    ]


def _run_cor1(n_lo: int, n_hi: int, exact_max: int) -> list[ReportBatch]:
    """Up to exact_max the oracle is v_2 of C(2h, h) from its stream: h = 2n, 2n + 1 for cor1, h = n for popcount."""
    doubled, single = central_binomial_values(2 * n_lo), central_binomial_values(n_lo)
    ns = range(n_lo, n_hi + 1)
    predicted, oracle, popcounts, central_vp = [], [], [], []
    for n in ns:
        for half, parity in zip((2 * n, 2 * n + 1), PARITIES):
            predicted.append(predict_central_binomial_v2(n, parity))
            oracle.append(vp_int(next(doubled), 2) if half <= exact_max else kummer_carries(half, half, 2))
        popcounts.append(popcount_valuation(n))
        central_vp.append(vp_int(next(single), 2) if n <= exact_max else kummer_carries(n, n, 2))
    return [
        ReportBatch("cor1", KIND_EXACT, (), ns, PARITIES, predicted, oracle),
        ReportBatch("popcount", KIND_EXACT, (), ns, (), popcounts, central_vp),
    ]


# --- lemma1 family: factor bounds and central multinomial valuations


def _items_lemma1(grid: HarnessGrid) -> list[dict]:
    n = _n_max(grid, 500)
    return [{"p": p, "n_max": n} for p in range(grid.prime_min, grid.prime_max + 1) if is_prime(p)]


def _run_lemma1(p: int, n_max: int) -> list[ReportBatch]:
    """lemma1's family for p at n = 0..n_max, from (pn)! / (n!)**p maintained incrementally
    and C(2n, n) read from its stream.

    Every step is an exact division, its remainder checked.  The product
    form is rebuilt only at n = 0, at each power of two and at n_max: a
    value gone wrong at some n stays wrong at n_max unless a later step
    cancels the error.  (Comparing the two forms' step ratios would check an
    identity: the product form's ratio telescopes to the incremental step.)
    """
    checkpoints = {0, n_max, *(1 << k for k in range(n_max.bit_length()))}
    ns = range(n_max + 1)
    central_vp, digit_sums, multinomial_vp, shifted_vp = [], [], [], []
    multinomial = 1  # (pn)! / (n!)**p, maintained incrementally over n
    for n, central in zip(ns, central_binomial_values()):
        if n:
            block = 1
            for i in range(p * (n - 1) + 1, p * n + 1):
                block *= i
            q, r = divmod(multinomial * block, n**p)
            if r:
                raise IntegralityError(f"multinomial update failed at n={n}, p={p}")
            multinomial = q
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
    "thm2": _table_runner("thm2"),
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
