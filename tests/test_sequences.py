import ast
import inspect
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valuata.sequences as sequences
from valuata.sequences import (
    SEQUENCES,
    DomainError,
    IntegralityError,
    SequenceDef,
    binomial,
    bsum_range_values,
    catalan,
    central_binomial,
    central_multinomial,
    central_multinomial_product,
    central_multinomial_values,
    check_congruence,
    delannoy_values,
    eval_B,
    eval_B_via_macmahon,
    eval_B_via_trinomial,
    eval_M,
    eval_T,
    franel,
    franel_values,
    fuss_catalan,
    fuss_catalan_values,
    hexagonal_values,
    legendre,
    legendre_rational,
    legendre_values,
    motzkin_values,
    schroder_large,
    schroder_large_values,
    schroder_little,
    schroder_little_values,
    square_sum_values,
    trinomial_values,
)

SIGNED_PAIRS = [(1, 1), (1, 2), (2, 3), (-3, 5), (2, -7), (-1, -1), (0, 4), (5, 0)]

small_int = st.integers(-20, 20)


def brute_B(n, m, a, b):
    return sum(comb(n, k) ** m * a ** (n - k) * b**k for k in range(n + 1))


def _eval_B_reference(n, m, a, b):
    """The defining sum term by term, as eval_B summed it before it paired the terms k and n - k."""
    apow = [a**i for i in range(n + 1)]
    bpow = [b**i for i in range(n + 1)]
    total = 0
    c = 1
    for k in range(n + 1):
        total += c**m * apow[n - k] * bpow[k]
        c = c * (n - k) // (k + 1)
    return total


def _first(values, n_max):
    """[y_0, ..., y_n_max], the first n_max + 1 values of a stream."""
    return list(islice(values, n_max + 1))


def _traced_peak(route):
    """(peak bytes that route() allocated while it ran, its result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = route()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


# Every (m, a, b) with m in 0..6 and a, b in -5..5; a or b = 0 covers the 0**0 = 1 convention.
SUM_GRID = [(m, a, b) for m in range(7) for a in range(-5, 6) for b in range(-5, 6)]


class TestEvalB:
    def test_central_binomial_case(self):
        assert eval_B(4, 2, 1, 1) == 70 == comb(8, 4)

    def test_alternating_case(self):
        assert eval_B(4, 2, 1, -1) == 6 == comb(4, 2)

    def test_empty_sum(self):
        for m, a, b in [(2, 5, -3), (7, 0, 0), (3, -1, -1)]:
            assert eval_B(0, m, a, b) == 1

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            eval_B(-1, 2, 1, 1)

    def test_negative_order_rejected(self):
        # C(n, k)**m with m < 0 is a float, not a term of the sum.
        for fn in (eval_B, SEQUENCES["bsum"].value):
            for n in (0, 4):
                with pytest.raises(DomainError, match="^m must be non-negative, got -2$"):
                    fn(n, -2, 3, 5)
        with pytest.raises(DomainError, match="^m must be non-negative, got -1$"):
            check_congruence(3, -1, 1, 2)

    def test_orders_zero_and_one(self):
        # m = 0: sum of a**(n-k) b**k; m = 1: the binomial theorem.
        assert eval_B(4, 0, 3, 5) == SEQUENCES["bsum"].value(4, 0, 3, 5) == sum(3 ** (4 - k) * 5**k for k in range(5))
        assert eval_B(4, 1, 3, 5) == SEQUENCES["bsum"].value(4, 1, 3, 5) == 8**4
        assert check_congruence(4, 0, 1, 2) and check_congruence(4, 1, 1, 2)

    @given(st.integers(0, 60), st.integers(0, 5), small_int, small_int)
    def test_matches_brute_force(self, n, m, a, b):
        assert eval_B(n, m, a, b) == brute_B(n, m, a, b)

    def test_paired_sum_matches_the_term_by_term_sum(self):
        assert _eval_B_reference(0, 3, 0, 0) == 1 and _eval_B_reference(3, 2, 0, 2) == 8
        for m, a, b in SUM_GRID:
            reference = [_eval_B_reference(n, m, a, b) for n in range(60)]
            assert [eval_B(n, m, a, b) for n in range(60)] == reference, (m, a, b)


class TestBsumTable:
    def test_matches_the_pointwise_sum(self):
        for m, a, b in SUM_GRID:
            assert _first(bsum_range_values(m, a, b), 59) == [_eval_B_reference(n, m, a, b) for n in range(60)], (m, a, b)

    def test_domain(self):
        assert _first(bsum_range_values(3, 2, 5), 0) == [1]
        with pytest.raises(DomainError, match="^m must be non-negative, got -1$"):
            _first(bsum_range_values(-1, 1, 2), 0)


class TestFoldedForms:
    def test_small_values(self):
        assert eval_B_via_trinomial(2, 1, 2) == 13 == 1 + 8 + 4
        assert eval_B_via_trinomial(3, 1, 1) == 20 == comb(6, 3)

    def test_odd_alternating_vanishes(self):
        for n in (1, 3, 5, 21, 77):
            assert eval_B_via_trinomial(n, 1, -1) == 0
            assert eval_B(n, 2, 1, -1) == 0
            assert eval_B(n, 3, 1, -1) == 0

    @pytest.mark.parametrize("a,b", SIGNED_PAIRS)
    def test_three_routes_agree(self, a, b):
        for n in range(51):
            direct = eval_B(n, 2, a, b)
            assert eval_B_via_trinomial(n, a, b) == direct
            assert eval_T(n, a * b, a + b) == direct

    @given(st.integers(0, 300), small_int, small_int)
    @settings(max_examples=80, deadline=None)
    def test_three_routes_agree_sampled(self, n, a, b):
        direct = eval_B(n, 2, a, b)
        assert eval_B_via_trinomial(n, a, b) == direct
        assert eval_T(n, a * b, a + b) == direct

    @pytest.mark.parametrize("a,b", SIGNED_PAIRS)
    def test_macmahon_route_agrees(self, a, b):
        for n in range(41):
            assert eval_B_via_macmahon(n, a, b) == eval_B(n, 3, a, b)

    @given(st.integers(0, 200), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_macmahon_route_agrees_sampled(self, n, a, b):
        assert eval_B_via_macmahon(n, a, b) == eval_B(n, 3, a, b)

    def test_even_alternating_closed_forms(self):
        # One-square and one-cube closed forms at (1, -1); the cube form's
        # C(3n, 2n) equals C(3n, n).
        for n in range(101):
            assert eval_B(2 * n, 2, 1, -1) == (-1) ** n * comb(2 * n, n)
        for n in range(81):
            assert comb(3 * n, 2 * n) == comb(3 * n, n)
            assert eval_B(2 * n, 3, 1, -1) == (-1) ** n * comb(2 * n, n) * comb(3 * n, 2 * n)


class TestTrinomial:
    def test_central_trinomial(self):
        assert [eval_T(n, 1, 1) for n in range(6)] == [1, 1, 3, 7, 19, 51]

    def test_zero_up_weight(self):
        for n in range(8):
            assert eval_T(n, 0, 3) == 3**n
        assert eval_T(5, 0, 0) == 0
        assert eval_T(0, 0, 0) == 1

    def test_matches_square_sum_instance(self):
        assert eval_T(2, 2, 3) == 13 == eval_B(2, 2, 1, 2)

    @given(st.integers(0, 40), st.integers(-6, 6), st.integers(-6, 6))
    def test_is_polynomial_coefficient(self, n, a, b):
        # Coefficient of x**n in (x**2 + b*x + a)**n, by exhaustive convolution.
        coeffs = [1]
        for _ in range(n):
            nxt = [0] * (len(coeffs) + 2)
            for i, c in enumerate(coeffs):
                nxt[i] += c * a
                nxt[i + 1] += c * b
                nxt[i + 2] += c
            coeffs = nxt
        assert eval_T(n, a, b) == coeffs[n]


class TestMotzkin:
    def test_plain_motzkin(self):
        assert [eval_M(n, 1, 1) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]

    def test_catalan_shift_instance(self):
        for n in range(30):
            assert eval_M(n, 1, 2) == catalan(n + 1)

    def test_little_schroder_instance(self):
        assert eval_M(2, 2, 3) == 11 == schroder_little(3)

    @given(st.integers(0, 40), st.integers(-6, 6), st.integers(-6, 6))
    def test_matches_direct_sum(self, n, a, b):
        expected = sum(
            comb(n, 2 * k) * catalan(k) * a**k * b ** (n - 2 * k)
            for k in range(n // 2 + 1)
        )
        assert eval_M(n, a, b) == expected


class TestNamedSequences:
    def test_delannoy_values(self):
        assert _first(delannoy_values(), 5) == [1, 3, 13, 63, 321, 1683]
        assert SEQUENCES["delannoy"].value(3) == 63

    def test_delannoy_equals_square_sum(self):
        for n in range(151):
            assert SEQUENCES["delannoy"].value(n) == eval_B(n, 2, 1, 2)

    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_delannoy_recurrence_vs_direct_sampled(self, n):
        assert SEQUENCES["delannoy"].value(n) == eval_B(n, 2, 1, 2)

    def test_schroder_values(self):
        assert [schroder_large(n) for n in (1, 2, 3, 4)] == [2, 6, 22, 90]
        assert [schroder_little(n) for n in (1, 2, 3, 4)] == [1, 3, 11, 45]

    def test_schroder_undefined_at_zero(self):
        with pytest.raises(DomainError):
            schroder_large(0)
        with pytest.raises(DomainError):
            schroder_little(0)

    def test_schroder_table_matches_pointwise(self):
        table, little = _first(schroder_large_values(), 40), _first(schroder_little_values(), 40)
        assert table[0] is None and little[0] is None
        for n in range(1, 41):
            assert table[n] == schroder_large(n) == 2 * schroder_little(n) == 2 * little[n]
        assert _first(schroder_large_values(), 0) == _first(schroder_little_values(), 0) == [None]
        long_large, long_little = _first(schroder_large_values(), 1500), _first(schroder_little_values(), 1500)
        for n in (41, 257, 1000, 1499, 1500):
            assert long_large[n] == schroder_large(n) == 2 * long_little[n]

    def test_little_schroder_is_motzkin_value(self):
        for n in range(121):
            assert schroder_little(n + 1) == eval_M(n, 2, 3)

    @given(st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_little_schroder_motzkin_sampled(self, n):
        assert schroder_little(n + 1) == eval_M(n, 2, 3)

    def test_franel(self):
        assert [franel(n) for n in range(4)] == [1, 2, 10, 56]

    def test_hexagonal(self):
        assert [SEQUENCES["hexagonal"].value(n) for n in range(5)] == [1, 3, 10, 36, 137]

    def test_catalan(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        assert catalan(0) == 1

    def test_central_binomial(self):
        assert central_binomial(0) == 1
        assert central_binomial(5) == 252

    def test_central_binomial_stream(self):
        # The central binomials are the central multinomials at p = 2.  k <= 3000
        # is the range in which cor1 reads the stream at the default --exact-max.
        assert _first(central_multinomial_values(2), 3000) == [comb(2 * k, k) for k in range(3001)]
        for start in (1, 2, 1000):
            assert _first(central_multinomial_values(2, start), 5) == [comb(2 * k, k) for k in range(start, start + 6)]
        stream = central_multinomial_values(2, -1)  # checked on the first next()
        with pytest.raises(DomainError, match="^n must be non-negative, got -1$"):
            next(stream)

    def test_catalan_stream(self, monkeypatch):
        # The Catalan numbers are the Fuss-Catalan numbers at k = 2.
        for start in (0, 1, 2, 1000):
            expected = [comb(2 * k, k) // (k + 1) for k in range(start, start + 6)]
            assert _first(fuss_catalan_values(2, start), 5) == expected
        with pytest.raises(DomainError, match="^start must be non-negative, got -1$"):
            fuss_catalan_values(2, -1)
        # The first value comes from binomial, built on the first next(), not when the stream is made.
        calls = []
        monkeypatch.setattr(sequences, "binomial", lambda n, k: calls.append((n, k)) or comb(n, k))
        stream = fuss_catalan_values(2, 40)
        assert calls == []
        assert next(stream) == comb(80, 40) // 41 and calls == [(80, 40)]


class TestRecurrenceTables:
    N = 40
    WEIGHTS = range(-4, 6)

    def test_parametrized_tables_match_defining_sums(self):
        for a in self.WEIGHTS:
            for b in self.WEIGHTS:
                square_sums = _first(trinomial_values(a * b, a + b), self.N - 1)
                assert square_sums == [eval_B(n, 2, a, b) for n in range(self.N)]
                assert _first(trinomial_values(a, b), self.N - 1) == [eval_T(n, a, b) for n in range(self.N)]
                assert _first(motzkin_values(a, b), self.N - 1) == [eval_M(n, a, b) for n in range(self.N)]

    def test_named_tables_match_defining_sums(self):
        assert _first(franel_values(), self.N - 1) == [franel(n) for n in range(self.N)]
        assert _first(fuss_catalan_values(2), self.N - 1) == [catalan(n) for n in range(self.N)]
        assert _first(hexagonal_values(), self.N - 1) == [eval_M(n, 1, 3) for n in range(self.N)]
        for x in (3, -3, 5, -5, 9, -15):
            assert _first(legendre_values(x), self.N - 1) == [legendre(n, x) for n in range(self.N)]

    def test_long_tables_match_at_sampled_indices(self):
        table = _first(trinomial_values(37 * 62, 37 + 62), 400)
        for n in (0, 1, 2, 199, 400):
            assert table[n] == eval_B(n, 2, 37, 62)
        assert _first(franel_values(), 300)[300] == franel(300)
        assert _first(motzkin_values(-4, 5), 301)[301] == eval_M(301, -4, 5)

    def test_square_sum_stream(self):
        # B(n, 2, a, b) = T_n(ab, a + b): one stream for the paper's identity and for P_n at odd x.
        for a, b in SIGNED_PAIRS:
            for start in (0, 1, 17):
                expected = [eval_B(n, 2, a, b) for n in range(start, start + 6)]
                assert _first(square_sum_values(a, b, start), 5) == expected
        for x in (3, -15):
            assert _first(legendre_values(x, 30), 3) == _first(square_sum_values((x - 1) // 2, (x + 1) // 2, 30), 3)

    def test_short_tables(self):
        for values in (franel_values, partial(fuss_catalan_values, 2), hexagonal_values):
            assert _first(values(), 0) == [1]
            assert len(_first(values(), 1)) == 2
        assert _first(trinomial_values(6, 5), 0) == [1] and _first(trinomial_values(6, 5), 1) == [1, 5]
        assert _first(trinomial_values(2, 3), 1) == [1, 3] == _first(motzkin_values(2, 3), 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            legendre_values(4)


class TestRegistryTables:
    """Registry entries read single values off the streams behind the tables in TestRecurrenceTables."""

    N = TestRecurrenceTables.N
    WEIGHTS = TestRecurrenceTables.WEIGHTS

    def test_registry_wiring(self):
        # Every entry reads its ranges and its single values from one stream.
        assert list(inspect.signature(SequenceDef).parameters) == ["name", "params", "min_index", "values"]
        # catalan and central-binomial read their families' streams at k = 2 and p = 2.
        streams = {
            name: (spec.values.func, spec.values.args, spec.values.keywords) if isinstance(spec.values, partial)
            else spec.values
            for name, spec in SEQUENCES.items()
        }
        assert streams == {
            "delannoy": delannoy_values,
            "franel": franel_values,
            "hexagonal": hexagonal_values,
            "trinomial": trinomial_values,
            "motzkin": motzkin_values,
            "legendre": legendre_values,
            "schroder": schroder_large_values,
            "little-schroder": schroder_little_values,
            "central-binomial": (central_multinomial_values, (2,), {}),
            "catalan": (fuss_catalan_values, (2,), {}),
            "fuss-catalan": fuss_catalan_values,
            "multinomial": central_multinomial_values,
            "bsum": bsum_range_values,
        }

    def test_value_matches_the_defining_sums(self):
        # Each entry's single value against other constructions, called as
        # form(n, *params).  The streams of catalan, central-binomial and
        # fuss-catalan take their first value from `binomial`, as the library
        # functions do, and bsum's at m != 2 is eval_B, so math.comb and the
        # term-by-term sum give those a construction that shares no code with
        # the stream.
        def comb_fuss_catalan(n, k):
            return comb(k * n, n) // ((k - 1) * n + 1)

        forms = [
            ("delannoy", (), lambda n: eval_B(n, 2, 1, 2)),
            ("schroder", (), schroder_large),  # the Delannoy form
            ("little-schroder", (), schroder_little),
            ("catalan", (), catalan),
            ("catalan", (), lambda n: comb(2 * n, n) // (n + 1)),
            ("central-binomial", (), central_binomial),
            ("central-binomial", (), lambda n: comb(2 * n, n)),
            ("franel", (), lambda n: eval_B(n, 3, 1, 1)),
            ("hexagonal", (), lambda n: eval_M(n, 1, 3)),
            ("fuss-catalan", (3,), fuss_catalan),
            ("fuss-catalan", (3,), comb_fuss_catalan),
            ("fuss-catalan", (2,), comb_fuss_catalan),
            ("multinomial", (3,), central_multinomial),  # the factorial form
            ("multinomial", (5,), central_multinomial),
            ("trinomial", (-3, 5), eval_T),
            ("motzkin", (2, -4), eval_M),
            ("legendre", (-15,), legendre_rational),
            ("bsum", (2, -3, 5), eval_B),
        ]
        for params in ((0, 1, 2), (1, -3, 5), (3, 2, -7), (5, -1, 4)):
            forms += [("bsum", params, eval_B), ("bsum", params, _eval_B_reference)]
        assert {name for name, _, _ in forms} == set(SEQUENCES)
        edge = sequences._JUMP_FROM
        for name, params, form in forms:
            spec = SEQUENCES[name]
            for n in (spec.min_index, 1, 2, 17, edge - 1, edge, edge + 37):
                assert spec.value(n, *params) == form(n, *params), (name, params, n)

    def test_single_values_match_their_tables(self):
        n_max = 59
        tables = {
            "delannoy": ((), delannoy_values),
            "schroder": ((), schroder_large_values),
            "little-schroder": ((), schroder_little_values),
            "franel": ((), franel_values),
            "hexagonal": ((), hexagonal_values),
            "trinomial": ((-3, 5), trinomial_values),
            "motzkin": ((2, -4), motzkin_values),
            "legendre": ((-15,), legendre_values),
            "central-binomial": ((), lambda: central_multinomial_values(2)),
            "catalan": ((), lambda: fuss_catalan_values(2)),
            "fuss-catalan": ((3,), fuss_catalan_values),
            "multinomial": ((3,), central_multinomial_values),
            "bsum": ((2, -3, 5), bsum_range_values),
        }
        assert set(tables) == set(SEQUENCES)
        for name, (params, values) in tables.items():
            spec, table = SEQUENCES[name], _first(values(*params), n_max)
            assert len(table) == n_max + 1 and table[: spec.min_index] == [None] * spec.min_index
            for n in range(spec.min_index, n_max + 1):
                assert spec.value(n, *params) == table[n], (name, n)
        delannoys = _first(delannoy_values(), n_max)
        large, little = _first(schroder_large_values(), n_max), _first(schroder_little_values(), n_max)
        square_sums = {(a, b): _first(trinomial_values(a * b, a + b), n_max) for a, b in SIGNED_PAIRS}
        for n in range(n_max + 1):
            assert SEQUENCES["delannoy"].value(n) == delannoys[n]
            for (a, b), table in square_sums.items():
                assert SEQUENCES["bsum"].value(n, 2, a, b) == table[n], (n, a, b)
            if n:
                assert schroder_large(n) == large[n] and schroder_little(n) == little[n]
        # Any other order reads eval_B at each index.
        for m, a, b in ((0, 1, 2), (1, -3, 5), (3, 2, -7), (5, -1, 4)):
            assert _first(bsum_range_values(m, a, b, 7), n_max - 7) == [eval_B(n, m, a, b) for n in range(7, n_max + 1)]

    def test_single_values_hold_only_a_few_values(self):
        # A single value at n = 3000 is about 1 KB.  Its route may hold a few
        # values of its size at a time; a whole table up to n holds about 1500.
        n = 3000
        routes = {
            "schroder_large": lambda: schroder_large(n),
            "schroder_little": lambda: schroder_little(n),
            "eval_B": lambda: eval_B(n, 3, 7, 2),
            "franel": lambda: franel(n),
            "legendre": lambda: legendre(n, -15),
        }
        params = {
            "trinomial": (2, 5), "motzkin": (3, -4), "legendre": (-15,), "fuss-catalan": (3,), "multinomial": (3,),
            "bsum": (2, 3, 7),
        }
        for name, spec in SEQUENCES.items():
            extra = params.get(name, ())
            routes[name] = lambda spec=spec, extra=extra: spec.value(n, *extra)
        for name, route in routes.items():
            peak, value = _traced_peak(route)
            assert peak < 16 * sys.getsizeof(value), (name, peak, sys.getsizeof(value))
        peak, table = _traced_peak(lambda: _first(delannoy_values(), n))
        assert peak > 1000 * sys.getsizeof(table[n])  # the measurement tells a table from a value

    def test_value_domain(self):
        # TestRegistry checks each entry's first index; here bsum at both of its streams, and the library functions.
        for name, params in (("delannoy", ()), ("bsum", (2, 1, 2)), ("bsum", (3, 1, 2)), ("trinomial", (1, 2))):
            with pytest.raises(DomainError, match=f"^{name} starts at index 0, got -3$"):
                SEQUENCES[name].value(-3, *params)
        for size, route in (("large", schroder_large), ("little", schroder_little)):
            for n in (0, -3):
                with pytest.raises(DomainError, match=f"^{size} Schroder numbers start at index 1, got {n}$"):
                    route(n)
        for route in (SEQUENCES["legendre"].value, legendre, lambda n, x: _first(legendre_values(x), n)):
            with pytest.raises(DomainError, match="^x must be odd for an integer value, got 4$"):
                route(3, 4)
        for name, params, message in (
            ("fuss-catalan", (1,), "^k must be at least 2, got 1$"),
            ("multinomial", (1,), "^p must be at least 2, got 1$"),
            ("bsum", (-1, 1, 2), "^m must be non-negative, got -1$"),
        ):
            with pytest.raises(DomainError, match=message):
                SEQUENCES[name].value(3, *params)

    def test_bsum_matches_eval_B(self):
        for a in self.WEIGHTS:
            for b in self.WEIGHTS:
                for n in range(self.N):
                    assert SEQUENCES["bsum"].value(n, 2, a, b) == eval_B(n, 2, a, b)
        assert SEQUENCES["bsum"].value(12, 3, 2, -5) == eval_B(12, 3, 2, -5)

    def test_bsum_domain(self):
        for m in (2, 3):
            with pytest.raises(DomainError, match="^bsum starts at index 0, got -1$"):
                SEQUENCES["bsum"].value(-1, m, 1, 2)


class TestBinomial:
    """binomial(n, k) is math.comb(n, k) on both sides of its crossover to the prime-power product."""

    @pytest.fixture
    def prime_calls(self, monkeypatch):
        calls = []
        real = sequences._binomial_by_primes

        def counted(n, k):
            calls.append((n, k))
            return real(n, k)

        monkeypatch.setattr(sequences, "_binomial_by_primes", counted)
        return calls

    def test_small_pairs(self):
        for n in range(300):
            for k in range(n + 1):
                assert binomial(n, k) == comb(n, k), (n, k)
                if 0 < k <= n // 2:
                    assert sequences._binomial_by_primes(n, k) == comb(n, k), (n, k)

    def test_domain_follows_math_comb(self):
        for n in (0, 5, 10**6, 10**30):
            assert binomial(n, n + 1) == comb(n, n + 1) == 0
        for n, k in ((5, -1), (-1, 2), (-1, -1), (10**6, -3)):
            with pytest.raises(ValueError, match="must be a non-negative integer"):
                comb(n, k)
            with pytest.raises(ValueError, match="must be a non-negative integer"):
                binomial(n, k)

    def test_seeded_pairs_reach_both_routes(self, prime_calls):
        rng = random.Random(2024)
        pairs = []
        for _ in range(2000):
            n = int(math.exp(rng.uniform(0, math.log(100_000))))
            # min(k, n - k) up to twice the crossover, sqrt(200 n), keeps math.comb quick.
            k = rng.randint(0, min(n // 2, 2 * math.isqrt(200 * n)))
            pairs.append((n, rng.choice((k, n - k))))
        for n, k in pairs:
            assert binomial(n, k) == comb(n, k), (n, k)
        assert 200 < len(prime_calls) < 1800, len(prime_calls)

    def test_pairs_at_the_crossover(self, prime_calls):
        for n in (1000, 3001, 20_000, 72_000, 100_000):
            edge = math.isqrt(200 * n) + 1  # the least k with k * k > 200 n
            for k in (edge - 1, edge, n - edge, n - edge + 1):
                assert binomial(n, k) == comb(n, k), (n, k)
        assert len(prime_calls) == 10

    def test_past_sys_maxsize(self):
        huge = 10**23
        for k in (5 * 10**22, huge - sys.maxsize - 1):
            with pytest.raises(DomainError, match=r"^C\(100000000000000000000000, \d+\) is past the oracle's reach"):
                binomial(huge, k)
        assert binomial(huge, 3) == comb(huge, 3)
        for route in (central_binomial, catalan, lambda n: fuss_catalan(n, 3), lambda n: central_multinomial_product(n, 3)):
            with pytest.raises(DomainError, match="is past the oracle's reach"):
                route(huge)

    def test_imports_nothing_from_digits_or_valuation(self):
        """The oracle computes Legendre's sums itself: it shares no code with the predictors' modules."""
        tree = ast.parse(open(sequences.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
                imported.update("." * node.level + alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {name for name in imported if name.split(".")[-1] in ("digits", "valuation")}, imported


class TestOracleReach:
    """An index past what islice reads is a DomainError, not islice's ValueError."""

    def test_streamed_values_past_sys_maxsize(self):
        import valuata

        with pytest.raises(DomainError, match="^index 10{30} is past the oracle's reach"):
            valuata.SEQUENCES["delannoy"].value(10**30)
        for route in (
            lambda n: SEQUENCES["trinomial"].value(n, 1, 2),
            lambda n: SEQUENCES["bsum"].value(n, 2, 1, 2),
            schroder_large,
            schroder_little,
            SEQUENCES["franel"].value,
        ):
            with pytest.raises(DomainError, match="is past the oracle's reach"):
                route(10**30)
        with pytest.raises(DomainError, match=f"^index {sys.maxsize} is past the oracle's reach"):
            SEQUENCES["delannoy"].value(sys.maxsize)

    def test_single_values_and_defining_sums_past_sys_maxsize(self):
        import valuata

        for route, what in (
            (valuata.SEQUENCES["hexagonal"].value, "value streams"),
            (lambda n: valuata.eval_T(n, 1, 2), "defining sums"),
            (lambda n: valuata.eval_M(n, 1, 3), "defining sums"),
        ):
            with pytest.raises(DomainError, match=f"^index 10{{30}} is past the oracle's reach: {what} end"):
                route(10**30)


def _schroder_sum(n):
    """S_n = sum_k C(n+k, 2k) * Catalan(k), which shares no code with the recurrences."""
    return sum(comb(n + k, 2 * k) * comb(2 * k, k) // (k + 1) for k in range(n + 1))


class TestJump:
    """A stream started at n jumps there by chunks of step matrices (Franel's steps); it gives the stepped values."""

    # name -> (stream, params, defining sum of y_n)
    STREAMS = {
        "delannoy": (delannoy_values, (), lambda n: eval_B(n, 2, 1, 2)),
        "trinomial -3 5": (trinomial_values, (-3, 5), lambda n: eval_T(n, -3, 5)),
        "trinomial 1 2": (trinomial_values, (1, 2), lambda n: eval_T(n, 1, 2)),  # b**2 - 4a = 0
        "trinomial 0 4": (trinomial_values, (0, 4), lambda n: eval_T(n, 0, 4)),
        "motzkin 2 -4": (motzkin_values, (2, -4), lambda n: eval_M(n, 2, -4)),
        "motzkin 1 2": (motzkin_values, (1, 2), lambda n: eval_M(n, 1, 2)),  # 4a - b**2 = 0
        "motzkin 0 3": (motzkin_values, (0, 3), lambda n: eval_M(n, 0, 3)),
        "legendre -15": (legendre_values, (-15,), lambda n: legendre_rational(n, -15)),
        "franel": (franel_values, (), lambda n: eval_B(n, 3, 1, 1)),
        "hexagonal": (hexagonal_values, (), lambda n: eval_M(n, 1, 3)),
        "schroder": (schroder_large_values, (), lambda n: _schroder_sum(n) if n else None),
        "little-schroder": (schroder_little_values, (), lambda n: _schroder_sum(n) // 2 if n else None),
        **{
            f"bsum {a} {b}": (trinomial_values, (a * b, a + b), lambda n, a=a, b=b: eval_B(n, 2, a, b))
            for a, b in SIGNED_PAIRS
        },
    }

    @pytest.fixture
    def jump_everywhere(self, monkeypatch):
        monkeypatch.setattr(sequences, "_JUMP_FROM", 0)

    @pytest.fixture
    def divisions(self, monkeypatch):
        calls = []
        real = sequences._exact_div

        def counted(num, den, what):
            calls.append(what)
            return real(num, den, what)

        monkeypatch.setattr(sequences, "_exact_div", counted)
        return calls

    def test_every_start_up_to_200_and_at_the_chunk_edges(self, jump_everywhere):
        starts = [*range(201), 255, 256, 257, 383, 384, 385]
        for name, (values, params, defining_sum) in self.STREAMS.items():
            stepped = _first(values(*params), max(starts) + 2)
            for n in starts:
                jumped = list(islice(values(*params, start=n), 2))
                assert jumped == stepped[n : n + 2], (name, n)
                assert jumped[0] == defining_sum(n), (name, n)

    def test_both_sides_of_the_crossover(self, divisions):
        edge = sequences._JUMP_FROM
        for name, (values, params, defining_sum) in self.STREAMS.items():
            stepped = _first(values(*params), edge + 2)
            for n in (edge - 1, edge, edge + 1):
                divisions.clear()
                jumped = list(islice(values(*params, start=n), 2))
                # Below the crossover the stream steps to n, and the Franel stream always does; from
                # the crossover on the others jump, then step once (the little Schroder stream also
                # halves both values).
                if n < edge or name == "franel":
                    assert len(divisions) >= n, (name, n, len(divisions))
                else:
                    assert len(divisions) <= 2 * math.ceil(n / sequences._JUMP) + 3, (name, n, len(divisions))
                assert jumped == stepped[n : n + 2] and jumped[0] == defining_sum(n), (name, n)

    def test_single_values_divide_about_twice_per_chunk(self, divisions):
        n = 8000
        chunks = math.ceil(n / sequences._JUMP)
        routes = {
            "delannoy": (lambda: SEQUENCES["delannoy"].value(n), 0),
            "schroder": (lambda: schroder_large(n), 3),  # two plain steps to D_{n+1}, and the halving
            "hexagonal": (lambda: SEQUENCES["hexagonal"].value(n), 0),
            "bsum": (lambda: SEQUENCES["bsum"].value(n, 2, -3, 5), 0),
            "trinomial": (lambda: SEQUENCES["trinomial"].value(n, 3, 5), 0),
            "legendre": (lambda: SEQUENCES["legendre"].value(n, 13), 0),
        }
        for name, (route, extra) in routes.items():
            divisions.clear()
            route()
            assert len(divisions) <= 2 * chunks + extra, (name, len(divisions))

    def test_a_corrupted_step_coefficient_raises(self):
        def step(n):  # the Delannoy step, with alpha(70) off by one
            return 3 * (2 * n + 1) + (n == 70), -n, n + 1

        assert sequences._jump(step, 0, 0, 1, 70, "delannoy") == (SEQUENCES["delannoy"].value(69), SEQUENCES["delannoy"].value(70))
        with pytest.raises(IntegralityError, match="^delannoy: "):
            sequences._jump(step, 0, 0, 1, 128, "delannoy")

    def test_start_domain(self):
        for values, params in ((delannoy_values, ()), (franel_values, ()), (schroder_little_values, ())):
            with pytest.raises(DomainError, match="^start must be non-negative, got -1$"):
                values(*params, start=-1)
        assert list(islice(schroder_large_values(start=0), 2)) == [None, 2]
        assert list(islice(schroder_little_values(start=0), 2)) == [None, 1]


class TestExactDiv:
    def test_a_remainder_names_short_operands(self):
        with pytest.raises(IntegralityError, match="^demo: 7 is not divisible by 2$"):
            sequences._exact_div(7, 2, "demo")

    def test_a_remainder_names_the_size_of_a_long_operand(self):
        # Under the int-to-str limit, formatting the numerator would raise ValueError instead.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(IntegralityError, match="^demo: a 16610-bit number is not divisible by 10$"):
                sequences._exact_div(10**5000 + 1, 10, "demo")
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestFussCatalan:
    def test_reduces_to_catalan(self):
        for n in range(40):
            assert fuss_catalan(n, 2) == catalan(n)

    def test_small_values(self):
        assert fuss_catalan(2, 3) == 3
        assert fuss_catalan(3, 3) == 12

    def test_integrality_sweep(self):
        for k in (2, 3, 4, 5):
            for n in range(61):
                assert fuss_catalan(n, k) * ((k - 1) * n + 1) == comb(k * n, n)

    @given(st.integers(0, 300), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_integrality_sampled(self, n, k):
        fuss_catalan(n, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            fuss_catalan(3, 1)

    def test_stream(self):
        for k in range(2, 7):
            assert _first(fuss_catalan_values(k), 120) == [fuss_catalan(n, k) for n in range(121)], k
            for start in (1, 2, 17, 300, 2000):
                assert _first(fuss_catalan_values(k, start), 6) == [fuss_catalan(n, k) for n in range(start, start + 7)]
        assert _first(fuss_catalan_values(2), 300) == [catalan(n) for n in range(301)]

    def test_stream_cancels_the_shared_factors(self):
        # For 1 <= j < k the runs kj+1..kj+k-1 and (k-1)j+2..(k-1)j+k share kj+1..(k-1)j+k.
        for k in (2, 3, 5, 7, 100, 10**4):
            for start in (0, 1, 5, 150):
                assert _first(fuss_catalan_values(k, start), 4) == [fuss_catalan(n, k) for n in range(start, start + 5)]
        assert _first(fuss_catalan_values(10**7), 2) == [1, 1, 10**7]

    def test_stream_checks_before_building(self, monkeypatch):
        calls = []
        real = sequences.fuss_catalan
        monkeypatch.setattr(sequences, "fuss_catalan", lambda n, k: calls.append((n, k)) or real(n, k))
        for k, start, message in (
            (1, 0, "^k must be at least 2, got 1$"),
            (-4, 7, "^k must be at least 2, got -4$"),
            (3, -1, "^start must be non-negative, got -1$"),
            (1, -2, "^start must be non-negative, got -2$"),
        ):
            with pytest.raises(DomainError, match=message):
                fuss_catalan_values(k, start)
        # The first value comes from fuss_catalan, built on the first next(), not when the stream is made.
        stream = fuss_catalan_values(3, 40)
        assert calls == []
        assert next(stream) == comb(120, 40) // 81 and calls == [(40, 3)]


class TestCentralMultinomial:
    def test_small_value(self):
        assert central_multinomial(1, 3) == 6
        assert central_multinomial(2, 3) == 90

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_forms_agree(self, p):
        for n in range(26):
            assert central_multinomial(n, p) == central_multinomial_product(n, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            central_multinomial(3, 1)

    @pytest.mark.parametrize("p", range(2, 8))
    def test_stream(self, p):
        for start in (0, 1, 17, 300):
            assert _first(central_multinomial_values(p, start), 4) == [
                central_multinomial(n, p) for n in range(start, start + 5)
            ]

    def test_stream_checks_on_its_first_value(self):
        for p, start, message in ((1, 0, "^p must be at least 2, got 1$"), (3, -1, "^n must be non-negative, got -1$")):
            stream = central_multinomial_values(p, start)
            with pytest.raises(DomainError, match=message):
                next(stream)

    def test_a_failed_step_names_n_and_p(self, monkeypatch):
        # A wrong first value, M_2 = 1 for 6, leaves the step to n = 3 the remainder 30 mod 3**2.
        monkeypatch.setattr(sequences, "central_multinomial_product", lambda n, p: 1)
        stream = central_multinomial_values(2, 2)
        assert next(stream) == 1
        with pytest.raises(IntegralityError, match="^central_multinomial at n=3, p=2: 30 is not divisible by 9$"):
            next(stream)

    def test_a_step_that_succeeds_builds_no_failure_text(self, monkeypatch):
        texts = []
        real = sequences._exact_div
        monkeypatch.setattr(sequences, "_exact_div", lambda num, den, what: texts.append(what) or real(num, den, what))
        for p in range(2, 8):
            assert _first(central_multinomial_values(p), 60) == [central_multinomial(n, p) for n in range(61)]
        assert not [text for text in texts if text.startswith("central_multinomial at")]

    def test_registry_builds_from_binomials(self, monkeypatch):
        # A single value is the stream's first one, the product of binomials.
        spec = SEQUENCES["multinomial"]
        for p in range(2, 8):
            for n in range(60):
                assert spec.value(n, p) == central_multinomial(n, p)
        with pytest.raises(DomainError, match="^multinomial starts at index 0, got -1$"):
            spec.value(-1, 3)
        with pytest.raises(DomainError, match="^p must be at least 2, got 1$"):
            spec.value(3, 1)
        calls = []
        monkeypatch.setattr(sequences, "central_multinomial_product", lambda n, p: calls.append((n, p)) or 7)
        assert spec.value(40, 3) == 7 and calls == [(40, 3)]


class TestLegendre:
    def test_delannoy_specialization(self):
        assert legendre(2, 3) == 13
        assert legendre(3, 3) == 63
        for n in range(101):
            assert legendre(n, 3) == SEQUENCES["delannoy"].value(n)

    def test_degree_zero(self):
        for x in (-9, -3, 3, 17):
            assert legendre(0, x) == 1

    def test_even_x_rejected(self):
        with pytest.raises(DomainError):
            legendre(2, 4)

    def test_rational_route_agrees_for_odd_x(self):
        for x in (-9, -3, 3, 5, 15):
            for n in range(61):
                assert legendre_rational(n, x) == Fraction(legendre(n, x))

    def test_rational_route_handles_even_x(self):
        assert legendre_rational(2, 4) == Fraction(47, 2)
        assert legendre_rational(1, 0) == 0
        assert legendre_rational(3, 2) == Fraction(17, 1)

    @given(st.integers(0, 120), st.integers(-15, 15))
    @settings(max_examples=60, deadline=None)
    def test_rational_route_sampled(self, n, x):
        if x % 2:
            assert legendre_rational(n, x) == legendre(n, x)
        else:
            assert legendre_rational(n, x).denominator >= 1


class TestCongruence:
    def test_worked_cases(self):
        assert check_congruence(3, 2, 1, 2)
        assert check_congruence(4, 2, 1, 1)
        assert check_congruence(2, 3, 2, 3)

    def test_precondition(self):
        with pytest.raises(DomainError):
            check_congruence(3, 2, 2, 4)
        with pytest.raises(DomainError):
            check_congruence(3, 2, 1, -1)

    def test_sweep(self):
        pairs = [(a, b) for a in range(1, 8) for b in range(-7, 8)
                 if math.gcd(a, b) == 1 and a + b != 0]
        for m in (2, 3, 4):
            for n in range(25):
                for a, b in pairs:
                    assert check_congruence(n, m, a, b)

    @given(st.integers(0, 80), st.integers(2, 5), small_int, small_int)
    @settings(max_examples=60, deadline=None)
    def test_sampled(self, n, m, a, b):
        if math.gcd(a, b) != 1 or a + b == 0:
            return
        assert check_congruence(n, m, a, b)


class TestRegistry:
    DEFAULTS = {"k": 2, "p": 3, "a": 1, "b": 2, "x": 3, "m": 2}

    def test_entries_callable_at_min_index(self):
        for spec in SEQUENCES.values():
            extra = [self.DEFAULTS[p] for p in spec.params]
            value = spec.value(spec.min_index, *extra)
            assert isinstance(value, int)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_value_checks_its_index_at_both_ends(self, name):
        # SequenceDef.value's own checks, with no other route's in front of them: the
        # entry's first index, and the reach of the stream that it reads.
        spec = SEQUENCES[name]
        extra = [self.DEFAULTS[p] for p in spec.params]
        for n in (spec.min_index - 1, -1, -3):
            with pytest.raises(DomainError, match=f"^{name} starts at index {spec.min_index}, got {n}$"):
                spec.value(n, *extra)
        with pytest.raises(DomainError, match=f"^index {sys.maxsize} is past the oracle's reach: value streams end"):
            spec.value(sys.maxsize, *extra)

    def test_known_names(self):
        assert {"delannoy", "schroder", "little-schroder", "catalan", "franel",
                "hexagonal", "trinomial", "motzkin", "legendre", "bsum",
                "fuss-catalan", "multinomial", "central-binomial"} <= set(SEQUENCES)
