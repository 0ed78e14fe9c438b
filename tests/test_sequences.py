import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.sequences import (
    SEQUENCES,
    DomainError,
    SumParams,
    bsum,
    bsum2_table,
    catalan,
    catalan_table,
    central_binomial,
    central_multinomial,
    central_multinomial_product,
    check_congruence,
    delannoy,
    delannoy_table,
    eval_B,
    eval_B_via_macmahon,
    eval_B_via_trinomial,
    eval_M,
    eval_T,
    franel,
    franel_table,
    fuss_catalan,
    hexagonal,
    hexagonal_table,
    legendre,
    legendre_rational,
    legendre_table,
    motzkin_table,
    schroder_large,
    schroder_large_table,
    schroder_little,
    schroder_little_table,
    trinomial_table,
)

SIGNED_PAIRS = [(1, 1), (1, 2), (2, 3), (-3, 5), (2, -7), (-1, -1), (0, 4), (5, 0)]

small_int = st.integers(-20, 20)


def brute_B(n, m, a, b):
    return sum(comb(n, k) ** m * a ** (n - k) * b**k for k in range(n + 1))


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

    @given(st.integers(0, 60), st.integers(0, 5), small_int, small_int)
    def test_matches_brute_force(self, n, m, a, b):
        assert eval_B(n, m, a, b) == brute_B(n, m, a, b)


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
        assert delannoy_table(5) == [1, 3, 13, 63, 321, 1683]
        assert delannoy(3) == 63

    def test_delannoy_equals_square_sum(self):
        for n in range(151):
            assert delannoy(n) == eval_B(n, 2, 1, 2)

    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_delannoy_recurrence_vs_direct_sampled(self, n):
        assert delannoy(n) == eval_B(n, 2, 1, 2)

    def test_schroder_values(self):
        assert [schroder_large(n) for n in (1, 2, 3, 4)] == [2, 6, 22, 90]
        assert [schroder_little(n) for n in (1, 2, 3, 4)] == [1, 3, 11, 45]

    def test_schroder_undefined_at_zero(self):
        with pytest.raises(DomainError):
            schroder_large(0)
        with pytest.raises(DomainError):
            schroder_little(0)

    def test_schroder_table_matches_pointwise(self):
        table, little = schroder_large_table(40), schroder_little_table(40)
        assert table[0] is None and little[0] is None
        for n in range(1, 41):
            assert table[n] == schroder_large(n) == 2 * schroder_little(n) == 2 * little[n]
        assert schroder_large_table(0) == schroder_little_table(0) == [None]

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
        assert [hexagonal(n) for n in range(5)] == [1, 3, 10, 36, 137]

    def test_catalan(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        assert catalan(0) == 1

    def test_central_binomial(self):
        assert central_binomial(0) == 1
        assert central_binomial(5) == 252


class TestRecurrenceTables:
    N = 40
    WEIGHTS = range(-4, 6)

    def test_parametrized_tables_match_defining_sums(self):
        for a in self.WEIGHTS:
            for b in self.WEIGHTS:
                assert bsum2_table(self.N - 1, a, b) == [eval_B(n, 2, a, b) for n in range(self.N)]
                assert trinomial_table(self.N - 1, a, b) == [eval_T(n, a, b) for n in range(self.N)]
                assert motzkin_table(self.N - 1, a, b) == [eval_M(n, a, b) for n in range(self.N)]

    def test_named_tables_match_defining_sums(self):
        assert franel_table(self.N - 1) == [franel(n) for n in range(self.N)]
        assert catalan_table(self.N - 1) == [catalan(n) for n in range(self.N)]
        assert hexagonal_table(self.N - 1) == [hexagonal(n) for n in range(self.N)]
        for x in (3, -3, 5, -5, 9, -15):
            assert legendre_table(self.N - 1, x) == [legendre(n, x) for n in range(self.N)]

    def test_long_tables_match_at_sampled_indices(self):
        table = bsum2_table(400, 37, 62)
        for n in (0, 1, 2, 199, 400):
            assert table[n] == eval_B(n, 2, 37, 62)
        assert franel_table(300)[300] == franel(300)
        assert motzkin_table(301, -4, 5)[301] == eval_M(301, -4, 5)

    def test_short_tables(self):
        for build in (franel_table, catalan_table, hexagonal_table):
            assert build(0) == [1]
            assert len(build(1)) == 2
        assert bsum2_table(0, 2, 3) == [1] and bsum2_table(1, 2, 3) == [1, 5]
        assert trinomial_table(1, 2, 3) == [1, 3] == motzkin_table(1, 2, 3)

    def test_domain(self):
        for build in (franel_table, catalan_table, hexagonal_table):
            with pytest.raises(DomainError):
                build(-1)
        with pytest.raises(DomainError):
            bsum2_table(-1, 1, 2)
        with pytest.raises(DomainError):
            legendre_table(5, 4)


class TestRegistryTables:
    """Registry entries read single values off the tables in TestRecurrenceTables."""

    N = TestRecurrenceTables.N
    WEIGHTS = TestRecurrenceTables.WEIGHTS

    def test_registry_wiring(self):
        tables = {name: spec.table for name, spec in SEQUENCES.items() if spec.table is not None}
        assert tables == {
            "delannoy": delannoy_table,
            "franel": franel_table,
            "hexagonal": hexagonal_table,
            "trinomial": trinomial_table,
            "motzkin": motzkin_table,
            "legendre": legendre_table,
            "schroder": schroder_large_table,
            "little-schroder": schroder_little_table,
        }
        assert SEQUENCES["trinomial"].fn is eval_T and SEQUENCES["motzkin"].fn is eval_M
        assert SEQUENCES["legendre"].fn is legendre and SEQUENCES["franel"].fn is franel
        assert SEQUENCES["hexagonal"].fn is hexagonal and SEQUENCES["bsum"].fn is bsum

    def test_value_matches_fn(self):
        for spec, params in [
            (SEQUENCES["delannoy"], ()),
            (SEQUENCES["franel"], ()),
            (SEQUENCES["hexagonal"], ()),
            (SEQUENCES["trinomial"], (-3, 5)),
            (SEQUENCES["motzkin"], (2, -4)),
            (SEQUENCES["legendre"], (-15,)),
            (SEQUENCES["catalan"], ()),
        ]:
            for n in (0, 1, 2, 17, self.N - 1):
                assert spec.value(n, *params) == spec.fn(n, *params)
        for spec in (SEQUENCES["schroder"], SEQUENCES["little-schroder"]):
            for n in (1, 2, 17, self.N - 1):
                assert spec.value(n) == spec.fn(n) == spec.table(n)[n]

    def test_value_domain(self):
        for spec in SEQUENCES.values():
            if spec.table is not None and spec.min_index == 0:
                params = (3,) * len(spec.params)
                with pytest.raises(DomainError, match="n must be non-negative, got -3"):
                    spec.value(-3, *params)
        for name in ("schroder", "little-schroder"):
            for n in (0, -3):
                with pytest.raises(DomainError, match=f"start at index 1, got {n}"):
                    SEQUENCES[name].value(n)
        with pytest.raises(DomainError, match="n must be non-negative, got -3"):
            delannoy(-3)

    def test_bsum_matches_eval_B(self):
        for a in self.WEIGHTS:
            for b in self.WEIGHTS:
                for n in range(self.N):
                    assert bsum(n, 2, a, b) == eval_B(n, 2, a, b)
        assert bsum(12, 3, 2, -5) == eval_B(12, 3, 2, -5)

    def test_bsum_domain(self):
        for m in (2, 3):
            with pytest.raises(DomainError, match="n must be non-negative, got -1"):
                bsum(-1, m, 1, 2)


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


class TestLegendre:
    def test_delannoy_specialization(self):
        assert legendre(2, 3) == 13
        assert legendre(3, 3) == 63
        for n in range(101):
            assert legendre(n, 3) == delannoy(n)

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


class TestSumParams:
    def test_hypotheses(self):
        assert SumParams(4, 2, 37, 62).hypotheses_ok()
        assert not SumParams(4, 2, 2, 4).hypotheses_ok()
        assert not SumParams(4, 2, 1, -2).hypotheses_ok()  # a + b = -1
        assert not SumParams(4, 2, 2, -1).hypotheses_ok()  # a + b = 1
        assert not SumParams(4, 2, 1, -1).hypotheses_ok()  # a + b = 0

    def test_validation(self):
        with pytest.raises(DomainError):
            SumParams(-1, 2, 1, 1)
        with pytest.raises(DomainError):
            SumParams(1, 1, 1, 1)


class TestRegistry:
    def test_entries_callable_at_min_index(self):
        defaults = {"k": 2, "p": 3, "a": 1, "b": 2, "x": 3, "m": 2}
        for spec in SEQUENCES.values():
            extra = [defaults[p] for p in spec.params]
            value = spec.fn(spec.min_index, *extra)
            assert isinstance(value, int)

    def test_known_names(self):
        assert {"delannoy", "schroder", "little-schroder", "catalan", "franel",
                "hexagonal", "trinomial", "motzkin", "legendre", "bsum",
                "fuss-catalan", "multinomial", "central-binomial"} <= set(SEQUENCES)
