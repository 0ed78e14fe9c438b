from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuata.msums import (
    WitnessFailure,
    divisibility_propagation_witness,
    msum_B,
    msum_closed_t0,
    msum_closed_t1,
    msum_closed_t2,
    msum_recurrence_step,
)
from valuata.sequences import eval_B

AB_VALUES = (1, -1, 2, 3)

ab_st = st.sampled_from(AB_VALUES)


def brute_msum(n, j, t, a, b):
    return comb(n - j, j) * sum(
        comb(n - 2 * j, v) * comb(n, j + v) ** t * a ** (n - j - v) * b ** (j + v)
        for v in range(n - 2 * j + 1)
    )


class TestDirectSum:
    def test_examples(self):
        assert msum_B(4, 1, 0, 1, 1) == 12 == comb(3, 1) * 2**2
        assert msum_B(2, 0, 2, 1, 1) == 10 == eval_B(2, 3, 1, 1)
        assert msum_B(4, 2, 1, 1, -1) == 6 == comb(4, 2)

    def test_index_validation(self):
        with pytest.raises(IndexError):
            msum_B(4, 3, 0, 1, 1)
        with pytest.raises(IndexError, match="n must be non-negative, got -1"):
            msum_B(-1, 0, 0, 1, 1)
        with pytest.raises(IndexError):
            msum_B(4, -1, 0, 1, 1)
        with pytest.raises(IndexError):
            msum_B(4, 0, -1, 1, 1)

    def test_index_zero(self):
        # M(0, 0, t) is the one term v = 0, so 1 at every level and weight.
        for a in AB_VALUES:
            for b in AB_VALUES:
                for t in range(4):
                    assert msum_B(0, 0, t, a, b) == 1
                assert msum_closed_t0(0, 0, a, b) == msum_closed_t1(0, 0, a, b) == msum_closed_t2(0, 0, a, b) == 1

    @given(st.integers(1, 24), st.data(), st.integers(0, 3), ab_st, ab_st)
    def test_matches_brute_force(self, n, data, t, a, b):
        j = data.draw(st.integers(0, n // 2))
        assert msum_B(n, j, t, a, b) == brute_msum(n, j, t, a, b)


class TestRecurrence:
    def test_examples(self):
        assert msum_recurrence_step(4, 0, 0, 1, 1) == 70 == eval_B(4, 2, 1, 1)
        assert msum_recurrence_step(2, 1, 0, 1, -1) == -2
        for a, b in ((1, 1), (2, 3), (-1, 4)):
            assert msum_recurrence_step(1, 0, 0, a, b) == a + b

    def test_step_equivalence_sweep(self):
        for n in range(1, 25):
            for a in AB_VALUES:
                for b in AB_VALUES:
                    for t in range(4):
                        for j in range(n // 2 + 1):
                            assert msum_recurrence_step(n, j, t, a, b) == msum_B(
                                n, j, t + 1, a, b
                            )

    @given(st.integers(25, 40), st.data(), st.integers(0, 3), ab_st, ab_st)
    @settings(max_examples=40, deadline=None)
    def test_step_equivalence_sampled(self, n, data, t, a, b):
        j = data.draw(st.integers(0, n // 2))
        assert msum_recurrence_step(n, j, t, a, b) == msum_B(n, j, t + 1, a, b)


class TestClosedForms:
    def test_level_zero_examples(self):
        assert msum_closed_t0(4, 0, 1, 1) == 16
        assert msum_closed_t0(4, 2, 3, 5) == 225
        assert msum_closed_t0(5, 1, 1, -1) == 0

    def test_level_one_examples(self):
        assert msum_closed_t1(2, 1, 1, 2) == 4
        assert msum_closed_t1(4, 1, 1, 1) == msum_B(4, 1, 1, 1, 1)

    def test_level_one_reduces_to_folded_square_form(self):
        for n in range(1, 30):
            for a, b in ((1, 1), (1, 2), (2, 3), (-3, 5)):
                assert msum_closed_t1(n, 0, a, b) == eval_B(n, 2, a, b)

    def test_level_two_examples(self):
        assert msum_closed_t2(2, 0, 1, 1) == 10 == eval_B(2, 3, 1, 1)
        assert msum_closed_t2(3, 0, 1, 1) == 56 == eval_B(3, 3, 1, 1)
        assert msum_closed_t2(2, 1, 1, 1) == msum_B(2, 1, 2, 1, 1)

    def test_all_levels_sweep(self):
        for n in range(1, 25):
            for a in AB_VALUES:
                for b in AB_VALUES:
                    for j in range(n // 2 + 1):
                        assert msum_closed_t0(n, j, a, b) == msum_B(n, j, 0, a, b)
                        assert msum_closed_t1(n, j, a, b) == msum_B(n, j, 1, a, b)
                        assert msum_closed_t2(n, j, a, b) == msum_B(n, j, 2, a, b)

    @given(st.integers(25, 40), st.data(), ab_st, ab_st)
    @settings(max_examples=40, deadline=None)
    def test_all_levels_sampled(self, n, data, a, b):
        j = data.draw(st.integers(0, n // 2))
        assert msum_closed_t0(n, j, a, b) == msum_B(n, j, 0, a, b)
        assert msum_closed_t1(n, j, a, b) == msum_B(n, j, 1, a, b)
        assert msum_closed_t2(n, j, a, b) == msum_B(n, j, 2, a, b)


class TestPowerSumBridge:
    def test_order_equals_level_plus_one(self):
        for n in range(1, 25):
            for m in range(1, 5):
                for a, b in ((1, 1), (1, 2), (2, 3), (1, -1)):
                    assert eval_B(n, m, a, b) == msum_B(n, 0, m - 1, a, b)


class TestAlternatingClosedForms:
    def test_level_zero_collapses(self):
        for n in range(1, 31):
            for j in range(n):
                assert msum_B(2 * n, j, 0, 1, -1) == 0
            assert msum_B(2 * n, n, 0, 1, -1) == (-1) ** n

    def test_level_one_is_scaled_binomial(self):
        for n in range(1, 31):
            for j in range(n + 1):
                expected = (-1) ** n * comb(2 * n, n) * comb(n, j)
                assert msum_B(2 * n, j, 1, 1, -1) == expected


class TestPropagationWitness:
    def test_alternating_central_binomial_witness(self):
        assert divisibility_propagation_witness(4, 1, -1, 6, 1)

    def test_prime_power_witness(self):
        # 3 = 3**v_3(C(4,2)) divides the whole level-1 family at (1, 2).
        assert divisibility_propagation_witness(4, 1, 2, 3, 1)

    def test_sum_of_weights_witness(self):
        for a, b in ((2, 3), (-3, 5), (1, 1)):
            assert divisibility_propagation_witness(1, a, b, a + b, 0)

    def test_premise_failure_reports_first_index(self):
        with pytest.raises(WitnessFailure) as exc:
            divisibility_propagation_witness(2, 1, 1, 5, 0)
        assert exc.value.j == 0

    def test_premise_failure_at_inner_index(self):
        # At (4, 1, -1) level 0 the family is (0, 0, 1): q = 2 first fails at j = 2.
        with pytest.raises(WitnessFailure) as exc:
            divisibility_propagation_witness(4, 1, -1, 2, 0)
        assert exc.value.j == 2

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divisibility_propagation_witness(4, 1, 1, 0, 1)
