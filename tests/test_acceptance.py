"""End-to-end acceptance suite.

One test per criterion; each sweeps its stated ranges in full and demands
zero violations at the stated tolerances.  A summary line per criterion
is printed by the conftest terminal hook.
"""

import math
import time
from itertools import islice
from math import comb, gcd

from valuata.digits import kummer_carries, popcount_valuation
from valuata.msums import msum_B, msum_closed_t0, msum_closed_t1, msum_closed_t2
from valuata.sequences import (
    check_congruence,
    delannoy_values,
    eval_B,
    eval_B_via_macmahon,
    eval_B_via_trinomial,
    eval_M,
    eval_T,
)
from valuata.theorems import (
    HarnessGrid,
    coprime_pairs,
    predict_bsum_omega,
    run_harness,
)
from valuata.valuation import omega, vp_binomial_fast, vp_int


def _first(values, n_max):
    """[y_0, ..., y_n_max], the first n_max + 1 values of a stream."""
    return list(islice(values, n_max + 1))


def best_of(fn, repeats=5):
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


class TestCriterion01WorkedExample:
    """The 99-power queries at indices 4046 and 4047, both routes."""

    def test_criterion_01_remark_example(self):
        fast_t_even, fast_even = best_of(lambda: predict_bsum_omega(2023, "even", 37, 62))
        fast_t_odd, fast_odd = best_of(lambda: predict_bsum_omega(2023, "odd", 37, 62))
        assert fast_even == 2 and fast_odd == 4
        assert fast_t_even < 0.010 and fast_t_odd < 0.010

        start = time.perf_counter()
        value_even = eval_B(4046, 2, 37, 62)
        oracle_even = omega(99, value_even)
        elapsed_even = time.perf_counter() - start
        start = time.perf_counter()
        value_odd = eval_B(4047, 2, 37, 62)
        oracle_odd = omega(99, value_odd)
        elapsed_odd = time.perf_counter() - start
        assert oracle_even == 2 == fast_even
        assert oracle_odd == 4 == fast_odd
        assert elapsed_even < 60.0 and elapsed_odd < 60.0

        # Intermediate valuations feeding the floor-min aggregation.
        assert vp_binomial_fast(4046, 2023, 3) == 5
        assert vp_binomial_fast(4046, 2023, 11) == 3
        central = comb(4046, 2023)
        assert vp_int(central, 3) == 5 and vp_int(central, 11) == 3

        # The even-index and odd-index answers genuinely differ, so a
        # reading that reuses the even index for the odd-case answer is
        # inconsistent; the odd-case answer belongs to index 4047.
        assert oracle_even != oracle_odd


class TestCriterion02SquareSumSweep:
    def test_criterion_02_exact_sweep(self):
        start = time.perf_counter()
        result = run_harness(["thm1"], HarnessGrid(n_max=200, ab_max=25), jobs=1)
        elapsed = time.perf_counter() - start
        assert len(result.reports) == len(coprime_pairs(25)) * 201 * 2 == 80_400
        assert result.violations == []
        assert all(r.verdict == "exact" for r in result.reports)
        assert elapsed < 300.0


class TestCriterion03HigherOrderBounds:
    def test_criterion_03_lower_bounds(self):
        result = run_harness(
            ["thm2"], HarnessGrid(n_max=60, ab_max=25, m_values=(3, 4, 5)), jobs=1
        )
        assert len(result.reports) == len(coprime_pairs(25)) * 61 * 2 * 3
        assert result.violations == []
        assert all(r.verdict == "bound_holds" for r in result.reports)


class TestCriterion04TwoAdicCentralBinomials:
    N_MAX = 100_000
    EXACT = 3000

    def test_criterion_04_popcount_and_doubling(self):
        for n in range(self.N_MAX + 1):
            bits = popcount_valuation(n)
            # The central binomial valuation equals the 1-bit count: exact
            # big integers up to the threshold, carry counting beyond.
            if n <= self.EXACT:
                assert vp_int(comb(2 * n, n), 2) == bits
            else:
                assert kummer_carries(n, n, 2) == bits
            # Doubling laws: the doubled index keeps the valuation, the
            # odd neighbour gains exactly one.
            if 2 * n + 1 <= self.EXACT:
                assert vp_int(comb(4 * n + 2, 2 * n + 1), 2) == 1 + bits
                assert vp_int(comb(4 * n, 2 * n), 2) == bits
            else:
                assert kummer_carries(2 * n + 1, 2 * n + 1, 2) == 1 + bits
                assert kummer_carries(2 * n, 2 * n, 2) == bits


class TestCriterion05DelannoySchroder:
    N_MAX = 1000

    def test_criterion_05_three_adic_exact(self):
        # Brute-force tables; the recurrence route is cross-checked against
        # the direct summation route over the full doubled index range.
        table = _first(delannoy_values(), 2 * self.N_MAX + 3)
        for idx in range(2 * self.N_MAX + 1):
            assert table[idx] == eval_B(idx, 2, 1, 2)

        result = run_harness(["thm3", "thm4"], HarnessGrid(n_max=self.N_MAX), jobs=1)
        assert result.violations == []
        by_claim = result.summary()
        assert by_claim["thm3"]["checked"] == (self.N_MAX + 1) * 2
        assert by_claim["thm4"]["checked"] == (self.N_MAX + 1) * 2
        assert by_claim["little-schroder"]["checked"] == (self.N_MAX + 1) * 2

        # Large and little Schroder numbers share their 3-adic valuation.
        big = [None]
        little = [None]
        for m in range(1, self.N_MAX + 1):
            s_big, r1 = divmod(-table[m - 1] + 6 * table[m] - table[m + 1], 2)
            s_little, r2 = divmod(s_big, 2)
            assert r1 == 0 and r2 == 0
            big.append(s_big)
            little.append(s_little)
            assert vp_int(s_big, 3) == vp_int(s_little, 3)
        # The little numbers are anchored to the Motzkin-style summation.
        for m in range(self.N_MAX):
            assert little[m + 1] == eval_M(m, 2, 3)


class TestCriterion06ParametrizedFamilies:
    def test_criterion_06_exact_families(self):
        grid = HarnessGrid(
            n_max=300,
            a_values=(1, -1, 2, -2, 3, -3, 4, -4, 5),
            b_values=(2, -2, 3, -3, 5, -5, 6),
            x_values=(3, -3, 5, -5, 9, -9, 15),
        )
        result = run_harness(["thm5", "thm6", "cor3", "remarks"], grid, jobs=1)
        assert result.violations == []
        summary = result.summary()
        assert summary["cor3"]["checked"] == 7 * 301 * 2
        for claim in ("thm5", "thm6", "hexagonal", "catalan-shift"):
            assert summary[claim]["violations"] == 0 and summary[claim]["checked"] > 0


class TestCriterion07FactorBounds:
    def test_criterion_07_lemma_family(self):
        result = run_harness(["lemma1"], HarnessGrid(n_max=500, prime_max=97), jobs=1)
        assert result.violations == []
        summary = result.summary()
        n_primes = 25  # primes up to 97
        assert summary["lemma1"]["checked"] == 501 * n_primes
        assert summary["multinomial-valuation"]["checked"] == 501 * n_primes
        assert summary["multinomial-bound"]["checked"] == 501 * n_primes
        assert summary["shifted-product-bound"]["checked"] == 501 * (n_primes - 1)


class TestCriterion08MsumCalculus:
    N_MAX = 40
    WEIGHTS = (1, -1, 2, 3)

    def test_criterion_08_family_calculus(self):
        for n in range(1, self.N_MAX + 1):
            half = n // 2
            for a in self.WEIGHTS:
                for b in self.WEIGHTS:
                    table = [
                        [msum_B(n, j, t, a, b) for j in range(half + 1)]
                        for t in range(5)
                    ]
                    # Bridge to the power sums.
                    for m in range(1, 5):
                        assert eval_B(n, m, a, b) == table[m - 1][0]
                    # One recurrence step reproduces the next level.
                    for t in range(4):
                        for j in range(half + 1):
                            stepped = comb(n, j) * sum(
                                comb(n - j, u) * table[t][j + u]
                                for u in range((n - 2 * j) // 2 + 1)
                            )
                            assert stepped == table[t + 1][j]
                    # Closed forms at the three known levels.
                    for j in range(half + 1):
                        assert msum_closed_t0(n, j, a, b) == table[0][j]
                        assert msum_closed_t1(n, j, a, b) == table[1][j]
                        assert msum_closed_t2(n, j, a, b) == table[2][j]

        # Alternating closed forms at weights (1, -1).
        for n in range(1, 31):
            for j in range(n + 1):
                level0 = msum_B(2 * n, j, 0, 1, -1)
                assert level0 == ((-1) ** n if j == n else 0)
                assert msum_B(2 * n, j, 1, 1, -1) == (-1) ** n * comb(2 * n, n) * comb(n, j)


class TestCriterion09IdentitySuite:
    def test_criterion_09_folded_square_identity(self):
        # All weights to 20 on an index ladder, plus every index to 300 on
        # representative weight pairs: the three routes must coincide.
        ladder = list(range(25)) + [50, 100, 200, 300]
        for a in range(-20, 21):
            for b in range(-20, 21):
                for n in (0, 1, 2, 3, 5, 8, 13):
                    direct = eval_B(n, 2, a, b)
                    assert eval_B_via_trinomial(n, a, b) == direct
                    assert eval_T(n, a * b, a + b) == direct
        for a, b in ((1, 1), (1, 2), (2, 3), (3, 5), (-3, 5), (2, -7), (20, 20)):
            for n in ladder:
                direct = eval_B(n, 2, a, b)
                assert eval_B_via_trinomial(n, a, b) == direct
                assert eval_T(n, a * b, a + b) == direct

    def test_criterion_09_folded_cube_identity(self):
        for a in range(-10, 11):
            for b in range(-10, 11):
                for n in (0, 1, 2, 3, 5, 8):
                    assert eval_B_via_macmahon(n, a, b) == eval_B(n, 3, a, b)
        for a, b in ((1, 1), (1, 2), (2, 3), (-3, 5), (10, -9)):
            for n in list(range(30)) + [50, 100, 150, 200]:
                assert eval_B_via_macmahon(n, a, b) == eval_B(n, 3, a, b)

    def test_criterion_09_alternating_closed_forms(self):
        for n in range(501):
            assert eval_B(2 * n, 2, 1, -1) == (-1) ** n * comb(2 * n, n)
            assert comb(3 * n, 2 * n) == comb(3 * n, n)
            assert eval_B(2 * n, 3, 1, -1) == (-1) ** n * comb(2 * n, n) * comb(3 * n, 2 * n)

    def test_criterion_09_congruence(self):
        pairs = [
            (a, b)
            for a in range(1, 7)
            for b in range(-6, 7)
            if gcd(a, b) == 1 and a + b != 0
        ]
        for m in (2, 3, 4, 5):
            for n in range(101):
                for a, b in pairs:
                    assert check_congruence(n, m, a, b)

    def test_criterion_09_binomial_product_identities(self):
        for n in range(301):
            for s in range(n + 1):
                lhs = comb(2 * n, n + s) * comb(n + s, 2 * s) * comb(2 * s, s)
                rhs = comb(2 * n, n) * comb(n, s) ** 2
                assert lhs == rhs
                lhs = (
                    comb(2 * n + 1, n + s + 1)
                    * comb(n + s + 1, 2 * s + 1)
                    * (2 * s + 1)
                    * comb(2 * s, s)
                )
                rhs = (2 * n + 1) * comb(2 * n, n) * comb(n, s) ** 2
                assert lhs == rhs
                # Index-shift cleared of its denominator.
                assert comb(n, s) * (n + 1) == comb(n + 1, s) * (n + 1 - s)

    def test_criterion_09_trinomial_kernel_identities(self):
        for n in range(301):
            for s in range(n + 1):
                for j in sorted({0, 1, (n - s) // 2, n - s, n - s + 1}):
                    if j > 2 * n:
                        continue
                    assert comb(2 * n, j) * comb(2 * n - j, n + s) == comb(
                        2 * n, n + s
                    ) * comb(n - s, j)
                    assert comb(2 * n + 1, j) * comb(2 * n + 1 - j, n + s + 1) == comb(
                        2 * n + 1, n + s + 1
                    ) * comb(n - s, j)


class TestCriterion10FastPathPerformance:
    def test_criterion_10_timings(self):
        t_even, v_even = best_of(lambda: predict_bsum_omega(10**15, "even", 37, 62))
        t_odd, v_odd = best_of(lambda: predict_bsum_omega(10**15, "odd", 37, 62))
        assert t_even < 0.010 and t_odd < 0.010
        assert v_even >= 0 and v_odd >= 1

        t_binom, v_binom = best_of(lambda: vp_binomial_fast(10**18, 5 * 10**17, 3))
        assert t_binom < 0.001
        assert v_binom >= 0

        # Fast and oracle answers coincide on oracle-reachable overlap
        # points (the full overlap is criterion 2's sweep).
        for n in (1, 5, 17, 30):
            for a, b in ((37, 62), (1, 2), (3, 5)):
                for parity, idx in (("even", 2 * n), ("odd", 2 * n + 1)):
                    assert predict_bsum_omega(n, parity, a, b) == omega(
                        a + b, eval_B(idx, 2, a, b)
                    )
        for n in (10, 100, 1000):
            for p in (2, 3, 5, 7, 11):
                assert vp_binomial_fast(n, n // 2, p) == vp_int(comb(n, n // 2), p)
