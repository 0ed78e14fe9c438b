import json
import math
import random
from math import comb

import pytest

from valuata.sequences import delannoy, eval_B, eval_M, eval_T, franel, legendre
from valuata.theorems import (
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    RUNNERS,
    HarnessGrid,
    HypothesisViolation,
    TheoremReport,
    _report_order,
    check_lemma1,
    check_remarks,
    coprime_pairs,
    predict_bsum_omega,
    predict_bsum_omega_bound,
    predict_central_binomial_v2,
    predict_delannoy_v3,
    predict_franel_v2_bound,
    predict_legendre_omega,
    predict_motzkin_omega,
    predict_schroder_v3,
    predict_trinomial_omega,
    resolve_selectors,
    run_harness,
)
from valuata.valuation import INFINITE, omega, vp_int


class TestPredictBsum:
    def test_worked_instance(self):
        assert predict_bsum_omega(2023, "even", 37, 62) == 2
        assert predict_bsum_omega(2023, "odd", 37, 62) == 4

    def test_degree_zero(self):
        assert predict_bsum_omega(0, "even", 3, 4) == 0
        assert predict_bsum_omega(0, "odd", 3, 4) == 1

    def test_oracle_agreement_spot(self):
        for n, a, b in ((3, 1, 2), (7, 2, 5), (10, 3, 7), (12, 5, 6)):
            for parity, idx in (("even", 2 * n), ("odd", 2 * n + 1)):
                assert predict_bsum_omega(n, parity, a, b) == omega(
                    a + b, eval_B(idx, 2, a, b)
                )

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolation):
            predict_bsum_omega(5, "even", 2, 4)  # not coprime
        with pytest.raises(HypothesisViolation):
            predict_bsum_omega(5, "even", 1, -1)  # a + b = 0
        with pytest.raises(HypothesisViolation):
            predict_bsum_omega(5, "even", 2, -1)  # a + b = 1
        with pytest.raises(HypothesisViolation):
            predict_bsum_omega(5, "even", -2, 1)  # a + b = -1
        with pytest.raises(HypothesisViolation):
            predict_bsum_omega(-1, "even", 1, 2)
        with pytest.raises(ValueError):
            predict_bsum_omega(5, "sideways", 1, 2)

    def test_bound_equals_exact_prediction(self):
        for n in (0, 5, 100, 2023):
            for parity in ("even", "odd"):
                assert predict_bsum_omega_bound(n, parity, 37, 62) == predict_bsum_omega(
                    n, parity, 37, 62
                )

    def test_worked_instance_bounds_higher_orders(self):
        # The order-2 answers also floor the order-3 sums at the same indices.
        bound_even = predict_bsum_omega_bound(2023, "even", 37, 62)
        bound_odd = predict_bsum_omega_bound(2023, "odd", 37, 62)
        assert omega(99, eval_B(4046, 3, 37, 62)) >= bound_even == 2
        assert omega(99, eval_B(4047, 3, 37, 62)) >= bound_odd == 4


class TestPredictCentralBinomial:
    def test_examples(self):
        assert predict_central_binomial_v2(1, "odd") == 2  # C(6,3) = 20
        assert predict_central_binomial_v2(0, "odd") == 1  # C(2,1) = 2
        assert predict_central_binomial_v2(3, "even") == 2  # C(12,6) = 924

    def test_against_exact(self):
        for n in range(200):
            even = vp_int(comb(4 * n, 2 * n), 2)
            odd = vp_int(comb(4 * n + 2, 2 * n + 1), 2)
            assert predict_central_binomial_v2(n, "even") == even
            assert predict_central_binomial_v2(n, "odd") == odd


class TestPredictFranel:
    def test_examples(self):
        assert vp_int(franel(2), 2) == 1 >= predict_franel_v2_bound(1, "even")
        assert vp_int(franel(3), 2) == 3 >= predict_franel_v2_bound(1, "odd") == 2
        assert vp_int(franel(1), 2) == 1 >= predict_franel_v2_bound(0, "odd") == 1

    def test_bound_sweep(self):
        for n in range(80):
            assert vp_int(franel(2 * n), 2) >= predict_franel_v2_bound(n, "even")
            assert vp_int(franel(2 * n + 1), 2) >= predict_franel_v2_bound(n, "odd")


class TestPredictDelannoy:
    def test_examples(self):
        assert predict_delannoy_v3(1, "odd") == 2 and vp_int(delannoy(3), 3) == 2
        assert predict_delannoy_v3(1, "even") == 0 and vp_int(delannoy(2), 3) == 0
        assert predict_delannoy_v3(0, "odd") == 1 and vp_int(delannoy(1), 3) == 1


class TestPredictSchroder:
    def test_examples(self):
        from valuata.sequences import schroder_large

        assert predict_schroder_v3(0, "odd") == 0 and vp_int(schroder_large(1), 3) == 0
        assert predict_schroder_v3(0, "even") == 1 and vp_int(schroder_large(2), 3) == 1
        assert predict_schroder_v3(1, "odd") == 0 and vp_int(schroder_large(3), 3) == 0


class TestPredictLegendre:
    def test_examples(self):
        assert predict_legendre_omega(1, "odd", 3) == 2 and legendre(3, 3) == 63
        assert predict_legendre_omega(1, "even", 3) == 0 and legendre(2, 3) == 13
        assert predict_legendre_omega(0, "even", 7) == 0

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolation):
            predict_legendre_omega(3, "even", 4)
        with pytest.raises(HypothesisViolation):
            predict_legendre_omega(3, "even", 1)
        with pytest.raises(HypothesisViolation):
            predict_legendre_omega(3, "even", -1)

    def test_negative_base(self):
        for n in range(25):
            for parity, idx in (("even", 2 * n), ("odd", 2 * n + 1)):
                assert predict_legendre_omega(n, parity, -3) == omega(
                    -3, legendre(idx, -3)
                )


class TestPredictTrinomialAndMotzkin:
    def test_trinomial_examples(self):
        assert predict_trinomial_omega(1, "even", 2, 3) == 0 and eval_T(2, 2, 3) == 13
        assert predict_trinomial_omega(1, "odd", 2, 3) == 2
        assert vp_int(eval_T(3, 2, 3), 3) == 2 and eval_T(3, 2, 3) == 63
        assert predict_trinomial_omega(0, "odd", 5, 7) == 1  # T_1(a, b) = b

    def test_motzkin_examples(self):
        assert predict_motzkin_omega(1, "even", 2, 3) == 0 and eval_M(2, 2, 3) == 11
        assert predict_motzkin_omega(1, "odd", 2, 3) == 2 and eval_M(3, 2, 3) == 45
        assert predict_motzkin_omega(0, "even", 5, 7) == 0

    def test_hypothesis_checks(self):
        for fn in (predict_trinomial_omega, predict_motzkin_omega):
            with pytest.raises(HypothesisViolation):
                fn(3, "even", 2, 4)
            with pytest.raises(HypothesisViolation):
                fn(3, "even", 3, 0)
            with pytest.raises(HypothesisViolation):
                fn(3, "even", 3, 1)
            with pytest.raises(HypothesisViolation):
                fn(3, "even", 3, -1)

    def test_composite_base_aggregation(self):
        # b = 6 exercises the two-prime floor-min combination.
        for n in range(30):
            for parity, idx in (("even", 2 * n), ("odd", 2 * n + 1)):
                assert predict_trinomial_omega(n, parity, 5, 6) == omega(
                    6, eval_T(idx, 5, 6)
                )
                assert predict_motzkin_omega(n, parity, 5, 6) == omega(
                    6, eval_M(idx, 5, 6)
                )


class TestTheoremReport:
    def test_exact_verdicts(self):
        ok = TheoremReport("demo", (("n", 1),), 3, 3, KIND_EXACT)
        bad = TheoremReport("demo", (("n", 1),), 3, 4, KIND_EXACT)
        assert ok.verdict == "exact" and ok.slack is None
        assert bad.verdict == "violation"

    def test_bound_verdicts_and_slack(self):
        lower = TheoremReport("demo", (("n", 1),), 3, 5, KIND_LOWER)
        assert lower.verdict == "bound_holds" and lower.slack == 2
        broken = TheoremReport("demo", (("n", 1),), 3, 2, KIND_LOWER)
        assert broken.verdict == "violation"
        upper = TheoremReport("demo", (("n", 1),), 6, 2, KIND_UPPER)
        assert upper.verdict == "bound_holds" and upper.slack == 4

    def test_infinite_oracle(self):
        exact = TheoremReport("demo", (("n", 1),), 3, INFINITE, KIND_EXACT)
        assert exact.verdict == "violation"
        lower = TheoremReport("demo", (("n", 1),), 3, INFINITE, KIND_LOWER)
        assert lower.verdict == "bound_holds" and lower.slack is None

    def test_json_shape(self):
        report = TheoremReport("demo", (("n", 1), ("parity", "odd")), 2, INFINITE, KIND_LOWER)
        obj = report.to_json_obj()
        assert obj == {
            "claim": "demo",
            "instance": {"n": 1, "parity": "odd"},
            "predicted": 2,
            "oracle": "inf",
            "verdict": "bound_holds",
            "slack": None,
        }


class TestReportPath:
    GRID = HarnessGrid(n_max=6, ab_max=5, prime_max=7, exact_max=5)

    @pytest.fixture(scope="class")
    def reports(self):
        return run_harness(["all"], self.GRID).reports

    def test_json_line_matches_json_dumps(self, reports):
        extra = [
            TheoremReport("demo", (("n", 1), ("parity", "odd")), 2, INFINITE, KIND_LOWER),
            TheoremReport("demo", (("n", 1),), 3, INFINITE, KIND_EXACT),
            TheoremReport("demo", (("p", 7), ("n", 2)), 3, 5, KIND_UPPER),
            TheoremReport("demo \"quoted\" \u00e9", (("x", -9),), -1, 0, KIND_EXACT),
        ]
        for report in reports + extra:
            expected = json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":"))
            assert report.to_json_line() == expected
        assert {r.claim for r in reports} == {
            claim for runner in RUNNERS.values() for claim in runner.claims
        }
        assert any(r.slack is None for r in reports) and any(r.slack is not None for r in reports)

    def test_sort_order_matches_typed_instance_key(self, reports):
        def typed_key(report):
            return (report.claim, tuple((k, isinstance(v, str), v) for k, v in report.instance))

        shuffled = list(reports)
        random.Random(3).shuffle(shuffled)
        assert sorted(shuffled, key=_report_order) == sorted(shuffled, key=typed_key)
        assert reports == sorted(reports, key=typed_key)


class TestHarness:
    GRID = HarnessGrid(n_max=6, ab_max=5, prime_max=7)

    def test_all_claims_clean(self):
        result = run_harness(["all"], self.GRID)
        assert result.ok
        summary = result.summary()
        assert set(summary) == {
            claim for runner in RUNNERS.values() for claim in runner.claims
        }
        assert all(v["violations"] == 0 for v in summary.values())

    def test_parallel_matches_serial(self):
        serial = run_harness(["thm1", "thm3", "lemma1"], self.GRID, jobs=1)
        parallel = run_harness(["thm1", "thm3", "lemma1"], self.GRID, jobs=3)
        assert serial.reports == parallel.reports

    def test_single_item_sweep_runs_in_process(self, monkeypatch):
        import valuata.theorems as theorems

        assert len(RUNNERS["remarks"].items(self.GRID)) == 1
        serial = run_harness(["remarks"], self.GRID, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-item sweep started a process pool")

        monkeypatch.setattr(theorems, "ProcessPoolExecutor", no_pool)
        assert run_harness(["remarks"], self.GRID, jobs=2).reports == serial.reports

    def test_pool_size_is_capped_by_work_items(self, monkeypatch):
        import valuata.theorems as theorems

        pool_sizes = []
        real_pool = theorems.ProcessPoolExecutor

        def recording_pool(max_workers):
            pool_sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(theorems, "ProcessPoolExecutor", recording_pool)
        items = len(RUNNERS["thm3"].items(self.GRID)) + len(RUNNERS["thm4"].items(self.GRID))
        assert items == 2
        result = run_harness(["thm3", "thm4"], self.GRID, jobs=8)
        assert pool_sizes == [2] and result.reports == run_harness(["thm3", "thm4"], self.GRID).reports

    def test_prime_min_bounds_lemma1(self):
        grid = HarnessGrid(n_max=1, prime_min=50, prime_max=53)
        assert {dict(r.instance)["p"] for r in run_harness(["lemma1"], grid).reports} == {53}

    def test_selectors(self):
        assert resolve_selectors(["THM1", "delannoy"]) == ["thm1", "thm3"]
        assert resolve_selectors(["all"]) == list(RUNNERS)
        with pytest.raises(KeyError):
            resolve_selectors(["no-such-claim"])

    def test_empty_claim_set_gives_empty_report(self):
        result = run_harness([], self.GRID)
        assert result.reports == [] and result.ok and result.summary() == {}

    def test_fail_fast_stops_on_injected_violation(self, monkeypatch):
        import valuata.theorems as theorems

        bad = TheoremReport("thm1", (("n", 0), ("parity", "even")), 1, 0, KIND_EXACT)
        calls = []

        def fake_run(**kwargs):
            calls.append(kwargs)
            return [bad]

        runner = RUNNERS["thm1"]
        monkeypatch.setitem(
            theorems.RUNNERS,
            "thm1",
            theorems.ClaimRunner(
                runner.name, runner.claims, runner.description, runner.items, fake_run
            ),
        )
        result = theorems.run_harness(["thm1"], self.GRID, fail_fast=True)
        assert not result.ok
        assert len(calls) == 1  # stopped after the first work item

    def test_coprime_pairs(self):
        pairs = coprime_pairs(25)
        assert len(pairs) == 200
        assert all(math.gcd(a, b) == 1 and 1 <= a <= b <= 25 for a, b in pairs)


class TestCheckWrappers:
    def test_check_remarks_clean(self):
        reports = check_remarks(40)
        assert reports and all(r.verdict == "exact" for r in reports)
        assert {r.claim for r in reports} == {"hexagonal", "catalan-shift"}

    def test_check_lemma1_clean(self):
        reports = check_lemma1(60, [2, 3, 5])
        assert reports and all(r.verdict != "violation" for r in reports)
        assert {r.claim for r in reports} == {
            "lemma1",
            "multinomial-valuation",
            "multinomial-bound",
            "shifted-product-bound",
        }

    def test_lemma1_boundary_instance(self):
        # v_2(3 * C(2, 1)) = 1 hits the bound n = 1 exactly.
        reports = [r for r in check_lemma1(1, [2]) if r.claim == "lemma1"]
        tight = dict(reports[-1].instance)
        assert tight["n"] == 1 and reports[-1].oracle == 1 and reports[-1].predicted == 1
