import contextlib
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import random
import signal
import sys
import time
import tracemalloc
from collections import Counter
from math import comb
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import valuata.cli as cli
import valuata.harness as harness
from valuata.digits import kummer_carries
from valuata.harness import HarnessResult, ReportBatch, _fork_pays, json_lines
from valuata.sequences import (
    IntegralityError,
    delannoy,
    eval_B,
    eval_M,
    eval_T,
    franel,
    legendre,
)
from valuata.theorems import (
    CLAIMS,
    PARITIES,
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    RUNNERS,
    HarnessGrid,
    HypothesisViolation,
    SelectionError,
    TheoremReport,
    _FAST_N_MAX,
    coprime_pairs,
    predict_bsum_omega,
    predict_central_binomial_v2,
    predict_delannoy_v3,
    predict_legendre_omega,
    predict_motzkin_omega,
    predict_schroder_v3,
    predict_trinomial_omega,
    resolve_selectors,
    run_harness,
)
from valuata.valuation import INFINITE, factorize, omega, vp_int


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
        # thm2 bounds every higher order by the exact m = 2 prediction.
        grid = HarnessGrid(n_max=5, ab_max=4, m_values=(3, 4))
        reports = run_harness(["thm2"], grid).reports
        assert len(reports) == 2 * 6 * 2 * len(coprime_pairs(4))
        for r in reports:
            inst = dict(r.instance)
            assert r.predicted == predict_bsum_omega(inst["n"], inst["parity"], inst["a"], inst["b"])

    def test_worked_instance_bounds_higher_orders(self):
        # The order-2 answers also floor the order-3 sums at the same indices.
        bound_even = predict_bsum_omega(2023, "even", 37, 62)
        bound_odd = predict_bsum_omega(2023, "odd", 37, 62)
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
    """The central binomial 2-adic prediction lower-bounds the Franel numbers."""

    def test_examples(self):
        assert vp_int(franel(2), 2) == 1 >= predict_central_binomial_v2(1, "even")
        assert vp_int(franel(3), 2) == 3 >= predict_central_binomial_v2(1, "odd") == 2
        assert vp_int(franel(1), 2) == 1 >= predict_central_binomial_v2(0, "odd") == 1

    def test_bound_sweep(self):
        for n in range(80):
            assert vp_int(franel(2 * n), 2) >= predict_central_binomial_v2(n, "even")
            assert vp_int(franel(2 * n + 1), 2) >= predict_central_binomial_v2(n, "odd")


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

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^unknown claim kind 'sideways'$"):
            TheoremReport("demo", (("n", 1),), 3, 3, "sideways")

    def test_fields_are_fixed_at_construction(self):
        report = TheoremReport("demo", (("n", 1),), 6, 2, KIND_UPPER)
        assert tuple(report) == ("demo", (("n", 1),), 6, 2, KIND_UPPER, "bound_holds", 4)
        assert TheoremReport("demo", (("n", 1),), 6, 2) == ("demo", (("n", 1),), 6, 2, KIND_EXACT, "violation", None)
        with pytest.raises(AttributeError):
            report.verdict = "exact"
        assert repr(report) == "TheoremReport(claim='demo', instance=(('n', 1),), predicted=6, oracle=2, kind='upper')"

    @pytest.mark.parametrize(
        "report",
        [
            TheoremReport("demo", (("n", 1), ("parity", "odd")), 2, INFINITE, KIND_LOWER),
            TheoremReport("demo", (("p", 7), ("n", 2)), 6, 2, KIND_UPPER),
            TheoremReport("demo", (("n", 1),), 3, 4, KIND_EXACT),
        ],
    )
    def test_pickle_round_trip(self, report):
        copy = pickle.loads(pickle.dumps(report))
        assert type(copy) is TheoremReport
        assert copy == report and hash(copy) == hash(report)
        names = ("claim", "instance", "predicted", "oracle", "kind", "verdict", "slack")
        # INFINITE compares equal only to itself, so this also checks its identity.
        assert [getattr(copy, k) for k in names] == [getattr(report, k) for k in names]


class TestClaimTable:
    def test_every_table_claim_has_a_runner(self):
        claims = {claim for runner in RUNNERS.values() for claim in runner.claims}
        assert set(CLAIMS) <= claims

    def test_work_items(self):
        grid = HarnessGrid()
        blocks = RUNNERS["thm3"].items(grid)
        assert blocks == [{"n_lo": 0, "n_hi": 511, "streams": {}}, {"n_lo": 512, "n_hi": 1000, "streams": {}}]
        assert blocks[0]["streams"] is blocks[1]["streams"]  # one table that the blocks resume
        assert RUNNERS["thm3"].items(grid)[0]["streams"] is not blocks[0]["streams"]
        assert RUNNERS["remarks"].items(grid) == [{"n_lo": 0, "n_hi": 300, "streams": {}}]
        assert RUNNERS["thm1"].items(grid) == [{"a": a, "b": b, "n_lo": 0, "n_hi": 200} for a, b in coprime_pairs(25)]
        assert RUNNERS["cor3"].items(HarnessGrid(n_max=7, x_values=(3, 4, -1, -9))) == [
            {"x": 3, "n_lo": 0, "n_hi": 7},
            {"x": -9, "n_lo": 0, "n_hi": 7},
        ]
        assert [(kw["a"], kw["b"]) for kw in RUNNERS["thm6"].items(HarnessGrid(a_values=(1, 2), b_values=(2, 1, 3)))] == [
            (1, 2),
            (1, 3),
            (2, 3),
        ]

    def test_odd_schroder_value_is_an_integrality_error(self, monkeypatch):
        import valuata.theorems as theorems

        odd = [None] + [2 * k + 1 for k in range(1, 10)]
        monkeypatch.setitem(
            theorems.CLAIMS,
            "little-schroder",
            dataclasses.replace(CLAIMS["little-schroder"], values=lambda: iter(odd)),
        )
        with pytest.raises(IntegralityError, match="^little-schroder construction failed at index 2$"):
            run_harness(["thm4"], HarnessGrid(n_max=3))

    def test_a_high_block_holds_only_its_own_values(self):
        # n = 5000..5003 reads D_10000..D_10007, about 3.4 KB each; a list of
        # every value from D_0 would hold about 5000 times that.
        size = sys.getsizeof(delannoy(10007))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            reports = _reports(RUNNERS["thm3"].run(n_lo=5000, n_hi=5003))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [r.verdict for r in reports] == ["exact"] * 8
        assert peak < 32 * size, (peak, size)

    def test_a_parameter_item_holds_one_block_of_values_at_a_time(self):
        # n <= 6000 reads T_0..T_12001 of (a, b) = (1, 5), up to 4.5 KB each;
        # a list of all of them peaked at about 7 blocks of the largest.
        size = sys.getsizeof(eval_T(12001, 1, 5))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            reports = _reports(RUNNERS["thm5"].run(a=1, b=5, n_lo=0, n_hi=6000))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(reports) == 12002 and {r.verdict for r in reports} == {"exact"}
        assert peak < 3 * 1024 * size, (peak, size)


def _reports(batches):
    """The reports of one work item's batches."""
    return HarnessResult(batches).reports


def _counted_stream(monkeypatch, counts: Counter, name: str = "thm3"):
    """Make the claim `name` read a stream that counts its starts and the values it yields."""
    import valuata.theorems as theorems

    real = CLAIMS[name].values

    def values(*args):
        counts["starts"] += 1
        for value in real(*args):
            counts["values"] += 1
            yield value

    monkeypatch.setitem(theorems.CLAIMS, name, dataclasses.replace(CLAIMS[name], values=values))


class TestResumedStreams:
    def test_a_blocked_sweep_starts_its_stream_once(self, monkeypatch):
        # n <= 5000 checks D_0..D_10001 in ten blocks; restarting every block
        # at D_0 streamed about 5.6 times as many values.
        import valuata.theorems as theorems

        module = dict(vars(theorems))
        counts = Counter()
        _counted_stream(monkeypatch, counts)
        result = run_harness(["thm3"], HarnessGrid(n_max=5000))
        assert result.summary() == {"thm3": {"checked": 10002, "violations": 0}}
        assert counts == {"starts": 1, "values": 10002}
        assert dict(vars(theorems)) == module

    def test_each_sweep_starts_its_own_streams(self, monkeypatch):
        counts = Counter()
        _counted_stream(monkeypatch, counts)
        grid = HarnessGrid(n_max=600)
        assert run_harness(["thm3"], grid).reports == run_harness(["thm3"], grid).reports
        assert counts == {"starts": 2, "values": 2 * 1202}

    def test_a_runner_called_on_its_own_resumes_one_stream_across_its_blocks(self, monkeypatch):
        counts = Counter()
        _counted_stream(monkeypatch, counts)
        reports = _reports(RUNNERS["thm3"].run(n_lo=0, n_hi=5000))
        assert [dict(r.instance)["n"] for r in reports] == [n for n in range(5001) for _ in "eo"]
        assert {r.verdict for r in reports} == {"exact"}
        assert counts == {"starts": 1, "values": 10002}

    def test_a_parameter_item_resumes_its_stream_across_its_blocks(self, monkeypatch):
        # n <= 2000 is four blocks that read T_0..T_4001 once between them;
        # restarting every block at T_0 streamed about 2.5 times as many values.
        counts = Counter()
        _counted_stream(monkeypatch, counts, "thm5")
        reports = _reports(RUNNERS["thm5"].run(a=-2, b=5, n_lo=0, n_hi=2000))
        assert [dict(r.instance)["n"] for r in reports] == [n for n in range(2001) for _ in "eo"]
        assert {r.verdict for r in reports} == {"exact"}
        assert counts == {"starts": 1, "values": 4002}

    def test_a_block_behind_its_stream_raises(self, monkeypatch):
        fresh = RUNNERS["thm3"].run(n_lo=2, n_hi=5)
        counts = Counter()
        _counted_stream(monkeypatch, counts)
        streams = {}
        RUNNERS["thm3"].run(n_lo=6, n_hi=9, streams=streams)
        assert len(streams) == 1
        with pytest.raises(ValueError, match="^a block at index 4 lies behind its stream, at index 20$"):
            RUNNERS["thm3"].run(n_lo=2, n_hi=5, streams=streams)
        assert streams == {}
        assert RUNNERS["thm3"].run(n_lo=2, n_hi=5, streams=streams) == fresh
        # D_0..D_19 for n = 6..9, then D_0..D_11 from a stream started again.
        assert counts == {"starts": 2, "values": 20 + 12}

    def test_forked_workers_resume_the_inherited_streams(self, monkeypatch):
        grid = HarnessGrid(n_max=2100)
        starts = []
        real_start = harness._start_worker

        def counting_start(*args):
            starts.append(len(starts) + 1)
            return real_start(*args)

        serial = run_harness(["thm3", "thm4"], grid).reports
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_start_worker", counting_start)
        _fork_at_once(monkeypatch)
        assert run_harness(["thm3", "thm4"], grid, jobs=2).reports == serial
        assert starts == [1]


class TestLemma1Checkpoints:
    """lemma1 rebuilds the product form of (pn)! / (n!)**p at n = 0, the powers of two and n_max."""

    @pytest.mark.parametrize("n_max", [1, 2, 3, 37, 64, 100])
    def test_the_product_form_runs_at_most_log2_n_max_plus_3_times(self, monkeypatch, n_max):
        import valuata.theorems as theorems

        calls = Counter()
        real = theorems.central_multinomial_product

        def counted(n, p):
            calls[p] += 1
            return real(n, p)

        monkeypatch.setattr(theorems, "central_multinomial_product", counted)
        assert run_harness(["lemma1"], HarnessGrid(n_max=n_max, prime_max=7)).ok
        assert set(calls) == {2, 3, 5, 7}
        assert max(calls.values()) <= (n_max.bit_length() - 1) + 3, calls

    @pytest.mark.parametrize("bad_n", [0, 1, 64, 100])
    def test_a_disagreement_at_a_checkpoint_raises(self, monkeypatch, bad_n):
        import valuata.theorems as theorems

        real = theorems.central_multinomial_product
        monkeypatch.setattr(theorems, "central_multinomial_product", lambda n, p: real(n, p) + (n == bad_n))
        with pytest.raises(IntegralityError, match=f"^multinomial forms disagree at n={bad_n}, p=3$"):
            RUNNERS["lemma1"].run(p=3, n_max=100)
        with pytest.raises(IntegralityError, match=f"^multinomial forms disagree at n={bad_n}, p=3$"):
            run_harness(["lemma1"], HarnessGrid(n_max=100, prime_min=3, prime_max=3))


class TestCor1Stream:
    @pytest.mark.parametrize("exact_max", [-1, 0, 7, 13, 40])
    @pytest.mark.parametrize("n_lo, n_hi", [(0, 10), (5, 12), (30, 31)])
    def test_the_oracle_reads_the_central_binomial_of_each_instance(self, n_lo, n_hi, exact_max):
        reports = _reports(RUNNERS["cor1"].run(n_lo=n_lo, n_hi=n_hi, exact_max=exact_max))
        halves = []
        for report in reports:
            inst = dict(report.instance)
            n = inst["n"]
            halves.append(n if report.claim == "popcount" else 2 * n + (inst["parity"] == "odd"))
        assert len(reports) == 3 * (n_hi - n_lo + 1)
        assert [r.oracle for r in reports] == [vp_int(comb(2 * h, h), 2) for h in halves]

    def test_a_block_past_exact_max_streams_nothing(self):
        with _time_limit(10):
            reports = _reports(RUNNERS["cor1"].run(n_lo=10**8, n_hi=10**8 + 1, exact_max=3000))
        assert [r.verdict for r in reports] == ["exact"] * 6


def _reference_core(n: int, p: int, catalan: bool) -> int:
    """v_p(C(2n, n)), or v_p(Catalan(n)), from the checked public kernel."""
    v = kummer_carries(n, n, p)
    return v - vp_int(n + 1, p) if catalan else v


def _reference_shape(x: int, n: int, r: int, catalan: bool) -> int:
    """r + omega_x((2n+1)**r * core(n)) from kummer_carries and factorize."""
    return r + min(
        ((vp_int(2 * n + 1, p) if r else 0) + _reference_core(n, p, catalan)) // e
        for p, e in factorize(abs(x)).factors
    )


class TestPredictorFastPath:
    """The predictors' unchecked carry kernel against the checked public kernels."""

    # claim: (core is Catalan(n), index offset); the base comes from the claim's parameters
    SHAPES = {
        "thm1": (False, 0), "thm2": (False, 0), "cor2": (False, 0), "thm3": (False, 0), "thm4": (True, 1),
        "little-schroder": (True, 1), "cor3": (False, 0), "thm5": (False, 0), "thm6": (True, 0),
        "hexagonal": (True, 0), "catalan-shift": (True, 1),
    }
    BASES = (2, 3, 6, 8, 9, 12, 2 * 3 * 97, 2**61 - 1)

    @staticmethod
    def ns() -> list[int]:
        rng = random.Random(9)
        edges = [0, 1, 2, 3, 7, 8, 26, 27, 80, 81, 2023, 3**39 - 1, 3**39, _FAST_N_MAX - 1, _FAST_N_MAX]
        return edges + [rng.getrandbits(rng.randint(1, 63)) for _ in range(60)]

    def params(self, name: str) -> list[tuple]:
        signed = [s * x for x in self.BASES for s in (1, -1)]
        if name == "thm1":
            return [(a, x - a) for x in signed for a in (1, -1, 5) if math.gcd(a, x - a) == 1]
        if name == "thm2":  # the order m does not enter the bound
            return [(m, a, x - a) for x in signed for a in (1, -1, 5) for m in (3, 7) if math.gcd(a, x - a) == 1]
        if name == "cor3":
            return [(x,) for x in signed if x % 2]
        if name in ("thm5", "thm6"):
            return [(a, x) for x in signed for a in (1, -1, 5) if math.gcd(a, x) == 1]
        return [()]

    def test_every_public_predictor_is_in_the_table(self):
        import valuata.theorems as theorems

        public = {getattr(theorems, name) for name in dir(theorems) if name.startswith("predict_")}
        assert public <= {claim.predict for claim in CLAIMS.values()}
        assert set(self.SHAPES) == set(CLAIMS)

    def test_public_predictors_keep_their_signatures(self):
        import inspect

        signatures = {
            predict_bsum_omega: "(n: 'int', parity: 'str', a: 'int', b: 'int') -> 'int'",
            predict_central_binomial_v2: "(n: 'int', parity: 'str') -> 'int'",
            predict_delannoy_v3: "(n: 'int', parity: 'str') -> 'int'",
            predict_schroder_v3: "(n: 'int', parity: 'str') -> 'int'",
            predict_legendre_omega: "(n: 'int', parity: 'str', x: 'int') -> 'int'",
            predict_trinomial_omega: "(n: 'int', parity: 'str', a: 'int', b: 'int') -> 'int'",
            predict_motzkin_omega: "(n: 'int', parity: 'str', a: 'int', b: 'int') -> 'int'",
        }
        for predictor, signature in signatures.items():
            assert str(inspect.signature(predictor)) == signature, predictor.__name__
            assert predictor.__doc__.startswith("Exact power of "), predictor.__name__

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_matches_the_checked_kernels(self, name):
        claim = CLAIMS[name]
        catalan, offset = self.SHAPES[name]
        assert (claim.catalan, claim.offset) == (catalan, offset)
        for args in self.params(name):
            x = claim.base(*args)
            for n in self.ns():
                for r in (0, 1):
                    parity = "odd" if (r + offset) % 2 else "even"
                    expected = _reference_shape(x, n, r, catalan)
                    assert claim.predict(n, parity, *args) == expected, (name, args, n, parity)

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_predictors_check_their_inputs(self, name):
        claim = CLAIMS[name]
        args = self.params(name)[0]
        for n in (-1, -3, _FAST_N_MAX + 1, 2**64):
            with pytest.raises(HypothesisViolation):
                claim.predict(n, "odd", *args)
        with pytest.raises(ValueError, match="parity"):
            claim.predict(3, "banana", *args)
        # n and the parity are checked before the hypotheses on the parameters
        bad = {"thm1": (2, 4), "thm2": (3, 2, 4), "cor3": (4,), "thm5": (2, 4), "thm6": (2, 4)}.get(name)
        if bad:
            with pytest.raises(HypothesisViolation, match="^n must be non-negative, got -1$"):
                claim.predict(-1, "odd", *bad)
            with pytest.raises(ValueError, match="parity"):
                claim.predict(3, "banana", *bad)
            with pytest.raises(HypothesisViolation, match="^(a and b must be coprime, got 2, 4|x must be odd, got 4)$"):
                claim.predict(3, "odd", *bad)

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_core_checks_its_inputs(self, name):
        # The per-prime core checks nothing; besides the predictors, which check
        # their own inputs, only --explain reaches it, through Claim.locate.
        claim = CLAIMS[name]
        args = self.params(name)[0]
        for i in range(claim.offset, claim.offset + 40):
            assert claim.index(*claim.locate(i)) == i
        past = _FAST_N_MAX + 1
        for i in (claim.offset - 1, claim.offset - 2, -5, claim.index(past, 0), claim.index(past, 1), 2**70):
            with pytest.raises(HypothesisViolation):
                claim.locate(i)
            target = cli.Target("y", lambda: 0, claim=name, index=i, params=args)
            with pytest.raises(HypothesisViolation):
                cli._core_lines(target, claim.base(*args))

    @pytest.mark.parametrize("target, claim", [
        ("predict_central_binomial_v2", "cor1"),
        ("popcount_valuation", "popcount"),
    ])
    def test_cor1_catches_an_off_by_one_predictor_past_exact_max(self, monkeypatch, target, claim):
        # Past exact_max the oracle is kummer_carries(., ., 2), a digit scan, not a popcount.
        import valuata.theorems as theorems

        original = getattr(theorems, target)
        monkeypatch.setattr(theorems, target, lambda *args: original(*args) + 1)
        reports = run_harness(["cor1"], HarnessGrid(n_max=40, exact_max=0)).reports
        hit = [r for r in reports if r.claim == claim]
        assert len(hit) == (2 if claim == "cor1" else 1) * 41
        assert all(r.verdict == "violation" for r in hit)
        assert all(r.verdict == "exact" for r in reports if r.claim != claim)


class TestReportPath:
    GRID = HarnessGrid(n_max=6, ab_max=5, prime_max=7, exact_max=5)

    @pytest.fixture(scope="class")
    def result(self):
        return run_harness(["all"], self.GRID)

    def test_json_line_matches_json_dumps(self, result):
        reports = result.reports
        extra = [
            TheoremReport("demo", (("n", 1), ("parity", "odd")), 2, INFINITE, KIND_LOWER),
            TheoremReport("demo", (("n", 1),), 3, INFINITE, KIND_EXACT),
            TheoremReport("demo", (("p", 7), ("n", 2)), 3, 5, KIND_UPPER),
            TheoremReport("demo \"quoted\" \u00e9", (("x", -9),), -1, 0, KIND_EXACT),
        ]
        for report in reports + extra:
            expected = json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":"))
            assert report.to_json_line() == expected
        assert list(json_lines(result.batches)) == [_dumps_line(r) for r in reports]
        assert {r.claim for r in reports} == {
            claim for runner in RUNNERS.values() for claim in runner.claims
        }
        assert any(r.slack is None for r in reports) and any(r.slack is not None for r in reports)

    @pytest.mark.parametrize(
        "batches",
        [
            pytest.param(
                [
                    ReportBatch("demo", KIND_EXACT, (), range(1, 2), ("odd",), [2], [2]),
                    ReportBatch("demo", KIND_LOWER, (), range(2, 4), ("even", "odd"), [2, 2, 2, 2], [3, 1, 2, 5]),
                    ReportBatch("one", KIND_UPPER, (), range(3, 6), (), [2, 2, 2], [1, 2, 3]),
                    ReportBatch("swap", KIND_EXACT, (("p", 2),), range(1, 2), (), [2], [2]),
                    ReportBatch("swap", KIND_EXACT, (("p", 3),), range(1, 2), (), [2], [3]),
                    ReportBatch(
                        "keys", KIND_LOWER, (("x", -3), ("a", 1), ("m", 4)),
                        range(0, 2), PARITIES, [0] * 4, [1] * 4,
                    ),
                ],
                id="shapes-within-one-claim",
            ),
            pytest.param(
                [
                    ReportBatch(
                        'q"u\\ote{%s}', KIND_EXACT, (('k"\\{}%', 1), ("\u00e9\u6f22", "\u00e9\"}{%d\\")),
                        range(1, 2), (), [1], [1],
                    ),
                    ReportBatch(
                        "caf\u00e9 {0} %%", KIND_LOWER, (("x{", -9), ("y}", "\U0001f600")),
                        range(0, 2), ("odd",), [-1, -1], [0, -3],
                    ),
                    ReportBatch(
                        "caf\u00e9 {0} %%", KIND_LOWER, (("x{", 3), ("y}", "\n\t")),
                        range(0, 2), ("odd",), [-1, -1], [-2, 5],
                    ),
                ],
                id="escapes-and-non-ascii",
            ),
            pytest.param(
                [
                    ReportBatch(
                        "signs", KIND_LOWER, (("a", -3), ("b", True), ("c", False)),
                        range(-2, 0), (), [-2, -3], [-5, -1],
                    ),
                    ReportBatch(
                        "signs", KIND_UPPER, (("a", -4), ("b", False), ("c", 0)),
                        range(-2, 0), (), [-2, 7], [-1, 7],
                    ),
                    ReportBatch(
                        "lists", KIND_EXACT, (("a", 1.5), ("b", [1, "x"]), ("c", {"z": 1, "y": 2})),
                        range(-2, 0), (), [0, 0], [0, 1],
                    ),
                    ReportBatch(
                        "nulls", KIND_EXACT, (("a", None), ("b", None), ("c", -1)),
                        range(-2, 0), (), [1, 1], [1, 1],
                    ),
                ],
                id="negative-and-non-int-parameters",
            ),
            pytest.param(
                [
                    ReportBatch("inf", KIND_EXACT, (), range(0, 1), (), [3], [INFINITE]),
                    ReportBatch("inf", KIND_LOWER, (), range(1, 2), ("even", "odd"), [3, 3], [INFINITE, 7]),
                    ReportBatch("inf", KIND_UPPER, (), range(2, 4), (), [3, 3], [INFINITE, 2]),
                    ReportBatch("none", KIND_LOWER, (), range(0, 0), ("even",), [], []),
                ],
                id="infinite-oracle-none-slack-and-no-rows",
            ),
        ],
    )
    def test_json_lines_match_json_dumps(self, batches):
        assert list(json_lines(batches)) == [_dumps_line(r) for r in HarnessResult(batches).reports]
        for batch in batches:
            assert list(json_lines([batch])) == [_dumps_line(r) for r in _reports([batch])]

    def test_sort_order_matches_typed_instance_key(self, result):
        def typed_key(report):
            return (report.claim, tuple((k, isinstance(v, str), v) for k, v in report.instance))

        reports = result.reports
        shuffled = list(reports)
        random.Random(3).shuffle(shuffled)
        assert sorted(shuffled, key=itemgetter(0, 1)) == sorted(shuffled, key=typed_key)
        assert reports == sorted(reports, key=typed_key)

    @pytest.mark.parametrize("batches, message", [
        (
            [
                ReportBatch("thm5", KIND_EXACT, (("a", 1), ("b", 3)), range(0, 3), PARITIES, [0] * 6, [0] * 6),
                ReportBatch("thm5", KIND_EXACT, (("a", 2), ("b", 3)), range(0, 2), PARITIES, [0] * 4, [0] * 4),
            ],
            "^the parameter items of thm5 do not share their rows$",
        ),
        ([ReportBatch("thm3", KIND_EXACT, (), range(0, 3), PARITIES, [0] * 6, [0] * 5)],
         "^a thm3 batch of 6 rows has columns of other lengths$"),
        ([ReportBatch("thm3", "sideways", (), range(0, 1), (), [0], [0])], "^unknown claim kind 'sideways'$"),
    ])
    def test_malformed_batches_raise(self, batches, message):
        with pytest.raises(ValueError, match=message):
            HarnessResult(batches).reports


_grid_values = st.lists(st.integers(-9, 9), max_size=4).map(tuple)


def _item_key(kwargs: dict) -> list:
    """A work item's arguments without its stream table, which the sweep fills as it runs."""
    return sorted((k, v) for k, v in kwargs.items() if k != "streams")


class TestReportOrder:
    """Batches merge into the reports a sort by claim and instance gives, at any job count and under fail-fast."""

    @settings(max_examples=60, deadline=None)
    @given(
        selection=st.lists(st.sampled_from(sorted(RUNNERS)), min_size=1, max_size=3),
        n_max=st.integers(0, 9),
        ab_max=st.integers(1, 4),
        m_values=st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple),
        a_values=_grid_values,
        b_values=_grid_values,
        x_values=_grid_values,
        prime_max=st.integers(2, 11),
        exact_max=st.integers(-1, 12),
        jobs=st.sampled_from([1, 2]),
        fail_fast=st.booleans(),
        violate=st.none() | st.integers(0, 60),
    )
    # Blocks of claims without parameters that follow one another.
    @example(
        selection=["thm4", "cor1", "remarks"], n_max=515, ab_max=1, m_values=(3,), a_values=(), b_values=(),
        x_values=(), prime_max=2, exact_max=7, jobs=2, fail_fast=False, violate=None,
    )
    @example(
        selection=["thm3", "cor2"], n_max=520, ab_max=1, m_values=(3,), a_values=(), b_values=(),
        x_values=(), prime_max=2, exact_max=7, jobs=1, fail_fast=True, violate=1,
    )
    def test_reports_come_in_sorted_order(
        self, selection, n_max, ab_max, m_values, a_values, b_values, x_values, prime_max, exact_max,
        jobs, fail_fast, violate,
    ):
        import valuata.theorems as theorems

        grid = HarnessGrid(
            n_max=n_max, ab_max=ab_max, m_values=m_values, a_values=a_values, b_values=b_values,
            x_values=x_values, prime_max=prime_max, exact_max=exact_max,
        )
        names = resolve_selectors(selection)
        work = [(name, kw) for name in names for kw in RUNNERS[name].items(grid)]
        if any(not RUNNERS[name].items(grid) for name in names):
            with pytest.raises(SelectionError, match="nothing to check$"):
                run_harness(selection, grid)
            return
        with contextlib.ExitStack() as patches:
            if violate is not None:
                # The first row of the first batch of one item gets an oracle on the wrong side of its prediction.
                target, target_kw = work[violate % len(work)]
                runner = RUNNERS[target]

                def violating_run(**kwargs):
                    batches = runner.run(**kwargs)
                    if _item_key(kwargs) == _item_key(target_kw):
                        batch = batches[0]
                        batch.oracle[0] = batch.predicted[0] + (-1 if batch.kind == KIND_LOWER else 1)
                    return batches

                patches.enter_context(
                    mock.patch.dict(theorems.RUNNERS, {target: dataclasses.replace(runner, run=violating_run)})
                )
            if jobs == 2:
                patches.enter_context(mock.patch.object(harness, "_FORK_MIN_S", 0))
                patches.enter_context(mock.patch.object(harness, "_usable_cpus", lambda: 2))
            result = run_harness(selection, grid, jobs=jobs, fail_fast=fail_fast)
            # The reference: every item run in work order, up to the first violating one under
            # fail-fast, each batch's reports on their own, then sorted.
            batches = []
            for name, kw in work:
                item = theorems.RUNNERS[name].run(**kw)
                batches += item
                if fail_fast and not HarnessResult(item).ok:
                    break
        reference = sorted((r for batch in batches for r in _reports([batch])), key=itemgetter(0, 1))
        assert result.reports == reference
        assert result.reports == sorted(result.reports, key=itemgetter(0, 1))
        assert list(json_lines(result.batches)) == [r.to_json_line() + "\n" for r in result.reports]
        violations = [r for r in reference if r.verdict == "violation"]
        assert result.violations == violations
        assert bool(violations) == (violate is not None) and result.ok == (not violations)
        checked = Counter(r.claim for r in reference)
        assert result.summary() == {
            claim: {"checked": checked[claim], "violations": sum(r.claim == claim for r in violations)}
            for claim in sorted(checked)
        }


def _dumps_line(report):
    return json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":")) + "\n"


def _patch_runner(monkeypatch, name, run):
    import valuata.theorems as theorems

    runner = RUNNERS[name]
    monkeypatch.setitem(theorems.RUNNERS, name, dataclasses.replace(runner, run=run))


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fork_at_once(monkeypatch):
    """Make run_harness fork after its first item, however short the sweep."""

    monkeypatch.setattr(harness, "_FORK_MIN_S", 0)


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

    def test_all_parallel_matches_serial(self, monkeypatch):

        starts = []
        real_start = harness._start_worker

        def counting_start(*args):
            starts.append(len(starts) + 1)
            return real_start(*args)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_start_worker", counting_start)
        _fork_at_once(monkeypatch)
        assert run_harness(["all"], self.GRID, jobs=2).reports == run_harness(["all"], self.GRID).reports
        assert starts == [1]

    def test_fork_pays_only_past_the_threshold(self):
        assert not _fork_pays(0.001, 1, 45)  # 1 ms items, 45 ms left
        assert _fork_pays(0.001, 1, 55)
        assert not _fork_pays(0.010, 10, 40)  # the mean over the items done counts
        assert _fork_pays(0.030, 2, 4)  # 15 ms items, 60 ms left
        assert not _fork_pays(0.014, 1, 3)  # a 14 ms item with three left
        assert not _fork_pays(10.0, 1, 0)

    def test_short_sweep_at_two_jobs_runs_in_process(self, monkeypatch):

        grid = HarnessGrid(n_max=6, ab_max=3)
        assert len(RUNNERS["thm1"].items(grid)) == 4
        serial = run_harness(["thm1"], grid).reports
        real_start = harness._start_worker

        def no_fork(*args, **kwargs):
            raise AssertionError("a short sweep started a process")

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_start_worker", no_fork)
        # forking would need the first item to take over 16 ms, the first two over 50 ms
        assert run_harness(["thm1"], grid, jobs=2).reports == serial

        # the threshold alone keeps it in-process: at 0 the same sweep forks
        starts = []

        def counting_start(*args):
            starts.append(len(starts) + 1)
            return real_start(*args)

        monkeypatch.setattr(harness, "_start_worker", counting_start)
        _fork_at_once(monkeypatch)
        assert run_harness(["thm1"], grid, jobs=2).reports == serial
        assert starts == [1]

    def test_single_item_sweep_runs_in_process(self, monkeypatch):

        assert len(RUNNERS["remarks"].items(self.GRID)) == 1
        serial = run_harness(["remarks"], self.GRID, jobs=1)
        two_items = run_harness(["thm3", "thm4"], self.GRID, jobs=1)

        def no_fork(*args, **kwargs):
            raise AssertionError("a serial sweep started a process or made a shared counter")

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(harness, "_run_forked", no_fork)
        monkeypatch.setattr(harness, "_start_worker", no_fork)
        assert run_harness(["remarks"], self.GRID, jobs=2).reports == serial.reports
        assert run_harness(["thm3", "thm4"], self.GRID, jobs=1).reports == two_items.reports

    def test_pool_size_is_capped_by_work_items(self, monkeypatch):

        starts = []
        real_start = harness._start_worker

        def counting_start(*args):
            starts.append(len(starts) + 1)
            return real_start(*args)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(harness, "_start_worker", counting_start)
        _fork_at_once(monkeypatch)
        items = len(RUNNERS["thm3"].items(self.GRID)) + len(RUNNERS["thm4"].items(self.GRID))
        assert items == 2 and len(RUNNERS["cor1"].items(self.GRID)) == 1
        result = run_harness(["thm3", "thm4"], self.GRID, jobs=8)
        # two items: this process runs the first, and the one left is no work for a worker
        assert starts == [] and result.reports == run_harness(["thm3", "thm4"], self.GRID).reports
        result = run_harness(["thm3", "thm4", "cor1"], self.GRID, jobs=8)
        # three items: this process runs the first, then shares the two left with one worker
        assert starts == [1]
        assert result.reports == run_harness(["thm3", "thm4", "cor1"], self.GRID).reports

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_workers_capped_by_usable_cpus(self, monkeypatch, cpus):

        starts = []
        real_start = harness._start_worker

        def counting_start(*args):
            starts.append(len(starts) + 1)
            if len(starts) >= cpus:  # refuse before starting one too many
                raise AssertionError(f"started more than {cpus - 1} workers")
            return real_start(*args)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "_start_worker", counting_start)
        _fork_at_once(monkeypatch)
        assert len(RUNNERS["thm5"].items(self.GRID)) > 3
        result = run_harness(["thm5"], self.GRID, jobs=1000)
        assert starts == list(range(1, cpus))
        assert result.reports == run_harness(["thm5"], self.GRID).reports
        assert multiprocessing.active_children() == []

    def test_prime_min_bounds_lemma1(self):
        grid = HarnessGrid(n_max=1, prime_min=50, prime_max=53)
        assert {dict(r.instance)["p"] for r in run_harness(["lemma1"], grid).reports} == {53}

    def test_a_string_is_one_selector(self):
        assert resolve_selectors("thm3") == resolve_selectors(["thm3"]) == ["thm3"]
        grid = HarnessGrid(n_max=6)
        assert run_harness("thm3", grid).reports == run_harness(["thm3"], grid).reports != []
        with pytest.raises(SelectionError, match="^unknown claim selector 'no-such-claim'$"):
            run_harness("no-such-claim")

    def test_selectors(self):
        assert resolve_selectors(["THM1", "delannoy"]) == ["thm1", "thm3"]
        assert resolve_selectors(["all"]) == list(RUNNERS)
        with pytest.raises(SelectionError, match="^unknown claim selector 'no-such-claim'$"):
            resolve_selectors(["no-such-claim"])
        assert issubclass(SelectionError, ValueError)

    def test_empty_claim_set_is_a_selection_error(self):
        for selectors in ([], ""):
            with pytest.raises(SelectionError, match="^no claim selected$"):
                run_harness(selectors, self.GRID)

    def test_fail_fast_stops_on_injected_violation(self, monkeypatch):
        bad = ReportBatch("thm1", KIND_EXACT, (), range(0, 1), ("even",), [1], [0])
        calls = []

        def fake_run(**kwargs):
            calls.append(kwargs)
            return [bad]

        _patch_runner(monkeypatch, "thm1", fake_run)
        result = run_harness(["thm1"], self.GRID, fail_fast=True)
        assert not result.ok
        assert len(calls) == 1  # stopped after the first work item

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_fail_fast_is_the_same_at_any_job_count(self, monkeypatch, k):

        runner = RUNNERS["thm1"]
        items = runner.items(self.GRID)
        assert len(items) == 10

        def violating_run(**kwargs):
            batches = runner.run(**kwargs)
            if kwargs == items[k]:
                batches[0].predicted[0] += 1  # n = 0, even: one above the oracle's 0
            return batches

        _patch_runner(monkeypatch, "thm1", violating_run)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        _fork_at_once(monkeypatch)
        serial = run_harness(["thm1"], self.GRID, jobs=1, fail_fast=True)
        expected = sorted(
            [r for kw in items[: k + 1] for r in _reports(violating_run(**kw))], key=itemgetter(0, 1)
        )
        assert [r.verdict for r in expected].count("violation") == 1
        assert serial.reports == expected
        for jobs in (2, 3, 2):
            assert run_harness(["thm1"], self.GRID, jobs=jobs, fail_fast=True).reports == expected
        everything = run_harness(["thm1"], self.GRID, jobs=2)
        assert len(everything.reports) == len(run_harness(["thm1"], self.GRID).reports)

    def _fork_two(self, monkeypatch, in_parent, in_worker):
        """Patch thm1 so that the parent's items call in_parent and the worker's in_worker."""

        parent = os.getpid()
        claimed = multiprocessing.get_context("fork").Event()
        forked = []
        real_start = harness._start_worker

        def start(*args):
            forked.append(True)
            return real_start(*args)

        def run(**kwargs):
            if os.getpid() == parent:
                if not forked:  # the items run before the fork have no worker to wait for
                    return []
                # wait until the worker has claimed an item of its own
                assert claimed.wait(30)
                return in_parent()
            claimed.set()
            return in_worker()

        _patch_runner(monkeypatch, "thm1", run)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_start_worker", start)
        _fork_at_once(monkeypatch)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fail():
            raise IntegralityError("worker item failed: 7/2")

        self._fork_two(monkeypatch, lambda: [], fail)
        with _time_limit(60), pytest.raises(IntegralityError, match=r"^worker item failed: 7/2$"):
            run_harness(["thm1"], self.GRID, jobs=2)
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_result_raises(self, monkeypatch):
        self._fork_two(monkeypatch, lambda: [], lambda: os._exit(3))
        with _time_limit(60), pytest.raises(RuntimeError, match="exited with code 3 without a result"):
            run_harness(["thm1"], self.GRID, jobs=2)
        assert multiprocessing.active_children() == []

    def test_parent_error_joins_workers(self, monkeypatch):
        def fail():
            raise IntegralityError("parent item failed")

        def slow():
            time.sleep(0.2)
            return []

        self._fork_two(monkeypatch, fail, slow)
        with _time_limit(60), pytest.raises(IntegralityError, match="parent item failed"):
            run_harness(["thm1"], self.GRID, jobs=2)
        assert multiprocessing.active_children() == []

    def test_coprime_pairs(self):
        pairs = coprime_pairs(25)
        assert len(pairs) == 200
        assert all(math.gcd(a, b) == 1 and 1 <= a <= b <= 25 for a, b in pairs)


class TestCheckWrappers:
    """Single-runner sweeps through run_harness."""

    def test_check_remarks_clean(self):
        reports = run_harness(["remarks"], HarnessGrid(n_max=40)).reports
        assert len(reports) == 2 * 41 * 2 and all(r.verdict == "exact" for r in reports)
        assert {r.claim for r in reports} == {"hexagonal", "catalan-shift"}

    def test_check_lemma1_clean(self):
        reports = run_harness(["lemma1"], HarnessGrid(n_max=60, prime_max=5)).reports
        assert reports and all(r.verdict != "violation" for r in reports)
        assert {r.claim for r in reports} == {
            "lemma1",
            "multinomial-valuation",
            "multinomial-bound",
            "shifted-product-bound",
        }

    def test_lemma1_boundary_instance(self):
        # v_2(3 * C(2, 1)) = 1 hits the bound n = 1 exactly.
        grid = HarnessGrid(n_max=1, prime_max=2)
        reports = [r for r in run_harness(["lemma1"], grid).reports if r.claim == "lemma1"]
        tight = dict(reports[-1].instance)
        assert tight["n"] == 1 and reports[-1].oracle == 1 and reports[-1].predicted == 1
