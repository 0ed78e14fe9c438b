import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import valuata.cli as cli
import valuata.harness as harness
from valuata.cli import main
from valuata.digits import kummer_carries
from valuata.sequences import SEQUENCES, eval_B
from valuata.theorems import CLAIMS, RUNNERS, HarnessGrid, _FAST_N_MAX, run_harness
from valuata.valuation import INFINITE, vp_int


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_or_exit(capsys, *argv):
    """Like run, but an argparse error's SystemExit gives the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOmega:
    def test_worked_instance_both_modes(self, capsys):
        code, out, _ = run(capsys, "omega", "99", "B", "4046", "2", "37", "62", "--mode", "both")
        assert code == 0 and "= 2" in out

    def test_odd_instance_fast(self, capsys):
        code, out, _ = run(capsys, "omega", "99", "B", "4047", "2", "37", "62", "--mode", "fast")
        assert code == 0 and "= 4" in out

    def test_literal(self, capsys):
        code, out, _ = run(capsys, "omega", "7", "1")
        assert code == 0 and "= 0" in out

    def test_zero_target_renders_inf(self, capsys):
        code, out, _ = run(capsys, "omega", "7", "0")
        assert code == 0 and "= inf" in out

    def test_explain_breakdown(self, capsys):
        code, out, _ = run(capsys, "omega", "99", "binom", "4046", "2023", "--mode", "both", "--explain")
        assert code == 0
        assert "p=3" in out and "p=11" in out and "min(2, 3) = 2" in out

    def test_fast_explain_on_square_sum_shows_core(self, capsys):
        code, out, _ = run(capsys, "omega", "99", "B", "4046", "2", "37", "62", "--mode", "fast", "--explain")
        assert code == 0
        assert out.splitlines() == [
            "omega_99(B(4046,2,37,62)) = 2",
            "  core: C(4046,2023); omega_99(B(4046,2,37,62)) = omega_99(core)",
            "  p=3: v_p(core)=5, v_p(base)=2, floor=2",
            "  p=11: v_p(core)=3, v_p(base)=1, floor=3",
            "  min(2, 3) = 2",
        ]
        code, out, _ = run(capsys, "omega", "99", "B", "4047", "2", "37", "62", "--mode", "fast", "--explain")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega_99(B(4047,2,37,62)) = 4"
        assert lines[1] == "  core: 4047*C(4046,2023); omega_99(B(4047,2,37,62)) = 1 + omega_99(core)"
        assert lines[-1] == "  min(3, 3) = 3"

    def test_fast_square_sum_without_explain_is_one_line(self, capsys):
        code, out, _ = run(capsys, "omega", "99", "B", "4047", "2", "37", "62", "--mode", "fast")
        assert code == 0 and out == "omega_99(B(4047,2,37,62)) = 4\n"

    def test_fast_input_past_64_bits_exits_2(self, capsys):
        code, out, err = run(capsys, "vp", "3", "binom", "1e20", "3", "--mode", "fast")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "64-bit" in err and "Traceback" not in err

    def test_base_past_64_bits_exits_2(self, capsys):
        code, _, err = run(capsys, "omega", "1e20", "5")
        assert code == 2 and err.startswith("error: ") and "64-bit" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "omega", "99", "binom", "4046", "2023", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "base": 99,
            "mode": "oracle",
            "omega": 2,
            "target": "binom(4046,2023)",
        }

    def test_sequence_target(self, capsys):
        code, out, _ = run(capsys, "omega", "3", "delannoy", "3")
        assert code == 0 and "= 2" in out

    def test_invalid_base_exits_2(self, capsys):
        for base in ("1", "-1", "0"):
            code, _, err = run(capsys, "omega", base, "5")
            assert code == 2 and "error" in err

    def test_fast_mode_without_fast_path_exits_2(self, capsys):
        code, _, err = run(capsys, "omega", "3", "franel", "3", "--mode", "fast")
        assert code == 2 and "fast" in err

    def test_fast_mode_wrong_order_exits_2(self, capsys):
        code, _, err = run(capsys, "omega", "99", "B", "10", "3", "37", "62", "--mode", "fast")
        assert code == 2

    def test_fast_mode_base_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "omega", "11", "B", "10", "2", "37", "62", "--mode", "fast")
        assert code == 2

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_route_omega", lambda target, base: 99)
        code, _, err = run(capsys, "omega", "99", "B", "10", "2", "37", "62", "--mode", "both")
        assert code == 1 and "DISAGREEMENT" in err

    def test_negative_base(self, capsys):
        code, out, _ = run(capsys, "omega", "-3", "delannoy", "3")
        assert code == 0 and "= 2" in out

    def test_negative_sequence_index_exits_2(self, capsys):
        code, out, err = run(capsys, "omega", "6", "delannoy", "-3")
        assert (code, out, err) == (2, "", "error: n must be non-negative, got -3\n")


def _reference_core(n: int, r: int, p: int, catalan: bool) -> int:
    """v_p((2n+1)**r * core(n)) from the checked public kernel, core(n) = Catalan(n) or C(2n, n)."""
    v = kummer_carries(n, n, p) + (vp_int(2 * n + 1, p) if r else 0)
    return v - vp_int(n + 1, p) if catalan else v


# A target on each fast route: the tokens before and after its index, its
# base and that base's primes, whether its core is Catalan(n) and the offset
# of its index, i = 2n + r + offset.
_EXPLAINED = {
    "bsum": (("B",), ("2", "37", "62"), 99, (3, 11), False, 0),
    "delannoy": (("delannoy",), (), 3, (3,), False, 0),
    "schroder": (("schroder",), (), 3, (3,), True, 1),
    "little-schroder": (("little-schroder",), (), -3, (3,), True, 1),
    "hexagonal": (("hexagonal",), (), 3, (3,), True, 0),
    "legendre": (("legendre",), ("15",), 15, (3, 5), False, 0),
    "trinomial": (("trinomial",), ("7", "-10"), -10, (2, 5), False, 0),
    "motzkin": (("motzkin",), ("5", "6"), -6, (2, 3), True, 0),
}


class TestFastRoutes:
    """Fast routes derived from the claim table."""

    def test_routed_targets(self):
        assert cli._ROUTES == {
            "bsum": "thm1",
            "delannoy": "thm3",
            "schroder": "thm4",
            "little-schroder": "little-schroder",
            "legendre": "cor3",
            "trinomial": "thm5",
            "motzkin": "thm6",
            "hexagonal": "hexagonal",
        }

    @pytest.mark.parametrize(
        "target",
        [
            ("B", "-3", "2", "37", "62"),
            ("bsum", "-1", "2", "1", "2"),
            ("delannoy", "-2"),
            ("schroder", "0"),
            ("schroder", "-5"),
            ("little-schroder", "0"),
            ("hexagonal", "-1"),
            ("trinomial", "-1", "2", "3"),
            ("motzkin", "-4", "1", "3"),
            ("legendre", "-1", "5"),
        ],
    )
    def test_out_of_domain_index_gets_the_oracle_error(self, capsys, target):
        base = {"B": "99", "bsum": "3", "trinomial": "3", "motzkin": "3", "legendre": "5"}.get(target[0], "3")
        oracle = run(capsys, "omega", base, *target, "--mode", "oracle")
        assert oracle[0] == 2 and oracle[1] == "" and oracle[2].startswith("error: ")
        for mode in ("oracle", "fast", "both"):
            assert run(capsys, "omega", base, *target, "--mode", mode) == oracle
            assert run(capsys, "omega", base, *target, "--mode", mode, "--explain") == oracle

    @pytest.mark.parametrize("name, size", [("schroder", "large"), ("little-schroder", "little")])
    def test_out_of_domain_index_names_the_sequence_asked_for(self, capsys, name, size):
        for index in ("0", "-5"):
            expected = (2, "", f"error: {size} Schroder numbers start at index 1, got {index}\n")
            for mode in ("oracle", "fast", "both"):
                assert run(capsys, "omega", "3", name, index, "--mode", mode) == expected
        assert run(capsys, "seq", name, "0..3") == (2, "", f"error: {name} starts at index 1, got 0\n")

    def test_index_past_the_fast_range_is_reported_as_given(self, capsys):
        code, out, err = run(capsys, "omega", "99", "B", "2e19", "2", "37", "62", "--mode", "fast")
        assert (code, out) == (2, "")
        assert err == "error: n exceeds the machine fast-path range: 20000000000000000000\n"
        code, out, _ = run(capsys, "omega", "3", "schroder", str(2**64), "--mode", "fast")
        assert code == 0 and out.startswith(f"omega_3(schroder({2**64})) = ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("5", "delannoy", "10"),
            ("9", "schroder", "10"),
            ("2", "hexagonal", "10"),
            ("5", "trinomial", "10", "2", "3"),
            ("-7", "motzkin", "10", "2", "3"),
            ("3", "legendre", "10", "5"),
            ("6", "B", "10", "2", "2", "3"),
        ],
    )
    def test_base_mismatch_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "omega", *argv, "--mode", "fast")
        assert (code, out) == (2, "") and err.startswith("error: the fast path computes the power of ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("4", "trinomial", "10", "2", "4"), "a and b must be coprime, got 2, 4"),
            (("6", "motzkin", "10", "3", "6"), "a and b must be coprime, got 3, 6"),
            (("6", "B", "10", "2", "2", "4"), "a and b must be coprime, got 2, 4"),
            (("4", "legendre", "3", "4"), "x must be odd, got 4"),
        ],
    )
    def test_hypotheses_hold_on_the_fast_route(self, capsys, argv, message):
        assert run(capsys, "omega", *argv, "--mode", "fast") == (2, "", f"error: {message}\n")

    def test_higher_order_sum_has_no_fast_route(self, capsys):
        code, out, err = run(capsys, "omega", "99", "B", "10", "3", "37", "62", "--mode", "both")
        assert (code, out) == (2, "")
        assert err == "error: no fast path for target B(10,3,37,62); use --mode oracle\n"

    def test_explain_shows_the_core(self, capsys):
        code, out, _ = run(capsys, "omega", "3", "schroder", "8", "--mode", "fast", "--explain")
        assert code == 0
        assert out.splitlines() == [
            "omega_3(schroder(8)) = 1",
            "  core: 7*Catalan(3); omega_3(schroder(8)) = 1 + omega_3(core)",
            "  p=3: v_p(core)=0, v_p(base)=1, floor=0",
            "  min(0) = 0",
        ]
        code, out, _ = run(capsys, "omega", "-6", "motzkin", "12", "5", "6", "--mode", "fast", "--explain")
        assert code == 0
        assert out.splitlines() == [
            "omega_-6(motzkin(12, 5, 6)) = 1",
            "  core: Catalan(6); omega_-6(motzkin(12, 5, 6)) = omega_-6(core)",
            "  p=2: v_p(core)=2, v_p(base)=1, floor=2",
            "  p=3: v_p(core)=1, v_p(base)=1, floor=1",
            "  min(2, 1) = 1",
        ]
        code, out, _ = run(capsys, "vp", "3", "delannoy", "11", "--mode", "fast", "--explain")
        assert code == 0 and out.splitlines()[1] == "  core: 11*C(10,5); omega_3(delannoy(11)) = 1 + omega_3(core)"

    @pytest.mark.parametrize("sequence", sorted(_EXPLAINED))
    def test_explain_core_matches_the_reference(self, capsys, sequence):
        head, tail, base, primes, catalan, offset = _EXPLAINED[sequence]
        line = re.compile(r"  p=(\d+): v_p\(core\)=(\d+), v_p\(base\)=\d+, floor=\d+")
        ns = {0, _FAST_N_MAX}
        for p in primes:
            k = 1
            while p ** (k + 1) <= _FAST_N_MAX:
                k += 1
            ns |= {p - 1, p, p**k - 1, p**k}
        for n in sorted(ns):
            for r in (0, 1):
                i = 2 * n + r + offset
                code, out, err = run(capsys, "omega", str(base), *head, str(i), *tail, "--mode", "fast", "--explain")
                assert (code, err) == (0, ""), (sequence, i)
                core = f"Catalan({n})" if catalan else f"C({2 * n},{n})"
                assert out.splitlines()[1].startswith(f"  core: {2 * n + 1}*{core};" if r else f"  core: {core};")
                got = {int(m.group(1)): int(m.group(2)) for m in map(line.fullmatch, out.splitlines()) if m}
                assert got == {p: _reference_core(n, r, p, catalan) for p in primes}, (sequence, i)
        for r in (0, 1):
            i = 2 * (_FAST_N_MAX + 1) + r + offset
            expected = (2, "", f"error: n exceeds the machine fast-path range: {i}\n")
            assert run(capsys, "omega", str(base), *head, str(i), *tail, "--mode", "fast", "--explain") == expected
        below = (*head, str(offset - 1), *tail)
        oracle = run(capsys, "omega", str(base), *below, "--mode", "oracle", "--explain")
        assert oracle[0] == 2 and oracle[2].startswith("error: ")
        assert run(capsys, "omega", str(base), *below, "--mode", "fast", "--explain") == oracle

    @pytest.mark.parametrize("command", ["omega", "vp"])
    @pytest.mark.parametrize("mode", ["fast", "oracle", "both"])
    def test_explain_takes_the_human_format(self, capsys, command, mode):
        argv = (command, "3", "delannoy", "11", "--mode", mode, "--explain", "--format", "json")
        assert run(capsys, *argv) == (2, "", "error: --explain takes --format human\n")
        assert run(capsys, *argv[:-2], "--format", "human")[0] == 0


# Each routed target: its parameter count, the base that its claim is
# about, and the hypotheses on its parameters.
_ROUTED = {
    "B": (2, lambda a, b: a + b, lambda a, b: math.gcd(a, b) == 1 and a + b not in (0, 1, -1)),
    "delannoy": (0, lambda: 3, lambda: True),
    "schroder": (0, lambda: 3, lambda: True),
    "little-schroder": (0, lambda: 3, lambda: True),
    "hexagonal": (0, lambda: 3, lambda: True),
    "trinomial": (2, lambda a, b: b, lambda a, b: math.gcd(a, b) == 1 and b not in (0, 1, -1)),
    "motzkin": (2, lambda a, b: b, lambda a, b: math.gcd(a, b) == 1 and b not in (0, 1, -1)),
    "legendre": (1, lambda x: x, lambda x: x % 2 == 1 and x not in (1, -1)),
}


class TestFastRouteAgreement:
    @settings(max_examples=250, deadline=None)
    @given(
        st.sampled_from(sorted(_ROUTED)),
        st.integers(0, 60),
        st.lists(st.integers(-6, 6), min_size=2, max_size=2),
        st.sampled_from([1, -1]),
        st.booleans(),
    )
    def test_both_modes_agree(self, name, index, values, sign, explain):
        arity, base_of, hypotheses = _ROUTED[name]
        params = values[:arity]
        assume(hypotheses(*params))
        assume(index >= (SEQUENCES[name].min_index if name in SEQUENCES else 0))
        base = sign * base_of(*params)
        target = ["B", str(index), "2", *map(str, params)] if name == "B" else [name, str(index), *map(str, params)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["omega", str(base), *target, "--mode", "both"] + (["--explain"] if explain else []))
        assert (code, err.getvalue()) == (0, "")


class TestVp:
    def test_prime_base(self, capsys):
        code, out, _ = run(capsys, "vp", "3", "binom", "4046", "2023", "--mode", "both")
        assert code == 0 and "= 5" in out

    def test_composite_base_rejected(self, capsys):
        code, _, err = run(capsys, "vp", "6", "binom", "10", "5")
        assert code == 2 and "prime" in err


class TestNegativeOrder:
    @pytest.mark.parametrize("argv", [
        ("omega", "3", "B", "4", "-2", "3", "5"),
        ("omega", "3", "B", "4", "-2", "3", "5", "--mode", "oracle", "--explain"),
        ("omega", "3", "bsum", "4", "-2", "3", "5", "--format", "json"),
        ("seq", "bsum", "0..3", "-2", "1", "2"),
        ("table", "bsum", "0..3", "-2", "1", "2"),
    ])
    def test_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: m must be non-negative, got -2\n"

    def test_orders_zero_and_one_are_valid(self, capsys):
        assert run(capsys, "seq", "bsum", "0..3", "0", "1", "2")[:2] == (0, "0\t1\n1\t3\n2\t7\n3\t15\n")
        assert run(capsys, "seq", "bsum", "0..3", "1", "1", "2")[:2] == (0, "0\t1\n1\t3\n2\t9\n3\t27\n")


class TestSeq:
    def test_delannoy_range(self, capsys):
        code, out, _ = run(capsys, "seq", "delannoy", "0..3")
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert code == 0 and [r[1] for r in rows] == ["1", "3", "13", "63"]

    def test_single_index(self, capsys):
        code, out, _ = run(capsys, "seq", "catalan", "0..0")
        assert code == 0 and out.strip().split("\t") == ["0", "1"]

    def test_franel_with_valuation_column(self, capsys):
        code, out, _ = run(capsys, "seq", "franel", "0..3", "--valuation", "2")
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert code == 0
        assert [r[1] for r in rows] == ["1", "2", "10", "56"]
        assert [r[2] for r in rows] == ["0", "1", "1", "3"]

    def test_pseudoprime_valuation_exits_2(self, capsys):
        # psi_12 passes Miller-Rabin to every prime base 2..37.
        psi12 = "318665857834031151167461"
        code, out, err = run(capsys, "seq", "delannoy", "0..3", "--valuation", psi12)
        assert code == 2 and out == ""
        assert err == f"error: --valuation takes a prime, got {psi12}\n"
        code, out, err = run(capsys, "seq", "delannoy", "0..3", "--valuation", "3317044064679887385961981")
        assert code == 2 and out == "" and "primality is decided only below" in err

    def test_parametrized_sequence(self, capsys):
        code, out, _ = run(capsys, "seq", "trinomial", "0..4", "1", "1")
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert code == 0 and [r[1] for r in rows] == ["1", "1", "3", "7", "19"]

    @pytest.mark.parametrize("a, b", [(3, -7), (-3, 5), (0, 4), (2, 0), (0, 0), (-2, -5)])
    def test_square_sum_range_gives_the_defining_sums_bytes(self, capsys, a, b):
        # m = 2 reads one trinomial stream at (ab, a + b) for the whole range.
        for fmt in ("human", "json", "csv"):
            per_n = [run(capsys, "seq", "bsum", f"{n}..{n}", "2", str(a), str(b), "--valuation", "3",
                         "--format", fmt) for n in range(3, 41)]
            assert all(code == 0 and err == "" for code, _, err in per_n)
            rows = "".join(out.split("\n", 1)[1] if fmt == "csv" else out for _, out, _ in per_n)
            header = "n,value,v_3\r\n" if fmt == "csv" else ""
            assert run(capsys, "seq", "bsum", "3..40", "2", str(a), str(b), "--valuation", "3",
                       "--format", fmt) == (0, header + rows, "")
        code, out, _ = run(capsys, "seq", "bsum", "0..40", "2", str(a), str(b))
        assert code == 0 and out == "".join(f"{n}\t{eval_B(n, 2, a, b)}\n" for n in range(41))

    @pytest.mark.parametrize("name", ["schroder", "little-schroder"])
    def test_schroder_table_gives_pointwise_bytes(self, capsys, monkeypatch, name):
        formats = [("--format", fmt) for fmt in ("human", "json", "csv")] + [("--valuation", "3")]
        with_table = [run(capsys, "seq", name, "1..60", *extra) for extra in formats]
        assert cli.SEQUENCES[name].values is not None
        monkeypatch.setitem(cli.SEQUENCES, name, dataclasses.replace(cli.SEQUENCES[name], values=None))
        pointwise = [run(capsys, "seq", name, "1..60", *extra) for extra in formats]
        assert with_table == pointwise and all(code == 0 and out for code, out, _ in pointwise)

    @pytest.mark.parametrize("name, params, lo", [
        ("delannoy", (), 1600),
        ("schroder", (), 1600),
        ("little-schroder", (), 1540),
        ("hexagonal", (), 1536),
        ("trinomial", ("-3", "5"), 1700),
        ("motzkin", ("2", "-4"), 1535),
        ("legendre", ("-15",), 1600),
        ("franel", (), 3072),
        ("central-binomial", (), 700),
    ])
    def test_a_range_from_lo_gives_the_rows_of_a_range_from_0(self, capsys, name, params, lo):
        # A range starts its stream at lo, by jumps past the crossover; the rows must not change.
        hi = lo + 3
        for extra in ((), ("--valuation", "3"), ("--format", "csv")):
            code, out, err = run(capsys, "seq", name, f"{lo}..{hi}", *params, *extra)
            full = run(capsys, "seq", name, f"{SEQUENCES[name].min_index}..{hi}", *params, *extra)[1]
            lines, full_lines = out.splitlines(), full.splitlines()
            header = ["n,value" + (",v_3" if "--valuation" in extra else "")] if "csv" in extra else []
            assert (code, err) == (0, "") and lines == header + full_lines[-4:], (name, extra)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "seq", "schroder", "0..3")
        assert code == 2 and "index 1" in err

    @pytest.mark.parametrize("command", ["seq", "table"])
    def test_descending_range_exits_2(self, capsys, command):
        for name, extra in (("delannoy", ()), ("catalan", ()), ("trinomial", ("1", "1"))):
            code, out, err = run(capsys, command, name, "5..3", *extra)
            assert (code, out, err) == (2, "", "error: range lo..hi needs lo <= hi, got 5..3\n")
        assert run(capsys, command, "delannoy", "3..3")[0] == 0

    @pytest.mark.parametrize("command", ["seq", "table"])
    def test_negative_range_start_reaches_the_domain_check(self, capsys, command):
        # argparse would take `-5..3` for an unknown option and print a usage error.
        for name, start, extra in (
            ("little-schroder", "-5..3", ()),
            ("delannoy", "-3..2", ()),
            ("trinomial", "-1..2", ("1", "-1")),
        ):
            code, out, err = run_or_exit(capsys, command, name, start, *extra, "--valuation", "3")
            lo, index = start.split("..")[0], SEQUENCES[name].min_index
            assert (code, out, err) == (2, "", f"error: {name} starts at index {index}, got {lo}\n")

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "seq", "fibonacci", "0..3")
        assert code == 2

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "seq", "trinomial", "0..3")
        assert code == 2 and "parameter" in err

    def test_digits_abbreviation(self, capsys):
        code, out, _ = run(capsys, "seq", "central-binomial", "500..500", "--digits", "6")
        assert code == 0
        value_field = out.strip().split("\t")[1]
        assert "..." in value_field and "digits" in value_field

    @pytest.mark.parametrize("digits", ["0", "-1"])
    def test_digits_below_one_exits_2(self, capsys, digits):
        code, out, err = run(capsys, "seq", "delannoy", "0..30", "--digits", digits)
        assert (code, out) == (2, "") and err == f"error: --digits must be at least 1, got {digits}\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "seq", "catalan", "2..3", "--format", "json")
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and objs == [{"n": 2, "value": 2}, {"n": 3, "value": 5}]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "seq", "catalan", "0..2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[0] == ["n", "value"] and rows[3] == ["2", "2"]


class TestInfiniteValuationText:
    """B(1,2,1,-1) = B(3,2,1,-1) = 0: their valuation prints as inf in every format."""

    ARGS = ("bsum", "0..3", "2", "1", "-1", "--valuation", "3")
    CSV = "n,value,v_3\r\n0,1,0\r\n1,0,inf\r\n2,-2,0\r\n3,0,inf\r\n"

    @pytest.mark.parametrize("argv, expected", [
        (("seq", *ARGS), "0\t1\t0\n1\t0\tinf\n2\t-2\t0\n3\t0\tinf\n"),
        (("seq", *ARGS, "--format", "csv"), CSV),
        (("table", *ARGS), CSV),
        (
            ("seq", *ARGS, "--format", "json"),
            '{"n":0,"v_3":0,"value":1}\n{"n":1,"v_3":"inf","value":0}\n'
            '{"n":2,"v_3":0,"value":-2}\n{"n":3,"v_3":"inf","value":0}\n',
        ),
    ])
    def test_rows(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    def test_verify_rows(self, capsys, monkeypatch):
        import valuata.theorems as theorems

        batch = harness.ReportBatch("thm3", theorems.KIND_LOWER, (), range(1, 2), ("odd",), [2], [INFINITE])
        runner = theorems.RUNNERS["thm3"]
        monkeypatch.setitem(
            theorems.RUNNERS, "thm3", dataclasses.replace(runner, items=lambda grid: [{}], run=lambda: [batch])
        )
        code, out, _ = run(capsys, "verify", "thm3")
        assert (code, out.splitlines()[0]) == (0, "thm3: n=1 parity=odd predicted=2 oracle=inf bound_holds")
        code, out, _ = run(capsys, "verify", "thm3", "--format", "csv")
        assert (code, out.splitlines()[1]) == (0, "thm3,1,odd,,,,,,2,inf,bound_holds,")


class TestTable:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "table", "delannoy", "0..3", "--valuation", "3")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["n", "value", "v_3"]
        assert rows[4] == ["3", "63", "2"]

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "table", "catalan", "0..5", "-o", str(target))
        assert code == 0 and out == ""
        rows = list(csv.reader(io.StringIO(target.read_text())))
        assert rows[0] == ["n", "value"] and rows[6] == ["5", "42"]

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.csv"
        for target in (missing, tmp_path):
            code, out, err = run(capsys, "table", "catalan", "0..3", "--output", str(target))
            assert (code, out) == (2, "") and err.startswith(f"error: cannot write --output {target}: ")
        assert not missing.parent.exists()


class TestVerify:
    def test_small_sweep_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--n-max", "5", "--ab-max", "4")
        assert code == 0
        assert "[thm1] checked=" in out and "violations=0" in out

    def test_trivial_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--n-max", "0", "--ab-max", "1")
        assert code == 0
        assert "n=0" in out

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm3", "lemma1", "--n-max", "6", "--primes", "2..5",
            "--format", "json",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "verify", "thm5", "--n-max", "3", "--b-set", "2,3",
                           "--a-set", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["claim", "n", "parity", "m", "a", "b", "x", "p",
                           "predicted", "oracle", "verdict", "slack"]
        assert all(row[0] == "thm5" and row[10] == "exact" for row in rows[1:])

    def test_summary_only(self, capsys):
        code, out, _ = run(capsys, "verify", "cor1", "--n-max", "50", "--summary-only")
        assert code == 0
        assert all(line.startswith("[") for line in out.strip().splitlines())

    def test_unknown_claim_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "thm1", "--n-max", "-3")
        assert code == 2

    def test_injected_violation_exit_1(self, capsys, monkeypatch):
        import valuata.theorems as theorems

        bad = harness.ReportBatch("thm3", theorems.KIND_EXACT, (), range(0, 1), ("even",), [1], [0])
        runner = theorems.RUNNERS["thm3"]
        monkeypatch.setitem(
            theorems.RUNNERS, "thm3", dataclasses.replace(runner, items=lambda grid: [{}], run=lambda: [bad])
        )
        code, out, _ = run(capsys, "verify", "thm3")
        assert code == 1 and "violation" in out

    def test_orders_below_two_exit_2(self, capsys):
        for text in ("0", "1", "3,0"):
            code, out, err = run(capsys, "verify", "thm2", "--m-set", text, "--n-max", "1", "--ab-max", "2")
            assert (code, out) == (2, "")
            assert err == f"error: --m-set takes orders m >= 2, got {text}\n"
        code, out, _ = run(capsys, "verify", "thm2", "--m-set", "2,3", "--n-max", "1", "--ab-max", "2")
        assert code == 0 and "[thm2] checked=16 violations=0" in out

    def test_bad_job_counts_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "thm3", "--n-max", "4", "--jobs", "0")
        assert (code, out) == (2, "") and err == "error: --jobs must be at least 1, got 0\n"

    def test_primes_range_honours_lower_bound(self, capsys):
        code, out, _ = run(
            capsys, "verify", "lemma1", "--n-max", "1", "--primes", "50..53", "--format", "json"
        )
        assert code == 0
        objs = [json.loads(line) for line in out.splitlines()]
        assert len(objs) == 8 and {obj["instance"]["p"] for obj in objs} == {53}
        code, out, _ = run(capsys, "verify", "lemma1", "--n-max", "1", "--primes", "50..53", "--summary-only")
        assert code == 0 and "[lemma1] checked=2 violations=0" in out.splitlines()

    def test_primes_bound_and_full_range_agree(self, capsys):
        args = ("verify", "lemma1", "--n-max", "2", "--format", "json")
        outputs = [run(capsys, *args, *extra) for extra in ((), ("--primes", "97"), ("--primes", "2..97"))]
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_bad_primes_range_exits_2(self, capsys):
        for text in ("53..50", "1..50", "0..5", "-5"):
            code, out, err = run(capsys, "verify", "lemma1", "--n-max", "1", "--primes", text)
            assert (code, out) == (2, "") and err.startswith("error: --primes")
        assert err == "error: --primes must be non-negative, got -5\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_output_is_the_same_at_any_job_count(self, capsys, monkeypatch, fmt):
        import valuata.theorems as theorems

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_FORK_MIN_S", 0)  # fork after the first item
        args = ("verify", "all", "--n-max", "8", "--ab-max", "6", "--primes", "7", "--format", fmt)
        serial = run(capsys, *args, "--jobs", "1")
        assert serial[0] == 0 and serial[1]
        assert run(capsys, *args, "--jobs", "2") == serial

        # an injected violation in the fourth thm5 item stops both at the same report
        runner = theorems.RUNNERS["thm5"]
        items = runner.items(theorems.HarnessGrid(n_max=8, ab_max=6, prime_max=7))

        def violating_run(**kw):
            batches = runner.run(**kw)
            if kw == items[3]:
                batches[0].predicted[0] += 1  # n = 0, even: one above the oracle's 0
            return batches

        monkeypatch.setitem(theorems.RUNNERS, "thm5", dataclasses.replace(runner, run=violating_run))
        serial = run(capsys, *args, "--fail-fast", "--jobs", "1")
        summary = serial[1] + serial[2]
        assert serial[0] == 1 and "[thm5]" in summary and "[thm6]" not in summary
        assert run(capsys, *args, "--fail-fast", "--jobs", "2") == serial


_SMALL_GRID = ("--n-max", "2", "--ab-max", "3", "--primes", "5", "--summary-only")


def _summary_claims(out: str) -> list[str]:
    return [line[1 : line.index("]")] for line in out.splitlines()]


class TestSelectors:
    """A selector is a runner, a claim a runner reports, or the sequence of a table claim."""

    def test_every_reported_claim_and_routed_sequence_is_a_selector(self, capsys):
        code, out, _ = run(capsys, "verify", "all", *_SMALL_GRID)
        claims = _summary_claims(out)
        assert code == 0 and len(claims) == 17
        routes = {claim.sequence: claim.name for claim in CLAIMS.values() if claim.sequence}
        for selector, claim in [(claim, claim) for claim in claims] + sorted(routes.items()):
            code, out, err = run(capsys, "verify", selector.upper(), *_SMALL_GRID)
            assert (code, err) == (0, "") and claim in _summary_claims(out), selector

    @pytest.mark.parametrize("selector, runner", [
        ("remark2", "cor1"), ("popcount", "cor1"), ("schroder", "thm4"), ("delannoy", "thm3"),
        ("franel", "cor2"), ("legendre", "cor3"), ("trinomial", "thm5"), ("motzkin", "thm6"),
    ])
    def test_paper_names_select_their_runner(self, capsys, selector, runner):
        assert run(capsys, "verify", selector, *_SMALL_GRID) == run(capsys, "verify", runner, *_SMALL_GRID)

    def test_unknown_selector_message(self, capsys):
        assert run(capsys, "verify", "thm1", "Nope", *_SMALL_GRID) == (
            2, "", "error: unknown claim selector 'Nope'\n"
        )


class TestGridValues:
    def test_repeated_values_give_the_bytes_of_the_distinct_ones(self, capsys):
        base = ("--n-max", "2", "--ab-max", "2", "--format", "json")
        for selector, repeated, distinct in [
            ("thm2", ("--m-set", "3,4,3,3"), ("--m-set", "3,4")),
            ("thm5", ("--a-set", "1,2,1", "--b-set", "3,3,-5,3"), ("--a-set", "1,2", "--b-set", "3,-5")),
            ("cor3", ("--x-set", "5,3,5,-3,3"), ("--x-set", "5,3,-3")),
        ]:
            once = run(capsys, "verify", selector, *base, *distinct)
            assert once[0] == 0 and once[1]
            assert run(capsys, "verify", selector, *base, *repeated) == once, selector
        grid = HarnessGrid(n_max=2, ab_max=2, m_values=(3, 3), a_values=(1, 1), b_values=(2, 2), x_values=(3, 3))
        once = HarnessGrid(n_max=2, ab_max=2, m_values=(3,), a_values=(1,), b_values=(2,), x_values=(3,))
        assert run_harness(["all"], grid).reports == run_harness(["all"], once).reports

    def test_a_list_may_start_negative_as_a_separate_argument(self, capsys):
        assert run(capsys, "verify", "thm5", "--n-max", "2", "--a-set", "-2,1") == run(
            capsys, "verify", "thm5", "--n-max", "2", "--a-set=-2,1"
        )
        base = ("--n-max", "2", "--ab-max", "2", "--format", "json")
        for selector, option, values, code in [
            ("thm5", "--a-set", "-2,1", 0),
            ("thm6", "--b-set", "-3,5,-3", 0),
            ("cor3", "--x-set", "-3,5", 0),
            ("thm2", "--m-set", "-1,3", 2),
        ]:
            joined = run_or_exit(capsys, "verify", selector, *base, f"{option}={values}")
            assert joined[0] == code and (joined[1] if code == 0 else joined[2])
            assert run_or_exit(capsys, "verify", selector, *base, option, values) == joined, option

    @pytest.mark.parametrize("argv, runner", [
        (("thm1", "--ab-max", "0"), "thm1"),
        (("thm2", "--ab-max", "0"), "thm2"),
        (("lemma1", "--primes", "1"), "lemma1"),
        (("thm5", "--b-set", "1,-1,0"), "thm5"),
        (("all", "--x-set", "4"), "cor3"),
        (("thm3", "thm6", "--a-set", "2", "--b-set", "4"), "thm6"),
    ])
    def test_a_runner_with_nothing_to_check_exits_2(self, capsys, argv, runner):
        code, out, err = run(capsys, "verify", *argv, "--n-max", "2")
        assert (code, out, err) == (2, "", f"error: the grid gives {runner} nothing to check\n")


class TestEmptyValues:
    """An option given with an empty value is read like any other value, and exits 2."""

    @pytest.mark.parametrize("argv, message", [
        (("verify", "thm2", "--n-max", "2", "--ab-max", "2", "--m-set="), "the grid gives thm2 nothing to check"),
        (("verify", "thm5", "--n-max", "2", "--a-set="), "the grid gives thm5 nothing to check"),
        (("verify", "thm5", "--n-max", "2", "--b-set="), "the grid gives thm5 nothing to check"),
        (("verify", "cor3", "--n-max", "2", "--x-set="), "the grid gives cor3 nothing to check"),
        (("verify", "lemma1", "--n-max", "2", "--primes="), "not an integer: ''"),
        (("seq", "delannoy", "0..3", "--valuation="), "not an integer: ''"),
        (("table", "delannoy", "0..3", "--valuation="), "not an integer: ''"),
        (("table", "delannoy", "0..3", "--output="), "cannot write --output : No such file or directory"),
        (("bench", "thm1", "--n=", "--fast-only"), "not an integer: ''"),
        (("bench", "thm1", "--a=", "--fast-only"), "not an integer: ''"),
        (("bench", "thm1", "--b=", "--fast-only"), "not an integer: ''"),
        (("bench", "vp-binom", "--n="), "not an integer: ''"),
        (("bench", "vp-binom", "--k="), "not an integer: ''"),
        (("bench", "vp-binom", "--p="), "not an integer: ''"),
        (("bench", "vp-binom", "--a="), "bench vp-binom does not take --a"),
    ])
    def test_exits_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


class TestOutOfMemory:
    def test_memory_exhaustion_exits_2(self):
        import resource

        limit = 400 * 2**20

        def lower_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "valuata", "seq", "delannoy", "0..1000000", "--valuation", "3"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            preexec_fn=lower_address_space,
            timeout=300,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: out of memory") and "Traceback" not in done.stderr


class TestOracleReach:
    """An oracle index past sys.maxsize exits 2 at once; a target with a fast route is pointed to it."""

    HUGE = str(10**23)

    def test_a_target_with_a_fast_route(self, capsys):
        for target in (["delannoy", self.HUGE], ["schroder", self.HUGE], ["B", self.HUGE, "2", "1", "2"]):
            code, out, err = run(capsys, "omega", "3", *target)
            assert (code, out) == (2, "") and err.startswith("error: ") and err.endswith("; use --mode fast\n")
            assert "value streams end at sys.maxsize - 1" in err

    def test_a_target_without_one(self, capsys):
        for target in (["catalan", self.HUGE], ["multinomial", self.HUGE, "3"], ["B", self.HUGE, "3", "1", "2"]):
            code, out, err = run(capsys, "omega", "3", *target)
            assert (code, out) == (2, "") and err.startswith("error: C(") and "--mode fast" not in err
            assert f"min(k, n - k) exceeds sys.maxsize = {sys.maxsize}" in err
        code, out, err = run(capsys, "seq", "delannoy", f"{self.HUGE}..{self.HUGE}")
        assert (code, out) == (2, "")
        assert err == f"error: index {self.HUGE} is past the oracle's reach: value streams end at sys.maxsize - 1\n"

    def test_a_binomial_with_a_small_lower_index_still_answers(self, capsys):
        assert run(capsys, "omega", "3", "binom", self.HUGE, "3") == (0, f"omega_3(binom({self.HUGE},3)) = 1\n", "")


class TestPinnedVerifyOutput:
    """The stdout bytes of a small `verify all`, pinned per format and job count."""

    ARGS = ("verify", "all", "--n-max", "12", "--ab-max", "5", "--primes", "13")
    SHA256 = {
        "json": "2d0b3c84b1e907b2319ad320a0adf25ee5c4a98138bc144e812c56b1707d722e",
        "csv": "2920af64c983894db80c18c99f9fb320daf83c11eba7afb925a725ae59b2f3e6",
        "human": "8220b09605d3c8e89ffd4621c750f5c0507325afb45f2fca1b5ec429f709500f",
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_stdout_sha256(self, capsys, monkeypatch, fmt, jobs):
        code, out, _ = run(capsys, *self.ARGS, "--format", fmt, "--jobs", jobs)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[fmt]


class TestPinnedThm2Output:
    """The stdout bytes of a thm2 sweep over three orders, pinned per format."""

    ARGS = ("verify", "thm2", "--n-max", "40", "--ab-max", "8", "--m-set", "3,4,5")
    SHA256 = {
        "json": "82591b13e3637198c32fb9cfb97712f84168bbcfc15db8d7ec69a1ef736b81dd",
        "csv": "dd990c12304da3c50d8a704d2faa5e130aca94d6720b988210c259682dd3215b",
        "human": "df3f8b977dc25ba945084985db8d2c8eed35eb6d0556e8d76730dfafa1aa8df5",
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_stdout_sha256(self, capsys, monkeypatch, fmt):
        code, out, err = run(capsys, *self.ARGS, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[fmt]
        assert err == ("" if fmt == "human" else "[thm2] checked=5412 violations=0\n")


class TestOutputOptions:
    """Each command takes only the output options it reads; the others exit 2 in argparse."""

    @pytest.mark.parametrize("argv", [
        ("omega", "3", "9", "--format", "csv"),
        ("vp", "3", "9", "--format", "csv"),
        ("omega", "3", "9", "--digits", "2"),
        ("vp", "3", "9", "--digits", "2"),
        ("verify", "thm3", "--n-max", "2", "--digits", "2"),
        ("table", "delannoy", "0..3", "--digits", "2"),
        ("table", "delannoy", "0..3", "--format", "json"),
    ])
    def test_unread_options_exit_2(self, capsys, argv):
        code, out, err = run_or_exit(capsys, *argv)
        assert (code, out) == (2, "") and "error:" in err


class TestBench:
    def test_thm1_with_oracle(self, capsys):
        code, out, _ = run(capsys, "bench", "thm1", "--n", "30", "--a", "1", "--b", "2")
        assert code == 0 and out.count("agree") == 2

    def test_thm1_fast_only_huge(self, capsys):
        code, out, _ = run(capsys, "bench", "thm1", "--n", "1e15", "--fast-only")
        assert code == 0 and "fast-only" in out

    def test_vp_binom_fast_only(self, capsys):
        code, out, _ = run(capsys, "bench", "vp-binom", "--n", "1e18", "--p", "3", "--fast-only")
        assert code == 0 and "v_p=" in out

    def test_vp_binom_beyond_oracle_reach_completes(self, capsys):
        code, out, _ = run(capsys, "bench", "vp-binom", "--n", "1e18", "--p", "3")
        assert code == 0 and "oracle skipped" in out

    def test_vp_binom_with_oracle(self, capsys):
        code, out, _ = run(capsys, "bench", "vp-binom", "--n", "2000", "--k", "1000", "--p", "3")
        assert code == 0 and "agree" in out

    def test_unknown_scenario_exit_2(self, capsys):
        code, _, err = run(capsys, "bench", "fibonacci")
        assert code == 2

    @pytest.mark.parametrize("argv, unread", [
        (("thm1", "--k", "5", "--p", "7"), "--k, --p"),
        (("thm1", "--n", "30", "--p", "7", "--fast-only"), "--p"),
        (("vp-binom", "--a", "3"), "--a"),
        (("vp-binom", "--n", "10", "--a", "1", "--b", "2", "--fast-only"), "--a, --b"),
    ])
    def test_options_the_scenario_does_not_read_exit_2(self, capsys, argv, unread):
        assert run(capsys, "bench", *argv) == (2, "", f"error: bench {argv[0]} does not take {unread}\n")

    def test_binom_past_the_kernel_range_names_n(self, capsys):
        expected = (2, "", "error: n exceeds the 64-bit kernel range: 300000000000000000000\n")
        assert run(capsys, "vp", "3", "binom", "3e20", "1e20", "--mode", "fast") == expected
        assert run(capsys, "bench", "vp-binom", "--n", "3e20", "--fast-only") == expected

    def test_vp_binom_k_past_n_exits_2(self, capsys):
        # the same message as the binom target of omega/vp
        code, out, err = run(capsys, "bench", "vp-binom", "--n", "5", "--k", "9")
        assert (code, out) == (2, "") and err == "error: need 0 <= k <= n, got n=5, k=9\n"
        assert run(capsys, "vp", "3", "binom", "5", "9")[2] == err


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2 and "usage" in out.lower()

    def test_scientific_notation_parsing(self):
        assert cli._parse_int("1e15") == 10**15
        assert cli._parse_int("1e18") == 10**18
        with pytest.raises(cli.UsageError):
            cli._parse_int("1.5")
        with pytest.raises(cli.UsageError):
            cli._parse_int("abc")

    def test_scientific_notation_is_exact(self):
        assert cli._parse_int("1e23") == 10**23  # a float would give 99999999999999991611392
        assert cli._parse_int("-2.5e3") == -2500
        assert cli._parse_int("150e-1") == 15
        assert cli._parse_int("12345678901234567e10") == 12345678901234567 * 10**10
        for text in ("1.5e0", "15e-1", "1e-3", "inf", "nan", "1e", "1e99999"):
            with pytest.raises(cli.UsageError):
                cli._parse_int(text)

    def test_long_decimals_read_in_halves(self):
        rng = random.Random(7)
        for digits in (cli._SPLIT_DIGITS, cli._SPLIT_DIGITS + 1, 3 * cli._SPLIT_DIGITS + 5, 60_000):
            text = "".join(rng.choice("0123456789") for _ in range(digits))
            value = 0  # Horner over 1000-digit chunks, each within int()'s default digit limit
            for i in range(0, digits, 1000):
                value = value * 10 ** len(text[i : i + 1000]) + int(text[i : i + 1000])
            assert cli._parse_int(text) == cli._parse_int("+00" + text) == value
            assert cli._parse_int("-" + text) == -value
        # Underscores, spaces and other digits still go to int(), which accepts them.
        long = "7" * (cli._SPLIT_DIGITS + 10)
        for literal in (long + "_1", f" {long}\n", long + "\u0663"):
            assert cli._parse_int(literal) == int(literal)
        with pytest.raises(cli.UsageError):
            cli._parse_int(long + "x")

    def test_exact_scientific_target(self, capsys):
        code, out, _ = run(capsys, "omega", "10", "1e23")
        assert code == 0 and out == "omega_10(100000000000000000000000) = 23\n"


class TestArgumentGrammar:
    """Every integer argument, positional or option, may be negative and may use the shorthand."""

    def test_a_negative_shorthand_weight(self, capsys):
        expected = (0, "omega_3(trinomial(4, 1, -20)) = 0\n", "")
        assert run(capsys, "omega", "3", "trinomial", "4", "1", "-2e1") == expected
        assert run(capsys, "omega", "3", "trinomial", "4", "1", "-20") == expected

    def test_a_negative_shorthand_base(self, capsys):
        assert run(capsys, "omega", "-3e0", "delannoy", "5") == (0, "omega_-3(delannoy(5)) = 2\n", "")

    def test_a_negative_shorthand_weight_of_vp(self, capsys):
        assert run(capsys, "vp", "3", "B", "5", "2", "-1e0", "4") == (0, "omega_3(B(5,2,-1,4)) = 2\n", "")

    def test_a_negative_shorthand_bench_option(self, capsys):
        code, out, _ = run(capsys, "bench", "thm1", "--a", "-1e0", "--b", "3", "--n", "5")
        assert code == 0 and out.startswith("scenario=thm1 n=5 a=-1 b=3\n") and out.count("| agree") == 2

    def test_a_negative_shorthand_verify_option(self, capsys):
        assert run(capsys, "verify", "thm1", "--n-max", "-1e0") == (2, "", "error: --n-max must be non-negative\n")

    def test_jobs_and_digits_take_the_shorthand(self, capsys):
        args = ("verify", "thm5", "--n-max", "3", "--ab-max", "3", "--format", "json")
        assert run(capsys, *args, "--jobs", "2e0") == run(capsys, *args, "--jobs", "2")
        assert run(capsys, "seq", "delannoy", "0..3", "--digits", "1e0") == run(
            capsys, "seq", "delannoy", "0..3", "--digits", "1"
        )
        assert run(capsys, "verify", "thm3", "--n-max", "2", "--jobs", "x") == (2, "", "error: not an integer: 'x'\n")
        assert run(capsys, "seq", "delannoy", "0..3", "--digits", "x") == (2, "", "error: not an integer: 'x'\n")

    def test_omega_and_vp_have_the_same_arguments(self, capsys):
        helps = []
        for command in ("omega", "vp"):
            with pytest.raises(SystemExit):
                main([command, "-h"])
            helps.append(capsys.readouterr().out.split("positional arguments:")[1])
        assert helps[0] == helps[1] and "per-prime breakdown" in helps[0]


_DIGITS = st.text("0123456789", min_size=1, max_size=40)
_SIGNS = st.sampled_from(["", "+", "-"])
_PLAIN = st.builds(
    lambda sign, zeros, digits: sign + "0" * zeros + digits, _SIGNS, st.integers(0, 3), _DIGITS
)
_PADS = st.sampled_from(["", " ", "\t", "\n"])
_LITERALS = st.one_of(
    _PLAIN,
    st.sampled_from(["0", "-0", "+0", "-000", "007", "-007"]),
    st.builds(lambda sign, x, y: f"{sign}{x}_{y}", _SIGNS, _DIGITS, _DIGITS),
    st.builds(lambda pad, text, tail: pad + text + tail, _PADS, _PLAIN, _PADS),
    st.builds(lambda sign, digits, exp: f"{sign}{digits}e{exp}", _SIGNS, _DIGITS, st.integers(-5, 30)),
)


class TestLiteralLabel:
    @given(_LITERALS)
    def test_label_equals_decimal_round_trip(self, text):
        try:
            value = cli._parse_int(text)
        except cli.UsageError:
            with pytest.raises(cli.UsageError):
                cli._parse_target([text])
            return
        assert cli._parse_target([text]).label == str(value)


class TestParserCache:
    CALL_PAIRS = [
        (("omega", "99", "binom", "40", "20", "--explain"), ("omega", "99", "binom", "40", "20")),
        (("omega", "99", "binom", "40", "20", "--format", "json"), ("omega", "99", "binom", "40", "20")),
        (("omega", "99", "--mode", "nonsense", "5"), ("omega", "99", "5")),
        (("verify", "thm3", "--jobs", "two"), ("verify", "thm3", "--n-max", "3")),
    ]

    def test_consecutive_calls_match_fresh_ones(self, capsys):
        for first, second in self.CALL_PAIRS:
            fresh = []
            for argv in (first, second):
                cli.build_parser.cache_clear()
                fresh.append(run_or_exit(capsys, *argv))
            cli.build_parser.cache_clear()
            consecutive = [run_or_exit(capsys, *argv) for argv in (first, second)]
            assert consecutive == fresh
        assert fresh[0][0] == 2 and fresh[1][0] == 0

    def test_import_builds_no_parser(self):
        code = "import valuata.cli as c; print(c.build_parser.cache_info().currsize)"
        assert _fresh_python(code) == "0\n"

    def test_import_loads_no_multiprocessing(self):
        # multiprocessing is loaded by a sweep that forks, fractions (and with
        # it decimal) by legendre_rational, csv by the CSV output paths.
        lazy = ("multiprocessing", "fractions", "decimal", "csv")
        code = f"import sys, valuata.cli; print([m for m in {lazy!r} if m in sys.modules])"
        assert _fresh_python(code) == "[]\n"


def _fresh_python(code: str) -> str:
    """The stdout of `code` run in a new interpreter that imports this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


# Argument vectors for the exit-code contract.  Every value that gets built
# has a small index: wide numbers go only where nothing of that size is
# built (literals, and indices on the fast route), because an oracle query
# at a huge index has no bound on its cost.
_SMALL = st.integers(-3, 30).map(str)
_TOKEN = st.one_of(
    _SMALL, _SMALL, st.sampled_from(["x", "", "1e2", "-0", "007", "1.5", "2..1", "1_0", "-2e1", "-1.5e1", "-0e0"])
)
_WIDE = st.integers(-(2**80), 2**80).map(str)
_ORDER = st.one_of(st.integers(-3, 4).map(str), _TOKEN)  # B/bsum order m, negatives included
_FLAGS = st.lists(
    st.sampled_from([["--format", "json"], ["--format", "csv"], ["--digits", "2"], ["--digits", "0"], ["--digits", "-1"]]),
    max_size=2,
)


def _params(name):
    """Mostly the sequence's own number of parameters, sometimes another."""
    arity = len(SEQUENCES[name].params) if name in SEQUENCES else 0
    own = st.lists(_TOKEN, min_size=arity, max_size=arity)
    if name == "bsum":
        own = st.tuples(_ORDER, _TOKEN, _TOKEN).map(list)
    return st.one_of(own, st.lists(_TOKEN, max_size=3))


def _target(index):
    return st.one_of(
        st.one_of(_WIDE, _TOKEN).map(lambda literal: [literal]),
        st.tuples(st.sampled_from(["B", "bsum"]), index, _ORDER, _TOKEN, _TOKEN).map(list),
        st.tuples(st.just("binom"), index, index).map(list),
        st.sampled_from(sorted(SEQUENCES)).flatmap(
            lambda name: st.tuples(st.just([name]), index.map(lambda n: [n]), _params(name))
        ).map(lambda parts: sum(parts, [])),
        st.lists(_TOKEN, max_size=3),
    )


def _query(mode, index):
    return st.tuples(
        st.sampled_from(["omega", "vp"]),
        st.one_of(st.sampled_from(["2", "3", "5", "97"]), st.sampled_from(["6", "99", "-4", "0", "1", "x"]), _WIDE),
        _target(index),
        st.lists(st.sampled_from([["--explain"], ["--format", "json"]]), max_size=2),
    ).map(lambda t: [t[0], t[1], *t[2], "--mode", mode, *sum(t[3], [])])


_QUERIES = st.one_of(
    _query("fast", st.one_of(_TOKEN, _WIDE)),
    _query("oracle", _TOKEN),
    _query("both", _TOKEN),
)

_RANGES = st.one_of(_TOKEN, st.tuples(_SMALL, _SMALL).map("..".join))
_NAMES = st.one_of(st.sampled_from(sorted(SEQUENCES) + ["nope"]), st.just("bsum"))
_VALUATION = st.sampled_from([[], ["--valuation", "3"], ["--valuation", "4"], ["--valuation", "x"], ["--valuation="]])
_SEQS = _NAMES.flatmap(
    lambda name: st.tuples(st.just(["seq", name]), _RANGES.map(lambda r: [r]), _params(name), _VALUATION, _FLAGS)
).map(lambda parts: sum(parts[:4], []) + sum(parts[4], []))
_TABLES = _NAMES.flatmap(
    lambda name: st.tuples(
        st.just(["table", name]),
        _RANGES.map(lambda r: [r]),
        _params(name),
        _VALUATION,
        st.sampled_from([[], ["--output", os.devnull], ["--output", "/nonexistent/dir/x.csv"], ["--output="]]),
    )
).map(lambda parts: sum(parts, []))
# Grid value sets with repeated, negative and unordered values, and empty
# ones, as one `--option=values` token or as two arguments.
_INT_SET = st.lists(st.integers(-6, 6), max_size=6).map(lambda vs: ",".join(map(str, vs)))
_ORDER_SET = st.lists(st.integers(-1, 5), max_size=5).map(lambda vs: ",".join(map(str, vs)))
_GRID_SETS = st.tuples(
    st.one_of(
        st.tuples(st.just("--m-set"), _ORDER_SET),
        st.tuples(st.sampled_from(["--a-set", "--b-set", "--x-set"]), _INT_SET),
    ),
    st.booleans(),
).map(lambda t: ["=".join(t[0])] if t[1] else list(t[0]))
# --n-max and --ab-max are always given and small: the default grids take minutes.
_VERIFIES = st.tuples(
    st.lists(st.sampled_from(sorted(RUNNERS) + ["all", "nope"]), max_size=2),
    st.integers(-1, 4).map(str),
    st.integers(-1, 4).map(str),
    st.lists(
        st.one_of(
            st.sampled_from([
                ["--m-set", "0"], ["--m-set", "3,0"], ["--m-set", "2,4"], ["--m-set", "x"],
                ["--a-set", "0,1"], ["--b-set", "-2,0"], ["--x-set", "0,3"], ["--x-set", "2"],
                ["--primes", "5..2"], ["--primes", "-1"], ["--primes="], ["--exact-max", "-2"], ["--exact-max", "3"],
                ["--jobs", "0"], ["--jobs", "x"], ["--fail-fast"], ["--summary-only"],
                ["--format", "csv"], ["--format", "json"],
            ]),
            _GRID_SETS,
        ),
        max_size=4,
    ),
).map(lambda t: ["verify", *t[0], "--n-max", t[1], "--ab-max", t[2], "--primes", "13", *sum(t[3], [])])


_SUMMARY_LINE = re.compile(r"\[([^]]+)\] checked=([0-9]+) violations=[0-9]+")
# The primes that --primes 13 gives lemma1.
_PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def _distinct_grid_points(argv: list[str]) -> dict[str, int]:
    """Reports per claim of a clean verify run: one per distinct grid point, from the arguments alone."""
    selectors, options = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("--fail-fast", "--summary-only"):
            continue
        if token.startswith("--"):
            key, sep, value = token.partition("=")
            options[key] = value if sep else next(tokens)  # the last occurrence wins, as in argparse
        else:
            selectors.append(token)

    def values(option: str, default: tuple[int, ...]) -> set[int]:
        return {int(v) for v in options[option].split(",") if v} if option in options else set(default)

    grid = HarnessGrid()
    rows, ab_max = int(options["--n-max"]) + 1, int(options["--ab-max"])
    a_values, b_values = values("--a-set", grid.a_values), values("--b-set", grid.b_values)
    pairs = [(a, b) for b in range(1, ab_max + 1) for a in range(1, b + 1) if math.gcd(a, b) == 1]
    signed = [(a, b) for a in a_values for b in b_values if b not in (0, 1, -1) and math.gcd(a, b) == 1]
    odd = [x for x in values("--x-set", grid.x_values) if x % 2 and x not in (1, -1)]
    per_runner = {
        "thm1": {"thm1": 2 * rows * len(pairs)},
        "thm2": {"thm2": 2 * rows * len(pairs) * len(values("--m-set", grid.m_values))},
        "cor1": {"cor1": 2 * rows, "popcount": rows},
        "cor2": {"cor2": 2 * rows},
        "thm3": {"thm3": 2 * rows},
        "thm4": {"thm4": 2 * rows, "little-schroder": 2 * rows},
        "cor3": {"cor3": 2 * rows * len(odd)},
        "thm5": {"thm5": 2 * rows * len(signed)},
        "thm6": {"thm6": 2 * rows * len(signed)},
        "lemma1": {
            "lemma1": rows * len(_PRIMES_TO_13),
            "multinomial-valuation": rows * len(_PRIMES_TO_13),
            "multinomial-bound": rows * len(_PRIMES_TO_13),
            "shifted-product-bound": rows * (len(_PRIMES_TO_13) - 1),
        },
        "remarks": {"hexagonal": 2 * rows, "catalan-shift": 2 * rows},
    }
    runners = per_runner if not selectors or "all" in selectors else selectors
    return {claim: count for runner in runners for claim, count in per_runner[runner].items()}


_INTEGER = re.compile(r"-?[0-9]+")
_ABBREVIATED = re.compile(r"(-?[0-9]+)\.\.\.([0-9]+) \(([0-9]+) digits\)")  # --digits


def _integer_cell(cell: str) -> bool:
    abbreviated = _ABBREVIATED.fullmatch(cell)
    if abbreviated:  # shows fewer characters of the value than it has
        lead, tail, length = abbreviated.groups()
        return len(lead) + len(tail) < int(length)
    return bool(_INTEGER.fullmatch(cell)) or cell == "inf"


def _non_integer_values(argv: list[str], out: str) -> list:
    """The values in a successful seq/table output or omega/vp JSON line that are not integers."""
    command = argv[0]
    formats = [argv[i + 1] for i in range(len(argv) - 1) if argv[i] == "--format"]
    fmt = formats[-1] if formats else "csv" if command == "table" else "human"
    if fmt == "json" and command in ("seq", "omega", "vp"):
        objs = [json.loads(line) for line in out.splitlines()]
        values = [v for obj in objs for k, v in obj.items() if command == "seq" or k == "omega"]
        return [v for v in values if not (type(v) is int or v == "inf")]
    if command not in ("seq", "table"):
        return []
    if fmt == "csv":
        cells = [cell for row in list(csv.reader(io.StringIO(out)))[1:] for cell in row]
    else:
        cells = [cell for line in out.splitlines() for cell in line.split("\t")]
    return [cell for cell in cells if not _integer_cell(cell)]


class TestExitCodeContract:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_QUERIES, _SEQS, _TABLES, _VERIFIES))
    @example(["seq", "bsum", "0..3", "-1", "1", "2"])
    @example(["table", "bsum", "0..3", "-2", "1", "2"])
    @example(["omega", "3", "B", "4", "-2", "3", "5", "--mode", "oracle", "--format", "json"])
    @example(["seq", "delannoy", "0..30", "--digits", "0"])
    @example(["seq", "delannoy", "0..3", "--digits", "-1"])
    @example(["omega", "3", "delannoy", "11", "--mode", "fast", "--explain", "--format", "json"])
    @example([
        "verify", "thm2", "thm5", "--n-max", "2", "--ab-max", "3", "--primes", "13",
        "--m-set", "4,3,4", "--a-set=-2,1,-2,5", "--b-set=5,-3,5",
    ])
    @example(["verify", "cor3", "--n-max", "1", "--ab-max", "0", "--primes", "13", "--x-set=-3,5,-3,1,2"])
    @example(["verify", "thm5", "--n-max", "2", "--ab-max", "3", "--primes", "13", "--a-set="])
    @example(["verify", "thm3", "--n-max", "2", "--ab-max", "3", "--primes", "13", "--b-set", ""])
    @example([
        "verify", "thm5", "--n-max", "2", "--ab-max", "3", "--primes", "13",
        "--a-set", "-2,1", "--b-set", "-3,5,-3",
    ])
    @example(["omega", "3", "catalan", str(10**23)])
    @example(["omega", "3", "multinomial", str(10**23), "3"])
    @example(["omega", "3", "B", str(10**23), "3", "1", "2"])
    @example(["omega", "3", "delannoy", str(10**23)])
    @example(["omega", "3", "schroder", str(10**23)])
    @example(["seq", "delannoy", f"{10**23}..{10**23}"])
    def test_exit_code_matches_the_outcome(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        # every option drawn carries its value, and every token that starts with `-` and a digit is a value
        assert "expected one argument" not in err
        assert not re.search(r"unrecognized arguments: (.* )?-[0-9]", err)
        if code == 1:
            assert re.search(r"violations=[1-9]", out + err) or err.startswith("DISAGREEMENT")
        if code == 0:
            assert _non_integer_values(argv, out) == []
        if code == 0 and argv[0] == "verify":
            checked = {m.group(1): int(m.group(2)) for m in map(_SUMMARY_LINE.fullmatch, (out + err).splitlines()) if m}
            assert checked == _distinct_grid_points(argv)
