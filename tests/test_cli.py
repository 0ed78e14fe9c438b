import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import valuata.cli as cli
from valuata.cli import main


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
        code, _, err = run(capsys, "omega", "3", "delannoy", "3", "--mode", "fast")
        assert code == 2 and "fast" in err

    def test_fast_mode_wrong_order_exits_2(self, capsys):
        code, _, err = run(capsys, "omega", "99", "B", "10", "3", "37", "62", "--mode", "fast")
        assert code == 2

    def test_fast_mode_base_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "omega", "11", "B", "10", "2", "37", "62", "--mode", "fast")
        assert code == 2

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_bsum_fast_omega", lambda tokens, base: 99)
        code, _, err = run(capsys, "omega", "99", "B", "10", "2", "37", "62", "--mode", "both")
        assert code == 1 and "DISAGREEMENT" in err

    def test_negative_base(self, capsys):
        code, out, _ = run(capsys, "omega", "-3", "delannoy", "3")
        assert code == 0 and "= 2" in out

    def test_negative_sequence_index_exits_2(self, capsys):
        code, out, err = run(capsys, "omega", "6", "delannoy", "-3")
        assert (code, out, err) == (2, "", "error: n must be non-negative, got -3\n")


class TestVp:
    def test_prime_base(self, capsys):
        code, out, _ = run(capsys, "vp", "3", "binom", "4046", "2023", "--mode", "both")
        assert code == 0 and "= 5" in out

    def test_composite_base_rejected(self, capsys):
        code, _, err = run(capsys, "vp", "6", "binom", "10", "5")
        assert code == 2 and "prime" in err


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

    def test_parametrized_sequence(self, capsys):
        code, out, _ = run(capsys, "seq", "trinomial", "0..4", "1", "1")
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert code == 0 and [r[1] for r in rows] == ["1", "1", "3", "7", "19"]

    @pytest.mark.parametrize("name", ["schroder", "little-schroder"])
    def test_schroder_table_gives_pointwise_bytes(self, capsys, monkeypatch, name):
        formats = [("--format", fmt) for fmt in ("human", "json", "csv")] + [("--valuation", "3")]
        with_table = [run(capsys, "seq", name, "1..60", *extra) for extra in formats]
        assert cli.SEQUENCES[name].table is not None
        monkeypatch.setitem(cli.SEQUENCES, name, dataclasses.replace(cli.SEQUENCES[name], table=None))
        pointwise = [run(capsys, "seq", name, "1..60", *extra) for extra in formats]
        assert with_table == pointwise and all(code == 0 and out for code, out, _ in pointwise)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "seq", "schroder", "0..3")
        assert code == 2 and "index 1" in err

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

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "seq", "catalan", "2..3", "--format", "json")
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and objs == [{"n": 2, "value": 2}, {"n": 3, "value": 5}]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "seq", "catalan", "0..2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and rows[0] == ["n", "value"] and rows[3] == ["2", "2"]


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

        bad = theorems.TheoremReport(
            "thm3", (("n", 0), ("parity", "even")), 1, 0, theorems.KIND_EXACT
        )
        runner = theorems.RUNNERS["thm3"]
        monkeypatch.setitem(
            theorems.RUNNERS,
            "thm3",
            theorems.ClaimRunner(
                runner.name, runner.claims, runner.description,
                lambda grid: [{}], lambda: [bad],
            ),
        )
        code, out, _ = run(capsys, "verify", "thm3")
        assert code == 1 and "violation" in out

    def test_jobs_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("VALUATA_JOBS", "2")
        code, out, _ = run(capsys, "verify", "thm3", "--n-max", "4")
        assert code == 0

    def test_bad_job_counts_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("VALUATA_JOBS", raising=False)
        code, out, err = run(capsys, "verify", "thm3", "--n-max", "4", "--jobs", "0")
        assert (code, out) == (2, "") and err == "error: --jobs must be at least 1, got 0\n"
        for value in ("x", "0"):
            monkeypatch.setenv("VALUATA_JOBS", value)
            code, out, err = run(capsys, "verify", "thm3", "--n-max", "4")
            assert (code, out) == (2, "")
            assert err == f"error: VALUATA_JOBS must be a positive integer, got {value!r}\n"

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

        monkeypatch.delenv("VALUATA_JOBS", raising=False)
        monkeypatch.setattr(theorems, "_usable_cpus", lambda: 2)
        args = ("verify", "all", "--n-max", "8", "--ab-max", "6", "--primes", "7", "--format", fmt)
        serial = run(capsys, *args, "--jobs", "1")
        assert serial[0] == 0 and serial[1]
        assert run(capsys, *args, "--jobs", "2") == serial

        # an injected violation in the fourth thm5 item stops both at the same report
        runner = theorems.RUNNERS["thm5"]
        items = runner.items(theorems.HarnessGrid(n_max=8, ab_max=6, prime_max=7))
        bad = theorems.TheoremReport("thm5", (("n", -1),), 1, 0, theorems.KIND_EXACT)
        monkeypatch.setitem(
            theorems.RUNNERS,
            "thm5",
            theorems.ClaimRunner(
                runner.name, runner.claims, runner.description, runner.items,
                lambda **kw: runner.run(**kw) + ([bad] if kw == items[3] else []),
            ),
        )
        serial = run(capsys, *args, "--fail-fast", "--jobs", "1")
        summary = serial[1] + serial[2]
        assert serial[0] == 1 and "[thm5]" in summary and "[thm6]" not in summary
        assert run(capsys, *args, "--fail-fast", "--jobs", "2") == serial


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

    def test_exact_scientific_target(self, capsys):
        code, out, _ = run(capsys, "omega", "10", "1e23")
        assert code == 0 and out == "omega_10(100000000000000000000000) = 23\n"


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
        src = Path(cli.__file__).resolve().parents[1]
        code = "import valuata.cli as c; print(c.build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"
