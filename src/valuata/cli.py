"""Command-line front end.

Single divisibility queries (`omega`, `vp`), sequence tables (`seq`,
`table`), claim verification sweeps (`verify`) and fast-vs-oracle timing
(`bench`).  Exit codes are a stable contract: 0 success, 1 mathematical
violation or path disagreement, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import time
from math import comb
from typing import Callable

from .digits import KernelRangeError, is_prime, kummer_carries
from .sequences import (
    SEQUENCES,
    DomainError,
    IntegralityError,
    bsum,
    eval_B,
)
from .theorems import (
    RUNNERS,
    HarnessGrid,
    HypothesisViolation,
    predict_bsum_omega,
    run_harness,
)
from .valuation import (
    INFINITE,
    InvalidBaseError,
    ZeroInputError,
    factorize,
    omega,
    vp_int,
)


class UsageError(ValueError):
    pass


_DECIMAL = re.compile(r"([+-]?)(\d+)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")
_PLAIN_DECIMAL = re.compile(r"([+-]?)([0-9]+)")
_MAX_EXPONENT = 4300  # Python's default limit on the digits of an int


def _parse_int(text: str) -> int:
    """Integer literal, allowing 1e15-style scientific shorthand.

    Decimal forms are parsed exactly, so 1e23 is 10**23, and rejected
    unless they name an integer: 1.5e1 is 15, 1.5e0 is an error.
    """
    try:
        return int(text)
    except ValueError:
        pass
    match = _DECIMAL.fullmatch(text.strip())
    if match is None:
        raise UsageError(f"not an integer: {text!r}")
    sign, whole, frac, exponent = match.groups()
    frac = frac or ""
    mantissa = int(whole + frac)
    shift = int(exponent or 0) - len(frac)
    if abs(shift) > _MAX_EXPONENT:
        raise UsageError(f"exponent out of range: {text!r}")
    if shift >= 0:
        value = mantissa * 10**shift
    else:
        value, rest = divmod(mantissa, 10**-shift)
        if rest:
            raise UsageError(f"not an integer: {text!r}")
    return -value if sign == "-" else value


def _literal_label(text: str, value: int) -> str:
    """str(value), read off the token's digits when it is a plain decimal.

    Converting a large int back to decimal costs more than parsing it did.
    """
    match = _PLAIN_DECIMAL.fullmatch(text)
    if match is None:
        return str(value)
    digits = match.group(2).lstrip("0") or "0"
    return "-" + digits if match.group(1) == "-" and digits != "0" else digits


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return _parse_int(lo), _parse_int(hi)
    n = _parse_int(text)
    return n, n


def _format_value(value: int, digits: int | None) -> str:
    text = str(value)
    if digits is None or len(text) <= 2 * digits + 3:
        return text
    return f"{text[:digits]}...{text[-digits:]} ({len(text)} digits)"


def _render_valuation(v) -> str:
    return "inf" if v is INFINITE else str(v)


# ---------------------------------------------------------------------------
# Target expressions: literal | B n m a b | binom n k | <sequence> idx [params]
# ---------------------------------------------------------------------------


class Target:
    """A query target: a label, a big-integer route and an optional fast route.

    The fast route maps a prime p to v_p of the target without building it.
    """

    def __init__(self, label: str, value_fn: Callable[[], int], fast_vp: Callable[[int], int] | None):
        self.label = label
        self.value_fn = value_fn
        self.fast_vp = fast_vp


def _parse_target(tokens: list[str]) -> Target:
    if not tokens:
        raise UsageError("missing target expression")
    head = tokens[0].lower()
    if len(tokens) == 1 and head not in SEQUENCES and head not in ("b", "bsum", "binom"):
        literal = _parse_int(tokens[0])
        return Target(_literal_label(tokens[0], literal), lambda: literal, None)
    if head in ("b", "bsum"):
        if len(tokens) != 5:
            raise UsageError("expected: B <n> <m> <a> <b>")
        n, m, a, b = (_parse_int(t) for t in tokens[1:])
        # The fast route for these targets yields the whole omega at once
        # rather than per-prime valuations; see _bsum_fast_omega.
        return Target(f"B({n},{m},{a},{b})", lambda: bsum(n, m, a, b), None)
    if head == "binom":
        if len(tokens) != 3:
            raise UsageError("expected: binom <n> <k>")
        n, k = _parse_int(tokens[1]), _parse_int(tokens[2])
        if not 0 <= k <= n:
            raise UsageError(f"need 0 <= k <= n, got n={n}, k={k}")

        def fast_vp(p: int) -> int:
            return kummer_carries(k, n - k, p)

        return Target(f"binom({n},{k})", lambda: comb(n, k), fast_vp)
    if head in SEQUENCES:
        entry = SEQUENCES[head]
        want = 1 + len(entry.params)
        if len(tokens) != 1 + want:
            params = " ".join(f"<{p}>" for p in entry.params)
            raise UsageError(f"expected: {entry.name} <n> {params}".rstrip())
        values = [_parse_int(t) for t in tokens[1:]]
        n, extra = values[0], values[1:]
        label = f"{entry.name}({', '.join(str(v) for v in values)})"
        return Target(label, lambda: entry.value(n, *extra), None)
    raise UsageError(f"unrecognized target {tokens[0]!r}")


def _bsum_fast_omega(tokens: list[str], base: int) -> int | None:
    """Closed-form omega for `B n 2 a b` targets when base = +-(a+b)."""
    head = tokens[0].lower()
    if head not in ("b", "bsum") or len(tokens) != 5:
        return None
    n, m, a, b = (_parse_int(t) for t in tokens[1:])
    if m != 2:
        raise HypothesisViolation("the fast path covers only the square sum (m = 2)")
    if abs(base) != abs(a + b):
        raise HypothesisViolation(
            f"the fast path computes the power of a+b = {a + b}, not of {base}"
        )
    half, rem = divmod(n, 2)
    return predict_bsum_omega(half, "odd" if rem else "even", a, b)


def _bsum_core(n: int) -> tuple[str, Callable[[int], int]]:
    """The core that the fast omega of B(n, 2, a, b) reduces to, and its v_p.

    Even n = 2h: omega = omega(C(2h, h)).  Odd n = 2h+1: omega = 1 +
    omega((2h+1) * C(2h, h)).
    """
    half, odd = divmod(n, 2)
    if odd:
        return f"{n}*C({2 * half},{half})", lambda p: vp_int(n, p) + kummer_carries(half, half, p)
    return f"C({n},{half})", lambda p: kummer_carries(half, half, p)


def _explain_lines(base: int, vp_of_y: Callable[[int], int], what: str = "target") -> list[str]:
    lines = []
    parts = []
    for p, e in factorize(abs(base)).factors:
        vy = vp_of_y(p)
        parts.append(vy // e)
        lines.append(f"  p={p}: v_p({what})={vy}, v_p(base)={e}, floor={vy // e}")
    lines.append("  min(" + ", ".join(str(q) for q in parts) + f") = {min(parts)}")
    return lines


def cmd_omega(args: argparse.Namespace) -> int:
    base = _parse_int(args.base)
    if args.prime_base and not is_prime(base):
        raise UsageError(f"base must be prime for vp, got {base}")
    if base in (0, 1, -1):
        raise InvalidBaseError(f"base must not be 0 or a unit, got {base}")
    target = _parse_target(args.target)

    fast_result = None
    if args.mode in ("fast", "both"):
        if target.fast_vp is not None:
            fast_result = min(
                target.fast_vp(p) // e for p, e in factorize(abs(base)).factors
            )
        else:
            fast_result = _bsum_fast_omega(args.target, base)
            if fast_result is None:
                raise HypothesisViolation(
                    f"no fast path for target {target.label}; use --mode oracle"
                )

    oracle_result = None
    value = None
    if args.mode in ("oracle", "both"):
        value = target.value_fn()
        oracle_result = omega(base, value)

    if args.mode == "both" and fast_result != oracle_result:
        print(
            f"DISAGREEMENT: fast={_render_valuation(fast_result)} "
            f"oracle={_render_valuation(oracle_result)} for omega_{base}({target.label})",
            file=sys.stderr,
        )
        return 1

    result = oracle_result if oracle_result is not None else fast_result
    if args.format == "json":
        obj = {
            "base": base,
            "target": target.label,
            "mode": args.mode,
            "omega": "inf" if result is INFINITE else result,
        }
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(f"omega_{base}({target.label}) = {_render_valuation(result)}")
        if args.explain and result is not INFINITE:
            if value is not None:
                lines = _explain_lines(base, lambda p: vp_int(value, p))
            elif target.fast_vp is not None:
                lines = _explain_lines(base, target.fast_vp)
            else:
                # Only B n 2 a b targets have a fast route without fast_vp.
                n = _parse_int(args.target[1])
                core, core_vp = _bsum_core(n)
                shift = "1 + " if n % 2 else ""
                lines = [f"  core: {core}; omega_{base}({target.label}) = {shift}omega_{base}(core)"]
                lines += _explain_lines(base, core_vp, "core")
            for line in lines:
                print(line)
    return 0


# ---------------------------------------------------------------------------
# seq / table
# ---------------------------------------------------------------------------


def _seq_rows(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    name = args.name.lower()
    if name not in SEQUENCES:
        raise UsageError(
            f"unknown sequence {args.name!r}; known: {', '.join(sorted(SEQUENCES))}"
        )
    entry = SEQUENCES[name]
    if len(args.params) != len(entry.params):
        raise UsageError(
            f"{entry.name} takes {len(entry.params)} parameter(s): {', '.join(entry.params)}"
        )
    extra = [_parse_int(t) for t in args.params]
    lo, hi = _parse_range(args.range)
    if lo < entry.min_index:
        raise DomainError(f"{entry.name} starts at index {entry.min_index}, got {lo}")
    p = _parse_int(args.valuation) if args.valuation else None
    if p is not None and not is_prime(p):
        raise UsageError(f"--valuation takes a prime, got {p}")
    header = ["n", "value"] + ([f"v_{p}"] if p else [])
    indices = range(lo, hi + 1)
    if entry.table is not None and indices:
        values = entry.table(hi, *extra)[lo:]
    else:
        values = [entry.fn(n, *extra) for n in indices]
    rows = []
    for n, value in zip(indices, values):
        row: list = [n, value]
        if p:
            row.append(vp_int(value, p))
        rows.append(row)
    return header, rows


def cmd_seq(args: argparse.Namespace) -> int:
    header, rows = _seq_rows(args)
    digits = args.digits
    if args.format == "json":
        for row in rows:
            obj = dict(zip(header, ["inf" if v is INFINITE else v for v in row]))
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows([[_render_valuation(v) if v is INFINITE else v for v in row] for row in rows])
    else:
        for row in rows:
            cells = [str(row[0]), _format_value(row[1], digits)]
            if len(row) > 2:
                cells.append(_render_valuation(row[2]))
            print("\t".join(cells))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    header, rows = _seq_rows(args)
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(
            [[_render_valuation(v) if v is INFINITE else v for v in row] for row in rows]
        )
    finally:
        if args.output:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_CSV_COLUMNS = [
    "claim", "n", "parity", "m", "a", "b", "x", "p", "predicted", "oracle", "verdict", "slack",
]


def _parse_int_set(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(part) for part in text.split(",") if part)


def cmd_verify(args: argparse.Namespace) -> int:
    grid_kwargs = {}
    if args.n_max is not None:
        grid_kwargs["n_max"] = _parse_int(args.n_max)
    if args.ab_max is not None:
        grid_kwargs["ab_max"] = _parse_int(args.ab_max)
    if args.m_set:
        grid_kwargs["m_values"] = _parse_int_set(args.m_set)
    if args.a_set:
        grid_kwargs["a_values"] = _parse_int_set(args.a_set)
    if args.b_set:
        grid_kwargs["b_values"] = _parse_int_set(args.b_set)
    if args.x_set:
        grid_kwargs["x_values"] = _parse_int_set(args.x_set)
    if args.primes:
        lo, hi = _parse_range(args.primes)
        if ".." in args.primes:
            if lo < 2 or lo > hi:
                raise UsageError(f"--primes lo..hi needs 2 <= lo <= hi, got {args.primes}")
            grid_kwargs["prime_min"] = lo
        elif hi < 0:
            raise UsageError(f"--primes must be non-negative, got {args.primes}")
        grid_kwargs["prime_max"] = hi
    if args.exact_max is not None:
        grid_kwargs["exact_max"] = _parse_int(args.exact_max)
    for key, value in grid_kwargs.items():
        if key.endswith("max") and isinstance(value, int) and value < 0:
            raise UsageError(f"--{key.replace('_', '-')} must be non-negative")
    grid = HarnessGrid(**grid_kwargs)

    jobs = args.jobs
    env_jobs = os.environ.get("VALUATA_JOBS")
    if env_jobs:
        jobs = int(env_jobs) if _PLAIN_DECIMAL.fullmatch(env_jobs.strip()) else 0
        if jobs < 1:
            raise UsageError(f"VALUATA_JOBS must be a positive integer, got {env_jobs!r}")
    elif jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")

    result = run_harness(args.claims or ("all",), grid, jobs=jobs, fail_fast=args.fail_fast)

    if not args.summary_only:
        if args.format == "csv":
            writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            for report in result.reports:
                row = {"claim": report.claim, **dict(report.instance)}
                row["predicted"] = report.predicted
                row["oracle"] = _render_valuation(report.oracle)
                row["verdict"] = report.verdict
                row["slack"] = "" if report.slack is None else report.slack
                writer.writerow(row)
        elif args.format == "json":
            sys.stdout.writelines(report.to_json_line() + "\n" for report in result.reports)
        else:
            for report in result.reports:
                fields = " ".join(f"{k}={v}" for k, v in report.instance)
                extra = "" if report.slack is None else f" slack={report.slack}"
                print(
                    f"{report.claim}: {fields} predicted={report.predicted} "
                    f"oracle={_render_valuation(report.oracle)} {report.verdict}{extra}"
                )

    summary = result.summary()
    stream = sys.stdout if args.format == "human" or args.summary_only else sys.stderr
    for claim in sorted(summary):
        counts = summary[claim]
        print(
            f"[{claim}] checked={counts['checked']} violations={counts['violations']}",
            file=stream,
        )
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _time_best(fn: Callable[[], object], repeats: int = 5) -> tuple[float, object]:
    best = math.inf
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def cmd_bench(args: argparse.Namespace) -> int:
    scenario = args.scenario.lower()
    if scenario == "thm1":
        n = _parse_int(args.n) if args.n else 2023
        a = _parse_int(args.a) if args.a else 37
        b = _parse_int(args.b) if args.b else 62
        rows = []
        for parity in ("even", "odd"):
            fast_t, fast_v = _time_best(lambda: predict_bsum_omega(n, parity, a, b))
            if args.fast_only:
                rows.append((parity, fast_t, fast_v, None, None, "fast-only"))
                continue
            idx = 2 * n if parity == "even" else 2 * n + 1
            start = time.perf_counter()
            oracle_v = omega(a + b, eval_B(idx, 2, a, b))
            oracle_t = time.perf_counter() - start
            verdict = "agree" if oracle_v == fast_v else "DISAGREE"
            rows.append((parity, fast_t, fast_v, oracle_t, oracle_v, verdict))
        status = 0
        print(f"scenario=thm1 n={n} a={a} b={b}")
        for parity, fast_t, fast_v, oracle_t, oracle_v, verdict in rows:
            line = f"  {parity}: fast={fast_t * 1000:.3f}ms omega={fast_v}"
            if oracle_t is not None:
                line += f" | oracle={oracle_t * 1000:.3f}ms omega={_render_valuation(oracle_v)} | {verdict}"
                if verdict != "agree":
                    status = 1
            else:
                line += " | fast-only"
            print(line)
        return status
    if scenario == "vp-binom":
        n = _parse_int(args.n) if args.n else 10**18
        k = _parse_int(args.k) if args.k else n // 2
        p = _parse_int(args.p) if args.p else 3
        if not is_prime(p):
            raise UsageError(f"--p must be prime, got {p}")
        fast_t, fast_v = _time_best(lambda: kummer_carries(k, n - k, p))
        print(f"scenario=vp-binom n={n} k={k} p={p}")
        print(f"  fast={fast_t * 1000:.3f}ms v_p={fast_v}")
        # Beyond this the binomial itself is too large to be worth building.
        oracle_reach = 200_000
        if args.fast_only or n > oracle_reach:
            if not args.fast_only:
                print(f"  oracle skipped: n > {oracle_reach}, fast path only")
            return 0
        start = time.perf_counter()
        oracle_v = vp_int(comb(n, k), p)
        oracle_t = time.perf_counter() - start
        verdict = "agree" if oracle_v == fast_v else "DISAGREE"
        print(f"  oracle={oracle_t * 1000:.3f}ms v_p={_render_valuation(oracle_v)} | {verdict}")
        return 0 if verdict == "agree" else 1
    raise UsageError(f"unknown bench scenario {args.scenario!r}; use thm1 or vp-binom")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="valuata",
        description="Exact combinatorial sequences and highest-power-dividing queries, "
        "answered by a digit-arithmetic fast path and a big-integer oracle.",
    )
    sub = parser.add_subparsers(dest="command", metavar="<command>")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")
        p.add_argument(
            "--digits",
            type=int,
            default=None,
            help="abbreviate long values to this many leading/trailing digits",
        )

    p_omega = sub.add_parser("omega", help="highest power of a base dividing a target")
    p_omega.add_argument("base")
    p_omega.add_argument("target", nargs="+", help="literal | B n m a b | binom n k | <seq> n [params]")
    p_omega.add_argument("--mode", choices=("fast", "oracle", "both"), default="oracle")
    p_omega.add_argument("--explain", action="store_true", help="show the per-prime breakdown")
    add_common(p_omega)
    p_omega.set_defaults(func=cmd_omega, prime_base=False)

    p_vp = sub.add_parser("vp", help="like omega, for a prime base")
    p_vp.add_argument("base")
    p_vp.add_argument("target", nargs="+")
    p_vp.add_argument("--mode", choices=("fast", "oracle", "both"), default="oracle")
    p_vp.add_argument("--explain", action="store_true")
    add_common(p_vp)
    p_vp.set_defaults(func=cmd_omega, prime_base=True)

    p_seq = sub.add_parser("seq", help="print exact sequence values over an index range")
    p_seq.add_argument("name")
    p_seq.add_argument("range", help="inclusive range like 0..10, or a single index")
    p_seq.add_argument("params", nargs="*", help="extra sequence parameters")
    p_seq.add_argument("--valuation", metavar="P", help="add a v_P column")
    add_common(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_table = sub.add_parser("table", help="export sequence values as CSV")
    p_table.add_argument("name")
    p_table.add_argument("range")
    p_table.add_argument("params", nargs="*")
    p_table.add_argument("--valuation", metavar="P")
    p_table.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="sweep claims against the big-integer oracle")
    p_verify.add_argument(
        "claims",
        nargs="*",
        metavar="CLAIM",
        help=f"any of: all, {', '.join(sorted(RUNNERS))}",
    )
    p_verify.add_argument("--n-max", dest="n_max")
    p_verify.add_argument("--ab-max", dest="ab_max")
    p_verify.add_argument("--m-set", dest="m_set", help="comma-separated orders, e.g. 3,4,5")
    p_verify.add_argument("--a-set", dest="a_set")
    p_verify.add_argument("--b-set", dest="b_set")
    p_verify.add_argument("--x-set", dest="x_set")
    p_verify.add_argument("--primes", help="largest prime, e.g. 97, or a range lo..hi, e.g. 50..97")
    p_verify.add_argument("--exact-max", dest="exact_max")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--fail-fast", action="store_true")
    p_verify.add_argument(
        "--summary-only", action="store_true", help="suppress per-instance rows"
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the fast path against the oracle")
    p_bench.add_argument("scenario", help="thm1 or vp-binom")
    p_bench.add_argument("--n")
    p_bench.add_argument("--k")
    p_bench.add_argument("--p")
    p_bench.add_argument("--a")
    p_bench.add_argument("--b")
    p_bench.add_argument("--fast-only", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (
        UsageError,
        DomainError,
        InvalidBaseError,
        ZeroInputError,
        HypothesisViolation,
        KernelRangeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegralityError as exc:
        print(f"internal arithmetic failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
