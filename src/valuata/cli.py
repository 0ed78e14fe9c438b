"""Command-line front end.

Single divisibility queries (`omega`, `vp`), sequence tables (`seq`,
`table`), claim verification sweeps (`verify`) and fast-vs-oracle timing
(`bench`).  Exit codes are a stable contract: 0 success, 1 mathematical
violation or path disagreement, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .digits import KernelRangeError, is_prime
from .harness import json_lines
from .sequences import (
    SEQUENCES,
    DomainError,
    IntegralityError,
    binomial,
    bsum,
    eval_B,
    stream_slice,
    trinomial_values,
)
from .theorems import (
    CLAIMS,
    RUNNERS,
    HarnessGrid,
    HypothesisViolation,
    SelectionError,
    _core_vp,
    predict_bsum_omega,
    run_harness,
)
from .valuation import (
    INFINITE,
    InvalidBaseError,
    ZeroInputError,
    check_binomial,
    factorize,
    omega,
    vp_binomial_fast,
    vp_int,
)


class UsageError(ValueError):
    pass


_DECIMAL = re.compile(r"([+-]?)(\d+)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")
_PLAIN_DECIMAL = re.compile(r"([+-]?)([0-9]+)")
_MAX_EXPONENT = 4300  # Python's default limit on the digits of an int
_SPLIT_DIGITS = 4096  # plain decimals longer than this are read in halves


def _parse_int(text: str) -> int:
    """Integer literal, allowing 1e15-style scientific shorthand.

    Decimal forms are parsed exactly, so 1e23 is 10**23, and rejected
    unless they name an integer: 1.5e1 is 15, 1.5e0 is an error.  A long
    run of ASCII digits is read by _parse_digits; every other text, with
    underscores, spaces or other digits, goes to int().
    """
    match = _PLAIN_DECIMAL.fullmatch(text) if len(text) > _SPLIT_DIGITS else None
    if match is not None:
        value = _parse_digits(match.group(2))
        return -value if match.group(1) == "-" else value
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


def _parse_digits(digits: str) -> int:
    """int(digits) for a run of ASCII digits, split in halves down to _SPLIT_DIGITS.

    CPython 3.11's int(str) takes time quadratic in the length; the halves
    are joined by multiplications by powers of ten, which grow slower.
    """
    powers: dict[int, int] = {}  # 10**width for the widths of one call

    def parse(lo: int, hi: int) -> int:
        if hi - lo <= _SPLIT_DIGITS:
            return int(digits[lo:hi])
        width = (hi - lo) // 2
        if width not in powers:
            powers[width] = 10**width
        return parse(lo, hi - width) * powers[width] + parse(hi - width, hi)

    return parse(0, len(digits))


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


# ---------------------------------------------------------------------------
# Target expressions: literal | B n m a b | binom n k | <sequence> idx [params]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """A query target: a label, a big-integer route and an optional fast route.

    The fast route is either `fast_vp`, which maps a prime p to v_p of the
    target without building it, or the claim of CLAIMS named `claim`, which
    answers for sequence index `index` at parameters `params`.
    """

    label: str
    value_fn: Callable[[], int]
    fast_vp: Callable[[int], int] | None = None
    claim: str | None = None
    index: int = 0
    params: tuple[int, ...] = ()


# sequence name -> the claim that answers its omega queries on the fast route
_ROUTES = {claim.sequence: name for name, claim in CLAIMS.items() if claim.sequence}


def _parse_target(tokens: list[str]) -> Target:
    if not tokens:
        raise UsageError("missing target expression")
    head = tokens[0].lower()
    if len(tokens) == 1 and head not in SEQUENCES and head not in ("b", "bsum", "binom"):
        literal = _parse_int(tokens[0])
        return Target(_literal_label(tokens[0], literal), lambda: literal)
    if head in ("b", "bsum"):
        if len(tokens) != 5:
            raise UsageError("expected: B <n> <m> <a> <b>")
        n, m, a, b = (_parse_int(t) for t in tokens[1:])
        claim = _ROUTES["bsum"] if m == 2 else None
        return Target(f"B({n},{m},{a},{b})", lambda: bsum(n, m, a, b), claim=claim, index=n, params=(a, b))
    if head == "binom":
        if len(tokens) != 3:
            raise UsageError("expected: binom <n> <k>")
        n, k = _parse_int(tokens[1]), _parse_int(tokens[2])
        check_binomial(n, k)
        return Target(f"binom({n},{k})", lambda: binomial(n, k), functools.partial(vp_binomial_fast, n, k))
    if head in SEQUENCES:
        entry = SEQUENCES[head]
        want = 1 + len(entry.params)
        if len(tokens) != 1 + want:
            params = " ".join(f"<{p}>" for p in entry.params)
            raise UsageError(f"expected: {entry.name} <n> {params}".rstrip())
        values = [_parse_int(t) for t in tokens[1:]]
        n, extra = values[0], values[1:]
        label = f"{entry.name}({', '.join(str(v) for v in values)})"
        return Target(
            label, lambda: entry.value(n, *extra), claim=_ROUTES.get(entry.name), index=n, params=tuple(extra)
        )
    raise UsageError(f"unrecognized target {tokens[0]!r}")


def _route_omega(target: Target, base: int) -> int:
    """omega_base of a target on its claim's fast route: the claim's predictor at the target's index.

    An index outside the sequence's domain gets the oracle route's error.
    """
    claim = CLAIMS[target.claim]
    if target.index < SEQUENCES[claim.sequence].min_index:
        target.value_fn()  # raises the sequence's own DomainError before building anything
    n, _ = claim.locate(target.index)
    x = claim.base(*target.params)
    if abs(base) != abs(x):
        raise HypothesisViolation(f"the fast path computes the power of {x}, not of {base}")
    return claim.predict(n, "odd" if target.index % 2 else "even", *target.params)


def _core_lines(target: Target, base: int) -> list[str]:
    """The core that a fast-route answer reduces to, then its per-prime breakdown."""
    claim = CLAIMS[target.claim]
    n, r = claim.locate(target.index)
    core = f"Catalan({n})" if claim.catalan else f"C({2 * n},{n})"
    if r:
        core = f"{2 * n + 1}*{core}"
    shift = "1 + " if r else ""
    lines = [f"  core: {core}; omega_{base}({target.label}) = {shift}omega_{base}(core)"]
    return lines + _explain_lines(base, lambda p: _core_vp(n, r, p, claim.catalan), "core")


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
    if args.explain and args.format != "human":
        raise UsageError("--explain takes --format human")
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
        elif target.claim is not None:
            fast_result = _route_omega(target, base)
        else:
            raise HypothesisViolation(
                f"no fast path for target {target.label}; use --mode oracle"
            )

    oracle_result = None
    value = None
    if args.mode in ("oracle", "both"):
        if target.claim is not None and target.index >= sys.maxsize:
            # The oracle's value streams end where islice does; the fast route has no such limit.
            raise DomainError(
                f"{target.label} is past the oracle's reach: value streams end at sys.maxsize - 1; "
                "use --mode fast"
            )
        value = target.value_fn()
        oracle_result = omega(base, value)

    if args.mode == "both" and fast_result != oracle_result:
        print(
            f"DISAGREEMENT: fast={fast_result} oracle={oracle_result} for omega_{base}({target.label})",
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
        print(f"omega_{base}({target.label}) = {result}")
        if args.explain and result is not INFINITE:
            if value is not None:
                lines = _explain_lines(base, lambda p: vp_int(value, p))
            elif target.fast_vp is not None:
                lines = _explain_lines(base, target.fast_vp)
            else:
                lines = _core_lines(target, base)
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
    if lo > hi:
        raise UsageError(f"range lo..hi needs lo <= hi, got {args.range}")
    if lo < entry.min_index:
        raise DomainError(f"{entry.name} starts at index {entry.min_index}, got {lo}")
    p = _parse_int(args.valuation) if args.valuation is not None else None
    if p is not None and not is_prime(p):
        raise UsageError(f"--valuation takes a prime, got {p}")
    header = ["n", "value"] + ([f"v_{p}"] if p is not None else [])
    indices = range(lo, hi + 1)
    if entry.values is not None:
        values = list(stream_slice(entry.values, lo, hi + 1, *extra))
    elif name == "bsum" and extra[0] == 2:  # the square sum: one trinomial stream at (ab, a + b)
        _, a, b = extra
        values = list(stream_slice(trinomial_values, lo, hi + 1, a * b, a + b))
    else:
        values = [entry.value(n, *extra) for n in indices]
    rows = []
    for n, value in zip(indices, values):
        row: list = [n, value]
        if p is not None:
            row.append(vp_int(value, p))
        rows.append(row)
    return header, rows


def _write_csv(out, header: list[str], rows: list[list]) -> None:
    import csv

    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def cmd_seq(args: argparse.Namespace) -> int:
    digits = _parse_int(args.digits) if args.digits is not None else None
    if digits is not None and digits < 1:
        raise UsageError(f"--digits must be at least 1, got {digits}")
    header, rows = _seq_rows(args)
    if args.format == "json":
        for row in rows:
            obj = dict(zip(header, ["inf" if v is INFINITE else v for v in row]))
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        _write_csv(sys.stdout, header, rows)
    else:
        for row in rows:
            print(row[0], _format_value(row[1], digits), *row[2:], sep="\t")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    header, rows = _seq_rows(args)
    try:
        out = open(args.output, "w", newline="") if args.output is not None else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot write --output {args.output}: {exc.strerror or exc}") from exc
    try:
        _write_csv(out, header, rows)
    finally:
        if args.output is not None:
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
    if args.m_set is not None:
        grid_kwargs["m_values"] = _parse_int_set(args.m_set)
        if any(m < 2 for m in grid_kwargs["m_values"]):
            raise UsageError(f"--m-set takes orders m >= 2, got {args.m_set}")
    if args.a_set is not None:
        grid_kwargs["a_values"] = _parse_int_set(args.a_set)
    if args.b_set is not None:
        grid_kwargs["b_values"] = _parse_int_set(args.b_set)
    if args.x_set is not None:
        grid_kwargs["x_values"] = _parse_int_set(args.x_set)
    if args.primes is not None:
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

    jobs = _parse_int(args.jobs)
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")

    result = run_harness(args.claims or ("all",), grid, jobs=jobs, fail_fast=args.fail_fast)

    if not args.summary_only:
        if args.format == "csv":
            import csv

            writer = csv.DictWriter(sys.stdout, fieldnames=_CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            for report in result.reports:
                row = {"claim": report.claim, **dict(report.instance)}
                row["predicted"] = report.predicted
                row["oracle"] = report.oracle
                row["verdict"] = report.verdict
                row["slack"] = report.slack
                writer.writerow(row)
        elif args.format == "json":
            sys.stdout.writelines(json_lines(result.batches))
        else:
            for report in result.reports:
                fields = " ".join(f"{k}={v}" for k, v in report.instance)
                extra = "" if report.slack is None else f" slack={report.slack}"
                print(
                    f"{report.claim}: {fields} predicted={report.predicted} "
                    f"oracle={report.oracle} {report.verdict}{extra}"
                )

    stream = sys.stdout if args.format == "human" or args.summary_only else sys.stderr
    for claim, counts in result.summary().items():  # in name order
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


_BENCH_OPTIONS = {"thm1": ("n", "a", "b"), "vp-binom": ("n", "k", "p")}  # besides --fast-only


def cmd_bench(args: argparse.Namespace) -> int:
    scenario = args.scenario.lower()
    if scenario not in _BENCH_OPTIONS:
        raise UsageError(f"unknown bench scenario {args.scenario!r}; use thm1 or vp-binom")
    unread = [
        f"--{k}" for k in ("n", "k", "p", "a", "b")
        if k not in _BENCH_OPTIONS[scenario] and getattr(args, k) is not None
    ]
    if unread:
        raise UsageError(f"bench {scenario} does not take {', '.join(unread)}")
    if scenario == "thm1":
        n = _parse_int(args.n) if args.n is not None else 2023
        a = _parse_int(args.a) if args.a is not None else 37
        b = _parse_int(args.b) if args.b is not None else 62
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
                line += f" | oracle={oracle_t * 1000:.3f}ms omega={oracle_v} | {verdict}"
                if verdict != "agree":
                    status = 1
            else:
                line += " | fast-only"
            print(line)
        return status
    # vp-binom
    n = _parse_int(args.n) if args.n is not None else 10**18
    k = _parse_int(args.k) if args.k is not None else n // 2
    p = _parse_int(args.p) if args.p is not None else 3
    if not is_prime(p):
        raise UsageError(f"--p must be prime, got {p}")
    fast_t, fast_v = _time_best(lambda: vp_binomial_fast(n, k, p))
    print(f"scenario=vp-binom n={n} k={k} p={p}")
    print(f"  fast={fast_t * 1000:.3f}ms v_p={fast_v}")
    # Beyond this the binomial itself is too large to be worth building.
    oracle_reach = 200_000
    if args.fast_only or n > oracle_reach:
        if not args.fast_only:
            print(f"  oracle skipped: n > {oracle_reach}, fast path only")
        return 0
    start = time.perf_counter()
    oracle_v = vp_int(binomial(n, k), p)
    oracle_t = time.perf_counter() - start
    verdict = "agree" if oracle_v == fast_v else "DISAGREE"
    print(f"  oracle={oracle_t * 1000:.3f}ms v_p={oracle_v} | {verdict}")
    return 0 if verdict == "agree" else 1


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

    def add_format(p: argparse.ArgumentParser, *choices: str) -> None:
        p.add_argument("--format", choices=("human",) + choices, default="human")

    for name, prime_base, about in (
        ("omega", False, "highest power of a base dividing a target"),
        ("vp", True, "like omega, for a prime base"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("base")
        p.add_argument("target", nargs="+", help="literal | B n m a b | binom n k | <seq> n [params]")
        p.add_argument("--mode", choices=("fast", "oracle", "both"), default="oracle")
        p.add_argument("--explain", action="store_true", help="show the per-prime breakdown")
        add_format(p, "json")
        p.set_defaults(func=cmd_omega, prime_base=prime_base)

    p_seq = sub.add_parser("seq", help="print exact sequence values over an index range")
    p_seq.add_argument("name")
    p_seq.add_argument("range", help="inclusive range like 0..10, or a single index")
    p_seq.add_argument("params", nargs="*", help="extra sequence parameters")
    p_seq.add_argument("--valuation", metavar="P", help="add a v_P column")
    p_seq.add_argument("--digits", help="abbreviate long values to this many leading/trailing digits")
    add_format(p_seq, "json", "csv")
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
        help=f"all, a runner ({', '.join(RUNNERS)}), or a claim or sequence that a runner sweeps",
    )
    p_verify.add_argument("--n-max", dest="n_max")
    p_verify.add_argument("--ab-max", dest="ab_max")
    p_verify.add_argument("--m-set", dest="m_set", help="comma-separated orders, e.g. 3,4,5")
    p_verify.add_argument("--a-set", dest="a_set")
    p_verify.add_argument("--b-set", dest="b_set")
    p_verify.add_argument("--x-set", dest="x_set")
    p_verify.add_argument("--primes", help="largest prime, e.g. 97, or a range lo..hi, e.g. 50..97")
    p_verify.add_argument("--exact-max", dest="exact_max")
    p_verify.add_argument("--jobs", default="1")
    p_verify.add_argument("--fail-fast", action="store_true")
    p_verify.add_argument(
        "--summary-only", action="store_true", help="suppress per-instance rows"
    )
    add_format(p_verify, "json", "csv")
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

    # argparse takes a token that starts with `-` for an option unless it is
    # a plain number, but `-2e1`, `-5..3` and `-2,1` are integer arguments
    # too: every command reads a token that starts with `-` and a digit as a value.
    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE
    return parser


_NEGATIVE = re.compile(r"-[0-9]")


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
        SelectionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for a smaller range, index or grid", file=sys.stderr)
        return 2
    except IntegralityError as exc:
        print(f"internal arithmetic failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
