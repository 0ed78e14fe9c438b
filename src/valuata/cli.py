"""Command-line front end.

Single divisibility queries (`omega`, `vp`), sequence tables (`seq`,
`table`), claim verification sweeps (`verify`) and fast-vs-oracle timing
(`bench`).  Exit codes are a stable contract: 0 success, 1 mathematical
violation or path disagreement, 2 usage, domain or output error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from itertools import chain
from typing import Callable, Iterator, NamedTuple

from .digits import KernelRangeError, is_prime
from .harness import CSV_COLUMNS, text_lines
from .sequences import (
    SEQUENCES,
    DomainError,
    IntegralityError,
    binomial,
    stream_slice,
)
from .theorems import (
    CLAIMS,
    PARITIES,
    RUNNERS,
    HarnessGrid,
    HypothesisViolation,
    SelectionError,
    _check_instance,
    _core_vp,
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


class Target(NamedTuple):
    """A query target: a label, its oracle route and, where it has them, its fast route and that route's breakdown.

    `value()` builds the target.  `fast(base)` is omega_base of the target
    without building it, and `explain(base)` the lines that --explain
    prints under a fast answer.
    """

    label: str
    value: Callable[[], int]
    fast: Callable[[int], int] | None = None
    explain: Callable[[int], list[str]] | None = None


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
        return _bsum_target(*(_parse_int(t) for t in tokens[1:]))
    if head == "binom":
        if len(tokens) != 3:
            raise UsageError("expected: binom <n> <k>")
        return _binom_target(_parse_int(tokens[1]), _parse_int(tokens[2]))
    if head in SEQUENCES:
        entry = SEQUENCES[head]
        if len(tokens) != 2 + len(entry.params):
            params = " ".join(f"<{p}>" for p in entry.params)
            raise UsageError(f"expected: {entry.name} <n> {params}".rstrip())
        n, *extra = (_parse_int(t) for t in tokens[1:])
        label = f"{entry.name}({', '.join(str(v) for v in (n, *extra))})"
        value = functools.partial(entry.value, n, *extra)
        return _sequence_target(label, value, _ROUTES.get(entry.name), n, tuple(extra))
    raise UsageError(f"unrecognized target {tokens[0]!r}")


def _binom_target(n: int, k: int) -> Target:
    """C(n, k), whose fast route counts the carries of k + (n - k) for each prime of the base."""
    check_binomial(n, k)
    vp = functools.partial(vp_binomial_fast, n, k)
    return Target(
        f"binom({n},{k})",
        lambda: binomial(n, k),
        lambda base: min(vp(p) // e for p, e in factorize(abs(base)).factors),
        lambda base: _explain_lines(base, vp),
    )


def _bsum_target(n: int, m: int, a: int, b: int) -> Target:
    """B(n, m, a, b), on the route of the square-sum claim at m = 2."""
    value = functools.partial(SEQUENCES["bsum"].value, n, m, a, b)
    return _sequence_target(f"B({n},{m},{a},{b})", value, _ROUTES["bsum"] if m == 2 else None, n, (a, b))


def _sequence_target(
    label: str, value: Callable[[], int], claim_name: str | None, i: int, params: tuple[int, ...]
) -> Target:
    """Sequence element i, built by `value`, on the fast route of CLAIMS[claim_name] at `params`, if one is named.

    The fast route answers with the claim's predictor; an index outside the
    sequence's domain gets the oracle route's error.
    """
    if claim_name is None:
        return Target(label, value)
    claim = CLAIMS[claim_name]

    def oracle() -> int:
        if i >= sys.maxsize:
            # The oracle's value streams end where islice does; the fast route has no such limit.
            reach = "value streams end at sys.maxsize - 1; use --mode fast"
            raise DomainError(f"{label} is past the oracle's reach: {reach}")
        return value()

    def fast(base: int) -> int:
        SEQUENCES[claim.sequence].check_index(i)
        n, _ = claim.locate(i)
        x = claim.base(*params)
        if abs(base) != abs(x):
            raise HypothesisViolation(f"the fast path computes the power of {x}, not of {base}")
        return claim.predict(n, PARITIES[i % 2], *params)

    def explain(base: int) -> list[str]:
        """The core that the fast answer reduces to, then its per-prime breakdown."""
        n, r = claim.locate(i)
        core = f"Catalan({n})" if claim.catalan else f"C({2 * n},{n})"
        core, shift = (f"{2 * n + 1}*{core}", "1 + ") if r else (core, "")
        line = f"  core: {core}; omega_{base}({label}) = {shift}omega_{base}(core)"
        return [line, *_explain_lines(base, lambda p: _core_vp(n, r, p, claim.catalan), "core")]

    return Target(label, oracle, fast, explain)


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

    result = value = None
    if args.mode in ("fast", "both"):
        if target.fast is None:
            raise HypothesisViolation(f"no fast path for target {target.label}; use --mode oracle")
        result = target.fast(base)
    if args.mode in ("oracle", "both"):
        value = target.value()
        oracle_result = omega(base, value)
        if args.mode == "both" and oracle_result != result:
            return _fail(f"DISAGREEMENT: fast={result} oracle={oracle_result} for omega_{base}({target.label})", 1)
        result = oracle_result

    if args.format == "json":
        obj = dict(base=base, target=target.label, mode=args.mode, omega="inf" if result is INFINITE else result)
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(f"omega_{base}({target.label}) = {result}")
        if args.explain and result is not INFINITE:
            lines = target.explain(base) if value is None else _explain_lines(base, lambda p: vp_int(value, p))
            print(*lines, sep="\n")
    return 0


# ---------------------------------------------------------------------------
# seq / table
# ---------------------------------------------------------------------------


def _seq_rows(args: argparse.Namespace) -> tuple[list[str], Iterator[list]]:
    """The header and the streamed rows of a range, the first row built at once so that its errors come first."""
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
    entry.check_index(lo)
    p = _parse_int(args.valuation) if args.valuation is not None else None
    if p is not None and not is_prime(p):
        raise UsageError(f"--valuation takes a prime, got {p}")
    header = ["n", "value"] + ([f"v_{p}"] if p is not None else [])
    rows = (
        [n, value] + ([vp_int(value, p)] if p is not None else [])
        for n, value in zip(range(lo, hi + 1), stream_slice(entry.values, lo, hi + 1, *extra))
    )
    return header, chain([next(rows)], rows)


def _write_csv(output: str | None, header: list[str], rows: Iterator[list]) -> None:
    """The rows as CSV on stdout, or in the file `output`: one that cannot be written is a UsageError."""
    import csv

    def write(out) -> None:
        csv.writer(out).writerows(chain([header], rows))

    if output is None:
        return write(sys.stdout)
    try:
        with open(output, "w", newline="") as out:
            write(out)
    except OSError as exc:
        raise UsageError(f"cannot write --output {output}: {exc.strerror or exc}") from exc


def cmd_seq(args: argparse.Namespace) -> int:
    if args.digits is not None and args.format != "human":
        raise UsageError("--digits takes --format human")
    digits = _parse_int(args.digits) if args.digits is not None else None
    if digits is not None and digits < 1:
        raise UsageError(f"--digits must be at least 1, got {digits}")
    header, rows = _seq_rows(args)
    if args.format == "json":
        for row in rows:
            obj = dict(zip(header, ["inf" if v is INFINITE else v for v in row]))
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        _write_csv(args.output, header, rows)
    else:
        for row in rows:
            print(row[0], _format_value(row[1], digits), *row[2:], sep="\t")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

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
            sys.stdout.write(",".join(CSV_COLUMNS) + "\r\n")
        sys.stdout.writelines(text_lines(result.batches, args.format))

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
        _check_instance(n, "even")  # so that an error names this n, not the index 2n + r
        if 2 * n + 1 >= sys.maxsize and not args.fast_only:
            reach = "value streams end at index sys.maxsize - 1, before 2n + 1; use --fast-only"
            raise DomainError(f"--n {n} is past the oracle's reach: {reach}")
        header, base, word, join = f"scenario=thm1 n={n} a={a} b={b}", a + b, "omega", " | "
        cases = [(f"{parity}: ", _bsum_target(2 * n + r, 2, a, b)) for r, parity in enumerate(PARITIES)]
        skip = "fast-only" if args.fast_only else None
    else:
        n = _parse_int(args.n) if args.n is not None else 10**18
        k = _parse_int(args.k) if args.k is not None else n // 2
        p = _parse_int(args.p) if args.p is not None else 3
        if not is_prime(p):
            raise UsageError(f"--p must be prime, got {p}")
        header, base, word, join = f"scenario=vp-binom n={n} k={k} p={p}", p, "v_p", "\n  "
        cases = [("", _binom_target(n, k))]
        oracle_reach = 200_000  # beyond this the binomial itself is too large to be worth building
        skip = f"oracle skipped: n > {oracle_reach}, fast path only" if n > oracle_reach else None
        skip = "" if args.fast_only else skip
    # Every answer is in before the first line, so that an error leaves stdout empty.  A `skip` other than None
    # stands in for the oracle: a note, or nothing.
    status, lines = 0, [header]
    for label, target in cases:
        fast_t, fast_v = _time_best(lambda: target.fast(base))
        parts = [f"  {label}fast={fast_t * 1000:.3f}ms {word}={fast_v}"]
        if skip is None:
            oracle_t, oracle_v = _time_best(lambda: omega(base, target.value()), repeats=1)
            verdict = "agree" if oracle_v == fast_v else "DISAGREE"
            status |= verdict != "agree"
            parts.append(f"oracle={oracle_t * 1000:.3f}ms {word}={oracle_v} | {verdict}")
        elif skip:
            parts.append(skip)
        lines.append(join.join(parts))
    print(*lines, sep="\n")
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and error messages raise OSError when their stream fails, as every other write does.

    argparse's own writer drops the error, and leaves a buffered message to
    the interpreter's exit flush, which exits 120 when it fails; this flush
    fails inside main's handlers instead.
    """

    def _print_message(self, message: str, file=None) -> None:
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(
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
    p_seq.set_defaults(func=cmd_seq, output=None)

    p_table = sub.add_parser("table", help="export sequence values as CSV")
    p_table.add_argument("name")
    p_table.add_argument("range")
    p_table.add_argument("params", nargs="*")
    p_table.add_argument("--valuation", metavar="P")
    p_table.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_table.set_defaults(func=cmd_seq, format="csv", digits=None)

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
    parser._commands = sub.choices  # command name -> its parser, for _parse
    return parser


_NEGATIVE = re.compile(r"-[0-9]")


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed as the top parser parses it, in one pass: the parser of the command argv[0] names reads the rest.

    No arguments, an option such as -h and an unknown command go through
    the top parser, and arguments that the command's parser leaves over
    get the top parser's error, as they do in its own pass.
    """
    parser = build_parser()
    command = parser._commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if not args.command:
            build_parser().print_help()
            return 2
        code = args.func(args)
        sys.stdout.flush()  # inside the handlers, so that a failing last write is caught too
        return code
    except (
        UsageError,
        DomainError,
        InvalidBaseError,
        ZeroInputError,
        HypothesisViolation,
        KernelRangeError,
        SelectionError,
    ) as exc:
        return _fail(f"error: {exc}")
    except MemoryError:
        return _fail("error: out of memory; ask for a smaller range, index or grid")
    except OSError as exc:  # such as stdout on a full device or a closed pipe
        try:
            sys.stdout.flush()
        except OSError:
            # stdout failed and keeps its unwritten bytes: they, and the interpreter's exit flush, go to devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(f"error: {exc.strerror or exc}")
    except IntegralityError as exc:
        return _fail(f"internal arithmetic failure: {exc}", 1)


def _fail(line: str, code: int = 2) -> int:
    """`code`, once the error line `line` is on stderr, or stderr has failed and points at os.devnull as stdout does."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
