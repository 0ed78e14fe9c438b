"""Claim reports, their batches and output lines, and the fan-out that runs sweep work items.

A work item is a pair (run, kwargs); `run(**kwargs)` returns one
ReportBatch per claim: one slice of a claim sweep, as columns.
`run_work` is the one entry point of the fan-out: it runs items in this
process and forks workers for the rest once the remaining work outweighs
a fork, and cuts the sweep after the first violating item under
fail-fast.  Workers claim items in index order from a shared counter and
inherit the items' arguments with the fork, so the batches come back in
work order at any job count.  A HarnessResult folds them into counts per
claim as they arrive; only its reports view and the text lines of each
output format put them into report order.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import time
from itertools import chain, cycle, repeat
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .valuation import INFINITE, Valuation

VERDICT_EXACT = "exact"
VERDICT_BOUND = "bound_holds"
VERDICT_VIOLATION = "violation"

KIND_EXACT = "exact"
KIND_LOWER = "lower"  # oracle >= predicted
KIND_UPPER = "upper"  # oracle <= predicted

_new_tuple = tuple.__new__

# kind -> the comparison of (oracle, predicted) that the claim demands, and the verdict when it holds
_CHECKS = {
    KIND_EXACT: (operator.eq, VERDICT_EXACT),
    KIND_LOWER: (operator.ge, VERDICT_BOUND),
    KIND_UPPER: (operator.le, VERDICT_BOUND),
}


def _check(kind: str) -> tuple:
    if kind not in _CHECKS:
        raise ValueError(f"unknown claim kind {kind!r}")
    return _CHECKS[kind]


def _slack(kind: str, predicted: int, oracle: Valuation) -> int | None:
    """Unused room in a bound claim; None for exact claims and infinite oracles."""
    if kind == KIND_EXACT or oracle is INFINITE:
        return None
    return oracle - predicted if kind == KIND_LOWER else predicted - oracle


class TheoremReport(tuple):
    """One verified claim instance: predicted vs oracle plus the verdict.

    A tuple of (claim, instance, predicted, oracle, kind, verdict, slack),
    built from the first five.  The verdict and the slack are fixed at
    construction, and an unknown kind raises ValueError there.
    """

    __slots__ = ()

    def __new__(
        cls,
        claim: str,
        instance: tuple[tuple[str, object], ...],
        predicted: int,
        oracle: Valuation,
        kind: str = KIND_EXACT,
    ) -> TheoremReport:
        compare, holds = _check(kind)
        verdict = holds if compare(oracle, predicted) else VERDICT_VIOLATION
        slack = _slack(kind, predicted, oracle)
        return _new_tuple(cls, (claim, instance, predicted, oracle, kind, verdict, slack))

    claim = property(itemgetter(0))
    instance = property(itemgetter(1))
    predicted = property(itemgetter(2))
    oracle = property(itemgetter(3))
    kind = property(itemgetter(4))
    verdict = property(itemgetter(5))
    slack = property(
        itemgetter(6), doc="Unused room in a bound claim (None for exact claims and infinite oracles)."
    )

    def __reduce__(self):
        return (_new_tuple, (TheoremReport, tuple(self)))

    def __repr__(self) -> str:
        names = ("claim", "instance", "predicted", "oracle", "kind")
        return "TheoremReport(" + ", ".join(f"{k}={v!r}" for k, v in zip(names, self)) + ")"

    def to_json_obj(self) -> dict:
        return {
            "claim": self.claim,
            "instance": dict(self.instance),
            "predicted": self.predicted,
            "oracle": "inf" if self.oracle is INFINITE else self.oracle,
            "verdict": self.verdict,
            "slack": self.slack,
        }

    def to_json_line(self) -> str:
        """json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))."""
        return _dumps(self.to_json_obj())


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode  # json.dumps with these options


class ReportBatch(NamedTuple):
    """One claim's reports from one work item, as columns.

    Row j is the instance (("n", n), ("parity", parity)) + params of the
    j-th pair of `ns` x `parities`, n-major, or (("n", n),) + params when
    `parities` is empty.  `predicted[j]` and `oracle[j]` are its ints, the
    oracle INFINITE for a valuation of 0; verdicts and slacks are derived
    per column, as TheoremReport derives them.
    """

    claim: str
    kind: str
    params: tuple[tuple[str, object], ...]
    ns: range
    parities: tuple[str, ...]
    predicted: list[int]
    oracle: list[Valuation]


def _verdicts(batch: ReportBatch) -> Iterator[str]:
    compare, holds = _check(batch.kind)
    return map((VERDICT_VIOLATION, holds).__getitem__, map(compare, batch.oracle, batch.predicted))


def _layout(batch: ReportBatch, text: Callable[[str], str] = str) -> tuple[int, tuple[str, ...], list]:
    """The row count of `batch`, and the keys and columns of its per-row instance fields: n, any parity as `text`."""
    ns, parities = batch.ns, batch.parities
    if not parities:
        return len(ns), ("n",), [ns]
    n_column = chain.from_iterable(zip(*(ns,) * len(parities)))
    return len(ns) * len(parities), ("n", "parity"), [n_column, cycle(map(text, parities))]


def _violations(batch: ReportBatch) -> int:
    """The number of violating rows of `batch`, once its columns are checked to cover its rows."""
    rows = _layout(batch)[0]
    if len(batch.predicted) != rows or len(batch.oracle) != rows:
        raise ValueError(f"a {batch.claim} batch of {rows} rows has columns of other lengths")
    return operator.countOf(_verdicts(batch), VERDICT_VIOLATION)


def _reports(batch: ReportBatch) -> list[TheoremReport]:
    _, keys, columns = _layout(batch)
    instances = map(operator.add, zip(*map(zip, map(repeat, keys), columns)), repeat(batch.params))  # pairs + params
    return list(map(TheoremReport, repeat(batch.claim), instances, batch.predicted, batch.oracle, repeat(batch.kind)))


CSV_COLUMNS = ("claim", "n", "parity", "m", "a", "b", "x", "p", "predicted", "oracle", "verdict", "slack")


def _csv_cell(value: object) -> str:
    """`value` as csv.writer writes it: None as empty, quoted if it holds a comma, a quote or a line break."""
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


_escaped = operator.methodcaller("replace", "%", "%%")  # text written into a printf-style template

# format -> the text of a claim, parity or parameter value, of an infinite oracle, of a slack and of no slack
_FORMATS = {
    "json": (_dumps, '"inf"', "%s", "null"),
    "csv": (_csv_cell, "inf", "%s", ""),
    "human": (str, "inf", " slack=%s", ""),
}


def _lines(batch: ReportBatch, fmt: str) -> Iterator[str]:
    """The `fmt` lines of `batch`, from one printf-style template with its claim and parameters written in."""
    text, inf, slack, no_slack = _FORMATS[fmt]
    _, keys, columns = _layout(batch, text)
    fields = dict.fromkeys(keys, "%s")
    fields.update((key, _escaped(text(value))) for key, value in batch.params)
    claim = _escaped(text(batch.claim))
    oracle = map({INFINITE: inf}.get, batch.oracle, batch.oracle)
    slack_cell, slack_column = no_slack, []
    if batch.kind != KIND_EXACT:
        slacks = list(map(_slack, repeat(batch.kind), batch.predicted, batch.oracle))
        texts = slacks if slack == "%s" else map(slack.__mod__, slacks)  # %s writes an int as every format does
        slack_cell, slack_column = "%s", [map({None: no_slack}.get, slacks, texts)]
    # The verdict is one of the VERDICT_ words, which need no escaping.
    if fmt == "json":
        # "n" sorts before "parity", as its column comes first.
        instance = ",".join(f"{_escaped(_json_str(key))}:{fields[key]}" for key in sorted(fields))
        template = (
            f'{{"claim":{claim},"instance":{{{instance}}},"oracle":%s,"predicted":%s,'
            f'"slack":{slack_cell},"verdict":"%s"}}\n'
        )
        return map(template.__mod__, zip(*columns, oracle, batch.predicted, *slack_column, _verdicts(batch)))
    if fmt == "csv":
        cells = (fields.get(key, "") for key in CSV_COLUMNS[1:-4])
        template = ",".join([claim, *cells, "%s,%s,%s", slack_cell]) + "\r\n"
    else:
        instance = " ".join(f"{_escaped(key)}={value}" for key, value in fields.items())
        template = f"{claim}: {instance} predicted=%s oracle=%s %s{slack_cell}\n"
    return map(template.__mod__, zip(*columns, batch.predicted, oracle, _verdicts(batch), *slack_column))


_params = itemgetter(2)


def _in_order(batches: Iterable[ReportBatch], rows: Callable[[ReportBatch], Iterable]) -> Iterator:
    """`rows(batch)` of every batch, chained row by row into report order: by claim, then instance.

    Claims come in name order.  The blocks of a claim without parameters
    cover consecutive n in work order, so they follow one another; the
    parameter items of a claim share their rows, so they interleave row by
    row, in the order of their parameter tuples.
    """
    by_claim: dict[str, list[ReportBatch]] = {}
    for batch in batches:
        by_claim.setdefault(batch.claim, []).append(batch)
    runs = []
    for claim in sorted(by_claim):
        group = by_claim[claim]
        if not any(batch.params for batch in group):
            runs += map(rows, group)
            continue
        if len({(batch.ns, batch.parities) for batch in group}) != 1:
            raise ValueError(f"the parameter items of {claim} do not share their rows")
        group.sort(key=_params)
        runs.append(chain.from_iterable(zip(*map(rows, group))))
    return chain.from_iterable(runs)


def text_lines(batches: Iterable[ReportBatch], fmt: str) -> Iterator[str]:
    """The `fmt` ("json", "csv" or "human") lines of the reports of `batches`, in the order of HarnessResult.reports."""
    return _in_order(batches, functools.partial(_lines, fmt=fmt))


class HarnessResult:
    """A sweep's report batches, in work order, with the reports checked and violations found per claim."""

    def __init__(self, batches: Iterable[ReportBatch] = ()) -> None:
        self.batches: list[ReportBatch] = []
        self._counts: dict[str, list[int]] = {}  # claim -> [checked, violations]
        self._add(list(batches))

    def _add(self, batches: list[ReportBatch]) -> bool:
        """Fold one work item's batches in; whether they report a violation."""
        self.batches += batches
        found = 0
        for batch in batches:
            violations = _violations(batch)
            counts = self._counts.setdefault(batch.claim, [0, 0])
            counts[0] += len(batch.oracle)
            counts[1] += violations
            found += violations
        return found > 0

    @functools.cached_property
    def reports(self) -> list[TheoremReport]:
        """Every report, sorted by claim and instance; built from the batches on first use."""
        return list(_in_order(self.batches, _reports))

    @property
    def violations(self) -> list[TheoremReport]:
        return [r for r in self.reports if r.verdict == VERDICT_VIOLATION]

    @property
    def ok(self) -> bool:
        return not any(violations for _, violations in self._counts.values())

    def summary(self) -> dict[str, dict[str, int]]:
        """Reports checked and violations found per claim, claims in name order."""
        counts = sorted(self._counts.items())
        return {claim: {"checked": checked, "violations": found} for claim, (checked, found) in counts if checked}


# The remaining work of a sweep must exceed this many seconds, estimated
# from the items run so far, before run_harness forks.  Measured with a
# 56 MB parent on two shared cores: a worker costs about 5 ms to start,
# deliver its first result and reap, and the copy-on-write faults that
# follow a fork make the parent's own items about 1.5 times slower.  With
# one worker, R seconds of remaining work then take about
# 0.005 + 1.5 * R / 2 s instead of R s, so the fork breaks even at
# R = 20 ms; 50 ms leaves room for an estimate taken from a few items and
# for a neighbour busy on the second core.
_FORK_MIN_S = 0.05


def _fork_pays(elapsed: float, done: int, left: int) -> bool:
    """Whether `left` more items, at the mean time of the `done` run so far, outweigh a fork."""
    return elapsed / done * left > _FORK_MIN_S


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim_items(work: list, counter, fail_fast: bool) -> list[tuple[int, list[ReportBatch]]]:
    """Run items taken in index order from the shared counter until none are left."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(work):
            return done
        run, kwargs = work[i]
        batches = run(**kwargs)
        done.append((i, batches))
        if fail_fast and any(map(_violations, batches)):
            _stop_claims(counter, len(work))


def _stop_claims(counter, n_items: int) -> None:
    with counter.get_lock():
        counter.value = n_items


def _worker(work: list, counter, fail_fast: bool, conn) -> None:
    try:
        result = _claim_items(work, counter, fail_fast)
    except Exception as exc:
        _stop_claims(counter, len(work))
        result = exc
    conn.send(result)
    conn.close()


def _start_worker(ctx, work: list, counter, fail_fast: bool):
    """Fork a worker; returns it with the read end of its result pipe."""
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_worker, args=(work, counter, fail_fast, writer))
    proc.start()
    writer.close()
    return proc, reader


def _reap(proc, reader):
    """The worker's result, or None if it exited without sending one."""
    try:
        result = reader.recv()
    except EOFError:
        result = None
    reader.close()
    proc.join()
    return result


def _run_forked(work: list, workers: int, fail_fast: bool) -> list[list[ReportBatch]]:
    """Run `work` in this process and `workers` forked ones; the batches of the items run, in work order.

    Items are claimed in index order, so every item before a claimed one has
    been claimed too and runs to completion: the items run are a prefix of
    `work`, all of it unless fail_fast stopped the claims.  Every worker is
    joined before this returns or raises.
    """
    import multiprocessing  # only a sweep that forks pays for the import

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 0)
    children = []
    try:
        for _ in range(workers):
            children.append(_start_worker(ctx, work, counter, fail_fast))
        done = _claim_items(work, counter, fail_fast)
    except BaseException:
        _stop_claims(counter, len(work))
        for proc, reader in children:
            _reap(proc, reader)
        raise
    error = None
    for proc, reader in children:
        result = _reap(proc, reader)
        if result is None:
            error = error or RuntimeError(
                f"a harness worker exited with code {proc.exitcode} without a result"
            )
        elif isinstance(result, BaseException):
            error = error or result
        else:
            done.extend(result)
    if error is not None:
        raise error
    return [batches for _, batches in sorted(done, key=itemgetter(0))]


def _run_adaptive(work: list, processes: int, fail_fast: bool):
    """Yield the batches of `work` in work order, forking for the rest once it pays.

    Items run in this process, in order, until the time they took predicts
    that the remaining ones outweigh a fork; the remaining ones then go to
    _run_forked with min(processes, items left) - 1 workers.
    """
    start = time.perf_counter()
    for done, (run, kw) in enumerate(work, 1):
        yield run(**kw)
        left = len(work) - done
        workers = min(processes, left) - 1
        if workers >= 1 and _fork_pays(time.perf_counter() - start, done, left):
            yield from _run_forked(work[done:], workers, fail_fast)
            return


def run_work(work: list, jobs: int, fail_fast: bool) -> HarnessResult:
    """The result of the work items `work`: their batches, in work order, and the counts they fold into.

    Items run in this process, in work order, and are timed.  Once the
    remaining ones, at the mean time per item so far, would take clearly
    longer than starting a worker costs (_FORK_MIN_S), min(jobs, items
    left, usable CPUs) - 1 workers are forked for them; this process works
    too.  Short sweeps therefore never fork, and neither does any sweep
    where os.fork is missing.  With fail_fast the batches end with those of
    the first item, in work order, that reports a violation.  Work order
    makes the result the same at any job count.
    """
    processes = min(jobs, _usable_cpus()) if hasattr(os, "fork") else 1
    result = HarnessResult()
    for batches in _run_adaptive(work, processes, fail_fast):
        if result._add(batches) and fail_fast:
            break
    return result
