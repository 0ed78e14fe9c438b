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
from itertools import chain, cycle, islice, repeat
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


def _violations(batch: ReportBatch) -> int:
    """The number of violating rows of `batch`, once its columns are checked to cover its rows."""
    rows = len(batch.ns) * (len(batch.parities) or 1)
    if len(batch.predicted) != rows or len(batch.oracle) != rows:
        raise ValueError(f"a {batch.claim} batch of {rows} rows has columns of other lengths")
    return operator.countOf(map(_check(batch.kind)[0], batch.oracle, batch.predicted), False)


def _reports(batch: ReportBatch) -> list[TheoremReport]:
    ns, parities = batch.ns, batch.parities
    if parities:
        keys, columns = ("n", "parity"), [chain.from_iterable(zip(*(ns,) * len(parities))), cycle(parities)]
    else:
        keys, columns = ("n",), [ns]
    instances = map(operator.add, zip(*map(zip, map(repeat, keys), columns)), repeat(batch.params))  # pairs + params
    return list(map(TheoremReport, repeat(batch.claim), instances, batch.predicted, batch.oracle, repeat(batch.kind)))


def _group_reports(group: list[ReportBatch]) -> Iterator[TheoremReport]:
    """The reports of `group`, its batches interleaved row by row."""
    return chain.from_iterable(zip(*map(_reports, group)))


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

_CHUNK_ROWS = 16  # about this many rows of output per format call


def _row_parts(batch: ReportBatch, fmt: str) -> tuple[list[str], list[list[Iterator]]]:
    """The `fmt` template of a row of `batch` at each of its parities, and the cell columns of those rows.

    Every per-batch constant is written into the template: the claim, the
    parameters and the parity, the verdict when no row violates the claim,
    the slack of an exact claim, and a bound claim's slack text when no
    oracle is infinite.  The cell columns of a parity, in template order,
    iterate over its rows, one per n.
    """
    text, inf, slack_text, no_slack = _FORMATS[fmt]
    kind, predicted, oracle = batch.kind, batch.predicted, batch.oracle
    compare, holds = _check(kind)
    step = len(batch.parities) or 1
    violations = _violations(batch)
    finite = {INFINITE}.isdisjoint(oracle)
    claim = _escaped(text(batch.claim))
    params = [(key, _escaped(text(value))) for key, value in batch.params]
    # The verdict is one of the VERDICT_ words, which need no escaping.
    verdict = "%s" if violations else holds
    slack = no_slack if kind == KIND_EXACT else slack_text if finite else "%s"

    def slack_cell(predicted_value: int, oracle_value: Valuation) -> object:
        slack = _slack(kind, predicted_value, oracle_value)
        return no_slack if slack is None else slack if slack_text == "%s" else slack_text % slack

    templates, columns = [], []
    for q, parity in enumerate(batch.parities or (None,)):
        fields = {"n": "%s"} if parity is None else {"n": "%s", "parity": _escaped(text(parity))}
        fields.update(params)
        if fmt == "json":
            # "n" sorts before "parity", as its column comes first.
            instance = ",".join(f"{_escaped(_json_str(key))}:{fields[key]}" for key in sorted(fields))
            templates.append(
                f'{{"claim":{claim},"instance":{{{instance}}},"oracle":%s,"predicted":%s,'
                f'"slack":{slack},"verdict":"{verdict}"}}\n'
            )
        elif fmt == "csv":
            instance = (fields.get(key, "") for key in CSV_COLUMNS[1:-4])
            templates.append(",".join([claim, *instance, f"%s,%s,{verdict}", slack]) + "\r\n")
        else:
            instance = " ".join(f"{_escaped(key)}={value}" for key, value in fields.items())
            templates.append(f"{claim}: {instance} predicted=%s oracle=%s {verdict}{slack}\n")

        def rows(column: list, q: int = q) -> Iterator:
            return islice(column, q, None, step)

        oracles = rows(oracle) if finite else map({INFINITE: inf}.get, rows(oracle), rows(oracle))
        cells = [iter(batch.ns), *((oracles, rows(predicted)) if fmt == "json" else (rows(predicted), oracles))]
        if violations:
            cells.append(map((VERDICT_VIOLATION, holds).__getitem__, map(compare, rows(oracle), rows(predicted))))
        if kind != KIND_EXACT:
            if not finite:
                slacks = map(slack_cell, rows(predicted), rows(oracle))
            elif kind == KIND_LOWER:
                slacks = map(operator.sub, rows(oracle), rows(predicted))
            else:
                slacks = map(operator.sub, rows(predicted), rows(oracle))
            cells.insert(3 if fmt == "json" else len(cells), slacks)
        columns.append(cells)
    return templates, columns


def _chunks(group: list[ReportBatch], fmt: str) -> Iterator[str]:
    """The `fmt` text of the rows of `group`, batches whose rows interleave row by row, in chunks of whole n.

    A chunk holds about _CHUNK_ROWS rows, and at least one n of every
    batch, and is written by one format call: its template repeats the
    rows of one n, and its cells come off the cell columns of the group,
    zipped into one flat stream in template order.
    """
    parts = [_row_parts(batch, fmt) for batch in group]
    ns, step = group[0].ns, len(group[0].parities) or 1
    unit = "".join(templates[q] for q in range(step) for templates, _ in parts)
    columns = [column for q in range(step) for _, cells in parts for column in cells[q]]
    flat = chain.from_iterable(zip(*columns))
    per_chunk = max(1, _CHUNK_ROWS // (step * len(group)))
    full = unit * per_chunk
    for lo in range(0, len(ns), per_chunk):
        count = min(per_chunk, len(ns) - lo)
        yield (full if count == per_chunk else unit * count) % tuple(islice(flat, count * len(columns)))


_params = itemgetter(2)


def _in_order(batches: Iterable[ReportBatch], emit: Callable[[list[ReportBatch]], Iterable]) -> Iterator:
    """`emit(group)` of every group of batches, chained into report order: by claim, then instance.

    Claims come in name order.  The blocks of a claim without parameters
    cover consecutive n in work order, so each is a group of its own and
    they follow one another; the parameter items of a claim share their
    rows, so they form one group, in the order of their parameter tuples,
    whose rows `emit` interleaves row by row.
    """
    by_claim: dict[str, list[ReportBatch]] = {}
    for batch in batches:
        by_claim.setdefault(batch.claim, []).append(batch)
    runs = []
    for claim in sorted(by_claim):
        group = by_claim[claim]
        if not any(batch.params for batch in group):
            runs += (emit([batch]) for batch in group)
            continue
        if len({(batch.ns, batch.parities) for batch in group}) != 1:
            raise ValueError(f"the parameter items of {claim} do not share their rows")
        group.sort(key=_params)
        runs.append(emit(group))
    return chain.from_iterable(runs)


def text_lines(batches: Iterable[ReportBatch], fmt: str) -> Iterator[str]:
    """The `fmt` ("json", "csv" or "human") text of the reports of `batches`, in the order of HarnessResult.reports.

    The text comes in chunks of whole lines, about _CHUNK_ROWS lines each.
    """
    return _in_order(batches, functools.partial(_chunks, fmt=fmt))


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
        return list(_in_order(self.batches, _group_reports))

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
