"""Claim reports, their JSON lines and the fan-out that runs sweep work items.

A work item is a pair (run, kwargs); `run(**kwargs)` returns the list of
TheoremReport instances for one slice of a claim sweep.  `run_work` is the
one entry point of the fan-out: it runs items in this process and forks
workers for the rest once the remaining work outweighs a fork, cuts the
sweep after the first violating item under fail-fast and sorts the
reports.  Workers claim items in index order from a shared counter and
inherit the items' arguments with the fork, so the batches come back in
work order at any job count.
"""

from __future__ import annotations

import functools
import json
import os
import time
from itertools import groupby
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Iterable, Iterator

from .valuation import INFINITE, Valuation

VERDICT_EXACT = "exact"
VERDICT_BOUND = "bound_holds"
VERDICT_VIOLATION = "violation"

KIND_EXACT = "exact"
KIND_LOWER = "lower"  # oracle >= predicted
KIND_UPPER = "upper"  # oracle <= predicted

_new_tuple = tuple.__new__


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
        slack = None
        if kind == KIND_EXACT:
            verdict = VERDICT_EXACT if oracle == predicted else VERDICT_VIOLATION
        elif kind == KIND_LOWER:
            verdict = VERDICT_BOUND if oracle >= predicted else VERDICT_VIOLATION
            if oracle is not INFINITE:
                slack = oracle - predicted
        elif kind == KIND_UPPER:
            verdict = VERDICT_BOUND if oracle <= predicted else VERDICT_VIOLATION
            if oracle is not INFINITE:
                slack = predicted - oracle
        else:
            raise ValueError(f"unknown claim kind {kind!r}")
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


_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def json_lines(reports: Iterable[TheoremReport]) -> Iterator[str]:
    """`report.to_json_line() + "\\n"` for each report, in order.

    Each run of consecutive reports of one claim is filled into one
    printf-style template, column by column.  A run that does not fit one
    falls back to `to_json_line` per report: its instances differ in shape
    or have repeated or non-string keys, or a column holds something other
    than all ints, all strings, or ints mixed with INFINITE and None.
    """
    for claim, run in groupby(reports, _claim):
        run = list(run)
        lines = _template_lines(claim, run)
        yield from (report.to_json_line() + "\n" for report in run) if lines is None else lines


def _template_lines(claim, reports: list[TheoremReport]) -> Iterable[str] | None:
    """The JSON lines of `reports`, all of `claim`, from one template; None if they do not fit one."""
    _, instances, predicted, oracle, _, verdict, slack = zip(*reports)
    if len(set(map(len, instances))) != 1:
        return None
    keys, values = [], []
    for column in zip(*instances):
        column_keys = set(map(_key, column))
        if len(column_keys) != 1:
            return None
        keys += column_keys
        values.append(tuple(map(_value, column)))
    if len(set(keys)) != len(keys) or not all(type(text) is str for text in [claim, *keys]):
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    columns = [_json_column(values[i]) for i in order]
    columns += [_json_column(oracle), _json_column(predicted), _json_column(slack)]
    if None in columns:
        return None
    fields = ",".join(f"{_template_text(keys[i])}:%s" for i in order)
    # The verdict is one of the VERDICT_ words, which need no escaping.
    template = (
        f'{{"claim":{_template_text(claim)},"instance":{{{fields}}},'
        '"oracle":%s,"predicted":%s,"slack":%s,"verdict":"%s"}\n'
    )
    return map(template.__mod__, zip(*columns, verdict))


def _template_text(text: str) -> str:
    """`text` as a JSON string inside a printf-style template."""
    return _json_str(text).replace("%", "%%")


_claim = itemgetter(0)
_key = itemgetter(0)
_value = itemgetter(1)
_verdict = itemgetter(5)

# JSON text of the non-int values a report field takes; %s renders an int
# (but not a bool) exactly as JSON does.
_JSON_CONSTANTS = {INFINITE: '"inf"', None: "null"}
_CONSTANT_TYPES = {int, type(INFINITE), type(None)}


def _json_column(values: tuple) -> Iterable | None:
    """`values` as text or ints that %s renders as their JSON; None if they fit no template column."""
    types = set(map(type, values))
    if types == {int}:
        return values
    if types <= _CONSTANT_TYPES:
        return map(_JSON_CONSTANTS.get, values, values)
    if types == {str}:
        return map(_json_str, values)
    return None


# Within one claim every instance has the same keys and value types, so
# the instance tuples compare field by field.
_report_order = itemgetter(0, 1)
# Workers send reports as plain tuples of their fields: pickling those and
# rebuilding the reports takes about half the time that pickling the
# reports does, which pickle through their Python-level __reduce__.
_report_from_fields = functools.partial(_new_tuple, TheoremReport)


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


def _violates(reports: Iterable[TheoremReport]) -> bool:
    return VERDICT_VIOLATION in map(_verdict, reports)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim_items(work: list, counter, fail_fast: bool) -> list[tuple[int, list[TheoremReport]]]:
    """Run items taken in index order from the shared counter until none are left."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(work):
            return done
        run, kwargs = work[i]
        batch = run(**kwargs)
        done.append((i, batch))
        if fail_fast and _violates(batch):
            _stop_claims(counter, len(work))


def _stop_claims(counter, n_items: int) -> None:
    with counter.get_lock():
        counter.value = n_items


def _worker(work: list, counter, fail_fast: bool, conn) -> None:
    try:
        done = _claim_items(work, counter, fail_fast)
        result = [(i, list(map(tuple, batch))) for i, batch in done]
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


def _run_forked(work: list, workers: int, fail_fast: bool) -> list[list[TheoremReport] | None]:
    """Run `work` in this process and `workers` forked ones; batches in work order.

    Items are claimed in index order, so every item before a claimed one has
    been claimed too and runs to completion.  Every worker is joined before
    this returns or raises.
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
            done.extend((i, list(map(_report_from_fields, batch))) for i, batch in result)
    if error is not None:
        raise error
    batches: list[list[TheoremReport] | None] = [None] * len(work)
    for i, batch in done:
        batches[i] = batch
    return batches


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


def run_work(work: list, jobs: int, fail_fast: bool) -> list[TheoremReport]:
    """The reports of the work items `work`, sorted by claim and instance.

    Items run in this process, in work order, and are timed.  Once the
    remaining ones, at the mean time per item so far, would take clearly
    longer than starting a worker costs (_FORK_MIN_S), min(jobs, items
    left, usable CPUs) - 1 workers are forked for them; this process works
    too.  Short sweeps therefore never fork, and neither does any sweep
    where os.fork is missing.  With fail_fast the reports end with those of
    the first item, in work order, that reports a violation.  The sort
    makes the result the same at any job count.
    """
    processes = min(jobs, _usable_cpus()) if hasattr(os, "fork") else 1
    reports: list[TheoremReport] = []
    for batch in _run_adaptive(work, processes, fail_fast):
        reports += batch
        if fail_fast and _violates(batch):
            break
    reports.sort(key=_report_order)
    return reports
