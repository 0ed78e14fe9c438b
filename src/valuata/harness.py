"""Claim reports and the fan-out that runs sweep work items.

A work item is a pair (run, kwargs); `run(**kwargs)` returns the list of
TheoremReport instances for one slice of a claim sweep.  `_run_adaptive`
runs items in this process and forks workers for the rest once the
remaining work outweighs a fork; workers claim items in index order from a
shared counter, so the batches come back in work order at any job count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from .valuation import INFINITE, Valuation

VERDICT_EXACT = "exact"
VERDICT_BOUND = "bound_holds"
VERDICT_VIOLATION = "violation"

KIND_EXACT = "exact"
KIND_LOWER = "lower"  # oracle >= predicted
KIND_UPPER = "upper"  # oracle <= predicted


@dataclass(frozen=True)
class TheoremReport:
    """One verified claim instance: predicted vs oracle plus the verdict."""

    claim: str
    instance: tuple[tuple[str, object], ...]
    predicted: int
    oracle: Valuation
    kind: str = KIND_EXACT

    @property
    def verdict(self) -> str:
        if self.kind == KIND_EXACT:
            return VERDICT_EXACT if self.oracle == self.predicted else VERDICT_VIOLATION
        if self.kind == KIND_LOWER:
            return VERDICT_BOUND if self.oracle >= self.predicted else VERDICT_VIOLATION
        if self.kind == KIND_UPPER:
            return VERDICT_BOUND if self.oracle <= self.predicted else VERDICT_VIOLATION
        raise ValueError(f"unknown claim kind {self.kind!r}")

    @property
    def slack(self) -> int | None:
        """Unused room in a bound claim (None for exact claims and infinite oracles)."""
        if self.kind == KIND_EXACT or self.oracle is INFINITE:
            return None
        if self.kind == KIND_LOWER:
            return self.oracle - self.predicted
        return self.predicted - self.oracle

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
        """The bytes of json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))."""
        instance = dict(self.instance)
        fields = ",".join(f"{_json_str(k)}:{_json_scalar(instance[k])}" for k in sorted(instance))
        oracle = '"inf"' if self.oracle is INFINITE else _json_scalar(self.oracle)
        slack = self.slack
        return (
            f'{{"claim":{_json_str(self.claim)},"instance":{{{fields}}},"oracle":{oracle},'
            f'"predicted":{_json_scalar(self.predicted)},'
            f'"slack":{"null" if slack is None else _json_scalar(slack)},'
            f'"verdict":{_json_str(self.verdict)}}}'
        )


def _json_scalar(value) -> str:
    if type(value) is int:
        return str(value)
    if type(value) is str:
        return _json_str(value)
    return json.dumps(value)


# Within one claim every instance has the same keys and value types, so
# the instance tuples compare field by field.
_report_order = attrgetter("claim", "instance")
# Workers send reports as their constructor arguments: pickling and
# rebuilding these tuples takes under half the time that pickling the
# dataclass instances does.
_report_args = attrgetter("claim", "instance", "predicted", "oracle", "kind")


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


def _violates(batch: list[TheoremReport]) -> bool:
    return any(r.verdict == VERDICT_VIOLATION for r in batch)


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
        result = [(i, list(map(_report_args, batch))) for i, batch in done]
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
            done.extend((i, [TheoremReport(*args) for args in batch]) for i, batch in result)
    if error is not None:
        raise error
    batches: list[list[TheoremReport] | None] = [None] * len(work)
    for i, batch in done:
        batches[i] = batch
    return batches


def _run_adaptive(work: list, jobs: int, cpus: int, fail_fast: bool):
    """Yield the batches of `work` in work order, forking for the rest once it pays.

    Items run in this process, in order, until the time they took predicts
    that the remaining ones outweigh a fork; the remaining ones then go to
    _run_forked with min(jobs, items left, cpus) - 1 workers.
    """
    start = time.perf_counter()
    for done, (run, kw) in enumerate(work, 1):
        yield run(**kw)
        left = len(work) - done
        workers = min(jobs, left, cpus) - 1
        if workers >= 1 and _fork_pays(time.perf_counter() - start, done, left):
            yield from _run_forked(work[done:], workers, fail_fast)
            return
